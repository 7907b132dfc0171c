"""Typed NumPy arrays of a table's columns, for vectorized WHERE.

A :class:`ColumnArray` is derived from one column's values the first
time a predicate reads it (:meth:`repro.storage.table.Table.column_array`).
The table extends it with the rows appended since on the next read and
truncates it on rollback, so the insert path never builds one.

The kind is read off the values, not the declared column type (a table
built with ``coerce=False`` may hold anything):

* ``int`` — every non-NULL value is a Python ``int`` within ±(2**63 − 1);
* ``bool`` — every non-NULL value is a ``bool`` (stored as int64 0/1:
  bools compare, add and ``MOD`` like those ints);
* ``float`` — every non-NULL value is a ``float``;
* ``str`` — every non-NULL value is a ``str``: dictionary codes into
  ``uniques`` (``-1`` for NULL);
* ``object`` — anything else (ints past int64, mixed types): no values
  array, only the NULL mask.

An all-NULL column is ``int``.  NULL slots of ``values`` hold 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Largest magnitude an ``int`` column holds; -2**63 is excluded so that
#: ``abs`` and the sum/product bounds of the mask evaluator never wrap.
INT64_BOUND = 2**63 - 1

_NUMERIC = {"int": np.int64, "bool": np.int64, "float": np.float64}


def _kind_of(values: Sequence[Any]) -> Optional[str]:
    """The kind of *values* (None when all of them are NULL)."""
    types = {type(v) for v in values}
    types.discard(type(None))
    if not types:
        return None
    if len(types) > 1:
        return "object"
    kind = next(iter(types))
    if kind is int:
        fits = all(v is None or -INT64_BOUND <= v <= INT64_BOUND for v in values)
        return "int" if fits else "object"
    return {bool: "bool", float: "float", str: "str"}.get(kind, "object")


class ColumnArray:
    """One column of a table as typed arrays (see the module docstring)."""

    def __init__(self, values: Sequence[Any]):
        self.kind = _kind_of(values) or "int"
        self.length = 0
        self.null = np.zeros(0, dtype=bool)
        #: int64 / float64 values of numeric kinds, None otherwise.
        self.values: Optional[np.ndarray] = None
        #: Largest |value| of an ``int``/``bool`` column.
        self.bound = 0
        #: ``str`` kind: per row, the position of its value in ``uniques``.
        self.codes: Optional[np.ndarray] = None
        self.uniques: List[str] = []
        self._code_of: Dict[str, int] = {}
        self._parsed = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool))
        self._parse_overflow = False
        if self.kind in _NUMERIC:
            self.values = np.zeros(0, dtype=_NUMERIC[self.kind])
        elif self.kind == "str":
            self.codes = np.zeros(0, dtype=np.int64)
        self._append(values)

    def extend(self, values: Sequence[Any]) -> bool:
        """Append the values of newly appended rows; False (nothing
        changed) when they do not fit this column's kind."""
        kind = _kind_of(values)
        if kind is not None and kind != self.kind:
            return False
        self._append(values)
        return True

    def truncate(self, length: int) -> None:
        """Keep the first *length* rows (a rolled-back append).  The
        kind, ``bound`` and ``uniques`` stay: they still cover the rows."""
        if length >= self.length:
            return
        self.length = length
        self.null = self.null[:length]
        if self.values is not None:
            self.values = self.values[:length]
        if self.codes is not None:
            self.codes = self.codes[:length]

    def _append(self, values: Sequence[Any]) -> None:
        count = len(values)
        null = np.fromiter((v is None for v in values), dtype=bool, count=count)
        self.null = np.concatenate([self.null, null])
        self.length += count
        if self.values is not None:
            fill = 0.0 if self.kind == "float" else 0
            typed = np.fromiter(
                (fill if v is None else v for v in values), dtype=self.values.dtype, count=count
            )
            self.values = np.concatenate([self.values, typed])
            if self.kind != "float" and count:
                self.bound = max(self.bound, int(np.abs(typed).max()))
        elif self.codes is not None:
            code_of, uniques = self._code_of, self.uniques

            def code(value: Optional[str]) -> int:
                if value is None:
                    return -1
                found = code_of.get(value)
                if found is None:
                    found = code_of[value] = len(uniques)
                    uniques.append(value)
                return found

            codes = np.fromiter((code(v) for v in values), dtype=np.int64, count=count)
            self.codes = np.concatenate([self.codes, codes])

    def parsed_ints(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``str`` kind: per unique value, ``int(value)`` as int64 and
        whether it parsed, each with one trailing slot (0, False) that
        NULL's code -1 selects.  None when some value parses past int64.

        Parsed once per distinct value and kept; values added by later
        appends are parsed on the next call.
        """
        done = len(self._parsed[0]) - 1
        if done < len(self.uniques):
            parsed: List[int] = []
            valid: List[bool] = []
            for value in self.uniques[done:]:
                try:
                    number = int(value)
                except ValueError:
                    number, ok = 0, False
                else:
                    ok = True
                    if abs(number) > INT64_BOUND:
                        self._parse_overflow = True
                        number = 0
                parsed.append(number)
                valid.append(ok)
            old_values, old_valid = self._parsed
            self._parsed = (
                np.concatenate([old_values[:-1], np.array(parsed, dtype=np.int64), [0]]),
                np.concatenate([old_valid[:-1], np.array(valid, dtype=bool), [False]]),
            )
        if self._parse_overflow:
            return None
        return self._parsed
