"""febrl-style record corruption.

Duplicates are "randomly generated based on real-world error
characteristics ... no more than 2 modifications/attribute, and up to 4
modifications/record" (paper §9.1).  The :class:`Corruptor` re-implements
those knobs with the classic error channels: keyboard typos
(insert/delete/substitute/transpose), token abbreviation ("john" → "j."),
token drop, token swap, value removal and OCR-style confusions.

:meth:`Corruptor.unicode_variant` adds the *encoding-level* channel dirty
non-ASCII data shows (the Modern-Greek spelling variants of PAPERS.md):
the same text to a reader under different code points.
"""

from __future__ import annotations

import random
import unicodedata
from typing import Any, Callable, Dict, List, Optional, Sequence

_KEYBOARD_NEIGHBOURS = {
    "a": "qs", "b": "vn", "c": "xv", "d": "sf", "e": "wr", "f": "dg",
    "g": "fh", "h": "gj", "i": "uo", "j": "hk", "k": "jl", "l": "k",
    "m": "n", "n": "bm", "o": "ip", "p": "o", "q": "wa", "r": "et",
    "s": "ad", "t": "ry", "u": "yi", "v": "cb", "w": "qe", "x": "zc",
    "y": "tu", "z": "x",
}

_OCR_CONFUSIONS = {"0": "o", "1": "l", "5": "s", "8": "b", "o": "0", "l": "1", "s": "5", "b": "8"}


class Corruptor:
    """Applies bounded random modifications to attribute values.

    Parameters
    ----------
    rng:
        The random source (callers own seeding for determinism).
    max_mods_per_attribute:
        Upper bound on modifications applied to one attribute value.
    max_mods_per_record:
        Upper bound on total modifications across a record.
    missing_rate:
        Probability that a "modification" blanks the value entirely
        (missing data is a first-class febrl error channel).
    """

    def __init__(
        self,
        rng: random.Random,
        max_mods_per_attribute: int = 2,
        max_mods_per_record: int = 4,
        missing_rate: float = 0.15,
    ):
        if max_mods_per_attribute < 1:
            raise ValueError("max_mods_per_attribute must be >= 1")
        if max_mods_per_record < 1:
            raise ValueError("max_mods_per_record must be >= 1")
        self.rng = rng
        self.max_mods_per_attribute = max_mods_per_attribute
        self.max_mods_per_record = max_mods_per_record
        self.missing_rate = missing_rate
        self._value_mutations: List[Callable[[str], str]] = [
            self._typo_insert,
            self._typo_delete,
            self._typo_substitute,
            self._typo_transpose,
            self._abbreviate_token,
            self._drop_token,
            self._swap_tokens,
            self._ocr_confuse,
        ]
        self._unicode_mutations: List[Callable[[str], str]] = [
            self._decompose,
            self._strip_accents,
            self._fold_final_sigma,
            str.upper,
        ]

    # -- public API ------------------------------------------------------
    def corrupt_record(
        self,
        record: Dict[str, Any],
        protected: Sequence[str] = (),
    ) -> Dict[str, Any]:
        """Return a corrupted copy of *record*.

        ``protected`` attributes (the id, the join key, the workload's
        selectivity attribute) are never touched so duplicates stay in
        the same query stratum.
        """
        out = dict(record)
        protected_set = {p.lower() for p in protected}
        candidates = [
            name
            for name, value in record.items()
            if name.lower() not in protected_set and value is not None and str(value) != ""
        ]
        if not candidates:
            return out
        budget = self.rng.randint(1, self.max_mods_per_record)
        per_attribute: Dict[str, int] = {}
        attempts = 0
        while budget > 0 and attempts < 50:
            attempts += 1
            name = self.rng.choice(candidates)
            if per_attribute.get(name, 0) >= self.max_mods_per_attribute:
                continue
            if out[name] is None:
                continue
            out[name] = self.corrupt_value(str(out[name]))
            per_attribute[name] = per_attribute.get(name, 0) + 1
            budget -= 1
        return out

    def corrupt_value(self, value: str) -> Optional[str]:
        """Apply one random modification to *value* (None = now missing)."""
        if self.rng.random() < self.missing_rate:
            return None
        mutation = self.rng.choice(self._value_mutations)
        mutated = mutation(value)
        return mutated if mutated else value

    def unicode_variant(self, value: str) -> str:
        """One random encoding-level variant of *value*.

        NFD decomposition (accents become combining marks), accent
        stripping, Greek final-sigma folding (``ς`` → ``σ``) or
        upper-casing.  Deliberately not among :meth:`corrupt_value`'s
        channels: the seeded datasets are defined by those draws, so
        suites that want spelling variants call this directly.
        """
        return self.rng.choice(self._unicode_mutations)(value)

    # -- mutations -----------------------------------------------------------
    def _typo_insert(self, value: str) -> str:
        position = self.rng.randint(0, len(value))
        letter = self.rng.choice("abcdefghijklmnopqrstuvwxyz")
        return value[:position] + letter + value[position:]

    def _typo_delete(self, value: str) -> str:
        if len(value) <= 1:
            return value
        position = self.rng.randrange(len(value))
        return value[:position] + value[position + 1 :]

    def _typo_substitute(self, value: str) -> str:
        if not value:
            return value
        position = self.rng.randrange(len(value))
        current = value[position].lower()
        neighbours = _KEYBOARD_NEIGHBOURS.get(current)
        replacement = self.rng.choice(neighbours) if neighbours else self.rng.choice("aeiou")
        return value[:position] + replacement + value[position + 1 :]

    def _typo_transpose(self, value: str) -> str:
        if len(value) < 2:
            return value
        position = self.rng.randrange(len(value) - 1)
        return (
            value[:position]
            + value[position + 1]
            + value[position]
            + value[position + 2 :]
        )

    def _abbreviate_token(self, value: str) -> str:
        tokens = value.split()
        if not tokens:
            return value
        position = self.rng.randrange(len(tokens))
        token = tokens[position]
        if len(token) > 2:
            tokens[position] = token[0] + "."
        return " ".join(tokens)

    def _drop_token(self, value: str) -> str:
        tokens = value.split()
        if len(tokens) < 2:
            return value
        tokens.pop(self.rng.randrange(len(tokens)))
        return " ".join(tokens)

    def _swap_tokens(self, value: str) -> str:
        tokens = value.split()
        if len(tokens) < 2:
            return value
        position = self.rng.randrange(len(tokens) - 1)
        tokens[position], tokens[position + 1] = tokens[position + 1], tokens[position]
        return " ".join(tokens)

    def _ocr_confuse(self, value: str) -> str:
        positions = [i for i, ch in enumerate(value) if ch in _OCR_CONFUSIONS]
        if not positions:
            return self._typo_substitute(value)
        position = self.rng.choice(positions)
        return value[:position] + _OCR_CONFUSIONS[value[position]] + value[position + 1 :]

    @staticmethod
    def _decompose(value: str) -> str:
        return unicodedata.normalize("NFD", value)

    @staticmethod
    def _strip_accents(value: str) -> str:
        decomposed = unicodedata.normalize("NFD", value)
        return "".join(ch for ch in decomposed if not unicodedata.combining(ch))

    @staticmethod
    def _fold_final_sigma(value: str) -> str:
        return value.replace("ς", "σ")
