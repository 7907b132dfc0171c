"""Token ids are a function of the table's rows alone.

Token ids fix Edge Pruning's summation order (ascending token-id block
order) and the snapshot persists them, so they must not depend on
anything but the rows: not on the interpreter's hash seed (``set``
iteration order), and not on whether a query ran before an insert.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.core.engine import QueryEREngine
from repro.datagen import generate_people

SQL = "SELECT DEDUP id, given_name, surname FROM PPL WHERE state = 'nsw'"

#: One row whose attributes introduce five tokens the table has never seen.
NEW_ROW = (
    100_000, "zqxalpha", "zqxbeta", "12", "zqxgamma lane", "zqxdelta",
    "2000", "nsw", "1970-01-01", "55", "02 0000 0000", "zqxeps@example.org", None,
)

HISTORY = """
import json
from repro.core.engine import QueryEREngine
from repro.datagen import generate_people

engine = QueryEREngine()
engine.register(generate_people(80, seed=4)[0])
engine.execute({sql!r})
engine.insert("PPL", [{row!r}])
index = engine.index_of("PPL")
arrays = index.to_arrays()
print(json.dumps([
    index.vocabulary.tokens(),
    [int(i) for i in arrays["itbi_indptr"]],
    [int(t) for t in arrays["itbi_tokens"]],
]))
"""


def token_state(engine):
    index = engine.index_of("PPL")
    arrays = index.to_arrays()
    return (
        index.vocabulary.tokens(),
        [int(i) for i in arrays["itbi_indptr"]],
        [int(t) for t in arrays["itbi_tokens"]],
    )


def test_token_ids_do_not_depend_on_the_hash_seed():
    """register → query → insert under three hash seeds: identical ids."""
    script = HISTORY.format(sql=SQL, row=NEW_ROW)
    source = str(Path(repro.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (source, env.get("PYTHONPATH")) if part
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1] == outputs[2]
    assert {"zqxalpha", "zqxbeta", "zqxgamma", "zqxdelta", "zqxeps"} <= set(outputs[0][0])


def test_token_ids_do_not_depend_on_query_history():
    """register → insert → query ≡ register → query → insert, id for id."""
    table, _ = generate_people(80, seed=4)
    rows = [tuple(row.values) for row in table]
    engines = []
    for query_first in (False, True):
        engine = QueryEREngine()
        engine.register(type(table)("PPL", table.schema, rows, coerce=False))
        if query_first:
            engine.execute(SQL)
        engine.insert("PPL", [NEW_ROW])
        engines.append(engine)
    assert token_state(engines[0]) == token_state(engines[1])
    answers = [engine.execute(SQL) for engine in engines]
    assert answers[0].sorted_rows() == answers[1].sorted_rows()
