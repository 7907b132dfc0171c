"""Seeded inputs of the four workloads: tables, statements, insert batches.

Everything a run feeds the engine is generated here with
``repro.datagen``; the same seeds give byte-identical inputs, and their
sha256 (``Inputs.digest``) is reported so input drift between two
commits is visible.  The engine never sees a seed, only the inputs.

The *tables and statements* are the same on every run (:data:`DATA_SEED`):
what a query costs on this engine is a property of the generated data,
not of the code — organisation names collide into one giant false
cluster or none depending on the draw, and the same ``spj_session``
costs 0.08 s under one table seed and 5.5 s under another — so per-seed
tables would bury any regression under a 10x run-to-run spread.
``--seed`` drives what may vary without changing the work per query:
the insert batches (which rows get dirty duplicates, and how they are
corrupted) and, for ``serve_mix``, each client's statement draws.

Sizes are what the 92-run driver budget (3420 s) affords on two cores;
``README.md`` states where they are smaller than the issue asked for.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.datagen import (
    Corruptor,
    field_in_clause,
    generate_oagp,
    generate_oagv,
    generate_organizations,
    generate_people,
    state_in_clause,
)
from repro.storage.table import Table

WORKLOADS = ("sp_cold", "point_lookup", "spj_session", "serve_mix")

#: Seed of tables and statements (see the module docstring).
DATA_SEED = 4

#: Q1–Q5 target selectivities (paper §9.1: ≈5 % to ≈80 %).
SELECTIVITIES = (0.05, 0.20, 0.35, 0.50, 0.80)

#: Rows per ``INSERT`` batch: dirty duplicates of existing rows.
BATCH_ROWS = 10

#: normal / ``--smoke`` sizes.  ``lookups`` = distinct point statements,
#: ``batches`` = insert batches generated (library workloads apply all
#: of them; ``serve_mix`` consumes as many as fit in the window).
SIZES: Dict[str, Dict[bool, Dict[str, int]]] = {
    "sp_cold": {False: {"oagp": 1000, "oagv": 130, "batches": 20},
                True: {"oagp": 120, "oagv": 30, "batches": 3}},
    "point_lookup": {False: {"ppl": 6000, "lookups": 8, "batches": 20},
                     True: {"ppl": 250, "lookups": 2, "batches": 3}},
    "spj_session": {False: {"ppl": 300, "oao": 180, "batches": 60},
                    True: {"ppl": 80, "oao": 40, "batches": 3}},
    "serve_mix": {False: {"ppl": 1000, "batches": 64},
                  True: {"ppl": 150, "batches": 6}},
}

#: Entities per point lookup (``MOD(id, rows / 25) = k``).
LOOKUP_ENTITIES = 25

#: DEDUP statements of ``serve_mix``: ``MOD(id, STRATA) = k``.
STRATA = 8

PPL_COLUMNS = "id, given_name, surname, state"


@dataclass(frozen=True)
class Statement:
    """One workload statement plus what the layer replay needs.

    ``frontiers`` lists, per referenced table, the table's own predicate
    (``None`` = every row): the evaluated entity set the Deduplicate
    operator starts from, ignoring join reduction.
    """

    sql: str
    frontiers: Tuple[Tuple[str, Optional[str]], ...]
    dedup: bool = True


@dataclass
class Inputs:
    workload: str
    seed: int
    tables: List[Table]
    #: Table the insert batches go to.
    target: str
    statements: List[Statement]
    batches: List[List[tuple]]
    #: True duplicate pairs per table (lower-cased name), each pair
    #: sorted by ``repr``; inserted rows are not in them.
    truth: Dict[str, Set[Tuple[Any, Any]]]
    #: (table, predicate) whose DEDUP the link-quality check evaluates.
    quality: Tuple[Tuple[str, Optional[str]], ...]
    digest: str = ""

    def table(self, name: str) -> Table:
        return next(t for t in self.tables if t.name.lower() == name.lower())


@dataclass(frozen=True)
class Spec:
    """What one run was asked for."""

    workload: str
    seed: int
    seconds: float
    smoke: bool = False

    def inputs(self) -> Inputs:
        return make_inputs(self.workload, self.seed, self.smoke)


def _sub_seed(workload: str, seed: int, part: str) -> int:
    """An independent stream per (workload, seed, part)."""
    return random.Random(f"{workload}:{seed}:{part}").getrandbits(31)


def _true_pairs(truth: Any, id_type: type) -> Set[Tuple[Any, Any]]:
    return {tuple(sorted((id_type(a), id_type(b)), key=repr)) for a, b in truth.pairs()}


def _insert_batches(
    table: Table, protected: Sequence[str], count: int, seed: int, id_type: type
) -> List[List[tuple]]:
    """*count* batches of dirty duplicates of seeded existing rows."""
    rng = random.Random(seed)
    corruptor = Corruptor(rng)
    names = table.schema.names
    id_column = table.schema.id_column
    rows = [row.values for row in table]
    next_id = len(rows) + 1
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(BATCH_ROWS):
            source = dict(zip(names, rng.choice(rows)))
            dirty = corruptor.corrupt_record(source, protected=protected)
            dirty[id_column] = id_type(next_id)
            next_id += 1
            batch.append(tuple(dirty.get(name) for name in names))
        batches.append(batch)
    return batches


def _digest(tables: Sequence[Table], statements: Sequence[Statement], batches: Any) -> str:
    sha = hashlib.sha256()
    for table in tables:
        sha.update(repr((table.name, table.schema.names)).encode())
        for row in table:
            sha.update(repr(row.values).encode())
    sha.update(repr([s.sql for s in statements]).encode())
    sha.update(repr(batches).encode())
    return sha.hexdigest()


def make_inputs(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """Generate *workload*'s inputs (fresh, unshared tables)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    size = SIZES[workload][smoke]
    sub = lambda part: _sub_seed(workload, DATA_SEED, part)  # noqa: E731
    quality: Tuple[Tuple[str, Optional[str]], ...]

    if workload == "sp_cold":
        oagv, _ = generate_oagv(size["oagv"], seed=sub("oagv"))
        oagp, truth = generate_oagp(
            size["oagp"],
            venue_titles=[row["title"] for row in oagv],
            join_fraction=0.15,
            seed=sub("oagp"),
        )
        tables, truths, target = [oagp], {"oagp": truth}, "OAGP"
        protected = ("id", "venue", "field")
        statements = [
            Statement(
                f"SELECT DEDUP id, title, venue, field FROM OAGP WHERE {field_in_clause(s)}",
                (("OAGP", field_in_clause(s)),),
            )
            for s in SELECTIVITIES
        ]
        quality = (("OAGP", None),)

    elif workload == "point_lookup":
        ppl, truth = generate_people(size["ppl"], seed=sub("ppl"))
        tables, truths, target = [ppl], {"ppl": truth}, "PPL"
        protected = ("id", "state", "organisation")
        modulus = max(2, size["ppl"] // LOOKUP_ENTITIES)
        residues = random.Random(sub("lookups")).sample(range(modulus), size["lookups"])
        statements = [
            Statement(
                f"SELECT DEDUP {PPL_COLUMNS} FROM PPL WHERE MOD(id, {modulus}) = {k}",
                (("PPL", f"MOD(id, {modulus}) = {k}"),),
            )
            for k in residues
        ]
        # A 5 % sample: a whole-table DEDUP of the big table would cost
        # more than the measured phase.
        quality = (("PPL", "MOD(id, 20) = 0"),)

    elif workload == "spj_session":
        oao, oao_truth = generate_organizations(size["oao"], seed=sub("oao"))
        names = [row["name"] for row in oao]
        # Half the employers are outside OAO: the join percentage sits
        # well below 100 %, the regime where dirty-side reduction matters.
        unlisted = [f"unlisted employer {i}" for i in range(len(names))]
        ppl, ppl_truth = generate_people(
            size["ppl"], organisations=names + unlisted, seed=sub("ppl")
        )
        tables, truths, target = [ppl, oao], {"ppl": ppl_truth, "oao": oao_truth}, "PPL"
        protected = ("id", "state", "organisation")
        statements = [
            Statement(
                "SELECT DEDUP PPL.id, PPL.surname, OAO.name, OAO.country FROM PPL "
                f"JOIN OAO ON PPL.organisation = OAO.name WHERE PPL.{state_in_clause(s)}",
                (("PPL", state_in_clause(s)), ("OAO", None)),
            )
            for s in SELECTIVITIES
        ]
        # PPL only: at any size that fits, >85 % of the links the matcher
        # finds in OAO are false (organisation names share a tiny
        # vocabulary), so an OAO term would measure collision luck.
        quality = (("PPL", None),)

    else:  # serve_mix
        ppl, truth = generate_people(size["ppl"], seed=sub("ppl"))
        tables, truths, target = [ppl], {"ppl": truth}, "PPL"
        protected = ("id", "state", "organisation")
        # Eight equal, disjoint strata: after an insert every stratum's
        # first read re-resolves its own eighth of the table, so misses
        # cost about the same whichever client draws which statement
        # first.  (Nested predicates make the first miss pay for all the
        # others and the median miss a coin toss between the two kinds.)
        statements = [
            Statement(
                f"SELECT DEDUP {PPL_COLUMNS} FROM PPL WHERE MOD(id, {STRATA}) = {k}",
                (("PPL", f"MOD(id, {STRATA}) = {k}"),),
            )
            for k in range(STRATA)
        ]
        statements += [
            Statement("SELECT id, surname, state FROM PPL WHERE state = 'nsw'",
                      (("PPL", "state = 'nsw'"),), dedup=False),
            Statement("SELECT state, COUNT(*) FROM PPL GROUP BY state",
                      (("PPL", None),), dedup=False),
        ]
        quality = (("PPL", None),)

    # The served table comes from a CSV, whose columns are all strings.
    id_type = str if workload == "serve_mix" else int
    truth_pairs = {name: _true_pairs(truth, id_type) for name, truth in truths.items()}
    target_table = next(t for t in tables if t.name == target)
    batches = _insert_batches(
        target_table, protected, size["batches"], _sub_seed(workload, seed, "batches"), id_type
    )
    inputs = Inputs(workload, seed, tables, target, statements, batches, truth_pairs, quality)
    inputs.digest = _digest(tables, statements, batches)
    return inputs
