"""EXPLAIN walkthrough: the §7.2.1 clean-first plan and its estimates.

Builds three dirty tables (people, organisations, projects) and shows:

1. the planner's choice for a two-way DEDUP join: it estimates the
   comparisons needed to clean each side of the join and cleans the
   cheaper side first, so the other side enters the join dirty and is
   reduced by the clean side's join values before it is deduplicated;
2. EXPLAIN of a three-way join, where every later table enters dirty;
3. EXPLAIN ANALYZE's estimated-vs-actual report;
4. the plan cache: a re-issued statement reuses its plan, and an
   ``INSERT INTO`` retires every cached plan.

Run:  python examples/explain_plans.py
"""

from repro import QueryEREngine
from repro.datagen import generate_organizations, generate_people, generate_projects

TWO_WAY = (
    "SELECT DEDUP P.given_name, O.name "
    "FROM PPL P JOIN OAO O ON P.organisation = O.name "
    "WHERE P.state IN ('nt', 'act')"
)
THREE_WAY = (
    "SELECT DEDUP P.surname, O.name, J.title "
    "FROM OAP J "
    "JOIN OAO O ON J.organisation = O.name "
    "JOIN PPL P ON P.organisation = O.name "
    "WHERE J.programme = 'fp7'"
)


def build() -> QueryEREngine:
    organisations, _ = generate_organizations(100, seed=31)
    names = [row["name"] for row in organisations]
    unknown = [f"unlisted employer {i}" for i in range(100)]
    people, _ = generate_people(400, organisations=names[:50] + unknown, seed=32)
    projects, _ = generate_projects(200, organisations=names, join_fraction=0.7, seed=33)
    engine = QueryEREngine()
    for table in (people, organisations, projects):
        engine.register(table)
    return engine


def main() -> None:
    engine = build()

    print("1. Which side of the join is cleaned first:\n   ", TWO_WAY, "\n")
    plan = engine.plan_for(TWO_WAY)
    for binding, estimate in plan.estimates.items():
        print(f"    estimated comparisons to clean {binding}: {estimate}")
    assert plan.clean_first == min(plan.estimates, key=plan.estimates.get)
    print(f"    -> clean {plan.clean_first} first\n")
    text = engine.explain(TWO_WAY)
    print(text)
    dirty_join = "DirtyRightJoin" if plan.clean_first == "P" else "DirtyLeftJoin"
    assert f"{dirty_join}[p.organisation = o.name]" in text

    print("\n2. A three-way join: later tables enter dirty:\n   ", THREE_WAY, "\n")
    print(engine.explain(THREE_WAY))

    print("\n3. EXPLAIN ANALYZE (estimates vs what actually ran):")
    report = engine.execute("EXPLAIN ANALYZE " + TWO_WAY).plan_description
    for line in report.splitlines():
        if line.startswith("--") or "actual" in line:
            print("   ", line)
    assert "comparisons: estimated=" in report

    print("\n4. The plan cache:")
    first = engine.execute(TWO_WAY)
    hits = engine.plan_cache.snapshot()["hits"]
    again = engine.execute(TWO_WAY)
    assert engine.plan_cache.snapshot()["hits"] == hits + 1
    assert again.sorted_rows() == first.sorted_rows()
    print(f"    re-issue reused the cached plan ({len(again)} rows both times)")
    engine.execute(
        "INSERT INTO OAO (id, name) VALUES (990001, 'walkthrough holdings ltd')"
    )
    misses = engine.plan_cache.snapshot()["misses"]
    engine.execute(TWO_WAY)
    assert engine.plan_cache.snapshot()["misses"] == misses + 1
    print("    INSERT INTO retired every cached plan (the re-issue planned afresh)")
    print("\nok")


if __name__ == "__main__":
    main()
