"""Integration: three-table DEDUP joins and error handling."""

import pytest

from repro.core.engine import QueryEREngine
from repro.core.planner import DedupPlanningError, ExecutionMode
from repro.datagen import generate_organizations, generate_people, generate_projects
from repro.er.meta_blocking import MetaBlockingConfig
from repro.sql.schema import SchemaResolutionError
from repro.sql.planner import PlanningError


@pytest.fixture(scope="module")
def three_table_engine():
    orgs, _ = generate_organizations(80, seed=41)
    names = [row["name"] for row in orgs]
    people, _ = generate_people(150, organisations=names, seed=42)
    projects, _ = generate_projects(120, organisations=names, seed=43)
    engine = QueryEREngine()
    engine.register(people)
    engine.register(orgs)
    engine.register(projects)
    return engine


THREE_WAY = (
    "SELECT DEDUP PPL.surname, OAO.name, OAP.title "
    "FROM PPL "
    "JOIN OAO ON PPL.organisation = OAO.name "
    "JOIN OAP ON OAP.organisation = OAO.name "
    "WHERE PPL.state = 'nsw'"
)


class TestThreeWayJoin:
    def test_executes_and_projects_all_tables(self, three_table_engine):
        result = three_table_engine.execute(THREE_WAY, ExecutionMode.AES)
        assert result.columns == ["surname", "name", "title"]
        assert len(result) > 0

    def test_all_modes_run(self, three_table_engine):
        for mode in ExecutionMode:
            three_table_engine.clear_caches()
            result = three_table_engine.execute(THREE_WAY, mode)
            assert len(result) > 0, mode

    def test_modes_agree_without_metablocking(self):
        orgs, _ = generate_organizations(60, seed=44)
        names = [row["name"] for row in orgs]
        people, _ = generate_people(100, organisations=names, seed=45)
        projects, _ = generate_projects(80, organisations=names, seed=46)
        engine = QueryEREngine(meta_blocking=MetaBlockingConfig.none())
        for table in (people, orgs, projects):
            engine.register(table)
        baseline = engine.execute(THREE_WAY, ExecutionMode.BATCH).sorted_rows()
        for mode in (ExecutionMode.AES, ExecutionMode.NES):
            engine.clear_caches()
            assert engine.execute(THREE_WAY, mode).sorted_rows() == baseline

    def test_join_chained_from_first_table(self, three_table_engine):
        # Second join references PPL (the root), not the previous table.
        sql = (
            "SELECT DEDUP PPL.surname, OAO.name, OAP.title "
            "FROM PPL "
            "JOIN OAO ON PPL.organisation = OAO.name "
            "JOIN OAP ON PPL.organisation = OAP.organisation "
            "WHERE PPL.state = 'nt'"
        )
        result = three_table_engine.execute(sql, ExecutionMode.AES)
        assert result.columns == ["surname", "name", "title"]


class TestDedupErrorHandling:
    def test_unknown_table(self, three_table_engine):
        with pytest.raises(KeyError):
            three_table_engine.execute("SELECT DEDUP x FROM NOPE")

    def test_unknown_column_in_projection(self, three_table_engine):
        with pytest.raises(SchemaResolutionError):
            three_table_engine.execute("SELECT DEDUP nosuchcol FROM OAO")

    def test_join_not_referencing_joined_table(self, three_table_engine):
        with pytest.raises(DedupPlanningError):
            three_table_engine.execute(
                "SELECT DEDUP PPL.surname FROM PPL "
                "JOIN OAO ON PPL.organisation = PPL.surname"
            )

    def test_unknown_alias_in_where(self, three_table_engine):
        with pytest.raises(DedupPlanningError):
            three_table_engine.execute(
                "SELECT DEDUP surname FROM PPL WHERE zz.state = 'nt'"
            )

    def test_empty_selection_returns_empty(self, three_table_engine):
        result = three_table_engine.execute(
            "SELECT DEDUP surname FROM PPL WHERE state = 'nonexistent'"
        )
        assert len(result) == 0
        assert result.comparisons == 0


PREFIXES = pytest.mark.parametrize("prefix", ["SELECT", "SELECT DEDUP"])


class TestJoinEdgeCases:
    """Duplicate aliases, ambiguity and forward references fail at
    planning time — one resolver raises for both the DEDUP and
    the relational path."""

    @PREFIXES
    def test_duplicate_alias_rejected(self, three_table_engine, prefix):
        with pytest.raises(PlanningError, match="duplicate"):
            three_table_engine.execute(
                f"{prefix} T.surname FROM PPL T JOIN OAO T ON T.organisation = T.name"
            )

    @PREFIXES
    def test_ambiguous_unqualified_projection_three_tables(self, three_table_engine, prefix):
        # 'organisation' lives in both PPL and OAP.
        with pytest.raises(SchemaResolutionError, match="ambiguous"):
            three_table_engine.execute(
                f"{prefix} organisation FROM PPL "
                "JOIN OAO ON PPL.organisation = OAO.name "
                "JOIN OAP ON OAP.organisation = OAO.name"
            )

    @PREFIXES
    def test_ambiguous_unqualified_where_three_tables(self, three_table_engine, prefix):
        with pytest.raises(PlanningError, match="ambiguous"):
            three_table_engine.execute(
                f"{prefix} PPL.surname FROM PPL "
                "JOIN OAO ON PPL.organisation = OAO.name "
                "JOIN OAP ON OAP.organisation = OAO.name "
                "WHERE organisation = 'acme'"
            )

    @PREFIXES
    def test_forward_reference_join_rejected(self, three_table_engine, prefix):
        # OAO's condition references OAP, which joins later.
        with pytest.raises(PlanningError, match="before it is joined"):
            three_table_engine.execute(
                f"{prefix} PPL.surname FROM PPL "
                "JOIN OAO ON OAO.name = OAP.organisation "
                "JOIN OAP ON PPL.organisation = OAO.name"
            )

    @PREFIXES
    def test_unknown_alias_in_join_condition(self, three_table_engine, prefix):
        with pytest.raises(PlanningError, match="unknown table alias"):
            three_table_engine.execute(
                f"{prefix} PPL.surname FROM PPL JOIN OAO ON ZZ.name = PPL.organisation"
            )
