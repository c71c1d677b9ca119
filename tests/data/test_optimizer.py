"""Cost-based optimizer tests: statistics, selectivity, access-path
choice, join ordering, and the enriched EXPLAIN output."""

import random

import pytest

from repro.access import encode_key
from repro.data import Database
from repro.data.sql.optimizer import (
    CostModel,
    JoinEdge,
    SelectivityEstimator,
    PredicateSpec,
    index_interval,
    order_joins,
)
from repro.data.sql.stats import (
    ColumnStats,
    TableStats,
    build_histogram,
    physical_correlation,
)
from repro.data.table import TableIndex
from repro.storage import MemoryDevice
from tests.data.test_serializable import (
    find_cycle,
    precedence_edges,
    run_oracle,
)


@pytest.fixture()
def db():
    return Database(buffer_capacity=64)


def fill(db, n_rows=500, skew=False):
    """A fact table plus two dimension tables of very different sizes."""
    db.execute("CREATE TABLE fact (id INT PRIMARY KEY, d1 INT, d2 INT, "
               "v INT)")
    db.execute("CREATE TABLE dim_big (id INT PRIMARY KEY, name TEXT)")
    db.execute("CREATE TABLE dim_small (id INT PRIMARY KEY, name TEXT)")
    for i in range(50):
        db.execute("INSERT INTO dim_big VALUES (?, ?)", (i, f"b{i}"))
    for i in range(4):
        db.execute("INSERT INTO dim_small VALUES (?, ?)", (i, f"s{i}"))
    for i in range(n_rows):
        d2 = 0 if (skew and i % 10) else i % 4
        db.execute("INSERT INTO fact VALUES (?, ?, ?, ?)",
                   (i, i % 50, d2, i))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


class TestStatistics:
    def test_analyze_single_table(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(100):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, i % 10))
        result = db.execute("ANALYZE t")
        assert result.operation == "analyze"
        assert result.affected == 1
        stats = db.catalog.stats_for("t")
        assert stats.row_count == 100
        assert stats.page_count >= 1
        assert stats.columns["v"].n_distinct == 10
        assert stats.columns["id"].minimum == 0
        assert stats.columns["id"].maximum == 99

    def test_analyze_all_tables(self, db):
        fill(db, n_rows=20)
        assert db.execute("ANALYZE").affected == 3
        assert set(db.catalog.table_stats) == \
            {"fact", "dim_big", "dim_small"}

    def test_null_fraction(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, NULL), (3, NULL), "
                   "(4, 40)")
        db.execute("ANALYZE t")
        assert db.catalog.stats_for("t").columns["v"].null_fraction == 0.5

    def test_stats_survive_reopen(self):
        device = MemoryDevice()
        db = Database(device=device)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        for i in range(50):
            db.execute("INSERT INTO t VALUES (?, ?)", (i, i % 5))
        db.execute("ANALYZE t")
        db.checkpoint()

        reopened = Database(device=device)
        stats = reopened.catalog.stats_for("t")
        assert stats is not None
        assert stats.row_count == 50
        assert stats.columns["v"].n_distinct == 5
        assert stats.columns["id"].histogram[0] == 0
        assert stats.columns["id"].correlation == 1.0

    def test_drop_table_drops_stats(self, db):
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("ANALYZE t")
        db.execute("DROP TABLE t")
        assert db.catalog.stats_for("t") is None

    def test_analyze_unknown_table_fails(self, db):
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            db.execute("ANALYZE nope")


class TestHistograms:
    def test_equi_depth_boundaries(self):
        hist = build_histogram(list(range(1000)), bounds=5)
        assert hist[0] == 0 and hist[-1] == 999
        assert len(hist) == 5
        # Roughly equal spacing for uniform data.
        gaps = [hist[i + 1] - hist[i] for i in range(4)]
        assert max(gaps) - min(gaps) <= 2

    def test_fraction_below_interpolates(self):
        column = ColumnStats(n_distinct=100,
                             minimum=0, maximum=100,
                             histogram=[0, 25, 50, 75, 100])
        assert column.fraction_below(50) == pytest.approx(0.5)
        assert column.fraction_below(0) == 0.0
        assert column.fraction_below(100, inclusive=True) == 1.0
        assert 0.1 < column.fraction_below(25) < 0.35

    def test_skew_is_visible(self):
        # 90% of values are 0: the equi-depth histogram packs its
        # boundaries there, so a range above 0 is estimated small.
        values = sorted([0] * 900 + list(range(1, 101)))
        column = ColumnStats(n_distinct=101, minimum=0, maximum=100,
                             histogram=build_histogram(values))
        assert column.interval_selectivity((0, False), None) < 0.2

    def test_eq_selectivity_uses_distinct_count(self):
        column = ColumnStats(n_distinct=20, minimum=0, maximum=19,
                             histogram=list(range(20)))
        assert column.eq_selectivity(5) == pytest.approx(0.05)
        # Out-of-range constants cannot match.
        assert column.eq_selectivity(999) == 0.0

    def test_between_selectivity(self):
        column = ColumnStats(n_distinct=100, minimum=0, maximum=100,
                             histogram=[0, 25, 50, 75, 100])
        assert column.interval_selectivity(
            (25, True), (75, True)) == pytest.approx(0.5, abs=0.1)


    def test_physical_correlation(self):
        assert physical_correlation(list(range(100))) == 1.0
        assert physical_correlation(list(range(100))[::-1]) == -1.0
        assert abs(physical_correlation([i % 8 for i in range(400)])) < 0.2
        assert physical_correlation([7]) == 0.0


class TestSelectivityEstimator:
    def test_defaults_without_stats(self):
        estimator = SelectivityEstimator(None)
        assert estimator.conjunct(PredicateSpec("x", "=", 1)) == 0.1
        assert estimator.conjunct(
            PredicateSpec("x", ">", 1)) == pytest.approx(1 / 3)

    def test_combined_independence(self):
        stats = TableStats(row_count=1000, page_count=10, columns={
            "a": ColumnStats(n_distinct=10),
            "b": ColumnStats(n_distinct=4)})
        estimator = SelectivityEstimator(stats)
        combined = estimator.combined([PredicateSpec("a", "=", 1),
                                       PredicateSpec("b", "=", 2)])
        assert combined == pytest.approx(0.1 * 0.25)

    def test_same_column_bounds_price_as_one_interval(self):
        column = ColumnStats(n_distinct=1000, minimum=0, maximum=999,
                             histogram=build_histogram(list(range(1000))))
        estimator = SelectivityEstimator(TableStats(
            row_count=1000, page_count=10, columns={"id": column}))
        combined = estimator.combined([PredicateSpec("id", ">=", 400),
                                       PredicateSpec("id", "<", 420)])
        assert combined == pytest.approx(0.02, abs=0.002)


# ---------------------------------------------------------------------------
# cost model and join ordering (unit level)
# ---------------------------------------------------------------------------


class TestCostModel:
    def test_buffer_pool_awareness(self):
        model = CostModel(buffer_pages=100)
        assert model.random_page(50) == model.seq_page_cost
        assert model.random_page(500) == model.random_page_cost

    def test_index_beats_seq_when_selective(self):
        model = CostModel(buffer_pages=8)
        pages, rows = 1000, 100_000
        assert model.index_scan(pages, rows, 10) < \
            model.seq_scan(pages, rows)

    def test_seq_beats_index_when_unselective(self):
        model = CostModel(buffer_pages=8)
        pages, rows = 1000, 100_000
        assert model.seq_scan(pages, rows) < \
            model.index_scan(pages, rows, rows * 0.9)


    def test_correlated_fetches_cost_their_share_of_pages(self):
        model = CostModel(buffer_pages=8)
        pages, rows = 1000, 100_000
        scattered = model.index_scan(pages, rows, 500)
        assert model.index_scan(pages, rows, 500, correlation=0.0) \
            == scattered
        clustered = model.index_scan(pages, rows, 500, correlation=1.0)
        assert clustered < model.index_scan(pages, rows, 500, 0.5) \
            < scattered
        # 500 rows stored in index order fill 5 of the 1000 pages.
        assert clustered == pytest.approx(
            model.index_scan(pages, rows, 0) + 5 + 500 * 0.01)


class TestJoinOrdering:
    def test_greedy_starts_with_smallest(self):
        edges = [JoinEdge(0, 1, "a.x", "b.x", 100, 100),
                 JoinEdge(1, 2, "b.y", "c.y", 10, 10)]
        start, steps = order_joins([1000.0, 100.0, 10.0], edges,
                                   CostModel())
        assert start == 2
        order = [start] + [s.relation for s in steps]
        assert order[0] == 2
        assert len(order) == 3

    def test_connected_preferred_over_cross(self):
        # 0 and 1 are connected; 2 is dangling (cross product) and tiny.
        edges = [JoinEdge(0, 1, "a.x", "b.x", 50, 50)]
        start, steps = order_joins([100.0, 50.0, 2.0], edges, CostModel())
        order = [start] + [s.relation for s in steps]
        # The dangling relation starts (smallest), but then the engine
        # must still produce a complete order covering all relations.
        assert sorted(order) == [0, 1, 2]

    def test_cardinality_estimates_shrink_with_ndv(self):
        edges = [JoinEdge(0, 1, "a.x", "b.x", 1000, 1000)]
        _, steps = order_joins([1000.0, 1000.0], edges, CostModel())
        assert steps[0].est_rows == pytest.approx(1000.0)


# ---------------------------------------------------------------------------
# end-to-end: plan choice through Database.execute
# ---------------------------------------------------------------------------


class TestPlanChoice:
    def test_selective_predicate_flips_to_index_after_analyze(self, db):
        """The ISSUE's acceptance scenario: BETWEEN is invisible to the
        rule-based planner, but the cost-based one indexes it."""
        fill(db)
        before = db.execute(
            "EXPLAIN SELECT * FROM fact WHERE id BETWEEN 10 AND 14")
        assert ("access_path", "seq_scan(fact)") in before.rows
        db.execute("ANALYZE")
        after = db.execute(
            "EXPLAIN SELECT * FROM fact WHERE id BETWEEN 10 AND 14")
        assert ("access_path", "index_range(fact.id)") in after.rows
        assert after.plan["cost_based"] is True
        estimate = after.plan["estimates"][0]
        assert estimate["rows"] == pytest.approx(5, abs=3)
        assert estimate["cost"] > 0

    def test_point_query_uses_index_with_estimates(self, db):
        fill(db)
        db.execute("ANALYZE")
        result = db.execute("EXPLAIN SELECT v FROM fact WHERE id = 123")
        assert ("access_path", "index_eq(fact.id)") in result.rows
        assert result.plan["estimated_rows"] == pytest.approx(1, abs=1)

    def test_unselective_predicate_prefers_seq_scan(self, db):
        """Cost-based planning overrides the index rule when the
        predicate keeps most of the table."""
        fill(db)
        db.execute("ANALYZE")
        result = db.execute("EXPLAIN SELECT * FROM fact WHERE id >= 0")
        assert ("access_path", "seq_scan(fact)") in result.rows
        # Rule-based planning would have picked the index blindly.
        db.catalog.table_stats.clear()
        blind = db.execute("EXPLAIN SELECT * FROM fact WHERE id >= 0")
        assert ("access_path", "index_range(fact.id)") in blind.rows

    def test_results_identical_with_and_without_stats(self, db):
        fill(db, n_rows=200)
        query = ("SELECT fact.v, dim_big.name FROM fact "
                 "JOIN dim_big ON fact.d1 = dim_big.id "
                 "WHERE fact.id < 20 ORDER BY fact.v")
        before = db.query(query)
        db.execute("ANALYZE")
        assert db.query(query) == before

    def test_param_predicate_estimated(self, db):
        fill(db)
        db.execute("ANALYZE")
        result = db.execute("SELECT v FROM fact WHERE id = ?", (7,))
        assert result.plan["access_paths"] == ["index_eq(fact.id)"]
        assert result.rows == [(7,)]


class TestJoinReordering:
    def test_three_way_star_join_reordered(self, db):
        """A star query written largest-first is reordered to start from
        the smallest estimated relation."""
        fill(db)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT fact.v, dim_big.name, dim_small.name FROM fact "
            "JOIN dim_big ON fact.d1 = dim_big.id "
            "JOIN dim_small ON fact.d2 = dim_small.id")
        assert result.plan["cost_based"] is True
        order = result.plan["join_order"]
        assert order[0] == "dim_small"
        assert set(order) == {"fact", "dim_big", "dim_small"}
        assert len(result.rows) == 500

    def test_selective_filter_drives_order(self, db):
        """With a point filter on the fact table its estimated
        cardinality drops to ~1, so it joins first."""
        fill(db)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT fact.v, dim_big.name FROM dim_big "
            "JOIN fact ON fact.d1 = dim_big.id WHERE fact.id = 3")
        assert result.plan["join_order"][0] == "fact"
        assert result.rows == [(3, "b3")]

    def test_reordered_join_preserves_column_order(self, db):
        fill(db, n_rows=40)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT * FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id WHERE fact.id = 1")
        # SELECT * must keep FROM-clause column order even though the
        # optimizer may start the join from dim_small.
        assert result.columns == ["id", "d1", "d2", "v", "id", "name"]
        assert result.rows == [(1, 1, 1, 1, 1, "s1")]

    def test_explain_reports_join_order_and_total(self, db):
        fill(db)
        db.execute("ANALYZE")
        result = db.execute(
            "EXPLAIN SELECT fact.v FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id")
        kinds = [kind for kind, _ in result.rows]
        assert "join_order" in kinds
        assert "total" in kinds
        assert "estimate" in kinds

    def test_left_join_stays_rule_based(self, db):
        fill(db, n_rows=30)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT fact.v FROM fact "
            "LEFT JOIN dim_big ON fact.d1 = dim_big.id")
        assert result.plan["cost_based"] is False
        assert len(result.rows) == 30

    def test_non_equi_join_condition_enforced(self, db):
        fill(db, n_rows=30)
        db.execute("ANALYZE")
        rows = db.query(
            "SELECT COUNT(*) FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id "
            "AND fact.v > dim_small.id")
        expected = db.query(
            "SELECT COUNT(*) FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id "
            "WHERE fact.v > dim_small.id")
        assert rows == expected


class TestAnalyzeRoundTrip:
    def test_execute_analyze_then_query(self, db):
        """ANALYZE through the public API immediately influences
        subsequent plans (acceptance criterion)."""
        fill(db)
        assert db.execute("ANALYZE fact").affected == 1
        assert db.execute("ANALYZE").affected == 3
        result = db.execute("SELECT v FROM fact WHERE id = 250")
        assert result.plan["cost_based"] is True
        assert result.plan["access_paths"] == ["index_eq(fact.id)"]
        assert result.rows == [(250,)]

    def test_catalog_stats_lists_analyzed(self, db):
        fill(db, n_rows=10)
        db.execute("ANALYZE fact")
        assert db.catalog.stats()["analyzed"] == ["fact"]

    def test_analyze_blocked_by_concurrent_writer(self):
        """ANALYZE takes shared locks, so it cannot read another
        transaction's uncommitted rows — it waits (and here, times
        out) instead."""
        from repro.errors import TransactionError
        db = Database(lock_timeout_s=0.05)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        writer = db.transactions.begin()
        writer.lock_exclusive("t")
        with pytest.raises(TransactionError):
            db.execute("ANALYZE t")
        writer.abort()
        assert db.execute("ANALYZE t").affected == 1


class TestRegressions:
    def test_unknown_join_column_raises_cleanly(self, db):
        """A bogus qualified column in an ON clause must raise
        SQLPlanError, not crash the cost-based join builder."""
        from repro.errors import SQLPlanError
        fill(db, n_rows=10)
        db.execute("ANALYZE")
        with pytest.raises(SQLPlanError):
            db.query("SELECT * FROM fact "
                     "JOIN dim_small ON fact.nosuch = dim_small.id")

    def test_filters_pushed_below_joins(self, db):
        """Single-table WHERE conjuncts are applied at the scan in
        cost-based plans, so join inputs match the estimates."""
        fill(db, n_rows=60)
        db.execute("ANALYZE")
        result = db.execute(
            "SELECT fact.v FROM fact "
            "JOIN dim_small ON fact.d2 = dim_small.id "
            "WHERE fact.v < 3 AND dim_small.name = 's1'")
        assert result.plan["cost_based"] is True
        assert result.rows == [(1,)]


# ---------------------------------------------------------------------------
# interval access path: both bounds of one column in one index probe
# ---------------------------------------------------------------------------


def ranged_db(n_rows=1000, analyze=False, **kwargs):
    """``r.id`` is the indexed key; ``r.v`` holds the same values with no
    index, so a query on ``v`` is the seq-scan reference."""
    db = Database(buffer_capacity=64, **kwargs)
    db.execute("CREATE TABLE r (id INT PRIMARY KEY, v INT, pad TEXT)")
    db.executemany("INSERT INTO r VALUES (?, ?, ?)",
                   [(i, i, "x" * 40) for i in range(n_rows)])
    if analyze:
        db.execute("ANALYZE")
    return db


def outcome(db, sql, params):
    try:
        return "rows", sorted(db.query(sql, params))
    except TypeError as exc:
        return "error", type(exc)


@pytest.fixture()
def probes(monkeypatch):
    """The bounds of every B+-tree range probe run."""
    calls = []
    original = TableIndex.range_scan

    def spy(self, lo, hi, lo_inclusive=True, hi_inclusive=False):
        calls.append((lo, hi, lo_inclusive, hi_inclusive))
        return original(self, lo, hi, lo_inclusive, hi_inclusive)

    monkeypatch.setattr(TableIndex, "range_scan", spy)
    return calls


BOTH_PLANNERS = pytest.mark.parametrize(
    "analyze", [False, True], ids=["rule", "cost"])


class TestIndexInterval:
    def test_tighter_bound_wins_on_each_side(self):
        specs = [PredicateSpec("id", ">", 10), PredicateSpec("id", ">=", 15),
                 PredicateSpec("id", "<", 20), PredicateSpec("id", "<=", 30)]
        assert index_interval(specs) == ((15, True), (20, False))

    def test_exclusive_wins_at_equal_values(self):
        assert index_interval([PredicateSpec("id", ">=", 15),
                               PredicateSpec("id", ">", 15)]) \
            == ((15, False), None)
        assert index_interval([PredicateSpec("id", "<", 9),
                               PredicateSpec("id", "<=", 9)]) \
            == (None, (9, False))

    def test_between_folds_in(self):
        specs = [PredicateSpec("id", "between", low=5, high=50),
                 PredicateSpec("id", "<", 40)]
        assert index_interval(specs) == ((5, True), (40, False))

    def test_bounds_that_do_not_order_give_no_interval(self):
        specs = [PredicateSpec("id", ">=", 3), PredicateSpec("id", "<", "z")]
        assert index_interval(specs) is None
        assert index_interval([PredicateSpec("id", ">", "a")],
                              sample=0) is None
        assert index_interval([PredicateSpec("id", ">", 2.5)],
                              sample=0) == ((2.5, False), None)


class TestIntervalAccessPath:
    def test_explain_estimate_of_two_sided_range(self):
        db = ranged_db(n_rows=5000, analyze=True)
        result = db.execute(
            "EXPLAIN SELECT * FROM r WHERE id >= ? AND id < ?",
            (1000, 1020))
        assert ("access_path", "index_range(r.id)") in result.rows
        assert 10 <= result.plan["estimated_rows"] <= 40

    def test_clustered_range_beats_scan_scattered_one_does_not(self):
        """A range on a column stored in index order reads a few
        consecutive pages; the same width on a shuffled column touches a
        page per row, so only the first is worth an index probe."""
        db = Database(buffer_capacity=64)
        db.execute("CREATE TABLE c (id INT PRIMARY KEY, s INT, pad TEXT)")
        shuffled = list(range(1000))
        random.Random(5).shuffle(shuffled)
        db.executemany("INSERT INTO c VALUES (?, ?, ?)",
                       [(i, shuffled[i], "x" * 40) for i in range(1000)])
        db.execute("CREATE INDEX c_s ON c (s)")
        db.execute("ANALYZE c")
        stats = db.catalog.stats_for("c")
        assert stats.columns["id"].correlation == 1.0
        assert abs(stats.columns["s"].correlation) < 0.2
        by_id = db.execute(
            "SELECT id FROM c WHERE id >= ? AND id < ?", (100, 200))
        by_s = db.execute(
            "SELECT id FROM c WHERE s >= ? AND s < ?", (100, 200))
        assert by_id.plan["access_paths"] == ["index_range(c.id)"]
        assert by_s.plan["access_paths"] == ["seq_scan(c)"]
        assert len(by_id.rows) == len(by_s.rows) == 100

    @BOTH_PLANNERS
    def test_tighter_of_two_lower_bounds(self, analyze, probes):
        db = ranged_db(analyze=analyze)
        result = db.execute(
            "SELECT id FROM r WHERE id > ? AND id >= ? AND id < ?",
            (10, 15, 20))
        assert result.rows == [(i,) for i in range(15, 20)]
        assert result.plan["access_paths"] == ["index_range(r.id)"]
        assert probes == [((15,), (20,), True, False)]

    @BOTH_PLANNERS
    @pytest.mark.parametrize("lo_op,hi_op",
                             [(">=", "<"), (">", "<"), (">=", "<="),
                              (">", "<=")])
    def test_inclusive_exclusive_combinations(self, analyze, lo_op, hi_op,
                                              probes):
        db = ranged_db(analyze=analyze)
        sql = f"SELECT id FROM r WHERE id {lo_op} ? AND id {hi_op} ?"
        result = db.execute(sql, (10, 20))
        expected = [i for i in range(1000)
                    if (i >= 10 if lo_op == ">=" else i > 10)
                    and (i <= 20 if hi_op == "<=" else i < 20)]
        assert result.rows == [(i,) for i in expected]
        assert result.plan["access_paths"] == ["index_range(r.id)"]
        assert probes == [((10,), (20,), lo_op == ">=", hi_op == "<=")]

    @BOTH_PLANNERS
    def test_empty_interval_returns_nothing(self, analyze):
        db = ranged_db(analyze=analyze)
        result = db.execute(
            "SELECT id FROM r WHERE id >= ? AND id < ?", (30, 10))
        assert result.rows == []
        assert result.plan["access_paths"] == ["index_range(r.id)"]

    @BOTH_PLANNERS
    @pytest.mark.parametrize("bounds,path", [
        ((2.5, 7.5), "index_range(r.id)"),
        ((3, "z"), "seq_scan(r)"),
        (("a", 6), "seq_scan(r)"),
        (("a", "z"), "seq_scan(r)"),
    ])
    def test_mixed_type_bounds_fall_back(self, analyze, bounds, path):
        db = ranged_db(analyze=analyze)
        explain = db.execute(
            "EXPLAIN SELECT id FROM r WHERE id >= ? AND id < ?", bounds)
        assert ("access_path", path) in explain.rows
        assert outcome(db, "SELECT id FROM r WHERE id >= ? AND id < ?",
                       bounds) \
            == outcome(db, "SELECT id FROM r WHERE v >= ? AND v < ?",
                       bounds)

    def test_unordered_between_bounds_estimate_without_raising(self):
        db = ranged_db(analyze=True)
        explain = db.execute(
            "EXPLAIN SELECT id FROM r WHERE id BETWEEN ? AND ?", (1, "z"))
        assert ("access_path", "seq_scan(r)") in explain.rows

    @BOTH_PLANNERS
    def test_update_plans_interval_with_both_bounds(self, analyze, probes):
        db = ranged_db(analyze=analyze)
        explain = db.execute(
            "EXPLAIN UPDATE r SET v = -1 WHERE id >= ? AND id < ?", (50, 60))
        assert ("access_path", "index_range(r.id)") in explain.rows
        result = db.execute(
            "UPDATE r SET v = -1 WHERE id >= ? AND id < ?", (50, 60))
        assert result.affected == 10
        assert probes == [((50,), (60,), True, False)]
        assert db.query("SELECT id FROM r WHERE v = -1") \
            == [(i,) for i in range(50, 60)]

    @BOTH_PLANNERS
    def test_serializable_records_closed_key_range(self, analyze):
        db = ranged_db(analyze=analyze, isolation="serializable")
        db.execute("BEGIN")
        db.query("SELECT id FROM r WHERE id >= ? AND id < ?", (10, 20))
        tracker = db.transactions.ssi.tracker(db._session_txn.txn_id)
        assert tracker.key_reads["r"][("id",)] == {
            (encode_key((10,)), encode_key((20,)), True, False)}
        db.execute("COMMIT")


def mix_range_skew(db, rng, n_items):
    """Write skew over a PK interval: read a pair through ``id >= ? AND
    id < ?``; drain one side while the pair's sum allows, else refill
    both.  Only the interval probe's key range covers the pair."""
    a = 2 * rng.randrange(n_items // 2)
    db.execute("BEGIN")
    rows = db.query("SELECT id, ver, val FROM items "
                    "WHERE id >= ? AND id < ?", (a, a + 2))
    reads = {row[0]: row[1] for row in rows}
    values = {row[0]: row[2] for row in rows}
    writes = {}
    for item, delta in ([(rng.choice((a, a + 1)), -50)]
                        if values[a] + values[a + 1] > 60
                        else [(a, 100), (a + 1, 100)]):
        version = reads[item] + 1
        db.execute("UPDATE items SET val = val + ?, ver = ? WHERE id = ?",
                   (delta, version, item))
        writes[item] = version
    db.execute("COMMIT")
    return reads, writes


class TestIntervalSerializability:
    @pytest.mark.parametrize("seed", range(3))
    def test_range_skew_acyclic_under_serializable(self, seed):
        db = Database(isolation="serializable")
        logs = run_oracle(db, [mix_range_skew], seed, txns_per_worker=6)
        cycle = find_cycle(len(logs), precedence_edges(logs))
        assert cycle is None, \
            f"serializability violated: cycle {cycle} seed={seed}"
        assert logs
