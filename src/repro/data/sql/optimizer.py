"""Cost-based physical planning: selectivity, cost model, join ordering.

The planner splits query compilation into a *logical* step (which tables,
which predicates, which join edges) and a *physical* step (which access
path per table, which join order, which join algorithm).  This module is
the physical step's brain:

- :class:`SelectivityEstimator` turns predicate shapes into expected
  row fractions using the ANALYZE snapshots in the catalog
  (:mod:`repro.data.sql.stats`), with textbook defaults when a value or
  histogram is unavailable;
- :class:`CostModel` prices sequential pages, index probes, and join
  algorithms, aware of the buffer pool size (a table that fits in the
  pool pays sequential-read cost even for "random" probes);
- :func:`choose_access_path` picks heap scan vs index equality vs index
  interval per table reference (:func:`rule_access_path` is the
  no-statistics rule, sharing the interval folding);
- :func:`order_joins` greedily orders inner equi-join graphs by
  estimated intermediate cardinality and selects hash vs nested-loop
  per step.

Everything here is pure estimation over plain data — operator
construction stays in :mod:`repro.data.sql.planner`, which consumes the
:class:`ScanChoice` / :class:`JoinStep` decisions this module emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.access.record import ColumnType
from repro.data.sql.stats import ColumnStats, TableStats

# Default selectivities when no statistics (or no comparable value) are
# available — the classical System R constants.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 0.25

#: Predicate ops that bound a column from one or both sides; all of a
#: column's range conjuncts fold into one interval.
RANGE_OPS = ("<", "<=", ">", ">=", "between")

# One value of each column type: an index bound must order against it,
# else the probe would not answer what a scan answers.
_TYPE_SAMPLE = {ColumnType.INT: 0, ColumnType.FLOAT: 0.0,
                ColumnType.BOOL: False, ColumnType.TEXT: "",
                ColumnType.BYTES: b""}


# ---------------------------------------------------------------------------
# Predicate shapes (built by the planner from WHERE/ON conjuncts)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateSpec:
    """One single-table conjunct in estimator-friendly form.

    ``op`` is one of ``= < <= > >= between isnull notnull in other``;
    ``value`` holds the comparison constant (or item count for ``in``),
    ``low``/``high`` the BETWEEN bounds.
    """

    column: str
    op: str
    value: object = None
    low: object = None
    high: object = None


# ---------------------------------------------------------------------------
# Selectivity
# ---------------------------------------------------------------------------


class SelectivityEstimator:
    """Maps predicate specs to row fractions using a table's statistics."""

    def __init__(self, stats: Optional[TableStats]) -> None:
        self.stats = stats

    def _column(self, name: str) -> Optional[ColumnStats]:
        if self.stats is None:
            return None
        return self.stats.column(name)

    def conjunct(self, spec: PredicateSpec) -> float:
        column = self._column(spec.column)
        if spec.op == "=":
            if column is not None and column.n_distinct > 0:
                return column.eq_selectivity(spec.value)
            return DEFAULT_EQ_SELECTIVITY
        if spec.op in RANGE_OPS:
            return self._ranges(spec.column, [spec])
        if spec.op == "isnull":
            return column.null_fraction if column is not None \
                else DEFAULT_EQ_SELECTIVITY
        if spec.op == "notnull":
            return (1.0 - column.null_fraction) if column is not None \
                else 1.0 - DEFAULT_EQ_SELECTIVITY
        if spec.op == "in":
            per_item = (column.eq_selectivity()
                        if column is not None and column.n_distinct > 0
                        else DEFAULT_EQ_SELECTIVITY)
            count = spec.value if isinstance(spec.value, int) else 1
            return min(1.0, per_item * max(count, 1))
        return DEFAULT_SELECTIVITY

    def interval(self, column_name: str, low: Optional[tuple],
                 high: Optional[tuple]) -> float:
        """Fraction of rows inside an :func:`index_interval` result."""
        column = self._column(column_name)
        if column is not None and column.histogram:
            return column.interval_selectivity(low, high)
        if low is not None and high is not None:
            return DEFAULT_RANGE_SELECTIVITY / 2
        return DEFAULT_RANGE_SELECTIVITY

    def combined(self, specs: list[PredicateSpec]) -> float:
        """Independence-assumption product over all conjuncts, except
        that one column's range conjuncts are priced together as one
        interval: ``id >= a AND id < b`` keeps ``b - a`` keys, not the
        product of two half-table fractions."""
        selectivity = 1.0
        ranges: dict[str, list[PredicateSpec]] = {}
        for spec in specs:
            if spec.op in RANGE_OPS:
                ranges.setdefault(spec.column, []).append(spec)
            else:
                selectivity *= self.conjunct(spec)
        for column, group in ranges.items():
            selectivity *= self._ranges(column, group)
        return selectivity

    def _ranges(self, column_name: str,
                specs: list[PredicateSpec]) -> float:
        interval = index_interval(specs)
        if interval is None:            # bounds that do not order
            return DEFAULT_RANGE_SELECTIVITY
        return self.interval(column_name, *interval)

    def correlation(self, column_name: str) -> float:
        column = self._column(column_name)
        return column.correlation if column is not None else 0.0

    def n_distinct(self, column_name: str) -> int:
        column = self._column(column_name)
        if column is not None and column.n_distinct > 0:
            return column.n_distinct
        if self.stats is not None:
            return max(self.stats.row_count, 1)
        return 1


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------


@dataclass
class CostModel:
    """Disk/CPU cost constants in "sequential page read" units.

    ``buffer_pages`` makes the model buffer-pool-aware: when a table's
    pages all fit in the pool, repeated "random" probes hit cache, so
    they are charged at sequential rather than random cost.
    """

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_operator_cost: float = 0.0025
    hash_entry_cost: float = 0.015
    #: Per-victim surcharge of an UPDATE/DELETE on top of its access
    #: path: row lock, snapshot re-read, version create/stamp, index
    #: maintenance.  Identical across candidate paths, so it shifts DML
    #: estimates without ever changing the access-path choice.
    cpu_dml_tuple_cost: float = 0.02
    buffer_pages: int = 256

    def random_page(self, table_pages: int) -> float:
        if table_pages <= self.buffer_pages:
            return self.seq_page_cost
        return self.random_page_cost

    @staticmethod
    def _btree_height(rows: float) -> float:
        # ~100-way fanout; at least root + leaf.
        return max(2.0, math.log(max(rows, 2.0), 100) + 1.0)

    def seq_scan(self, pages: int, rows: float) -> float:
        return pages * self.seq_page_cost + rows * self.cpu_tuple_cost

    def columnar_scan(self, pages: int, rows: float) -> float:
        """Scan of a table's columnar mirror: only zone-map-admitted
        pages are read, and encoded evaluation (dictionary codes, runs)
        is charged per *operation*, not per materialised tuple."""
        return pages * self.seq_page_cost + rows * self.cpu_operator_cost

    def index_scan(self, pages: int, rows: float, matching_rows: float,
                   correlation: float = 0.0) -> float:
        """An index probe plus the heap fetches of the matching rows.

        Rows scattered over the heap cost one page fetch each; rows
        stored in index order share pages, so they cost their share of
        sequential pages.  The fetch cost moves between the two by the
        squared correlation of heap and index order (as PostgreSQL's
        ``cost_index`` does)."""
        probe = self._btree_height(rows) * self.random_page(pages)
        fetches = matching_rows * self.random_page(pages)
        clustered = matching_rows * pages / max(rows, 1.0) \
            * self.seq_page_cost
        fetches += correlation ** 2 * (clustered - fetches)
        return probe + fetches + matching_rows * self.cpu_tuple_cost

    def dml_overhead(self, matching_rows: float) -> float:
        """Write-side cost an UPDATE/DELETE adds to its chosen access
        path (see :attr:`cpu_dml_tuple_cost`)."""
        return matching_rows * self.cpu_dml_tuple_cost

    def hash_join(self, outer_rows: float, inner_rows: float,
                  out_rows: float) -> float:
        build = inner_rows * (self.cpu_tuple_cost + self.hash_entry_cost)
        probe = outer_rows * (self.cpu_tuple_cost + self.cpu_operator_cost)
        return build + probe + out_rows * self.cpu_tuple_cost

    def nested_loop(self, outer_rows: float, inner_rows: float,
                    out_rows: float) -> float:
        compares = outer_rows * max(inner_rows, 1.0) \
            * self.cpu_operator_cost
        return compares + out_rows * self.cpu_tuple_cost


# ---------------------------------------------------------------------------
# Access path choice
# ---------------------------------------------------------------------------


@dataclass
class ScanChoice:
    """The physical access path selected for one table reference."""

    kind: str                  # seq | index_eq | index_range | columnar
    path: str                  # explain string, e.g. "index_eq(t.id)"
    cost: float
    est_rows: float            # rows after ALL pushable filters
    column: Optional[str] = None
    value: object = None
    low: object = None         # (value, inclusive) or None
    high: object = None
    #: Columnar scans carry the pushable conjuncts: zone maps skip
    #: blocks and encoded evaluation pre-filters rows with them.
    specs: tuple = ()

    def key_bounds(self) -> tuple:
        """Index probe bounds ``(lo, hi, lo_inclusive, hi_inclusive)``
        as key tuples (``None``: unbounded); an equality is the closed
        interval ``[value, value]``."""
        if self.kind == "index_eq":
            return (self.value,), (self.value,), True, True
        low, high = self.low, self.high
        return ((low[0],) if low is not None else None,
                (high[0],) if high is not None else None,
                low[1] if low is not None else True,
                high[1] if high is not None else True)


def index_interval(specs: list[PredicateSpec],
                   sample: object = None) -> Optional[tuple]:
    """Fold range conjuncts on one column into one interval.

    Returns ``(low, high)``, each ``(value, inclusive)`` or ``None`` for
    an open side.  Of two bounds on one side the tighter wins (at equal
    values, the exclusive one).  Returns ``None`` when the bounds do not
    order against each other or against ``sample``, a value of the
    column's type: an index probe with such a bound would not answer
    what a scan answers, so callers fall back to the scan.
    """
    sides = []
    for spec in specs:
        if spec.op == "between":
            sides += [(spec.low, True, True), (spec.high, True, False)]
        else:
            sides.append((spec.value, spec.op in ("<=", ">="),
                          spec.op in (">", ">=")))
    try:
        sorted([value for value, _, _ in sides]
               + ([] if sample is None else [sample]))
    except TypeError:
        return None
    low = high = None
    for value, inclusive, is_low in sides:
        current = low if is_low else high
        if current is None or (not inclusive if value == current[0]
                               else (value > current[0]) == is_low):
            if is_low:
                low = (value, inclusive)
            else:
                high = (value, inclusive)
    return low, high


def _column_interval(table, specs: list[PredicateSpec],
                     column: str) -> Optional[tuple]:
    """:func:`index_interval` over every range conjunct on ``column``."""
    return index_interval(
        [s for s in specs if s.column == column and s.op in RANGE_OPS],
        _TYPE_SAMPLE.get(table.schema.column(column).type))


def _record_sightings(table, specs: list[PredicateSpec]) -> None:
    """Workload observation: every sargable conjunct planned is a
    predicate sighting, whether or not an index exists yet.  That
    asymmetry is the point: the index advisor reads these counts to find
    columns that are filtered often but have no index."""
    record = getattr(table, "record_predicate", None)
    if record is not None:
        for spec in specs:
            if spec.column and spec.op != "other":
                record(spec.column, spec.op)


def choose_access_path(table, stats: TableStats,
                       specs: list[PredicateSpec],
                       cost_model: CostModel,
                       columnar=None) -> ScanChoice:
    """Pick the cheapest access path for a base table.

    ``specs`` are the single-table conjuncts.  Each equality on an
    indexed column generates an index-equality candidate; the range
    conjuncts on a B+-tree-indexed column fold into one interval
    candidate, priced by the interval's histogram fraction; a valid
    columnar mirror (``columnar`` is the table's store when usable)
    generates a columnar-scan candidate priced by its zone-map skipping
    estimate.  The estimated output cardinality (used for join ordering)
    is the same for every candidate — it reflects all filters — only the
    cost differs.
    """
    estimator = SelectivityEstimator(stats)
    rows = float(stats.row_count)
    pages = max(stats.page_count, 1)
    out_rows = max(rows * estimator.combined(specs), 0.0)
    _record_sightings(table, specs)

    best = ScanChoice("seq", f"seq_scan({table.name})",
                      cost_model.seq_scan(pages, rows), out_rows)
    if columnar is not None:
        fraction, col_pages = columnar.admitted_fraction(specs)
        cost = cost_model.columnar_scan(col_pages, rows * fraction)
        if cost < best.cost:
            best = ScanChoice("columnar",
                              f"columnar_scan({table.name})",
                              cost, out_rows, specs=tuple(specs))
    ranged: set[str] = set()
    for spec in specs:
        if spec.op == "=":
            if table.index_on((spec.column,)) is None:
                continue
            matching = rows * estimator.conjunct(spec)
            cost = cost_model.index_scan(
                pages, rows, matching, estimator.correlation(spec.column))
            if cost < best.cost:
                best = ScanChoice(
                    "index_eq", f"index_eq({table.name}.{spec.column})",
                    cost, out_rows, spec.column, spec.value)
        elif spec.op in RANGE_OPS and spec.column not in ranged:
            ranged.add(spec.column)
            if table.index_on((spec.column,), require_btree=True) is None:
                continue
            interval = _column_interval(table, specs, spec.column)
            if interval is None:
                continue
            matching = rows * estimator.interval(spec.column, *interval)
            cost = cost_model.index_scan(
                pages, rows, matching, estimator.correlation(spec.column))
            if cost < best.cost:
                best = ScanChoice(
                    "index_range",
                    f"index_range({table.name}.{spec.column})",
                    cost, out_rows, spec.column,
                    low=interval[0], high=interval[1])
    return best


def rule_access_path(table,
                     specs: list[PredicateSpec]) -> Optional[ScanChoice]:
    """The access path without statistics: the first conjunct whose
    column has a usable index drives the probe — any index for an
    equality, a B+-tree for a range, probed over the interval of every
    range conjunct on that column.  ``None`` means scan the heap."""
    _record_sightings(table, specs)
    for spec in specs:
        if spec.op == "=":
            if table.index_on((spec.column,)) is not None:
                return ScanChoice(
                    "index_eq", f"index_eq({table.name}.{spec.column})",
                    0.0, 0.0, spec.column, spec.value)
        elif spec.op in RANGE_OPS and table.index_on(
                (spec.column,), require_btree=True) is not None:
            interval = _column_interval(table, specs, spec.column)
            if interval is not None:
                return ScanChoice(
                    "index_range",
                    f"index_range({table.name}.{spec.column})",
                    0.0, 0.0, spec.column,
                    low=interval[0], high=interval[1])
    return None


# ---------------------------------------------------------------------------
# Join ordering
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join conjunct connecting two relations.

    Columns are binding-qualified display names ("e.dept"); ``ndv``
    values come from the base tables' statistics.
    """

    left_rel: int
    right_rel: int
    left_column: str
    right_column: str
    left_ndv: int
    right_ndv: int


@dataclass
class JoinStep:
    """One step of the chosen left-deep join sequence."""

    relation: int              # index of the relation joined in
    method: str                # hash | nested_loop (cross when no edge)
    edges: list[JoinEdge] = field(default_factory=list)
    est_rows: float = 0.0      # cardinality after this step
    cost: float = 0.0


def order_joins(rel_rows: list[float], edges: list[JoinEdge],
                cost_model: CostModel) -> tuple[int, list[JoinStep]]:
    """Greedy left-deep join ordering by estimated cardinality.

    Starts from the smallest relation and repeatedly joins in the
    not-yet-joined relation that yields the smallest intermediate
    result, preferring connected relations over cross products.
    Returns the starting relation index and the step list.
    """
    count = len(rel_rows)
    start = min(range(count), key=lambda i: rel_rows[i])
    joined = {start}
    card = max(rel_rows[start], 0.0)
    steps: list[JoinStep] = []
    while len(joined) < count:
        candidates = []
        for j in range(count):
            if j in joined:
                continue
            connecting = [e for e in edges
                          if (e.left_rel in joined and e.right_rel == j)
                          or (e.right_rel in joined and e.left_rel == j)]
            selectivity = 1.0
            for edge in connecting:
                selectivity /= max(edge.left_ndv, edge.right_ndv, 1)
            out = card * max(rel_rows[j], 0.0) * selectivity
            candidates.append((not connecting, out, j, connecting))
        # Sort order: connected first, then smallest intermediate,
        # then syntactic position for determinism.
        candidates.sort()
        _, out, j, connecting = candidates[0]
        hash_cost = cost_model.hash_join(card, rel_rows[j], out)
        loop_cost = cost_model.nested_loop(card, rel_rows[j], out)
        if connecting and hash_cost <= loop_cost:
            method = "hash"
            cost = hash_cost
        else:
            method = "nested_loop"
            cost = loop_cost
        steps.append(JoinStep(j, method, connecting, out, cost))
        joined.add(j)
        card = out
    return start, steps
