"""Table and column statistics for cost-based query optimization.

``ANALYZE`` scans a table once and distils it into a :class:`TableStats`:
row and page counts plus, per column, null fraction, distinct-value
count, min/max, and a small equi-depth histogram.  The planner's
selectivity estimator (:mod:`repro.data.sql.optimizer`) reads these to
predict how many rows a predicate keeps and how large a join result
gets; the catalog persists them alongside the schema so estimates
survive a restart.

Statistics are a snapshot: they describe the table as of the last
ANALYZE and drift as data changes, which is the classical trade-off —
cheap to keep, refreshed explicitly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Optional

# Number of boundary values kept per histogram.  Boundaries delimit
# HISTOGRAM_BOUNDS - 1 equi-depth buckets; small enough to serialise
# into the catalog blob, large enough to see skew.
HISTOGRAM_BOUNDS = 17


def _orderable(values: list) -> bool:
    """True when the sampled values share one comparable, JSON-safe type
    (the catalog persists histograms as JSON)."""
    kinds = {type(v) for v in values}
    if not kinds:
        return False
    if kinds <= {int, float}:
        return True
    return kinds == {str}


@dataclass
class ColumnStats:
    """Distribution summary for one column."""

    null_fraction: float = 0.0
    n_distinct: int = 0
    minimum: Any = None
    maximum: Any = None
    #: Sorted equi-depth boundary values: histogram[0] is the min,
    #: histogram[-1] the max, with (roughly) equal row counts between
    #: consecutive boundaries.  Empty when the column is unorderable.
    histogram: list = field(default_factory=list)
    #: Correlation between the heap's physical row order and the
    #: column's value order, in [-1, 1] (PostgreSQL's
    #: ``pg_stats.correlation``): near ±1 when rows are stored sorted on
    #: the column, so an index range on it reads consecutive pages.
    correlation: float = 0.0

    # -- selectivity ------------------------------------------------------

    def eq_selectivity(self, value: Any = None) -> float:
        """Fraction of rows expected to satisfy ``col = value``."""
        if self.n_distinct <= 0:
            return 0.0
        if value is not None and self.minimum is not None:
            try:
                if value < self.minimum or value > self.maximum:
                    return 0.0
            except TypeError:
                pass
        return (1.0 - self.null_fraction) / self.n_distinct

    def fraction_below(self, value: Any, inclusive: bool = False) -> float:
        """Fraction of non-null rows with ``col < value`` (or <=).

        Interpolates inside the matching equi-depth bucket, so skew that
        the histogram captured is reflected in the estimate.
        """
        hist = self.histogram
        if len(hist) < 2:
            return 0.5
        try:
            # bisect over the boundary list handles duplicated
            # boundaries (heavy skew packs many equal values).
            locate = bisect_right if inclusive else bisect_left
            position = locate(hist, value)
        except TypeError:
            return 0.5
        if position <= 0:
            return 0.0
        if position >= len(hist):
            return 1.0
        buckets = len(hist) - 1
        lo, hi = hist[position - 1], hist[position]
        within = 0.5
        if isinstance(lo, (int, float)) and isinstance(hi, (int, float)) \
                and hi > lo:
            within = (value - lo) / (hi - lo)
        return ((position - 1) + min(max(within, 0.0), 1.0)) / buckets

    def interval_selectivity(self, low: Optional[tuple],
                             high: Optional[tuple]) -> float:
        """Selectivity of a column interval; each bound is ``(value,
        inclusive)`` or ``None`` for an open side.  One-sided ranges and
        BETWEEN are intervals too."""
        below_high = 1.0 if high is None else \
            self.fraction_below(high[0], inclusive=high[1])
        below_low = 0.0 if low is None else \
            self.fraction_below(low[0], inclusive=not low[1])
        fraction = max(0.0, min(1.0, below_high - below_low))
        return fraction * (1.0 - self.null_fraction)

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"null_fraction": self.null_fraction,
                "n_distinct": self.n_distinct,
                "min": self.minimum, "max": self.maximum,
                "histogram": list(self.histogram),
                "correlation": self.correlation}

    @classmethod
    def from_dict(cls, data: dict) -> "ColumnStats":
        return cls(data.get("null_fraction", 0.0),
                   data.get("n_distinct", 0),
                   data.get("min"), data.get("max"),
                   list(data.get("histogram", ())),
                   data.get("correlation", 0.0))


@dataclass
class TableStats:
    """Per-table snapshot produced by ANALYZE."""

    row_count: int = 0
    page_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)

    def to_dict(self) -> dict:
        return {"row_count": self.row_count,
                "page_count": self.page_count,
                "columns": {name: c.to_dict()
                            for name, c in self.columns.items()}}

    @classmethod
    def from_dict(cls, data: dict) -> "TableStats":
        return cls(data.get("row_count", 0), data.get("page_count", 0),
                   {name: ColumnStats.from_dict(c)
                    for name, c in data.get("columns", {}).items()})


def build_histogram(values: list, bounds: int = HISTOGRAM_BOUNDS) -> list:
    """Equi-depth boundaries over ``values`` (sorted, non-null)."""
    if not values:
        return []
    if len(values) <= bounds:
        return list(values)
    step = (len(values) - 1) / (bounds - 1)
    return [values[round(i * step)] for i in range(bounds)]


def physical_correlation(values: list) -> float:
    """Pearson correlation between each value's physical position and its
    position in sorted order (ties keep physical order), rounded to four
    places.  Both are permutations of ``0..n-1``, so they share a mean
    and a variance."""
    n = len(values)
    if n < 2:
        return 0.0
    by_value = sorted(range(n), key=values.__getitem__)
    mean = (n - 1) / 2
    covariance = sum((rank - mean) * (position - mean)
                     for rank, position in enumerate(by_value))
    return round(covariance / (n * (n * n - 1) / 12), 4)


def collect_table_stats(table) -> TableStats:
    """Scan ``table`` once and summarise it (the ANALYZE workhorse)."""
    names = list(table.schema.names)
    per_column: list[list] = [[] for _ in names]
    nulls = [0] * len(names)
    rows = 0
    for row in table.rows():
        rows += 1
        for i, value in enumerate(row):
            if value is None:
                nulls[i] += 1
            else:
                per_column[i].append(value)
    stats = TableStats(row_count=rows,
                       page_count=max(table.heap.num_pages(), 1))
    for i, name in enumerate(names):
        values = per_column[i]
        column = ColumnStats(
            null_fraction=(nulls[i] / rows) if rows else 0.0,
            n_distinct=len(set(values)))
        if values and _orderable(values):
            column.correlation = physical_correlation(values)
            values.sort()
            column.minimum = values[0]
            column.maximum = values[-1]
            column.histogram = build_histogram(values)
        stats.columns[name] = column
    return stats
