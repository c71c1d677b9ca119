"""The three seeded workloads and their reference models.

Every workload is built from its seed alone: the generated rows, the
operation list and the expected result of every read.  The engine sees
only the SQL text and the parameters.  One client runs the operations
in a closed loop: it sends the next statement when the previous reply
has arrived.

- ``read_hot``: 5,000 rows that fit the 256-frame pool; 90% PK point
  reads on Zipf(0.99) keys, 10% 20-key PK ranges from uniform starts.
- ``analytic``: a 10,000-row fact table and an 8-row dimension on the
  columnar mirror; one operation is a fixed report of four queries.
- ``write_oltp``: 10,000 rows over a 64-frame pool; one operation is a
  transaction of two read-then-update pairs and one insert.

All three keep data and WAL on fault-free ``FaultyDevice`` wrappers over
``MemoryDevice``s, so ``crash()`` can drop whatever was not flushed.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import math
import random
from dataclasses import dataclass, field

from repro.data import Database
from repro.storage.disk import MemoryDevice
from repro.storage.faultdev import FaultyDevice

ITEMS_DDL = ("CREATE TABLE items (id INT PRIMARY KEY, grp INT, "
             "label TEXT, value FLOAT)")
ITEMS_COLUMNS = "id, grp, label, value"
POINT_SQL = f"SELECT {ITEMS_COLUMNS} FROM items WHERE id = ?"
RANGE_SQL = f"SELECT {ITEMS_COLUMNS} FROM items WHERE id >= ? AND id < ?"
INSERT_ITEM_SQL = "INSERT INTO items VALUES (?, ?, ?, ?)"
UPDATE_SQL = "UPDATE items SET value = ? WHERE id = ?"
SCAN_ITEMS_SQL = f"SELECT {ITEMS_COLUMNS} FROM items"

RANGE_KEYS = 20
RANGE_SHARE = 0.1
REOPEN_REPEATS = 300
REOPEN_MIN_S = 1.0
ZIPF_THETA = 0.99
FLUSH_POLICY = ("WAL flushed on every commit (group commit on, one "
                "client); data pages written back on eviction and at "
                "checkpoint")


def row_bytes(row: tuple) -> int:
    """Logical size of a row, independent of the engine's record format:
    8 bytes per number, 4 + UTF-8 length per string."""
    return sum(4 + len(v.encode()) if isinstance(v, str) else 8
               for v in row)


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest of p99.9/p99/p95/p90 with at least ten samples above
    it at ``count`` samples (p50 when even p90 has fewer)."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


@dataclass
class Env:
    """One database from empty devices to ready, plus its model."""

    db: Database
    data: FaultyDevice
    wal: FaultyDevice
    setup_raw_ns: int
    setup_ns: float                # at reference speed
    model: dict                    # id -> row the database must hold
    logical_written: int           # logical bytes of every row written
    ledger: dict = field(default_factory=dict)   # id -> op index


@dataclass
class Outcome:
    """What one operation returned, judged against the model."""

    kind: str
    ok: bool
    rows: int


class Workload:
    """Common driver: setup, the timed loop, crash and verification."""

    name = ""
    frames = 256
    #: Size of a pass: ``round(seconds * ops_per_run_second)`` timed
    #: operations.  Passes are not time-boxed, so every count repeats
    #: exactly for a seed.
    ops_per_run_second = 1.0
    #: Percentile reported as ``op_tail_us``: the highest with at least
    #: ten samples beyond it at the benchmark's run size.
    tail_q = 99.0
    warmup_ops = 0
    tables: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.rows = self.generate_rows()

    # -- inputs -------------------------------------------------------------

    def generate_rows(self) -> list[tuple]:
        raise NotImplementedError

    def operations(self, count: int) -> list:
        """The warm-up operations followed by ``count`` timed ones.  Each
        part comes from its own stream, so the timed part has the same
        mix whatever the warm-up length."""
        warmup = self.make_ops(
            random.Random(f"{self.name}:{self.seed}:warmup"),
            self.warmup_ops, 0)
        return warmup + self.make_ops(
            random.Random(f"{self.name}:{self.seed}:ops"), count,
            self.warmup_ops)

    def make_ops(self, rng: random.Random, count: int,
                 first: int) -> list:
        """``count`` operations; ``first`` is the index of the first."""
        raise NotImplementedError

    def op_count(self, seconds: int) -> int:
        return max(1, round(seconds * self.ops_per_run_second))

    def input_digest(self, seconds: int) -> str:
        """Digest of every generated input (rows and operations)."""
        digest = hashlib.sha256(repr(self.rows).encode())
        digest.update(repr(self.operations(self.op_count(seconds))).encode())
        return digest.hexdigest()

    # -- lifecycle ----------------------------------------------------------

    def open(self, data: FaultyDevice, wal: FaultyDevice) -> Database:
        return Database(device=data, wal_device=wal,
                        buffer_capacity=self.frames)

    def load(self, db: Database) -> None:
        """DDL, load, ANALYZE and checkpoint."""
        raise NotImplementedError

    def setup(self, speed) -> Env:
        """Open a database on empty devices and load it, timed."""
        data = FaultyDevice(MemoryDevice())
        wal = FaultyDevice(MemoryDevice())

        def build() -> Database:
            db = self.open(data, wal)
            self.load(db)
            return db
        db, raw_ns, setup_ns = speed.measure(build)
        model = {row[0]: row for row in self.rows}
        return Env(db, data, wal, raw_ns, setup_ns, model,
                   sum(row_bytes(row) for row in self.rows))

    def prepare_expectations(self, ops: list) -> None:
        """Compute expected results that do not depend on the database
        state before the timed loop (a no-op unless overridden)."""

    def run_op(self, env: Env, index: int, op) -> Outcome:
        raise NotImplementedError

    def crash_and_reopen(self, env: Env, speed) -> list[tuple]:
        """Drop everything not flushed on both devices, then reopen the
        database with recovery; returns ``(raw, scaled)`` nanoseconds of
        each reopen.

        A short reopen is repeated from the same crashed images (up to
        :data:`REOPEN_REPEATS` times, until :data:`REOPEN_MIN_S` of raw
        time is spent), so that no single moment decides the figure."""
        env.db.vacuum_manager.stop()
        env.db.scrub_manager.stop()
        env.data.crash()
        env.wal.crash()
        images = (env.data.inner.snapshot(), env.wal.inner.snapshot())
        times: list[tuple] = []
        while True:
            env.db = None       # the previous incarnation's garbage is
            gc.collect()        # collected before the clock starts
            env.db, raw, scaled = speed.measure(
                lambda: self.open(env.data, env.wal))
            times.append((raw, scaled))
            if len(times) >= REOPEN_REPEATS \
                    or sum(r for r, _ in times) >= REOPEN_MIN_S * 1e9:
                return times
            env.data.inner.restore(images[0])
            env.wal.inner.restore(images[1])

    def verify_after_crash(self, env: Env) -> list[int]:
        """Ids whose row after recovery differs from the model (an
        acknowledged write lost, or a row that should not exist)."""
        actual = {row[0]: row for row in env.db.query(self.scan_sql())}
        return sorted(key for key in set(actual) | set(env.model)
                      if actual.get(key) != env.model.get(key))

    def scan_sql(self) -> str:
        return SCAN_ITEMS_SQL

    def describe(self, env: Env) -> dict:
        """Sizes recorded with every result: rows and heap pages per
        table against the pool's frames, and the flush policy."""
        tables = {}
        for name in self.tables:
            table = env.db.catalog.table(name)
            tables[name] = {"rows": table.row_count,
                            "heap_pages": table.heap.num_pages()}
        return {"tables": tables, "pool_frames": self.frames,
                "flush_policy": FLUSH_POLICY}


def _load_rows(db: Database, sql: str, rows: list[tuple]) -> None:
    db.execute("BEGIN")
    db.executemany(sql, rows)
    db.execute("COMMIT")


def _item_row(rng: random.Random, key: int) -> tuple:
    return (key, rng.randrange(100), f"item-{rng.getrandbits(40):010x}",
            rng.random() * 1000.0)


class ItemsWorkload(Workload):
    """A workload over the ``items`` table, loaded and ANALYZE'd."""

    table_rows = 0
    tables = ("items",)

    def generate_rows(self) -> list[tuple]:
        return [_item_row(self.rng, key) for key in range(self.table_rows)]

    def load(self, db: Database) -> None:
        db.execute(ITEMS_DDL)
        _load_rows(db, INSERT_ITEM_SQL, self.rows)
        db.execute("ANALYZE items")
        db.checkpoint()


class ReadHot(ItemsWorkload):
    """Point and short range reads over a table that fits the pool."""

    name = "read_hot"
    frames = 256
    table_rows = 5_000
    ops_per_run_second = 800.0
    warmup_ops = 500

    def make_ops(self, rng: random.Random, count: int,
                 first: int) -> list:
        # Zipf ranks map to keys through a seeded permutation, so the hot
        # keys are spread over the heap rather than packed in page 0.
        keys = list(range(self.table_rows))
        rng.shuffle(keys)
        weights, total = [], 0.0
        for rank in range(1, self.table_rows + 1):
            total += 1.0 / rank ** ZIPF_THETA
            weights.append(total)
        # Exactly RANGE_SHARE of the operations are ranges, and their
        # start keys are uniform by strata: ranges cost ~50x a point read
        # and flip plans at a start key, so a binomial count or clumped
        # starts would move the run's totals from seed to seed.
        ranges = round(count * RANGE_SHARE)
        span = self.table_rows - RANGE_KEYS + 1
        starts = [rng.randrange(i * span // ranges,
                                (i + 1) * span // ranges)
                  for i in range(ranges)]
        rng.shuffle(starts)
        at = set(rng.sample(range(count), ranges))
        ops = []
        for index in range(count):
            if index in at:
                ops.append(("range", starts.pop()))
            else:
                rank = bisect.bisect_left(weights, rng.random() * total)
                ops.append(("point", keys[min(rank, self.table_rows - 1)]))
        return ops

    def run_op(self, env: Env, index: int, op) -> Outcome:
        kind, key = op
        if kind == "point":
            rows = env.db.query(POINT_SQL, (key,))
            return Outcome(kind, rows == [env.model[key]], len(rows))
        rows = env.db.query(RANGE_SQL, (key, key + RANGE_KEYS))
        expected = [env.model[k] for k in range(key, key + RANGE_KEYS)]
        return Outcome(kind, sorted(rows) == expected, len(rows))


class Analytic(Workload):
    """A fixed four-query report over the columnar mirror."""

    name = "analytic"
    frames = 256
    table_rows = 10_000
    regions = 8
    days = 365
    day_window = 30
    products = 200
    ops_per_run_second = 17.0
    tail_q = 90.0
    warmup_ops = 5
    tables = ("sales", "region")

    Q_GROUP = ("SELECT region, COUNT(*), SUM(qty), SUM(price) FROM sales "
               "GROUP BY region")
    Q_DAYS = ("SELECT COUNT(*), SUM(qty * price) FROM sales "
              "WHERE day >= ? AND day < ?")
    Q_JOIN = ("SELECT r.rname, COUNT(*), SUM(s.price) FROM sales s "
              "JOIN region r ON s.region = r.rid GROUP BY r.rname")
    Q_TOP = ("SELECT id, price FROM sales WHERE product = ? "
             "ORDER BY price DESC, id LIMIT 10")

    def generate_rows(self) -> list[tuple]:
        rng = self.rng
        return [(key, key * self.days // self.table_rows,
                 rng.randrange(self.regions), rng.randrange(self.products),
                 rng.randint(1, 20), round(rng.uniform(1.0, 500.0), 2),
                 rng.choice(("web", "store", "phone")))
                for key in range(self.table_rows)]

    def region_rows(self) -> list[tuple]:
        return [(rid, f"region-{rid}") for rid in range(self.regions)]

    def make_ops(self, rng: random.Random, count: int,
                 first: int) -> list:
        return [(rng.randrange(self.days - self.day_window + 1),
                 rng.randrange(self.products)) for _ in range(count)]

    def load(self, db: Database) -> None:
        db.execute("CREATE TABLE sales (id INT PRIMARY KEY, day INT, "
                   "region INT, product INT, qty INT, price FLOAT, "
                   "channel TEXT)")
        db.execute("CREATE TABLE region (rid INT PRIMARY KEY, rname TEXT)")
        _load_rows(db, "INSERT INTO region VALUES (?, ?)",
                   self.region_rows())
        _load_rows(db, "INSERT INTO sales VALUES (?, ?, ?, ?, ?, ?, ?)",
                   self.rows)
        # Statistics on the fact table only: with the 8-row dimension
        # analyzed too, the planner orders region first and picks a
        # nested loop over the fact table, which is ~4x slower than the
        # hash join this workload is meant to exercise.
        db.execute("ANALYZE sales")
        db.execute("VACUUM")
        db.checkpoint()

    def setup(self, speed) -> Env:
        env = super().setup(speed)
        env.logical_written += sum(row_bytes(row)
                                   for row in self.region_rows())
        return env

    # The reference model: pure-Python aggregates of the generated rows.

    def expected_static(self) -> tuple:
        by_region: dict[int, list] = {}
        for row in self.rows:
            agg = by_region.setdefault(row[2], [0, 0, 0.0])
            agg[0] += 1
            agg[1] += row[4]
            agg[2] += row[5]
        group = {region: tuple(agg) for region, agg in by_region.items()}
        join = {f"region-{region}": (agg[0], agg[2])
                for region, agg in by_region.items()}
        return group, join

    def expected_op(self, op) -> tuple:
        day, product = op
        window = [row for row in self.rows
                  if day <= row[1] < day + self.day_window]
        days = (len(window), sum(row[4] * row[5] for row in window))
        top = sorted(((row[0], row[5]) for row in self.rows
                      if row[3] == product),
                     key=lambda pair: (-pair[1], pair[0]))[:10]
        return days, top

    def run_op(self, env: Env, index: int, op) -> Outcome:
        db = env.db
        group_rows = db.query(self.Q_GROUP)
        day_rows = db.query(self.Q_DAYS, (op[0], op[0] + self.day_window))
        join_rows = db.query(self.Q_JOIN)
        top_rows = db.query(self.Q_TOP, (op[1],))
        group, join = self._static
        days, top = self._expected[index]
        ok = (_same_groups(group_rows, group)
              and len(day_rows) == 1
              and _close_tuple(day_rows[0], days)
              and _same_groups(join_rows, join)
              and [tuple(row) for row in top_rows] == top)
        rows = len(group_rows) + len(day_rows) + len(join_rows) \
            + len(top_rows)
        return Outcome("report", ok, rows)

    def prepare_expectations(self, ops: list) -> None:
        """Compute every report's expected result before the timed loop,
        so checking costs the loop nothing."""
        self._static = self.expected_static()
        self._expected = [self.expected_op(op) for op in ops]

    def scan_sql(self) -> str:
        return "SELECT id, day, region, product, qty, price, channel " \
               "FROM sales"

    def verify_after_crash(self, env: Env) -> list[int]:
        lost = super().verify_after_crash(env)
        regions = sorted(env.db.query("SELECT rid, rname FROM region"))
        if regions != self.region_rows():
            lost.append(-1)
        return lost


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def _close_tuple(actual: tuple, expected: tuple) -> bool:
    return len(actual) == len(expected) and all(
        _close(a, b) for a, b in zip(actual, expected))


def _same_groups(rows: list, expected: dict) -> bool:
    return len(rows) == len(expected) and all(
        row[0] in expected and _close_tuple(row[1:], expected[row[0]])
        for row in rows)


class WriteOltp(ItemsWorkload):
    """Short write transactions over data larger than the pool."""

    name = "write_oltp"
    frames = 64
    table_rows = 10_000
    ops_per_run_second = 200.0
    # Above p90 the latency curve is sparse and steep (eviction
    # write-backs and B+-tree splits hit a few percent of transactions,
    # autovacuum stalls 0.78%): p95 moved 19% and p99 swung 6-22 ms
    # between runs.  The stalls are carried by ops_per_s instead.
    tail_q = 90.0
    warmup_ops = 50

    def make_ops(self, rng: random.Random, count: int,
                 first: int) -> list:
        ops = []
        for index in range(first, first + count):
            one, two = rng.sample(range(self.table_rows), 2)
            new_key = self.table_rows + index
            ops.append(((one, rng.random() * 1000.0),
                        (two, rng.random() * 1000.0),
                        _item_row(rng, new_key)))
        return ops

    def run_op(self, env: Env, index: int, op) -> Outcome:
        db, model = env.db, env.model
        updates, new_row = op[:2], op[2]
        checks = []
        db.execute("BEGIN")
        try:
            for key, value in updates:
                checks.append(db.query(POINT_SQL, (key,)) == [model[key]])
                checks.append(
                    db.execute(UPDATE_SQL, (value, key)).affected == 1)
            checks.append(db.execute(INSERT_ITEM_SQL, new_row).affected == 1)
        except BaseException:
            db.execute("ROLLBACK")
            raise
        db.execute("COMMIT")
        # Acknowledged: the commit returned, so every write below must
        # survive a crash.
        for key, value in updates:
            row = model[key]
            model[key] = row[:3] + (value,)
            env.logical_written += row_bytes(model[key])
            env.ledger[key] = index
        model[new_row[0]] = new_row
        env.logical_written += row_bytes(new_row)
        env.ledger[new_row[0]] = index
        return Outcome("txn", all(checks), 2)


WORKLOADS = {cls.name: cls for cls in (ReadHot, Analytic, WriteOltp)}


def failed_after_crash(env: Env, lost: list[int]) -> tuple[int, int]:
    """(failed, extra attempted) for the post-crash check: each
    acknowledged transaction with a lost write is one failed operation;
    rows of the initial load that changed count as one failed restart."""
    txns = {env.ledger[key] for key in lost if key in env.ledger}
    initial = [key for key in lost if key not in env.ledger]
    return len(txns) + (1 if initial else 0), 1

