"""Per-layer metrics from a traced pass.

Each metric is ``(value, unit, numerator, denominator)`` so a ratio is
always printed with its base.  "Per op" divides by the timed operations
of the pass; only spans inside an operation count towards per-op time.
``*_us_per_op`` is self time: a span's busy time minus its children's.
Times are scaled to reference speed by the pass's median scale (see
``speed.py``), like the end-to-end timings.
"""

from __future__ import annotations

from collections import Counter

from tracer import ENTRY_POINTS, LAYER_BIT

LAYER_OF = {(f"{owner}.{attr}" if owner else
             f"{module.rsplit('.', 1)[1]}.{attr}"): layer
            for module, owner, attr, layer in ENTRY_POINTS}

PARSE = {"parser.parse", "database.parse"}
ACCESS_PATH = {"optimizer.choose_access_path",
               "planner.choose_access_path",
               "plancache.choose_access_path"}
PLAN = {"Planner.plan", "Planner.plan_dml", "plancache.build_template",
        "database.build_template", "SelectTemplate.instantiate",
        *ACCESS_PATH}
BTREE_LAYER = "access.btree"
HEAP_LAYER = "access.heap_file"

# (name, unit) in output order; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("sql.fingerprint.us_per_op", "us/op"),
    ("sql.plan_cache.hit_ratio", "ratio"),
    ("sql.parse.calls_per_op", "calls/op"),
    ("sql.plan.us_per_op", "us/op"),
    ("sql.access_path.calls_per_op", "calls/op"),
    ("sql.access_path.seq_scan_share", "ratio"),
    ("exec.us_per_op", "us/op"),
    ("table.us_per_op", "us/op"),
    ("table.rows_examined_per_row_returned", "ratio"),
    ("btree.calls_per_op", "calls/op"),
    ("btree.us_per_op", "us/op"),
    ("btree.pages_per_lookup", "pages"),
    ("heap.us_per_op", "us/op"),
    ("heap.pages_per_op", "pages/op"),
    ("record.us_per_op", "us/op"),
    ("record.rows_decoded_per_op", "rows/op"),
    ("columnar.us_per_op", "us/op"),
    ("columnar.blocks_per_op", "blocks/op"),
    ("columnar.skip_ratio", "ratio"),
    ("buffer.fetches_per_op", "fetches/op"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.evictions_per_op", "pages/op"),
    ("buffer.writebacks_per_op", "pages/op"),
    ("buffer.us_per_op", "us/op"),
    ("wal.appends_per_op", "records/op"),
    ("wal.bytes_per_op", "B/op"),
    ("wal.flushes_per_op", "flushes/op"),
    ("wal.us_per_op", "us/op"),
    ("txn.commit_us_per_op", "us/op"),
    ("locks.acquires_per_op", "calls/op"),
    ("locks.us_per_op", "us/op"),
    ("locks.waits", "count"),
    ("disk.reads_per_op", "blocks/op"),
    ("disk.writes_per_op", "blocks/op"),
    ("disk.flushes_per_op", "flushes/op"),
    ("disk.bytes_written_per_op", "B/op"),
    ("disk.us_per_op", "us/op"),
    ("vacuum.runs", "count"),
    ("vacuum.stall_ms_per_op", "ms/op"),
    ("vacuum.versions_reclaimed", "count"),
    ("vacuum.rows_migrated", "count"),
    ("recovery.us", "us"),
    ("other.us_per_op", "us/op"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.slowdown", "ratio"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, phase, plain) -> dict:
    """``name -> (value, unit, numerator, denominator)`` for every name
    in :data:`PER_LAYER`, from the traced ``phase`` and its untraced
    twin ``plain``."""
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    fetch_under_btree = fetch_under_heap = 0
    vacuum_ns = recovery_ns = 0
    for _, _, op_id, name, _, _, busy, own, ancestry in tracer.spans:
        if name == "RecoveryManager.recover":
            recovery_ns += busy
        if not op_id:
            continue
        self_ns[name] += own
        calls[name] += 1
        if name == "BufferPool.fetch":
            fetch_under_btree += bool(ancestry & LAYER_BIT[BTREE_LAYER])
            fetch_under_heap += bool(ancestry & LAYER_BIT[HEAP_LAYER])
        elif name == "VacuumManager.run":
            vacuum_ns += busy

    layer_ns: Counter = Counter()
    layer_calls: Counter = Counter()
    for name, ns in self_ns.items():
        layer = LAYER_OF.get(name, "op")
        layer_ns[layer] += ns
        layer_calls[layer] += calls[name]

    ops = phase.ops
    counts = phase.counts
    counters = tracer.counters
    scale = phase.scale             # raw span time -> reference speed

    def us(names_or_layer) -> float:
        if isinstance(names_or_layer, str):
            return layer_ns[names_or_layer] * scale / 1e3
        return sum(self_ns[name] for name in names_or_layer) * scale / 1e3

    def n(names) -> int:
        return sum(calls[name] for name in names)

    fetches = counts["buffer.hits"] + counts["buffer.misses"]
    btree_calls = layer_calls[BTREE_LAYER]
    scanned = counts["columnar.blocks_scanned"]
    skipped = counts["columnar.blocks_skipped"]
    traced_rate = phase.ops_per_s()
    plain_rate = plain.ops_per_s()
    raw = {
        "sql.fingerprint.us_per_op": (us({"FingerprintCache.get"}), ops),
        "sql.plan_cache.hit_ratio": (counts["plan_cache.hits"],
                                     counts["plan_cache.lookups"]),
        "sql.parse.calls_per_op": (n(PARSE), ops),
        "sql.plan.us_per_op": (us(PLAN), ops),
        "sql.access_path.calls_per_op": (n(ACCESS_PATH), ops),
        "sql.access_path.seq_scan_share": (
            counters["access_path.seq_scan"], n(ACCESS_PATH)),
        "exec.us_per_op": (us("access.operators"), ops),
        "table.us_per_op": (us("data.table"), ops),
        "table.rows_examined_per_row_returned": (
            counters["rows.examined"], phase.rows_returned),
        "btree.calls_per_op": (btree_calls, ops),
        "btree.us_per_op": (us(BTREE_LAYER), ops),
        "btree.pages_per_lookup": (fetch_under_btree, btree_calls),
        "heap.us_per_op": (us(HEAP_LAYER), ops),
        "heap.pages_per_op": (fetch_under_heap, ops),
        "record.us_per_op": (us("access.record"), ops),
        "record.rows_decoded_per_op": (counters["record.rows"], ops),
        "columnar.us_per_op": (us("columnar"), ops),
        "columnar.blocks_per_op": (scanned, ops),
        "columnar.skip_ratio": (skipped, scanned + skipped),
        "buffer.fetches_per_op": (fetches, ops),
        "buffer.hit_ratio": (counts["buffer.hits"], fetches),
        "buffer.evictions_per_op": (counts["buffer.evictions"], ops),
        "buffer.writebacks_per_op": (counts["buffer.writebacks"], ops),
        "buffer.us_per_op": (us("storage.buffer"), ops),
        "wal.appends_per_op": (calls["WriteAheadLog.append"], ops),
        "wal.bytes_per_op": (counters["wal.bytes"], ops),
        "wal.flushes_per_op": (calls["WriteAheadLog.flush"], ops),
        "wal.us_per_op": (us("storage.wal"), ops),
        "txn.commit_us_per_op": (us({"Transaction.commit"}), ops),
        "locks.acquires_per_op": (calls["LockManager.acquire"], ops),
        "locks.us_per_op": (us({"LockManager.acquire"}), ops),
        "locks.waits": (counts["locks.waits"], 1),
        "disk.reads_per_op": (counts["disk.reads"], ops),
        "disk.writes_per_op": (counts["disk.writes"], ops),
        "disk.flushes_per_op": (counts["disk.flushes"], ops),
        "disk.bytes_written_per_op": (counts["disk.bytes_written"], ops),
        "disk.us_per_op": (us("storage.disk"), ops),
        "vacuum.runs": (counts["vacuum.runs"], 1),
        "vacuum.stall_ms_per_op": (vacuum_ns * scale / 1e6, ops),
        "vacuum.versions_reclaimed": (counts["vacuum.versions_reclaimed"],
                                      1),
        "vacuum.rows_migrated": (counts["vacuum.rows_migrated"], 1),
        "recovery.us": (recovery_ns * scale / 1e3, 1),
        "other.us_per_op": (us("op"), ops),
        "trace.ops_per_s": (traced_rate, 1),
        "trace.untraced_ops_per_s": (plain_rate, 1),
        "trace.slowdown": (plain_rate, traced_rate),
    }
    return {name: (_ratio(*raw[name]), unit, *raw[name])
            for name, unit in PER_LAYER}
