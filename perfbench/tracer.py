"""Span tracing around the engine's layer entry points.

The benchmark never edits the engine: :func:`instrument` replaces the
public entry points of each layer (class methods and the module-level
functions imported by name) with wrappers that open a span, and
:meth:`Instrumentation.remove` puts the originals back.

A span is one call into a layer.  Spans are parented through a
per-thread stack; an operation span opened by the benchmark is the root
of every span its statement causes.  A generator entry point (a scan)
is one span whose busy time is the sum of its resumptions, so the time
the consumer spends between two batches is not charged to the scan.
Self time is busy time minus the busy time of the span's children.

Spans are kept in memory as tuples and written out by :meth:`Tracer.dump`
when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import threading
import time
from collections import Counter
from typing import Any, Callable, Optional

# Layer names follow the package layout: repro.<service>.<module>.
LAYERS = (
    "op",                  # root span of one benchmark operation
    "data.sql",
    "access.operators",
    "data.table",
    "access.btree",
    "access.heap_file",
    "access.record",
    "columnar",
    "storage.buffer",
    "storage.wal",
    "data.transactions",
    "storage.disk",
    "storage.vacuum",
    "storage.recovery",
)
LAYER_BIT = {layer: 1 << i for i, layer in enumerate(LAYERS)}

# (module, owner class or None for a module function, attribute, layer).
# A function imported by name into another module is a separate binding,
# so every module that calls it is listed.
ENTRY_POINTS = (
    ("repro.data.sql.plancache", "FingerprintCache", "get", "data.sql"),
    ("repro.data.sql.plancache", "PlanCache", "lookup", "data.sql"),
    ("repro.data.sql.parser", None, "parse", "data.sql"),
    ("repro.data.database", None, "parse", "data.sql"),
    ("repro.data.sql.planner", "Planner", "plan", "data.sql"),
    ("repro.data.sql.planner", "Planner", "plan_dml", "data.sql"),
    ("repro.data.sql.plancache", None, "build_template", "data.sql"),
    ("repro.data.database", None, "build_template", "data.sql"),
    ("repro.data.sql.plancache", "SelectTemplate", "instantiate",
     "data.sql"),
    ("repro.data.sql.optimizer", None, "choose_access_path", "data.sql"),
    ("repro.data.sql.planner", None, "choose_access_path", "data.sql"),
    ("repro.data.sql.plancache", None, "choose_access_path", "data.sql"),
    ("repro.access.operators", "Operator", "to_list_batched",
     "access.operators"),
    ("repro.data.sql.plancache", "SelectTemplate", "execute",
     "access.operators"),
    ("repro.data.sql.plancache", "DmlTemplate", "execute",
     "access.operators"),
    ("repro.data.sql.plancache", "InsertTemplate", "execute",
     "access.operators"),
    ("repro.data.table", "Table", "read_batches", "data.table"),
    ("repro.data.table", "Table", "read_many", "data.table"),
    ("repro.data.table", "Table", "read_pairs", "data.table"),
    ("repro.data.table", "Table", "scan_batches", "data.table"),
    ("repro.access.btree", "BPlusTree", "get", "access.btree"),
    ("repro.access.btree", "BPlusTree", "items", "access.btree"),
    ("repro.access.btree", "BPlusTree", "insert", "access.btree"),
    ("repro.access.btree", "BPlusTree", "delete", "access.btree"),
    ("repro.access.heap_file", "HeapFile", "read", "access.heap_file"),
    ("repro.access.heap_file", "HeapFile", "read_many",
     "access.heap_file"),
    ("repro.access.heap_file", "HeapFile", "scan", "access.heap_file"),
    ("repro.access.heap_file", "HeapFile", "scan_payload_batches",
     "access.heap_file"),
    ("repro.access.heap_file", "HeapFile", "scan_version_batches",
     "access.heap_file"),
    ("repro.access.heap_file", "HeapFile", "insert", "access.heap_file"),
    ("repro.access.heap_file", "HeapFile", "update", "access.heap_file"),
    ("repro.access.record", "RecordCodec", "decode", "access.record"),
    ("repro.access.record", "RecordCodec", "decode_many",
     "access.record"),
    ("repro.access.record", "RecordCodec", "decode_batch",
     "access.record"),
    ("repro.columnar.store", "ColumnarStore", "mirror_batches",
     "columnar"),
    ("repro.columnar.store", "ColumnarStore", "history_rows", "columnar"),
    ("repro.storage.buffer", "BufferPool", "fetch", "storage.buffer"),
    ("repro.storage.buffer", "BufferPool", "new_page", "storage.buffer"),
    ("repro.storage.wal", "WriteAheadLog", "append", "storage.wal"),
    ("repro.storage.wal", "WriteAheadLog", "flush", "storage.wal"),
    ("repro.data.transactions", "TransactionManager", "begin",
     "data.transactions"),
    ("repro.data.transactions", "Transaction", "commit",
     "data.transactions"),
    ("repro.data.transactions", "LockManager", "acquire",
     "data.transactions"),
    ("repro.storage.disk", "BlockDevice", "read_block", "storage.disk"),
    ("repro.storage.disk", "BlockDevice", "write_block", "storage.disk"),
    ("repro.storage.disk", "BlockDevice", "flush", "storage.disk"),
    ("repro.storage.vacuum", "VacuumManager", "run", "storage.vacuum"),
    ("repro.storage.recovery", "RecoveryManager", "recover",
     "storage.recovery"),
)


# Counters taken at the same boundaries as the spans:
# name -> (counter, what to count).  "result" counts from the return
# value, "item" from each yielded item, "arg" from the first argument.
_COUNTS: dict[str, tuple[str, str, Callable[[Any], int]]] = {
    "choose_access_path": (
        "access_path.seq_scan", "result",
        lambda choice: choice.path.startswith("seq_scan")),
    "Table.read_batches": ("rows.examined", "item", len),
    "Table.scan_batches": ("rows.examined", "item", len),
    "Table.read_many": ("rows.examined", "item", lambda row: 1),
    "Table.read_pairs": ("rows.examined", "item", lambda pair: 1),
    "ColumnarStore.mirror_batches": ("rows.examined", "item", len),
    "ColumnarStore.history_rows": ("rows.examined", "item",
                                   lambda row: 1),
    "RecordCodec.decode": ("record.rows", "arg", lambda payload: 1),
    "RecordCodec.decode_many": ("record.rows", "arg", len),
}


class Tracer:
    """In-memory span recorder with a per-thread parent stack.

    A recorded span is ``(span_id, parent_id, op_id, name, start_ns,
    end_ns, busy_ns, self_ns, ancestry)`` where ``ancestry`` is a bit
    mask of the layers of the span and of every span above it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._id_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _frame(self, name: str, layer: str) -> list:
        """A span frame: [id, parent_id, op_id, name, start_ns, busy_ns,
        child_ns, ancestry]."""
        stack = self._stack()
        with self._id_lock:
            span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            return [span_id, parent[0], parent[2], name, 0, 0, 0,
                    parent[7] | LAYER_BIT[layer]]
        op_id = span_id if layer == "op" else 0
        return [span_id, 0, op_id, name, 0, 0, 0, LAYER_BIT[layer]]

    def _enter(self, frame: list) -> int:
        stack = self._stack()
        started = time.perf_counter_ns()
        if not frame[4]:
            frame[4] = started
        stack.append(frame)
        return started

    def _leave(self, frame: list, started: int) -> int:
        ended = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        spent = ended - started
        frame[5] += spent
        if stack:
            stack[-1][6] += spent
        return ended

    def _record(self, frame: list, ended: int) -> None:
        span_id, parent_id, op_id, name, start, busy, child, anc = frame
        self.spans.append((span_id, parent_id, op_id, name, start, ended,
                           busy, busy - child, anc))

    def op(self, kind: str) -> "_OpSpan":
        """Context manager for the root span of one operation."""
        return _OpSpan(self, f"op:{kind}")

    def wrap(self, fn: Callable, name: str, layer: str,
             count: Optional[tuple] = None) -> Callable:
        """``fn`` inside a span named ``name``; ``count`` is an entry of
        :data:`_COUNTS` to tally at the same boundary."""
        counters = self.counters
        if inspect.isgeneratorfunction(fn):
            per_item = count if count and count[1] == "item" else None

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                frame = self._frame(name, layer)
                inner = fn(*args, **kwargs)
                ended = 0
                try:
                    while True:
                        started = self._enter(frame)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            ended = self._leave(frame, started)
                        if per_item is not None:
                            counters[per_item[0]] += per_item[2](item)
                        yield item
                finally:
                    inner.close()
                    if frame[4]:
                        self._record(frame, ended)
            return generator

        @functools.wraps(fn)
        def call(*args, **kwargs):
            frame = self._frame(name, layer)
            started = self._enter(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._record(frame, self._leave(frame, started))
            if count is not None:
                counter, source, measure = count
                if source == "result":
                    counters[counter] += measure(result)
                elif source == "arg":
                    counters[counter] += measure(args[1])
            return result
        return call

    def dump(self, path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span_id\tparent_id\top_id\tname\tstart_ns\tend_ns"
                      "\tbusy_ns\tself_ns\n")
            for span in self.spans:
                out.write("\t".join(str(v) for v in span[:8]) + "\n")


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.frame = tracer._frame(name, "op")
        self.started = 0

    def __enter__(self) -> "_OpSpan":
        self.started = self.tracer._enter(self.frame)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._record(self.frame,
                            self.tracer._leave(self.frame, self.started))


class Instrumentation:
    """The wrappers :func:`instrument` installed, removable in reverse."""

    def __init__(self) -> None:
        self._patched: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every entry point in :data:`ENTRY_POINTS` and count WAL bytes
    at record encoding."""
    installed = Instrumentation()
    for module_name, owner_name, attr, layer in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if owner_name is None:
            owner: Any = module
            name = f"{module_name.rsplit('.', 1)[1]}.{attr}"
        else:
            owner = getattr(module, owner_name)
            name = f"{owner_name}.{attr}"
        count = _COUNTS.get(attr if owner_name is None else name)
        installed.patch(owner, attr, tracer.wrap(owner.__dict__[attr],
                                                 name, layer, count))
    _count_wal_bytes(tracer, installed)
    return installed


def _count_wal_bytes(tracer: Tracer, installed: Instrumentation) -> None:
    from repro.storage.wal import LogRecord

    encode = LogRecord.__dict__["encode"]
    counters = tracer.counters

    @functools.wraps(encode)
    def counted(record):
        data = encode(record)
        counters["wal.bytes"] += len(data)
        return data
    installed.patch(LogRecord, "encode", counted)
