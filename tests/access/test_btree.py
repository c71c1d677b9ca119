"""B+-tree tests: functional, structural, and model-based."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import BPlusTree, encode_key
from repro.data import Database
from repro.errors import DuplicateKeyError, IndexError_, KeyNotFoundError
from repro.storage import (
    BufferPool,
    DiskManager,
    FileManager,
    MemoryDevice,
    PageId,
    PageManager,
)


def make_tree(block_size=512, capacity=64):
    """Small pages force deep trees with few keys."""
    fm = FileManager(DiskManager(MemoryDevice(block_size=block_size)))
    fid = fm.create_file("idx")
    pm = PageManager(BufferPool(fm, capacity=capacity))
    return BPlusTree(pm, fid), pm, fid


def ik(i: int) -> bytes:
    return encode_key(i)


class TestBasics:
    def test_insert_get(self):
        tree, _, _ = make_tree()
        tree.insert(ik(1), b"one")
        assert tree.get(ik(1)) == b"one"
        assert tree.get(ik(2)) is None
        assert len(tree) == 1

    def test_duplicate_rejected(self):
        tree, _, _ = make_tree()
        tree.insert(ik(1), b"a")
        with pytest.raises(DuplicateKeyError):
            tree.insert(ik(1), b"b")

    def test_replace(self):
        tree, _, _ = make_tree()
        tree.insert(ik(1), b"a")
        tree.insert(ik(1), b"b", replace=True)
        assert tree.get(ik(1)) == b"b"
        assert len(tree) == 1

    def test_delete(self):
        tree, _, _ = make_tree()
        tree.insert(ik(1), b"a")
        tree.delete(ik(1))
        assert tree.get(ik(1)) is None
        with pytest.raises(KeyNotFoundError):
            tree.delete(ik(1))

    def test_many_inserts_split(self):
        tree, _, _ = make_tree()
        n = 500
        for i in range(n):
            tree.insert(ik(i), f"val{i}".encode())
        assert tree.height > 1
        for i in range(n):
            assert tree.get(ik(i)) == f"val{i}".encode()
        tree.check_invariants()

    def test_reverse_order_inserts(self):
        tree, _, _ = make_tree()
        for i in reversed(range(300)):
            tree.insert(ik(i), b"v")
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == [ik(i) for i in range(300)]

    def test_items_sorted(self):
        tree, _, _ = make_tree()
        import random
        rng = random.Random(7)
        keys = list(range(200))
        rng.shuffle(keys)
        for k in keys:
            tree.insert(ik(k), str(k).encode())
        got = [k for k, _ in tree.items()]
        assert got == sorted(got)
        assert len(got) == 200


class TestRangeScans:
    def setup_method(self):
        self.tree, _, _ = make_tree()
        for i in range(0, 100, 2):  # even keys 0..98
            self.tree.insert(ik(i), str(i).encode())

    def test_bounded_range(self):
        got = [k for k, _ in self.tree.items(lo=ik(10), hi=ik(20))]
        assert got == [ik(i) for i in (10, 12, 14, 16, 18)]

    def test_inclusive_hi(self):
        got = [k for k, _ in self.tree.items(lo=ik(10), hi=ik(20),
                                             hi_inclusive=True)]
        assert got[-1] == ik(20)

    def test_exclusive_lo(self):
        got = [k for k, _ in self.tree.items(lo=ik(10), hi=ik(20),
                                             lo_inclusive=False)]
        assert got[0] == ik(12)

    def test_unbounded_lo(self):
        got = [k for k, _ in self.tree.items(hi=ik(6))]
        assert got == [ik(0), ik(2), ik(4)]

    def test_missing_bound_keys(self):
        got = [k for k, _ in self.tree.items(lo=ik(11), hi=ik(15))]
        assert got == [ik(12), ik(14)]

    def test_empty_range(self):
        assert list(self.tree.items(lo=ik(11), hi=ik(12))) == []

    def test_prefix_scan(self):
        tree, _, _ = make_tree()
        for name in ["alpha", "beta", "gamma"]:
            for i in range(3):
                tree.insert(encode_key((name, i)), b"")
        got = list(tree.prefix_scan(encode_key("beta")))
        assert len(got) == 3


class TestDeletionRebalancing:
    def test_delete_everything(self):
        tree, _, _ = make_tree()
        n = 400
        for i in range(n):
            tree.insert(ik(i), str(i).encode())
        for i in range(n):
            tree.delete(ik(i))
            if i % 50 == 0:
                tree.check_invariants()
        assert len(tree) == 0
        assert tree.height == 1
        tree.check_invariants()

    def test_delete_reverse(self):
        tree, _, _ = make_tree()
        n = 400
        for i in range(n):
            tree.insert(ik(i), b"v")
        for i in reversed(range(n)):
            tree.delete(ik(i))
        assert len(tree) == 0
        tree.check_invariants()

    def test_interleaved_insert_delete(self):
        tree, _, _ = make_tree()
        alive = set()
        for i in range(600):
            tree.insert(ik(i), b"v")
            alive.add(i)
            if i % 3 == 0:
                victim = min(alive)
                tree.delete(ik(victim))
                alive.remove(victim)
        tree.check_invariants()
        assert {k for k, _ in tree.items()} == {ik(i) for i in alive}


class TestPersistence:
    def test_reopen_from_pages(self):
        fm = FileManager(DiskManager(MemoryDevice(block_size=512)))
        fid = fm.create_file("idx")
        pm = PageManager(BufferPool(fm, capacity=64))
        tree = BPlusTree(pm, fid)
        for i in range(200):
            tree.insert(ik(i), str(i).encode())
        pm.pool.flush_all()
        pm.pool.drop_all()

        tree2 = BPlusTree(PageManager(BufferPool(fm, capacity=64)), fid)
        assert len(tree2) == 200
        for i in range(200):
            assert tree2.get(ik(i)) == str(i).encode()
        tree2.check_invariants()

    def test_large_values(self):
        tree, _, _ = make_tree(block_size=4096)
        tree.insert(ik(1), b"v" * 1000)
        assert tree.get(ik(1)) == b"v" * 1000


@st.composite
def operations(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        key = draw(st.integers(min_value=0, max_value=60))
        ops.append((kind, key))
    return ops


class TestModelBased:
    @given(operations())
    @settings(max_examples=80, deadline=None)
    def test_against_dict(self, ops):
        tree, _, _ = make_tree(block_size=256)
        model: dict[int, bytes] = {}
        for kind, key in ops:
            value = f"{kind}:{key}".encode()
            if kind == "insert":
                if key in model:
                    with pytest.raises(DuplicateKeyError):
                        tree.insert(ik(key), value)
                else:
                    tree.insert(ik(key), value)
                    model[key] = value
            elif kind == "replace":
                tree.insert(ik(key), value, replace=True)
                model[key] = value
            else:
                if key in model:
                    tree.delete(ik(key))
                    del model[key]
                else:
                    with pytest.raises(KeyNotFoundError):
                        tree.delete(ik(key))
        assert {k: v for k, v in tree.items()} == \
            {ik(k): v for k, v in model.items()}
        tree.check_invariants()

    @given(st.sets(st.integers(min_value=-1000, max_value=1000),
                   min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_sorted_iteration(self, keys):
        tree, _, _ = make_tree(block_size=256)
        for k in keys:
            tree.insert(ik(k), b"")
        got = [k for k, _ in tree.items()]
        assert got == [ik(k) for k in sorted(keys)]


# ---------------------------------------------------------------------------
# Decoded nodes kept on buffer frames
# ---------------------------------------------------------------------------


def assert_decoded_match_bytes(tree, pm):
    """Every decoded node resident on a frame equals a fresh decode of
    that frame's bytes."""
    for page in pm.pool.iter_resident():
        if page.page_id.file_id == tree.file_id \
                and page.decoded is not None:
            assert page.decoded == tree._load_node(page.page_id.page_no), \
                f"stale decoded node on {page.page_id}"


def answers(tree, keys):
    return ([tree.get(ik(k)) for k in keys], list(tree.items()))


@st.composite
def cached_operations(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["insert", "delete", "get", "items"]))
        key = draw(st.integers(min_value=0, max_value=400))
        width = draw(st.integers(min_value=0, max_value=80))
        ops.append((kind, key, width))
    return ops


class TestDecodedNodeCache:
    @given(cached_operations())
    @settings(max_examples=40, deadline=None)
    def test_interleaving_against_dict_with_evictions(self, ops):
        # 256-byte pages and 6 frames: the pre-filled tree spans dozens
        # of pages, so nearly every visit evicts some decoded node.
        tree, pm, _ = make_tree(block_size=256, capacity=6)
        model: dict[int, bytes] = {}
        for key in range(0, 400, 3):
            tree.insert(ik(key), b"seed%d" % key)
            model[key] = b"seed%d" % key
        evictions = pm.pool.stats.evictions
        for step, (kind, key, width) in enumerate(ops):
            if kind == "insert":
                value = b"v%d.%d" % (key, step)
                tree.insert(ik(key), value, replace=True)
                model[key] = value
            elif kind == "delete":
                if key in model:
                    tree.delete(ik(key))
                    del model[key]
                else:
                    with pytest.raises(KeyNotFoundError):
                        tree.delete(ik(key))
            elif kind == "get":
                assert tree.get(ik(key)) == model.get(key)
            else:
                got = list(tree.items(ik(key), ik(key + width)))
                assert got == [(ik(k), model[k]) for k in sorted(model)
                               if key <= k < key + width]
            tree.check_invariants()
            assert_decoded_match_bytes(tree, pm)
        assert pm.pool.stats.evictions > evictions

    def test_failed_store_leaves_shared_nodes_untouched(self):
        tree, pm, _ = make_tree(block_size=512)
        keys = range(1, 21)
        for k in keys:
            tree.insert(ik(k), b"v%d" % k)
        before = answers(tree, keys)          # decodes onto the frames
        # Sorts before every encoded int, so the split's left half holds
        # it and fails to serialise before anything is written.
        oversized = b"\x00" * 600
        with pytest.raises(IndexError_, match="too large"):
            tree.insert(oversized, b"x")
        assert tree.get(oversized) is None
        assert answers(tree, keys) == before
        assert_decoded_match_bytes(tree, pm)
        for page in pm.pool.iter_resident():
            page.decoded = None
        assert answers(tree, keys) == before   # the page bytes agree
        tree.check_invariants()

    def test_page_write_drops_decoded_node(self):
        tree, pm, fid = make_tree(block_size=512)
        for k in range(50):
            tree.insert(ik(k), b"val%02d" % k)
        assert tree.get(ik(7)) == b"val07"
        leaf_no = tree._descend(ik(7))[-1][0]
        page = pm.fetch(PageId(fid, leaf_no))
        try:
            assert page.decoded is not None
            page.write(bytes(page.data).index(b"val07"), b"VAL07")
            assert page.decoded is None
        finally:
            pm.unpin(page.page_id, dirty=True)
        assert tree.get(ik(7)) == b"VAL07"
        assert (ik(7), b"VAL07") in list(tree.items(ik(5), ik(9)))

    def test_rebuild_indexes_reads_fresh_nodes(self):
        db = Database(buffer_capacity=64)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.executemany("INSERT INTO t VALUES (?, ?)",
                       [(i, i * 10) for i in range(200)])
        assert db.query("SELECT v FROM t WHERE id = 5") == [(50,)]
        # Lose one index entry behind the planner's back; the cached
        # decoded leaf must not keep answering from before the loss...
        tree = db.catalog.table("t").index_on(("id",)).tree
        tree.delete(encode_key((5,)))
        assert db.query("SELECT v FROM t WHERE id = 5") == []
        # ...nor from before the rebuild that restores it.
        db.catalog.rebuild_indexes("t")
        assert db.query("SELECT v FROM t WHERE id = 5") == [(50,)]
        rebuilt = db.catalog.table("t").index_on(("id",)).tree
        assert_decoded_match_bytes(rebuilt, db.catalog.pages)
