"""Disk-based B+-tree over the buffer pool.

The tree maps unique byte-string keys to byte-string values; keys are
compared bytewise, so callers encode typed keys with
:mod:`repro.access.keycodec` (order-preserving).  Secondary (non-unique)
indexes append the record id to the key and use :meth:`BPlusTree.prefix_scan`
— key encodings are prefix-free within a fixed arity, which makes the
prefix range exact.

Structure: a meta page (page 0 of the index file) records the root; leaf
nodes form a singly linked chain for range scans.  Nodes are (de)serialised
whole from their page.  Readers keep the decoded node on the buffer frame
(:attr:`Page.decoded`), so a hot node is parsed once per residency rather
than once per visit; writers mutate a private copy and store it back,
and the store leaves a copy of what it wrote on the frame.
Deletion rebalances: underfull nodes borrow from or merge with a sibling,
shrinking the tree when the root empties.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import DuplicateKeyError, KeyNotFoundError, IndexError_
from repro.storage.page import PageId
from repro.storage.page_manager import PageManager

_META = struct.Struct("<4sIIQ")       # magic, root page, height, entries
_NODE_HEADER = struct.Struct("<BHI")  # kind, count, next (leaf chain)
_KLEN = struct.Struct("<H")
_CHILD = struct.Struct("<I")
_MAGIC = b"BTR1"
_NO_NEXT = 0xFFFFFFFF
_LEAF, _INTERNAL = 0, 1


@dataclass
class _Leaf:
    keys: list[bytes] = field(default_factory=list)
    values: list[bytes] = field(default_factory=list)
    next_page: Optional[int] = None

    kind = _LEAF

    def size_bytes(self) -> int:
        return _NODE_HEADER.size + sum(
            2 * _KLEN.size + len(k) + len(v)
            for k, v in zip(self.keys, self.values))

    def copy(self) -> "_Leaf":
        return _Leaf(list(self.keys), list(self.values), self.next_page)


@dataclass
class _Internal:
    keys: list[bytes] = field(default_factory=list)
    children: list[int] = field(default_factory=list)  # len(keys) + 1

    kind = _INTERNAL

    def size_bytes(self) -> int:
        return (_NODE_HEADER.size + _CHILD.size
                + sum(_KLEN.size + len(k) + _CHILD.size for k in self.keys))

    def copy(self) -> "_Internal":
        return _Internal(list(self.keys), list(self.children))


_Node = _Leaf | _Internal


def _decode_node(data: bytearray) -> _Node:
    """Parse one node from its page payload."""
    kind, count, nxt = _NODE_HEADER.unpack_from(data, 0)
    pos = _NODE_HEADER.size
    if kind == _LEAF:
        node = _Leaf(next_page=None if nxt == _NO_NEXT else nxt)
        for _ in range(count):
            (klen,) = _KLEN.unpack_from(data, pos)
            pos += _KLEN.size
            key = bytes(data[pos:pos + klen])
            pos += klen
            (vlen,) = _KLEN.unpack_from(data, pos)
            pos += _KLEN.size
            node.keys.append(key)
            node.values.append(bytes(data[pos:pos + vlen]))
            pos += vlen
        return node
    node = _Internal()
    (child0,) = _CHILD.unpack_from(data, pos)
    pos += _CHILD.size
    node.children.append(child0)
    for _ in range(count):
        (klen,) = _KLEN.unpack_from(data, pos)
        pos += _KLEN.size
        node.keys.append(bytes(data[pos:pos + klen]))
        pos += klen
        (child,) = _CHILD.unpack_from(data, pos)
        pos += _CHILD.size
        node.children.append(child)
    return node


class BPlusTree:
    """B+-tree index with unique byte keys.

    ``pages`` supplies pinned pages; ``file_id`` must be a dedicated file.
    A fresh file is formatted on first use; an existing one is reopened
    from its meta page.
    """

    def __init__(self, pages: PageManager, file_id: int) -> None:
        self.pages = pages
        self.file_id = file_id
        if pages.pool.files.file_size_pages(file_id) == 0:
            self._format()
        else:
            self._load_meta()

    # -- meta page -----------------------------------------------------------

    def _format(self) -> None:
        meta = self.pages.allocate(self.file_id)          # page 0
        root = self.pages.allocate(self.file_id)          # page 1
        try:
            self._store_node(root.page_id.page_no, _Leaf(), page=root)
            self.root_page = root.page_id.page_no
            self.height = 1
            self.num_entries = 0
            self._write_meta(page=meta)
        finally:
            self.pages.unpin(meta.page_id, dirty=True)
            self.pages.unpin(root.page_id, dirty=True)

    def _load_meta(self) -> None:
        page = self.pages.fetch(PageId(self.file_id, 0))
        try:
            magic, root, height, entries = _META.unpack_from(page.data, 0)
            if magic != _MAGIC:
                raise IndexError_(
                    f"file {self.file_id} is not a B+-tree (bad magic)")
            self.root_page, self.height, self.num_entries = \
                root, height, entries
        finally:
            self.pages.unpin(page.page_id)

    def _write_meta(self, page=None) -> None:
        own = page is None
        if own:
            page = self.pages.fetch(PageId(self.file_id, 0))
        try:
            page.write(0, _META.pack(_MAGIC, self.root_page, self.height,
                                     self.num_entries))
        finally:
            if own:
                self.pages.unpin(page.page_id, dirty=True)

    # -- node I/O ----------------------------------------------------------------

    def _load_node(self, page_no: int) -> _Node:
        """A private copy of the node, for write paths.

        Writers mutate the node before :meth:`_store_node` serialises it;
        a private copy means a store that raises (an oversized key)
        leaves no mutated node behind for readers to see.  The copy is
        taken from the frame's decoded node when there is one."""
        page = self.pages.fetch(PageId(self.file_id, page_no))
        try:
            node = page.decoded
            return _decode_node(page.data) if node is None else node.copy()
        finally:
            self.pages.unpin(page.page_id)

    def _read_node(self, page_no: int) -> _Node:
        """The node as readers see it: decoded once per buffer frame and
        kept on :attr:`Page.decoded` until ``Page.write`` clears it or
        the frame leaves the pool.  The result is shared, so callers
        must not mutate it."""
        page = self.pages.fetch(PageId(self.file_id, page_no))
        try:
            node = page.decoded
            if node is None:
                node = page.decoded = _decode_node(page.data)
            return node
        finally:
            self.pages.unpin(page.page_id)

    def _store_node(self, page_no: int, node: _Node, page=None) -> None:
        own = page is None
        if own:
            page = self.pages.fetch(PageId(self.file_id, page_no))
        try:
            parts: list[bytes] = []
            if node.kind == _LEAF:
                nxt = _NO_NEXT if node.next_page is None else node.next_page
                parts.append(_NODE_HEADER.pack(_LEAF, len(node.keys), nxt))
                for key, value in zip(node.keys, node.values):
                    parts.append(_KLEN.pack(len(key)))
                    parts.append(key)
                    parts.append(_KLEN.pack(len(value)))
                    parts.append(value)
            else:
                parts.append(_NODE_HEADER.pack(
                    _INTERNAL, len(node.keys), _NO_NEXT))
                parts.append(_CHILD.pack(node.children[0]))
                for key, child in zip(node.keys, node.children[1:]):
                    parts.append(_KLEN.pack(len(key)))
                    parts.append(key)
                    parts.append(_CHILD.pack(child))
            blob = b"".join(parts)
            if len(blob) > page.usable_size:
                raise IndexError_(
                    f"B+-tree node serialises to {len(blob)} bytes, page "
                    f"holds {page.usable_size}; key too large for page size")
            page.write(0, blob)
            # The frame's decoded form is now exactly what was written;
            # a copy, so the caller's node stays private.
            page.decoded = node.copy()
        finally:
            if own:
                self.pages.unpin(page.page_id, dirty=True)
            else:
                page.dirty = True

    def _alloc_node(self) -> int:
        page = self.pages.allocate(self.file_id)
        page_no = page.page_id.page_no
        self.pages.unpin(page.page_id, dirty=True)
        return page_no

    # -- capacity policy ------------------------------------------------------------

    @property
    def _page_capacity(self) -> int:
        from repro.storage.page import PAGE_TRAILER_SIZE
        return (self.pages.pool.files.disk.device.block_size
                - PAGE_TRAILER_SIZE)

    def _overflows(self, node: _Node) -> bool:
        return node.size_bytes() > self._page_capacity

    def _underflows(self, node: _Node) -> bool:
        return node.size_bytes() < self._page_capacity // 4

    # -- search ------------------------------------------------------------------------

    def _descend(self, key: bytes) -> list[tuple[int, int]]:
        """Path from root to leaf: [(page_no, child_idx_taken)], leaf last
        with child_idx -1."""
        path: list[tuple[int, int]] = []
        page_no = self.root_page
        for _ in range(self.height - 1):
            node = self._read_node(page_no)
            idx = bisect_right(node.keys, key)
            path.append((page_no, idx))
            page_no = node.children[idx]
        path.append((page_no, -1))
        return path

    def get(self, key: bytes) -> Optional[bytes]:
        leaf = self._read_node(self._descend(key)[-1][0])
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return leaf.values[idx]
        return None

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.num_entries

    # -- insert ------------------------------------------------------------------------

    def insert(self, key: bytes, value: bytes,
               replace: bool = False) -> None:
        """Insert ``key -> value``; raises :class:`DuplicateKeyError` on an
        existing key unless ``replace``."""
        path = self._descend(key)
        leaf_page = path[-1][0]
        leaf = self._load_node(leaf_page)
        idx = bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            if not replace:
                raise DuplicateKeyError(f"duplicate key {key!r}")
            leaf.values[idx] = value
            if self._overflows(leaf):
                # A longer replacement value can overflow the node too.
                self._split_and_propagate(path, leaf)
                self._write_meta()
            else:
                self._store_node(leaf_page, leaf)
            return
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value)
        if self._overflows(leaf):
            self._split_and_propagate(path, leaf)
        else:
            self._store_node(leaf_page, leaf)
        self.num_entries += 1      # only once the entry is stored
        self._write_meta()

    def _split_and_propagate(self, path: list[tuple[int, int]],
                             leaf: _Leaf) -> None:
        leaf_page = path[-1][0]
        mid = len(leaf.keys) // 2
        right = _Leaf(keys=leaf.keys[mid:], values=leaf.values[mid:],
                      next_page=leaf.next_page)
        leaf.keys, leaf.values = leaf.keys[:mid], leaf.values[:mid]
        right_page = self._alloc_node()
        leaf.next_page = right_page
        self._store_node(leaf_page, leaf)
        self._store_node(right_page, right)
        sep, new_child = right.keys[0], right_page

        # Bubble the separator up the recorded path.
        for level in range(len(path) - 2, -1, -1):
            parent_page, child_idx = path[level]
            parent = self._load_node(parent_page)
            parent.keys.insert(child_idx, sep)
            parent.children.insert(child_idx + 1, new_child)
            if not self._overflows(parent):
                self._store_node(parent_page, parent)
                return
            mid = len(parent.keys) // 2
            sep_up = parent.keys[mid]
            right_node = _Internal(keys=parent.keys[mid + 1:],
                                   children=parent.children[mid + 1:])
            parent.keys = parent.keys[:mid]
            parent.children = parent.children[:mid + 1]
            new_child = self._alloc_node()
            self._store_node(parent_page, parent)
            self._store_node(new_child, right_node)
            sep = sep_up
        # Root split: grow the tree by one level.
        new_root = _Internal(keys=[sep],
                             children=[path[0][0] if path else self.root_page,
                                       new_child])
        new_root_page = self._alloc_node()
        self._store_node(new_root_page, new_root)
        self.root_page = new_root_page
        self.height += 1

    # -- delete -------------------------------------------------------------------------

    def delete(self, key: bytes) -> None:
        path = self._descend(key)
        leaf_page = path[-1][0]
        leaf = self._load_node(leaf_page)
        idx = bisect_left(leaf.keys, key)
        if idx >= len(leaf.keys) or leaf.keys[idx] != key:
            raise KeyNotFoundError(f"key {key!r} not in index")
        del leaf.keys[idx]
        del leaf.values[idx]
        self.num_entries -= 1
        self._store_node(leaf_page, leaf)
        if self._underflows(leaf) and len(path) > 1:
            self._rebalance(path, len(path) - 1)
        self._shrink_root()
        self._write_meta()

    def _rebalance(self, path: list[tuple[int, int]], level: int) -> None:
        """Fix an underfull node at ``path[level]`` by borrowing from or
        merging with an adjacent sibling; may recurse to the parent."""
        node_page = path[level][0]
        parent_page, child_idx = path[level - 1]
        parent = self._load_node(parent_page)
        node = self._load_node(node_page)

        # Prefer the left sibling, fall back to the right one.
        for sibling_idx, left_of_node in (
                (child_idx - 1, True), (child_idx + 1, False)):
            if 0 <= sibling_idx < len(parent.children):
                sibling_page = parent.children[sibling_idx]
                sibling = self._load_node(sibling_page)
                sep_idx = child_idx - 1 if left_of_node else child_idx
                if self._try_borrow(node, sibling, parent, sep_idx,
                                    left_of_node):
                    self._store_node(node_page, node)
                    self._store_node(sibling_page, sibling)
                    self._store_node(parent_page, parent)
                    return
        # Borrowing impossible: merge with a sibling (left preferred).
        if child_idx > 0:
            left_page = parent.children[child_idx - 1]
            left = self._load_node(left_page)
            self._merge(left, node, parent, child_idx - 1)
            self._store_node(left_page, left)
        else:
            right_page = parent.children[child_idx + 1]
            right = self._load_node(right_page)
            self._merge(node, right, parent, child_idx)
            self._store_node(node_page, node)
        self._store_node(parent_page, parent)
        if level - 1 > 0 and self._underflows(parent):
            self._rebalance(path, level - 1)

    def _try_borrow(self, node: _Node, sibling: _Node, parent: _Internal,
                    sep_idx: int, from_left: bool) -> bool:
        """Move one entry from ``sibling`` into ``node`` if the sibling can
        spare it (stays above the underflow threshold)."""
        if len(sibling.keys) < 2:
            return False
        # Pre-check that the sibling stays healthy after giving one entry
        # (mutating first and undoing on failure would be error-prone).
        if node.kind == _LEAF:
            donate_idx = -1 if from_left else 0
            moved = (2 * _KLEN.size + len(sibling.keys[donate_idx])
                     + len(sibling.values[donate_idx]))
        else:
            donate_idx = -1 if from_left else 0
            moved = (_KLEN.size + len(sibling.keys[donate_idx])
                     + _CHILD.size)
        if sibling.size_bytes() - moved < self._page_capacity // 4:
            return False
        if node.kind == _LEAF:
            if from_left:
                key, value = sibling.keys.pop(), sibling.values.pop()
                node.keys.insert(0, key)
                node.values.insert(0, value)
                parent.keys[sep_idx] = node.keys[0]
            else:
                key, value = sibling.keys.pop(0), sibling.values.pop(0)
                node.keys.append(key)
                node.values.append(value)
                parent.keys[sep_idx] = sibling.keys[0]
        else:
            if from_left:
                node.keys.insert(0, parent.keys[sep_idx])
                parent.keys[sep_idx] = sibling.keys.pop()
                node.children.insert(0, sibling.children.pop())
            else:
                node.keys.append(parent.keys[sep_idx])
                parent.keys[sep_idx] = sibling.keys.pop(0)
                node.children.append(sibling.children.pop(0))
        return True

    def _merge(self, left: _Node, right: _Node, parent: _Internal,
               sep_idx: int) -> None:
        """Fold ``right`` into ``left`` and drop the separator."""
        if left.kind == _LEAF:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_page = right.next_page
        else:
            left.keys.append(parent.keys[sep_idx])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[sep_idx]
        del parent.children[sep_idx + 1]

    def _shrink_root(self) -> None:
        while self.height > 1:
            root = self._read_node(self.root_page)
            if root.kind == _INTERNAL and len(root.keys) == 0:
                self.root_page = root.children[0]
                self.height -= 1
            else:
                break

    # -- scans -----------------------------------------------------------------------------

    def items(self, lo: Optional[bytes] = None, hi: Optional[bytes] = None,
              lo_inclusive: bool = True,
              hi_inclusive: bool = False) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs with ``lo <= key < hi`` (bounds
        adjustable via the inclusive flags; ``None`` means unbounded)."""
        if lo is not None:
            leaf_page = self._descend(lo)[-1][0]
        else:
            page_no = self.root_page
            for _ in range(self.height - 1):
                page_no = self._read_node(page_no).children[0]
            leaf_page = page_no
        page: Optional[int] = leaf_page
        while page is not None:
            leaf = self._read_node(page)
            for key, value in zip(leaf.keys, leaf.values):
                if lo is not None:
                    if lo_inclusive and key < lo:
                        continue
                    if not lo_inclusive and key <= lo:
                        continue
                if hi is not None:
                    if hi_inclusive and key > hi:
                        return
                    if not hi_inclusive and key >= hi:
                        return
                yield key, value
            page = leaf.next_page

    def prefix_scan(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """All entries whose key starts with ``prefix`` (exact for the
        prefix-free key encodings of :mod:`repro.access.keycodec`)."""
        for key, value in self.items(lo=prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    # -- verification (used by property tests) ------------------------------------------

    def check_invariants(self) -> None:
        """Walk the whole tree asserting structural invariants."""
        count = self._check_node(self.root_page, self.height, None, None)
        if count != self.num_entries:
            raise IndexError_(
                f"entry count drift: meta says {self.num_entries}, "
                f"walk found {count}")
        # Leaf chain must be sorted and cover everything.
        previous = None
        chained = 0
        for key, _ in self.items():
            if previous is not None and key <= previous:
                raise IndexError_("leaf chain out of order")
            previous = key
            chained += 1
        if chained != self.num_entries:
            raise IndexError_("leaf chain misses entries")

    def _check_node(self, page_no: int, level: int,
                    lo: Optional[bytes], hi: Optional[bytes]) -> int:
        node = self._read_node(page_no)
        if level == 1 and node.kind != _LEAF:
            raise IndexError_("non-leaf at leaf level")
        if level > 1 and node.kind != _INTERNAL:
            raise IndexError_("leaf above leaf level")
        keys = node.keys
        if keys != sorted(keys):
            raise IndexError_(f"unsorted keys in node {page_no}")
        for key in keys:
            if (lo is not None and key < lo) or \
                    (hi is not None and key >= hi):
                raise IndexError_(f"key out of separator bounds in {page_no}")
        if node.kind == _LEAF:
            return len(keys)
        if len(node.children) != len(keys) + 1:
            raise IndexError_(f"child/key arity mismatch in {page_no}")
        total = 0
        bounds = [lo] + keys + [hi]
        for idx, child in enumerate(node.children):
            total += self._check_node(child, level - 1,
                                      bounds[idx], bounds[idx + 1])
        return total
