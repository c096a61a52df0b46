"""Succinct RP-Trie encoding (paper §III-B "Succinct trie structure").

SuRF-inspired two-tier layout: the few, frequently-accessed *upper*
levels are encoded as per-node bitmaps — ``B_c`` marks which cells are
children, ``B_l`` marks which of those children are internal (have
children of their own) — concatenated in breadth-first order for
rank-based access; the many, rarely-accessed *lower* levels are
serialized as compact byte sequences (LEB128 varints).

Documented adaptations (DESIGN.md §3):
* bitmaps are sized by the number of *occupied* cells (dense remap of the
  z-values actually present) so OSM's 360×360 grid does not force
  129,600-bit bitmaps per node;
* a third bitmap ``B_t`` marks children carrying a ``$``-terminal leaf
  (the paper's prose leaves leaf attachment in upper levels implicit);
* each bitmap-level *boundary* node stores a varint child count ahead of
  its byte-serialized subtrees so the stream is self-delimiting.

The encoding round-trips (`decode_structure` rebuilds the exact trie
shape — verified by tests) and `trie_size_bytes` is the REPOSE IS metric.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rptrie import Node, RPTrie

UPPER_LEVELS = 2   # trie depths whose children are encoded as bitmaps
_HR_ENTRY_BYTES = 8  # (min,max) stored as 2 × float32 per pivot


def _varint(n: int, out: bytearray) -> None:
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    shift, val = 0, 0
    while True:
        b = buf[pos]
        pos += 1
        val |= (b & 0x7F) << shift
        if not b & 0x80:
            return val, pos
        shift += 7


@dataclass
class SuccinctTrie:
    """Encoded trie: upper bitmaps + lower byte sequences + payloads."""

    vocab: np.ndarray      # sorted distinct z-values (dense remap)
    upper_bc: np.ndarray   # bit-packed B_c rows, BFS-concatenated
    upper_bl: np.ndarray   # bit-packed B_l rows
    upper_bt: np.ndarray   # bit-packed B_t rows
    lower_blob: bytes      # self-delimiting byte-serialized lower levels
    leaf_blob: bytes       # tids + D_max payloads (all levels)
    n_nodes: int
    n_leaves: int
    n_pivots: int

    @property
    def total_bytes(self) -> int:
        hr = (self.n_nodes + self.n_leaves) * self.n_pivots * _HR_ENTRY_BYTES
        return (
            self.vocab.nbytes
            + self.upper_bc.nbytes
            + self.upper_bl.nbytes
            + self.upper_bt.nbytes
            + len(self.lower_blob)
            + len(self.leaf_blob)
            + hr
        )


def _encode_leaf(leaf, out: bytearray) -> None:
    _varint(len(leaf.tids), out)
    for t in leaf.tids:
        _varint(int(t), out)
    out.extend(np.float32(leaf.dmax).tobytes())


def _encode_subtree(node: Node, blob: bytearray, leaf_blob: bytearray) -> tuple[int, int]:
    """Pre-order byte serialization of one lower-level subtree; returns
    (nodes, leaves). Iterative: a trie is as deep as its longest
    trajectory, beyond CPython's recursion limit."""
    nodes, leaves = 0, 0
    stack = [node]
    while stack:
        node = stack.pop()
        nodes += 1
        leaf, children = node.leaf, node.children
        _varint(node.z, blob)
        _varint((leaf is not None) | (len(children) << 1), blob)
        if leaf is not None:
            _encode_leaf(leaf, leaf_blob)
            leaves += 1
        if len(children) == 1:  # the common case in order-preserving tries
            stack.extend(children.values())
        elif children:
            stack.extend(reversed(children.values()))
    return nodes, leaves


#: when the occupied-cell vocabulary is wider than this, per-node bitmap
#: rows would dwarf byte encoding — restrict bitmaps to the root row
_BITMAP_VOCAB_CAP = 2048


def encode_trie(trie: RPTrie, upper_levels: int | None = None) -> SuccinctTrie:
    """Encode a built RP-Trie into the two-tier succinct layout.

    ``upper_levels`` defaults adaptively: fine grids (wide vocabularies,
    e.g. OSM's 360×360) get bitmap encoding only at the root — a bitmap
    row costs ``3·M'`` bits per node, which for M' in the tens of
    thousands is far larger than the byte form the paper reserves for
    sparse levels.
    """
    vocab = np.array(
        sorted({n.z for n in trie.iter_nodes() if n.z >= 0}), dtype=np.int64
    )
    if upper_levels is None:
        upper_levels = UPPER_LEVELS if len(vocab) <= _BITMAP_VOCAB_CAP else 1
    vidx = {int(z): i for i, z in enumerate(vocab)}
    m = max(1, len(vocab))
    bc, bl, bt = [], [], []
    lower = bytearray()
    leaf_blob = bytearray()
    n_nodes, n_leaves = 0, 0

    # BFS over upper-level nodes; each emits one bitmap row. Nodes at
    # depth == upper_levels are "boundary" nodes: present in their
    # parent's bitmaps, but their own subtrees go to the byte stream
    # (child count first, so the stream is self-delimiting).
    queue: list[Node] = [trie.root]
    boundary: list[Node] = []
    while queue:
        nxt: list[Node] = []
        for node in queue:
            if node.z >= 0:
                n_nodes += 1
            if node.leaf is not None:
                _encode_leaf(node.leaf, leaf_blob)
                n_leaves += 1
            row_c = np.zeros(m, dtype=bool)
            row_l = np.zeros(m, dtype=bool)
            row_t = np.zeros(m, dtype=bool)
            for z, child in node.children.items():
                j = vidx[z]
                row_c[j] = True
                if child.children:
                    row_l[j] = True
                if child.leaf is not None:
                    row_t[j] = True
            bc.append(row_c)
            bl.append(row_l)
            bt.append(row_t)
            # descend in ascending-z order so the decoder (which recovers
            # children from bitmaps, i.e. z-sorted) walks the same order
            for _, child in sorted(node.children.items()):
                if child.depth < upper_levels:
                    nxt.append(child)
                else:
                    boundary.append(child)
        queue = nxt

    for node in boundary:
        if node.z >= 0:
            n_nodes += 1
        if node.leaf is not None:
            _encode_leaf(node.leaf, leaf_blob)
            n_leaves += 1
        _varint(len(node.children), lower)
        for _, child in sorted(node.children.items()):
            cn, cl = _encode_subtree(child, lower, leaf_blob)
            n_nodes += cn
            n_leaves += cl

    def pack(rows):
        if not rows:
            return np.zeros(0, dtype=np.uint8)
        return np.packbits(np.concatenate(rows))

    return SuccinctTrie(
        vocab=vocab,
        upper_bc=pack(bc),
        upper_bl=pack(bl),
        upper_bt=pack(bt),
        lower_blob=bytes(lower),
        leaf_blob=bytes(leaf_blob),
        n_nodes=n_nodes,
        n_leaves=n_leaves,
        n_pivots=trie.n_pivots,
    )


def decode_structure(st: SuccinctTrie, upper_levels: int | None = None) -> dict:
    """Rebuild the trie *shape*: nested ``{z: (has_leaf, children)}``.

    Returns the root's children dict. Round-trip tested against the
    pointer trie. ``upper_levels`` must match the encoder's; ``None``
    applies the same adaptive default.
    """
    if upper_levels is None:
        upper_levels = (
            UPPER_LEVELS if len(st.vocab) <= _BITMAP_VOCAB_CAP else 1
        )
    m = max(1, len(st.vocab))
    bits_c = np.unpackbits(st.upper_bc)
    bits_l = np.unpackbits(st.upper_bl)
    bits_t = np.unpackbits(st.upper_bt)

    def parse_subtree(buf: bytes, p: int):
        z, p = _read_varint(buf, p)
        flags, p = _read_varint(buf, p)
        has_leaf = bool(flags & 1)
        n_children = flags >> 1
        children = {}
        for _ in range(n_children):
            (cz, payload), p = parse_subtree(buf, p)
            children[cz] = payload
        return (z, (has_leaf, children)), p

    root: dict = {}
    # BFS mirroring the encoder: row r of the bitmaps describes the r-th
    # node in BFS order; children are recovered z-sorted, matching the
    # encoder's sorted descent. Boundary nodes (depth == upper_levels)
    # are collected in the same BFS order the encoder emitted their
    # varint-counted subtrees.
    row = 0
    queue: list[tuple[dict, int]] = [(root, 0)]
    ordered: list[dict] = []
    while queue:
        nxt: list[tuple[dict, int]] = []
        for children_out, depth in queue:
            seg_c = bits_c[row * m : (row + 1) * m]
            seg_t = bits_t[row * m : (row + 1) * m]
            row += 1
            for j in np.nonzero(seg_c)[0]:
                z = int(st.vocab[j])
                sub: dict = {}
                children_out[z] = (bool(seg_t[j]), sub)
                if depth + 1 < upper_levels:
                    nxt.append((sub, depth + 1))
                else:
                    ordered.append(sub)
        queue = nxt

    pos = 0
    buf = st.lower_blob
    for sub in ordered:
        n_children, pos = _read_varint(buf, pos)
        for _ in range(n_children):
            (cz, payload), pos = parse_subtree(buf, pos)
            sub[cz] = payload
    return root


def trie_shape(trie: RPTrie) -> dict:
    """Pointer-trie shape in the same nested form, for round-trip tests."""

    def walk(node: Node):
        return (
            node.leaf is not None,
            {z: walk(c) for z, c in node.children.items()},
        )

    return {z: walk(c) for z, c in trie.root.children.items()}


def trie_size_bytes(trie: RPTrie, upper_levels: int | None = None) -> int:
    """IS metric contribution of one partition's RP-Trie."""
    return encode_trie(trie, upper_levels).total_bytes
