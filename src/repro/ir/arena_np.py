"""Vectorized numpy kernels over the arena columns (the ``numpy`` backend).

The struct-of-arrays arena (:mod:`repro.ir.arena`) stores every encoded
block as flat ``array('q')`` columns.  Pure CPython consumers still pay
an int box per subscript; this module lifts the hot loops into numpy:

- :class:`Mirrors` — zero-copy ``np.frombuffer`` int64 views over the
  ``op``/``dest``/``pred`` columns and the CSR ``src_off``/``src_pool``
  operand table.  A live mirror *pins* the column buffers (CPython
  refuses to resize an exporting ``array``), so the arena drops its
  cached mirror before every mutation and readers rebuild lazily; the
  epoch/extent stamp makes staleness structurally impossible.
- estimator kernels — consumer fanout via one ``np.bincount`` over the
  CSR pool, for a single block, a concatenation of extents (merged-
  candidate pricing), or a whole batch of blocks in one call.
- a GVN eligibility prefilter over the opcode/dest/pred columns.
- int-indexed CFG kernels (reverse postorder, Cooper-Harvey-Kennedy
  immediate dominators, Euler-tour dominance intervals, vectorized
  back-edge detection) that replace the string-dict graph walks of a
  dominator-tree or loop-forest build.

Every kernel is *exact*: it computes the same value as the flat-loop
path it shadows, bit for bit, so backend selection can never change a
formation decision.  The module imports numpy unconditionally — callers
gate on ``arena.NUMPY``, which is only set after a guarded probe.
"""

from __future__ import annotations

from itertools import accumulate as _accumulate

import numpy as np

from repro.ir.arena import (
    F_PURE,
    OP_FLAGS,
    OP_MOV,
    OP_MOVI,
)

_I64 = np.int64
_EMPTY = np.empty(0, dtype=_I64)

#: ``arena.OP_FLAGS`` as an ndarray, indexable by an opcode-id column.
OP_FLAGS_NP = np.array(OP_FLAGS, dtype=_I64)


# ---------------------------------------------------------------------------
# Zero-copy column mirrors
# ---------------------------------------------------------------------------


class Mirrors:
    """Zero-copy int64 ndarray views of one arena's columns.

    Built by :meth:`repro.ir.arena.Arena.mirrors`; the stamp fields let
    the arena assert freshness (a mirror surviving a mutation is
    impossible — the buffers are pinned while it exists — but the stamp
    turns that invariant into a checked one).
    """

    __slots__ = (
        "epoch", "n_slots", "n_pool",
        "op", "dest", "pred", "src_off", "src_pool",
    )

    def __init__(self, store) -> None:
        self.epoch = store.epoch
        self.n_slots = len(store.op)
        self.n_pool = len(store.src_pool)
        self.op = self._wrap(store.op)
        self.dest = self._wrap(store.dest)
        self.pred = self._wrap(store.pred)
        self.src_off = self._wrap(store.src_off)
        self.src_pool = self._wrap(store.src_pool)

    @staticmethod
    def _wrap(column) -> np.ndarray:
        if len(column) == 0:
            # frombuffer would still pin a zero-length export; an owned
            # empty array keeps the column free to grow.
            return _EMPTY
        return np.frombuffer(column, dtype=_I64)


# ---------------------------------------------------------------------------
# Register-mask <-> bit-array conversion
# ---------------------------------------------------------------------------


def mask_to_bits(mask: int, size: int) -> np.ndarray:
    """A register bitmask as a bool array of length ``size`` (cropped)."""
    if size <= 0:
        return np.zeros(0, dtype=np.bool_)
    nbytes = (size + 7) >> 3
    needed = (mask.bit_length() + 7) >> 3
    data = mask.to_bytes(max(nbytes, needed), "little")
    bits = np.unpackbits(np.frombuffer(data, np.uint8), bitorder="little")
    return bits[:size].view(np.bool_)


def bits_to_mask(bits: np.ndarray) -> int:
    """Inverse of :func:`mask_to_bits` (bool array -> int bitmask)."""
    if bits.size == 0:
        return 0
    packed = np.packbits(bits, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# ---------------------------------------------------------------------------
# Estimator kernels
# ---------------------------------------------------------------------------


def _extent_consumers(m: Mirrors, base: int, n: int) -> np.ndarray:
    """All consumed registers of one extent: CSR sources + predicate regs."""
    off = m.src_off
    pool = m.src_pool[int(off[base]):int(off[base + n])]
    preds = m.pred[base:base + n]
    pr = preds[preds >= 0]
    if pr.size:
        return np.concatenate((pool, pr >> 1))
    return pool


def consumer_fanout(
    m: Mirrors, extents, width: int, remat_mask: int
) -> int:
    """Fanout instruction count over one or more concatenated extents.

    Matches the flat-loop estimator exactly: every register with more
    than ``width`` consumers (source reads plus predicate reads) charges
    ``count - width`` fanout movs, except rematerializable registers.
    Passing several ``(base, n)`` extents prices their concatenation —
    the merged-candidate estimate — without materializing a merged block.
    """
    parts = [_extent_consumers(m, base, n) for base, n in extents]
    regs = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if regs.size == 0:
        return 0
    counts = np.bincount(regs)
    extra = counts - width
    hot = extra > 0
    if not hot.any():
        return 0
    if remat_mask:
        hot &= ~mask_to_bits(remat_mask, counts.size)
    return int(extra[hot].sum())


#: Upper bound on the scratch bincount (blocks x registers) the batched
#: estimate-many path may allocate before falling back to per-block calls.
_BATCH_CELLS = 1 << 22


def fanout_many(m: Mirrors, extents, width: int, remat_masks) -> list[int]:
    """Per-block consumer fanout for a batch of extents in one bincount.

    Registers are keyed as ``block_index * stride + reg`` so one
    ``np.bincount`` prices the whole batch; oversized batches degrade to
    the per-block kernel (identical results either way).
    """
    nb = len(extents)
    if nb == 0:
        return []
    parts = [_extent_consumers(m, base, n) for base, n in extents]
    stride = 1 + max((int(p.max()) for p in parts if p.size), default=0)
    if nb * stride > _BATCH_CELLS:
        return [
            consumer_fanout(m, (extents[i],), width, remat_masks[i])
            for i in range(nb)
        ]
    keys = [p + i * stride for i, p in enumerate(parts) if p.size]
    if not keys:
        return [0] * nb
    counts = np.bincount(
        np.concatenate(keys), minlength=nb * stride
    ).reshape(nb, stride)
    extra = counts - width
    hot = extra > 0
    for i in range(nb):
        if remat_masks[i] and hot[i].any():
            hot[i] &= ~mask_to_bits(remat_masks[i], stride)
    return [int(extra[i][hot[i]].sum()) for i in range(nb)]


# ---------------------------------------------------------------------------
# Exposure / kill mask construction
# ---------------------------------------------------------------------------


def exposed_kill_masks(m: Mirrors, base: int, n: int):
    """``(exposed, kill)`` masks of an extent with no predicated writes.

    Valid whenever no instruction both carries a predicate and writes a
    register (returns ``None`` otherwise): every write then kills, so a
    register is upward-exposed iff its first read — source reads *and*
    predicate reads — precedes its first write, which vectorizes as a
    first-position comparison.  Reads of an instruction precede its own
    write, hence the non-strict comparison.
    """
    if n == 0:
        return 0, 0
    sl = slice(base, base + n)
    dests = m.dest[sl]
    preds = m.pred[sl]
    dmask = dests >= 0
    if bool((dmask & (preds >= 0)).any()):
        return None
    off = m.src_off[base:base + n + 1]
    off0 = int(off[0])
    pool = m.src_pool[off0:int(off[-1])]
    use_pos = np.repeat(np.arange(n, dtype=_I64), np.diff(off))
    use_reg = pool
    ppos = np.flatnonzero(preds >= 0)
    if ppos.size:
        use_reg = np.concatenate((use_reg, preds[ppos] >> 1))
        use_pos = np.concatenate((use_pos, ppos))
    dpos = np.flatnonzero(dmask)
    dreg = dests[dpos]
    maxreg = 1 + max(
        int(use_reg.max()) if use_reg.size else -1,
        int(dreg.max()) if dreg.size else -1,
    )
    if maxreg <= 0:
        return 0, 0
    first_def = np.full(maxreg, n, dtype=_I64)
    np.minimum.at(first_def, dreg, dpos)
    exposed = np.zeros(maxreg, dtype=np.bool_)
    if use_reg.size:
        exposed[use_reg[use_pos <= first_def[use_reg]]] = True
    kill = np.zeros(maxreg, dtype=np.bool_)
    kill[dreg] = True
    return bits_to_mask(exposed), bits_to_mask(kill)


# ---------------------------------------------------------------------------
# GVN eligibility prefilter
# ---------------------------------------------------------------------------


def gvn_candidates(
    m: Mirrors, base: int, n: int, def_counts: np.ndarray
) -> np.ndarray:
    """Block-relative slots eligible for the GVN table walk.

    Eligible = unpredicated pure non-copy with a destination, every
    source single-def in the function (``def_counts`` is the per-register
    definition-count array).  The expensive inner loop then only visits
    the surviving slots.
    """
    if n == 0:
        return _EMPTY
    sl = slice(base, base + n)
    ops = m.op[sl]
    elig = (
        (m.dest[sl] >= 0)
        & (m.pred[sl] < 0)
        & ((OP_FLAGS_NP[ops] & F_PURE) != 0)
        & (ops != OP_MOV)
        & (ops != OP_MOVI)
    )
    if not elig.any():
        return _EMPTY
    off = m.src_off[base:base + n + 1]
    off0 = int(off[0])
    pool = m.src_pool[off0:int(off[-1])]
    if pool.size:
        multi = np.concatenate(
            ([0], np.cumsum(def_counts[pool] > 1))
        )
        elig &= (multi[off[1:] - off0] - multi[off[:-1] - off0]) == 0
    return np.flatnonzero(elig)


def def_count_array(func, store):
    """``(counts, mirror)``: per-register definition counts over a whole
    function, sized to cover every register the function reads or writes.

    Encodes every block *before* taking the mirror — ``view_of`` may
    append to the columns, which a live mirror would pin.
    """
    extents = []
    for block in func.blocks.values():
        view = store.view_of(block)
        if view.n:
            extents.append((view.base, view.n))
    m = store.mirrors()
    dest_parts = []
    maxreg = 0
    for base, n in extents:
        dest_parts.append(m.dest[base:base + n])
        off = m.src_off
        pool = m.src_pool[int(off[base]):int(off[base + n])]
        if pool.size:
            maxreg = max(maxreg, int(pool.max()) + 1)
    if not dest_parts:
        return np.zeros(max(maxreg, 1), dtype=_I64), m
    dests = np.concatenate(dest_parts)
    dests = dests[dests >= 0]
    if dests.size:
        maxreg = max(maxreg, int(dests.max()) + 1)
    return np.bincount(dests, minlength=max(maxreg, 1)), m


# ---------------------------------------------------------------------------
# Int-indexed CFG kernels
# ---------------------------------------------------------------------------


class FlatCFG:
    """One CFG snapshot interned to dense ints with CSR adjacency.

    Built once per dominator/loop rebuild; the DFS, CHK, Euler-tour and
    back-edge kernels below all run over these int arrays instead of the
    string-keyed dicts.  ``order`` is the reverse postorder as node ids;
    it reproduces the dict-based DFS exactly (same stack discipline, same
    successor visit order), so every consumer of RPO sees identical
    sequences under either backend.
    """

    __slots__ = (
        "names", "index", "adj", "adj_off", "order", "pos_of", "succs_src"
    )

    def __init__(self, entry: str, succs: dict) -> None:
        self.succs_src = succs  # identity token for consumers of adj
        names = list(succs)
        index = {name: i for i, name in enumerate(names)}
        self.names = names
        self.index = index
        index_get = index.get
        # Listcomp adjacency: -1 marks a successor outside the node set.
        # Consumers MUST guard ``j >= 0`` before indexing with it —
        # ``pos_of[-1]`` would silently alias the last entry.
        adj = [index_get(s, -1) for name in names for s in succs[name]]
        adj_off = list(
            _accumulate((len(succs[name]) for name in names), initial=0)
        )
        self.adj = adj
        self.adj_off = adj_off
        nn = len(names)
        entry_i = index[entry]
        visited = bytearray(nn)
        visited[entry_i] = 1
        post: list[int] = []
        stack = [entry_i]
        ptr = [adj_off[entry_i]]
        while stack:
            node = stack[-1]
            p = ptr[-1]
            end = adj_off[node + 1]
            advanced = False
            while p < end:
                nxt = adj[p]
                p += 1
                if nxt >= 0 and not visited[nxt]:
                    visited[nxt] = 1
                    ptr[-1] = p
                    stack.append(nxt)
                    ptr.append(adj_off[nxt])
                    advanced = True
                    break
            if not advanced:
                ptr[-1] = p
                post.append(node)
                stack.pop()
                ptr.pop()
        post.reverse()
        self.order = post  # node ids in reverse postorder
        pos_of = [-1] * nn
        for p, node in enumerate(post):
            pos_of[node] = p
        self.pos_of = pos_of

    def rpo_names(self) -> list[str]:
        names = self.names
        return [names[node] for node in self.order]


def rpo_names(entry: str, succs: dict):
    """Reverse postorder over interned ints; None if ``entry`` is absent."""
    if entry not in succs:
        return None
    return FlatCFG(entry, succs).rpo_names()


class DomFacts:
    """Immediate dominators + Euler-tour intervals over a :class:`FlatCFG`.

    ``idom_pos[p]`` is the rpo position of the immediate dominator of the
    node at rpo position ``p`` (position 0 = entry, its own idom; -1 for
    the degenerate never-assigned case).  ``tin``/``tout`` are preorder
    entry stamps and max-descendant stamps over the dominator tree, so
    *a dominates b* is the O(1) interval test ``tin[a] <= tin[b] <=
    tout[a]``.
    """

    __slots__ = ("flat", "idom_pos", "tin", "tout", "e_src", "e_dst")

    def __init__(self, flat: FlatCFG) -> None:
        self.flat = flat
        order = flat.order
        m = len(order)
        # Edge arrays in (rpo-of-src, successor-list order): gather the
        # CSR rows of the rpo sequence with one repeat/cumsum pass, then
        # drop edges whose endpoint is outside the set (-1 sentinel —
        # masked BEFORE indexing pos_of, which -1 would alias) or
        # unreachable (pos -1).  This ordering is exactly the scalar
        # discovery order, so back_edges() below needs no re-sorting.
        adj_np = np.asarray(flat.adj, dtype=_I64)
        off_np = np.asarray(flat.adj_off, dtype=_I64)
        pos_np = np.asarray(flat.pos_of, dtype=_I64)
        order_np = np.asarray(order, dtype=_I64)
        if m and adj_np.size:
            starts = off_np[order_np]
            lens = off_np[order_np + 1] - starts
            total = int(lens.sum())
        else:
            total = 0
        if total:
            idx = (
                np.repeat(starts + lens - np.cumsum(lens), lens)
                + np.arange(total, dtype=_I64)
            )
            dst_ids = adj_np[idx]
            e_src = np.repeat(np.arange(m, dtype=_I64), lens)
            valid = dst_ids >= 0
            e_src = e_src[valid]
            e_dst = pos_np[dst_ids[valid]]
            reach = e_dst >= 0
            e_src = e_src[reach]
            e_dst = e_dst[reach]
        else:
            e_src = _EMPTY
            e_dst = _EMPTY
        self.e_src = e_src
        self.e_dst = e_dst
        # CHK pred lists from the edge arrays: stable sort by dst keeps
        # srcs ascending within each dst — identical to the append-in-rpo
        # order the scalar build produces.
        if e_src.size:
            by_dst = np.argsort(e_dst, kind="stable")
            pred_src = e_src[by_dst].tolist()
            bounds = np.searchsorted(
                e_dst[by_dst], np.arange(m + 1, dtype=_I64)
            ).tolist()
        else:
            pred_src = []
            bounds = [0] * (m + 1)
        idom = [-1] * max(m, 1)
        idom[0] = 0
        changed = m > 1
        while changed:
            changed = False
            for p in range(1, m):
                best = -1
                for q in pred_src[bounds[p]:bounds[p + 1]]:
                    if idom[q] < 0:
                        continue
                    if best < 0:
                        best = q
                        continue
                    a, b = q, best
                    while a != b:
                        while a > b:
                            a = idom[a]
                        while b > a:
                            b = idom[b]
                    best = a
                if best >= 0 and idom[p] != best:
                    idom[p] = best
                    changed = True
        self.idom_pos = idom
        # Preorder intervals of the dominator tree without an explicit
        # tour: ``idom[p] < p`` (a dominator precedes its node in rpo),
        # so a reverse sweep accumulates subtree sizes and a forward
        # sweep hands out preorder slots — children are claimed in rpo
        # order, which is exactly the child order the stack tour (and the
        # dict path's insertion-ordered children lists) would visit.
        # tin = preorder index, tout = tin + size - 1 = max descendant
        # stamp: identical values to the tour's entry/exit clocks.
        tin = [-1] * m
        tout = [-1] * m
        if m:
            size = [1] * m
            for p in range(m - 1, 0, -1):
                par = idom[p]
                if par >= 0:
                    size[par] += size[p]
            cursor = [0] * m  # next free preorder slot inside each node
            tin[0] = 0
            tout[0] = size[0] - 1
            cursor[0] = 1
            for p in range(1, m):
                par = idom[p]
                if par < 0 or tin[par] < 0:
                    # Detached subtree (never-assigned idom): the tour
                    # never reaches it, so the whole subtree keeps -1.
                    continue
                t = cursor[par]
                tin[p] = t
                tout[p] = t + size[p] - 1
                cursor[p] = t + 1
                cursor[par] = t + size[p]
        self.tin = tin
        self.tout = tout

    # -- dict-shaped views (same structures the scalar path builds) -----

    def idom_dict(self, entry: str) -> dict:
        flat = self.flat
        names = flat.names
        order = flat.order
        idom_pos = self.idom_pos
        idom: dict = {entry: None}
        for p in range(1, len(order)):
            q = idom_pos[p]
            if q >= 0:
                idom[names[order[p]]] = names[order[q]]
        return idom

    def back_edges(self) -> list[tuple[str, str]]:
        """Edges ``src -> dst`` where dst dominates src, in the scalar
        discovery order (rpo of src, successor-list order within)."""
        flat = self.flat
        order = flat.order
        src = self.e_src
        dst = self.e_dst
        if not src.size:
            return []
        tin = np.array(self.tin, dtype=_I64)
        tout = np.array(self.tout, dtype=_I64)
        ok = (tin[dst] >= 0) & (tin[src] >= 0)
        back = (src == dst) | (
            ok & (tin[dst] <= tin[src]) & (tin[src] <= tout[dst])
        )
        names = flat.names
        return [
            (names[order[int(src[i])]], names[order[int(dst[i])]])
            for i in np.flatnonzero(back)
        ]


def dom_facts(entry: str, succs: dict):
    """Build :class:`DomFacts` for a CFG; None if ``entry`` is absent."""
    if entry not in succs:
        return None
    return DomFacts(FlatCFG(entry, succs))
