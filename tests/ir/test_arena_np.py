"""Numpy backend: mirror invalidation, kernel equivalence, buffer pinning.

The numpy tier is an accelerator, never load-bearing: every kernel here
must be bit-exact against the scalar path it shadows, and the zero-copy
mirrors must never survive a column mutation.  These tests pin both
contracts down — including the failure modes (stale mirrors after
restore/compaction, pinned buffers held across an encode, the GVN
closure cycle that used to keep a mirror alive).
"""

from __future__ import annotations

import gc
import random

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.dominators import DominatorTree, reverse_postorder
from repro.ir import arena
from repro.ir import arena_np
from repro.ir import FunctionBuilder
from repro.ir.arena import Arena
from repro.ir.instruction import Predicate
from repro.opt.gvn import global_value_numbering
from tests.conftest import make_counting_loop, make_diamond, make_while_loop


@pytest.fixture(autouse=True)
def _numpy_backend():
    """Force the numpy backend on, restoring the env selection after."""
    arena.set_backend("numpy")
    yield
    arena.set_backend(None)


# -- mirror lifecycle ----------------------------------------------------


def test_mirrors_cached_until_mutation():
    func = make_counting_loop()
    store = Arena()
    view = store.view_of(func.blocks["body"])
    m1 = store.mirrors()
    assert store.mirrors() is m1
    assert store.counters()["mirror_builds"] == 1
    # The stamp is exactly the checkpoint triple.
    assert (m1.epoch, m1.n_slots, m1.n_pool) == store.checkpoint()
    # Zero-copy: the mirror reads the columns themselves.
    assert m1.op[view.base] == store.op[view.base]
    assert m1.src_off.tolist() == list(store.src_off)


def test_encode_refreshes_mirrors():
    func = make_counting_loop()
    store = Arena()
    store.view_of(func.blocks["body"])
    m1 = store.mirrors()
    slots_before = m1.n_slots
    del m1  # release the pin so the columns may grow
    store.view_of(func.blocks["head"])
    m2 = store.mirrors()
    assert m2.n_slots == len(store.op) > slots_before
    assert store.counters()["mirror_builds"] == 2


def test_restore_truncation_refreshes_mirrors():
    func = make_counting_loop()
    store = Arena()
    store.view_of(func.blocks["head"])
    mark = store.checkpoint()
    store.view_of(func.blocks["body"])
    m1 = store.mirrors()
    stale_slots = m1.n_slots
    del m1
    store.restore(mark)
    # A mirror built before the rollback must never be served again:
    # its columns extend past the truncation point.
    m2 = store.mirrors()
    assert m2.n_slots == mark[1] < stale_slots
    assert m2.n_slots == len(store.op)
    assert m2.n_pool == mark[2] == len(store.src_pool)
    assert int(m2.src_off[-1]) == m2.n_pool


def test_compact_epoch_bump_refreshes_mirrors():
    func = make_counting_loop()
    store = Arena()
    store.view_of(func.blocks["body"])
    m1 = store.mirrors()
    old_epoch = m1.epoch
    del m1
    store._compact()
    assert store.epoch == old_epoch + 1
    view = store.view_of(func.blocks["body"])
    m2 = store.mirrors()
    assert m2.epoch == store.epoch == old_epoch + 1
    assert m2.n_slots == len(store.op) == view.n


def test_cross_epoch_restore_serves_fresh_mirrors():
    func = make_counting_loop()
    store = Arena()
    mark = store.checkpoint()
    store.view_of(func.blocks["body"])
    m1 = store.mirrors()
    del m1
    store._compact()  # epoch bump: the mark's slot indices are meaningless
    store.view_of(func.blocks["head"])
    m_mid = store.mirrors()
    del m_mid
    store.restore(mark)  # conservative clear
    m2 = store.mirrors()
    assert m2.epoch == store.epoch
    assert m2.n_slots == 0 and m2.n_pool == 0
    assert m2.op.size == 0
    del m2  # even an empty store pins its offsets column ([0])
    # The store stays usable and the next mirror sees the new encode.
    view = store.view_of(func.blocks["body"])
    m3 = store.mirrors()
    assert m3.n_slots == view.n


def test_live_mirror_pins_columns():
    """A mirror held across a mutation fails loudly, never reads stale."""
    func = make_counting_loop()
    store = Arena()
    store.view_of(func.blocks["body"])
    held = store.mirrors()
    with pytest.raises(BufferError):
        store.view_of(func.blocks["head"])
    del held


def test_gvn_releases_mirrors():
    """Regression: GVN's closure cycle used to keep its mirror alive.

    The visit closures capture the mirror; without breaking the cell
    reference on exit, the cycle pins the STORE columns until a gc run,
    and the next encode dies with BufferError.  gc stays disabled so the
    test only passes if the release is deterministic.
    """
    gc.disable()
    try:
        for builder in (make_diamond, make_while_loop):
            func = builder()
            global_value_numbering(func)
            probe = make_counting_loop(name=f"pin_probe_{builder.__name__}")
            view = arena.STORE.view_of(probe.blocks["body"])  # must not raise
            assert view.n == len(probe.blocks["body"])
    finally:
        gc.enable()


# -- mask round trip -----------------------------------------------------


def test_mask_bits_round_trip():
    rng = random.Random(2006)
    for _ in range(50):
        size = rng.randrange(1, 130)
        mask = rng.getrandbits(size)
        bits = arena_np.mask_to_bits(mask, size)
        assert bits.size == size
        assert arena_np.bits_to_mask(bits) == mask
    assert arena_np.mask_to_bits(0, 0).size == 0
    assert arena_np.bits_to_mask(np.zeros(0, dtype=np.bool_)) == 0


# -- randomized straight-line blocks (estimator oracles) -----------------


def _random_block(seed: int, length: int = 40):
    """A straight-line block mixing pure, predicated, and memory ops."""
    rng = random.Random(seed)
    fb = FunctionBuilder(f"rand{seed}")
    fb.block("entry", entry=True)
    regs = [fb.movi(rng.randrange(100)) for _ in range(4)]
    for _ in range(length):
        pred = None
        if rng.random() < 0.3:
            pred = Predicate(rng.choice(regs), rng.random() < 0.5)
        roll = rng.random()
        if roll < 0.25:
            regs.append(fb.movi(rng.randrange(100), pred=pred))
        elif roll < 0.5:
            regs.append(fb.add(rng.choice(regs), rng.choice(regs), pred=pred))
        elif roll < 0.65:
            regs.append(fb.mul(rng.choice(regs), rng.choice(regs), pred=pred))
        elif roll < 0.9:
            fb.mov_to(rng.choice(regs), rng.choice(regs), pred=pred)
        else:
            fb.store(rng.choice(regs), rng.choice(regs), pred=pred)
    fb.ret(rng.choice(regs))
    return fb.finish(), regs, rng


@pytest.mark.parametrize("seed", range(4))
def test_consumer_fanout_matches_counting_oracle(seed):
    func, regs, rng = _random_block(seed)
    block = func.blocks["entry"]
    store = Arena()
    view = store.encode_block(block)
    width = rng.choice((1, 2, 4))
    remat_mask = 0
    for reg in set(regs):
        if rng.random() < 0.3:
            remat_mask |= 1 << reg
    consumers: dict[int, int] = {}
    for instr in block.instrs:
        for src in instr.srcs:
            consumers[src] = consumers.get(src, 0) + 1
        if instr.pred is not None:
            reg = instr.pred.reg
            consumers[reg] = consumers.get(reg, 0) + 1
    expected = sum(
        count - width
        for reg, count in consumers.items()
        if count > width and not remat_mask >> reg & 1
    )
    m = store.mirrors()
    got = arena_np.consumer_fanout(m, ((view.base, view.n),), width, remat_mask)
    assert got == expected
    # fanout_many prices the same extents identically, batched or not.
    extents = [(view.base, view.n)] * 3
    masks = [remat_mask, 0, remat_mask]
    batched = arena_np.fanout_many(m, extents, width, masks)
    assert batched == [
        arena_np.consumer_fanout(m, (extents[i],), width, masks[i])
        for i in range(3)
    ]


def test_exposed_kill_masks_match_object_walk():
    func = make_counting_loop()
    block = func.blocks["body"]
    store = Arena()
    view = store.encode_block(block)
    result = arena_np.exposed_kill_masks(store.mirrors(), view.base, view.n)
    assert result is not None
    exposed, kill = result
    seen_defs = 0
    want_exposed = 0
    want_kill = 0
    for instr in block.instrs:
        reads = list(instr.srcs)
        if instr.pred is not None:
            reads.append(instr.pred.reg)
        for src in reads:
            if not seen_defs >> src & 1:
                want_exposed |= 1 << src
        if instr.dest is not None:
            seen_defs |= 1 << instr.dest
            want_kill |= 1 << instr.dest
    assert exposed == want_exposed
    assert kill == want_kill


def test_exposed_kill_masks_reject_predicated_writes():
    fb = FunctionBuilder("predwrite")
    fb.block("entry", entry=True)
    cond = fb.movi(1)
    dest = fb.movi(0)
    fb.movi_to(dest, 7, pred=Predicate(cond, True))
    fb.ret(dest)
    func = fb.finish()
    store = Arena()
    view = store.encode_block(func.blocks["entry"])
    assert arena_np.exposed_kill_masks(store.mirrors(), view.base, view.n) is None


# -- randomized CFGs (dominators / RPO / SCCs) ---------------------------


def _random_func(seed: int, nblocks: int = 12):
    """A function with random branch structure, some blocks unreachable."""
    rng = random.Random(seed)
    names = [f"b{i}" for i in range(nblocks)]
    fb = FunctionBuilder(f"cfg{seed}")
    for i, name in enumerate(names):
        fb.block(name, entry=(i == 0))
    for name in names:
        fb.switch_to(name)
        roll = rng.random()
        if roll < 0.15:
            fb.ret()
        elif roll < 0.55:
            fb.br(rng.choice(names))
        else:
            cond = fb.movi(1)
            fb.br_cond(cond, rng.choice(names), rng.choice(names))
    return fb.finish()


@pytest.mark.parametrize("seed", range(6))
def test_rpo_matches_scalar_dfs(seed):
    func = _random_func(seed)
    cfg = func.cfg()
    fast = arena_np.rpo_names(func.entry, cfg.succs)
    arena.set_backend("arena")
    scalar = reverse_postorder(func, cfg)
    assert fast == scalar
    assert arena_np.rpo_names("nonexistent", cfg.succs) is None


@pytest.mark.parametrize("seed", range(6))
def test_domfacts_match_scalar_tree(seed):
    func = _random_func(seed)
    fast = DominatorTree(func)
    assert fast._facts is not None  # facts path actually taken
    arena.set_backend("arena")
    scalar = DominatorTree(func)
    assert scalar._facts is None
    assert fast.rpo == scalar.rpo
    assert fast.idom == scalar.idom
    assert fast.children == scalar.children
    # O(1) interval queries agree with the idom chain walk everywhere,
    # including unreachable blocks (which dominate only themselves).
    for a in func.blocks:
        for b in func.blocks:
            assert fast.dominates(a, b) == scalar.dominates(a, b), (a, b)


@pytest.mark.parametrize("seed", range(6))
def test_back_edges_match_scalar_dominance(seed):
    func = _random_func(seed)
    cfg = func.cfg()
    facts = arena_np.dom_facts(func.entry, cfg.succs)
    arena.set_backend("arena")
    scalar = DominatorTree(func, cfg)
    reachable = set(scalar.rpo)
    expected = [
        (src, dst)
        for src in scalar.rpo
        for dst in cfg.succs[src]
        if dst in reachable and scalar.dominates(dst, src)
    ]
    assert facts.back_edges() == expected


def test_tin_tout_are_preorder_intervals():
    func = make_while_loop()
    cfg = func.cfg()
    facts = arena_np.dom_facts(func.entry, cfg.succs)
    m = len(facts.flat.order)
    tins = sorted(t for t in facts.tin if t >= 0)
    assert tins == list(range(len(tins)))  # dense preorder stamps
    for p in range(m):
        assert facts.tin[p] <= facts.tout[p] < m
        q = facts.idom_pos[p]
        if p and q >= 0:
            # Child intervals nest strictly inside the parent's.
            assert facts.tin[q] < facts.tin[p] <= facts.tout[p] <= facts.tout[q]
