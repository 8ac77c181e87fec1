"""Struct-of-arrays arena: encoding, view cache, rollback, backend switch."""

from __future__ import annotations

import pytest

from repro.ir import arena
from repro.ir.arena import OP_IDS, Arena
from repro.ir.opcodes import Opcode
from repro.obs.metrics import MetricsRegistry
from tests.conftest import make_counting_loop, make_diamond


@pytest.fixture(autouse=True)
def _arena_backend():
    """Force the arena backend on, restoring the env selection after."""
    arena.set_backend("arena")
    yield
    arena.set_backend(None)


def _fresh_encode(func, block_name):
    store = Arena()
    block = func.blocks[block_name]
    view = store.encode_block(block)
    return store, block, view


# -- encoding ------------------------------------------------------------


def test_encode_columns_round_trip():
    func = make_counting_loop()
    store, block, view = _fresh_encode(func, "body")
    assert view.n == len(block)
    assert view.base == 0
    # Opcode and destination columns mirror the object graph slot for slot.
    for j, instr in enumerate(block):
        assert store.op[view.base + j] == OP_IDS[instr.op]
        expected_dest = -1 if instr.dest is None else instr.dest
        assert store.dest[view.base + j] == expected_dest
        lo = store.src_off[view.base + j]
        hi = store.src_off[view.base + j + 1]
        assert list(store.src_pool[lo:hi]) == list(instr.srcs)
        assert store.imm[view.base + j] is instr.imm


def test_encode_masks_match_object_walk():
    func = make_counting_loop()
    store, block, view = _fresh_encode(func, "body")
    defs = 0
    kill = 0
    for instr in block:
        if instr.dest is not None:
            defs |= 1 << instr.dest
            if instr.pred is None:
                kill |= 1 << instr.dest
    assert view.def_mask == defs
    assert view.kill_mask == kill
    assert view.unpredicated
    # All-unpredicated blocks carry their upward-exposed mask for free.
    assert view.exposed is not None
    seen_defs = 0
    exposed = 0
    for instr in block:
        for src in instr.srcs:
            if not seen_defs >> src & 1:
                exposed |= 1 << src
        if instr.dest is not None:
            seen_defs |= 1 << instr.dest
    assert view.exposed == exposed


def test_encode_collects_branch_successors():
    func = make_diamond()
    store = Arena()
    for name, block in func.blocks.items():
        view = store.encode_block(block)
        assert view.succ == block.successors(), name


def test_successors_of_both_backends():
    func = make_diamond()
    for backend in ("arena", "legacy"):
        arena.set_backend(backend)
        for block in func.blocks.values():
            assert arena.successors_of(block) == block.successors()


# -- view cache ----------------------------------------------------------


def test_view_of_caches_by_version():
    func = make_counting_loop()
    block = func.blocks["body"]
    store = Arena()
    first = store.view_of(block)
    assert store.encodes == 1
    assert store.view_of(block) is first
    assert store.view_hits == 1
    # A content mutation re-stamps the block; the stale view is unreachable.
    block.touch()
    second = store.view_of(block)
    assert second is not first
    assert store.encodes == 2


# -- checkpoint / restore ------------------------------------------------


def test_restore_truncates_columns_and_drops_stale_views():
    func = make_counting_loop()
    store = Arena()
    head = func.blocks["head"]
    store.view_of(head)
    mark = store.checkpoint()
    slots_before = len(store.op)
    body = func.blocks["body"]
    store.view_of(body)
    assert len(store.op) > slots_before
    store.restore(mark)
    assert len(store.op) == slots_before
    assert len(store.src_off) == slots_before + 1
    assert len(store.imm) == slots_before
    # The pre-mark view survived; the post-mark encode was dropped.
    assert head.version in store.views
    assert body.version not in store.views
    # The surviving view still reads correctly.
    assert store.view_of(head).base + store.view_of(head).n <= slots_before


def test_restore_across_compaction_clears_conservatively():
    func = make_counting_loop()
    store = Arena()
    mark = store.checkpoint()
    store.view_of(func.blocks["body"])
    store._compact()  # epoch bump: the mark's slot indices are meaningless
    store.view_of(func.blocks["head"])
    store.restore(mark)
    assert len(store.op) == 0
    assert not store.views
    # The store remains usable after the clear.
    view = store.view_of(func.blocks["body"])
    assert view.n == len(func.blocks["body"])


def test_compaction_invalidates_views_by_epoch():
    func = make_counting_loop()
    store = Arena()
    block = func.blocks["body"]
    old = store.view_of(block)
    store._compact()
    fresh = store.view_of(block)
    assert fresh is not old
    assert fresh.epoch == store.epoch
    assert store.compactions == 1


# -- backend selection ---------------------------------------------------


def test_set_backend_flips_enabled_flag():
    assert arena.set_backend("legacy") == "legacy"
    assert not arena.ENABLED
    assert arena.set_backend("arena") == "arena"
    assert arena.ENABLED
    with pytest.raises(ValueError):
        arena.set_backend("quantum")


def test_env_selection(monkeypatch):
    monkeypatch.setenv(arena.BACKEND_ENV, "legacy")
    assert arena.set_backend(None) == "legacy"
    monkeypatch.setenv(arena.BACKEND_ENV, "bogus")
    with pytest.raises(ValueError):
        arena.set_backend(None)
    monkeypatch.delenv(arena.BACKEND_ENV)
    assert arena.set_backend(None) == "arena"


def test_function_captures_backend_handle():
    arena.set_backend("arena")
    assert make_counting_loop().arena is arena.STORE
    arena.set_backend("legacy")
    assert make_counting_loop().arena is None


# -- reporting -----------------------------------------------------------


def test_counters_and_metrics_export():
    func = make_counting_loop()
    store = Arena()
    store.view_of(func.blocks["body"])
    store.view_of(func.blocks["body"])
    mark = store.checkpoint()
    store.restore(mark)
    counters = store.counters()
    assert counters["encodes"] == 1
    assert counters["view_hits"] == 1
    assert counters["snapshots"] == 1
    assert counters["restores"] == 1
    assert counters["instrs_stored"] == len(func.blocks["body"])
    assert counters["column_bytes"] > 0
    registry = MetricsRegistry()
    store.publish_metrics(registry)
    for name, value in counters.items():
        assert registry.totals(f"arena_{name}")["value"] == value
