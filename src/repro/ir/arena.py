"""Struct-of-arrays instruction arena: flat-int columns for the hot analyses.

PRs 1-2 established the pattern that every formation speedup in this repo
followed: replace Python objects with machine integers (dense register
IDs, bitmask dataflow).  This module finishes the move for the
instructions themselves.  A block's instructions are *encoded* once into
parallel ``array('q')`` columns — opcode id, destination register,
packed predicate — plus a CSR-style operand table (per-instruction
offsets into one flat source-register pool), and the per-trial analyses
(use/kill masks, upward-exposed reads, the structural estimator, DCE,
GVN keys) iterate those columns instead of walking ``Instruction``
objects.  One encode pass additionally precomputes every per-block fact
those consumers share (kill/def/remat masks, memory-op counts, consumer
fanout), so a single O(n) scan serves ~4 analyses per merge trial.

The object graph stays the source of truth.  Blocks are still lists of
:class:`~repro.ir.instruction.Instruction`; transforms, the printer, the
interpreter, and the verifier never see the arena.  Encoded *views* are
a cache keyed by ``BasicBlock.version`` — stamps are process-unique and
never reused (see :mod:`repro.ir.block`), so a view can never describe
stale contents.  Restore/compaction therefore only ever *drops* cache;
both are trivially sound.

Backend selection: ``REPRO_IR_BACKEND`` picks one of three tiers.
``legacy`` disables the arena and every consumer falls back to its
original object-graph scan; ``arena`` (the default) serves the flat-int
columns with pure-CPython loops; ``numpy`` keeps the same columns but
lets the hot consumers run vectorized kernels over zero-copy
``np.frombuffer`` mirrors of them (see :mod:`repro.ir.arena_np`).  The
numpy tier is strictly additive — it changes how facts are *computed*,
never what they are — and degrades to the ``arena`` tier when numpy is
not importable.  Selection is captured at function build time in
``Function.arena`` (used by trial-guard checkpoints and the run
ledger); the analyses themselves gate on the module-level
:data:`ENABLED` / :data:`NUMPY` flags, which test fixtures flip via
:func:`set_backend`.
"""

from __future__ import annotations

import os
from array import array
from typing import Optional

from repro.ir.opcodes import (
    COMMUTATIVE_OPS,
    MEMORY_OPS,
    PURE_OPS,
    Opcode,
)

# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------

#: Environment variable naming the IR analysis backend.
BACKEND_ENV = "REPRO_IR_BACKEND"
_BACKENDS = ("numpy", "arena", "legacy")

# Lazy numpy probe: ``None`` = not yet attempted.  numpy is an optional
# extra (``pip install .[fast]``); importing it costs ~100 ms, so the
# probe only runs when the numpy backend is actually requested.
_NUMPY_PROBED: Optional[bool] = None


def numpy_available() -> bool:
    """Whether the vectorized kernel tier can load (guarded import)."""
    global _NUMPY_PROBED
    if _NUMPY_PROBED is None:
        try:
            import numpy  # noqa: F401

            _NUMPY_PROBED = True
        except ImportError:
            _NUMPY_PROBED = False
    return _NUMPY_PROBED


def available_backends() -> tuple[str, ...]:
    """The backend names selectable on this interpreter, fastest first."""
    if numpy_available():
        return _BACKENDS
    return tuple(b for b in _BACKENDS if b != "numpy")


def _resolve(name: str) -> tuple[bool, bool]:
    """Map a backend name to the ``(ENABLED, NUMPY)`` flag pair.

    ``numpy`` degrades to ``arena`` when numpy is not importable — the
    columns and every flat-loop fallback are unaffected, so the cheap
    graceful path beats a hard error in CI legs without the extra.
    """
    if name == "legacy":
        return False, False
    if name == "numpy":
        return True, numpy_available()
    return True, False


def _read_env() -> tuple[bool, bool]:
    value = os.environ.get(BACKEND_ENV, "arena").strip().lower()
    if value and value not in _BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV}={value!r}: expected one of {_BACKENDS}"
        )
    return _resolve(value or "arena")


#: Whether the arena backend is active.  Consumers read this per call, so
#: flipping it (via :func:`set_backend`) takes effect immediately; the
#: per-function ``Function.arena`` handle records the selection that was
#: live when the function was built.
ENABLED: bool
#: Whether the vectorized numpy consumer tier is active (implies ENABLED).
NUMPY: bool
ENABLED, NUMPY = _read_env()


def backend() -> str:
    """Name of the backend in effect (``"numpy"``/``"arena"``/``"legacy"``)."""
    if NUMPY:
        return "numpy"
    return "arena" if ENABLED else "legacy"


def set_backend(name: Optional[str] = None) -> str:
    """Select the analysis backend; ``None`` re-reads the environment.

    Returns the name now in effect (``numpy`` reports ``arena`` when the
    extra is absent).  Used by tests and the bench's backend smoke;
    production selection is the environment variable read once at import.
    """
    global ENABLED, NUMPY
    if name is None:
        ENABLED, NUMPY = _read_env()
    elif name in _BACKENDS:
        ENABLED, NUMPY = _resolve(name)
    else:
        raise ValueError(f"unknown backend {name!r}: expected {_BACKENDS}")
    return backend()


# ---------------------------------------------------------------------------
# Opcode interning
# ---------------------------------------------------------------------------

_OPCODES: tuple[Opcode, ...] = tuple(Opcode)

#: Opcode -> dense int id (the value stored in the ``op`` column).
OP_IDS: dict[Opcode, int] = {op: i for i, op in enumerate(_OPCODES)}

#: Dense id -> Opcode (decode direction, cold paths only).
OPS_BY_ID: tuple[Opcode, ...] = _OPCODES

# Per-opcode property bitflags, indexable by opcode id — the column-side
# equivalent of the ``op in SOME_FROZENSET`` membership tests.
F_PURE = 1 << 0
F_MEMORY = 1 << 1
F_STORE = 1 << 2
F_COMMUTATIVE = 1 << 4


def _flags_of(op: Opcode) -> int:
    flags = 0
    if op in PURE_OPS:
        flags |= F_PURE
    if op in MEMORY_OPS:
        flags |= F_MEMORY
    if op is Opcode.STORE:
        flags |= F_STORE
    if op in COMMUTATIVE_OPS:
        flags |= F_COMMUTATIVE
    return flags


OP_FLAGS: tuple[int, ...] = tuple(_flags_of(op) for op in _OPCODES)

# Ids the hot loops compare against directly.
OP_MOV = OP_IDS[Opcode.MOV]
OP_MOVI = OP_IDS[Opcode.MOVI]
OP_AND = OP_IDS[Opcode.AND]
OP_NOT = OP_IDS[Opcode.NOT]
OP_LOAD = OP_IDS[Opcode.LOAD]
OP_STORE = OP_IDS[Opcode.STORE]
OP_BR = OP_IDS[Opcode.BR]

#: Column slot count that triggers compaction at the next encode.  At
#: 8 bytes per slot per column this bounds the arrays to ~10 MB; the
#: formation caches that shield the arena (use/kill, exposed, def-mask
#: memos are all version-keyed *outside* it) keep re-encodes rare.
COMPACT_SLOT_LIMIT = 1 << 18


class BlockView:
    """One block's encoded extent plus the per-block facts of that encode.

    ``base``/``n`` index the owning arena's columns; everything else is a
    plain Python value computed during the encode pass.  A view is valid
    only while ``epoch`` matches the arena's (compaction bumps the epoch
    and recycles the columns).
    """

    __slots__ = (
        "epoch",
        "base",
        "n",
        "kill_mask",       # unpredicated destinations
        "def_mask",        # all destinations
        "remat_mask",      # registers whose last write was MOVI
        "mem_ops",
        "pred_stores",
        "succ",            # branch-target names, in order, de-duplicated
        "unpredicated",    # no instruction carries a predicate
        "exposed",         # upward-exposed mask; None unless unpredicated
    )


class Arena:
    """Process-global struct-of-arrays store for encoded blocks.

    A single store serves every function: the analyses receive bare
    blocks, and block version stamps are process-unique, so one
    version-keyed view table cannot confuse two owners.  Columns only
    grow; trial-guard checkpoints truncate them back on rollback and
    compaction recycles them wholesale once they pass
    :data:`COMPACT_SLOT_LIMIT`.
    """

    def __init__(self) -> None:
        self.op = array("q")
        self.dest = array("q")      # -1 = no destination
        self.pred = array("q")      # -1 = none, else reg << 1 | sense
        self.src_off = array("q", (0,))  # CSR offsets into src_pool
        self.src_pool = array("q")
        self.imm: list = []         # parallel immediates (arbitrary objects)
        self.views: dict[int, BlockView] = {}  # block version -> view
        self.epoch = 0
        # Cached zero-copy numpy mirrors of the columns (arena_np.Mirrors),
        # or None.  A live mirror *pins* the array buffers — CPython raises
        # BufferError on any resize while a memoryview is exported — so
        # every mutation site below drops it first; readers rebuild lazily
        # via mirrors().
        self._mirrors = None
        self.mirror_builds = 0
        # counters (exported via counters() / publish_metrics())
        self.encodes = 0
        self.view_hits = 0
        self.instrs_stored = 0
        self.snapshots = 0
        self.restores = 0
        self.compactions = 0

    # -- encoding -------------------------------------------------------

    def encode_block(self, block) -> BlockView:
        """Append ``block``'s instructions to the columns; register and
        return the view.

        The single pass also computes every derived per-block fact the
        hot consumers need.
        """
        if len(self.op) >= COMPACT_SLOT_LIMIT:
            self._compact()
        if self._mirrors is not None:
            self._mirrors = None  # unpin the buffers before appending
        ops = self.op
        dests = self.dest
        preds = self.pred
        off = self.src_off
        pool = self.src_pool
        op_ids = OP_IDS
        base = len(ops)
        ops_append = ops.append
        dests_append = dests.append
        preds_append = preds.append
        off_append = off.append
        pool_extend = pool.extend
        imms_append = self.imm.append

        kill = 0
        defs = 0
        remat = 0
        mem_ops = 0
        pred_stores = 0
        unpredicated = True
        exposed = 0
        succ: list[str] = []
        instrs = block.instrs
        # While the block is all-unpredicated so far, ``kill`` doubles as
        # the running killed-set for the exposure computation (every prior
        # write was unpredicated, so the two masks coincide).  Consumer
        # counting is deliberately NOT done here: the estimator derives it
        # from the CSR pool with a flat loop (see ``estimate_block``), so
        # encodes whose view never feeds an estimate don't pay for it.
        for instr in instrs:
            opid = op_ids[instr.op]
            dest = instr.dest
            pred = instr.pred
            srcs = instr.srcs
            ops_append(opid)
            imms_append(instr.imm)
            if srcs:
                pool_extend(srcs)
            off_append(len(pool))
            if pred is None:
                preds_append(-1)
                if unpredicated and srcs:
                    # Exposure for the all-unpredicated case falls out of
                    # the same pass (sources observed before the dest).
                    for s in srcs:
                        if not kill >> s & 1:
                            exposed |= 1 << s
            else:
                preds_append(pred.reg << 1 | pred.sense)
                unpredicated = False
            if dest is None:
                dests_append(-1)
            else:
                dests_append(dest)
                bit = 1 << dest
                defs |= bit
                if opid == OP_MOVI:
                    remat |= bit
                else:
                    remat &= ~bit
                if pred is None:
                    kill |= bit
            if opid == OP_LOAD:
                mem_ops += 1
            elif opid == OP_STORE:
                mem_ops += 1
                if pred is not None:
                    pred_stores += 1
            elif opid == OP_BR:
                target = instr.target
                if target is not None and target not in succ:
                    succ.append(target)

        view = BlockView.__new__(BlockView)
        view.epoch = self.epoch
        view.base = base
        view.n = len(instrs)
        view.kill_mask = kill
        view.def_mask = defs
        view.remat_mask = remat
        view.mem_ops = mem_ops
        view.pred_stores = pred_stores
        view.succ = succ
        view.unpredicated = unpredicated
        view.exposed = exposed if unpredicated else None
        self.encodes += 1
        self.instrs_stored += view.n
        self.views[block.version] = view
        return view

    def view_of(self, block) -> BlockView:
        """The (possibly cached) view of ``block``'s current contents."""
        view = self.views.get(block.version)
        if view is not None and view.epoch == self.epoch:
            self.view_hits += 1
            return view
        return self.encode_block(block)

    # -- numpy mirrors --------------------------------------------------

    def mirrors(self):
        """Zero-copy numpy views of the columns, rebuilt lazily.

        The cached :class:`repro.ir.arena_np.Mirrors` survives any number
        of reads but is invalidated by every column mutation (encode
        append, restore truncation, compaction/clear) — those sites drop
        it *before* resizing, because a live ndarray export pins the
        ``array('q')`` buffers.  The epoch/extent check is therefore a
        pure assertion of freshness: a mirror that survived to this point
        always describes the current columns.
        """
        m = self._mirrors
        if (
            m is not None
            and m.epoch == self.epoch
            and m.n_slots == len(self.op)
            and m.n_pool == len(self.src_pool)
        ):
            return m
        from repro.ir import arena_np

        m = arena_np.Mirrors(self)
        self._mirrors = m
        self.mirror_builds += 1
        return m

    # -- checkpoint / restore -------------------------------------------

    def checkpoint(self) -> tuple[int, int, int]:
        """An O(1) mark of the current column extents (epoch, slots, pool)."""
        self.snapshots += 1
        return (self.epoch, len(self.op), len(self.src_pool))

    def restore(self, mark: tuple[int, int, int]) -> None:
        """Truncate the columns back to ``mark``.

        Views are a pure version-keyed cache, so dropping them is always
        sound; truncation only reclaims the scratch encodes a rolled-back
        trial appended.  A mark from before a compaction cannot be
        honored slot-for-slot — the columns were recycled — so the whole
        store is conservatively cleared instead.
        """
        self.restores += 1
        epoch, n_slots, n_pool = mark
        if epoch != self.epoch:
            self._clear()
            return
        self._mirrors = None  # unpin the buffers before truncating
        del self.op[n_slots:]
        del self.dest[n_slots:]
        del self.pred[n_slots:]
        del self.src_off[n_slots + 1:]
        del self.src_pool[n_pool:]
        del self.imm[n_slots:]
        if self.views:
            stale = [
                version
                for version, view in self.views.items()
                if view.base + view.n > n_slots
            ]
            for version in stale:
                del self.views[version]

    # -- maintenance ----------------------------------------------------

    def _clear(self) -> None:
        self._mirrors = None  # unpin the buffers before truncating
        del self.op[:]
        del self.dest[:]
        del self.pred[:]
        del self.src_off[1:]
        del self.src_pool[:]
        del self.imm[:]
        self.views.clear()
        self.epoch += 1

    def _compact(self) -> None:
        """Recycle the columns once they pass the slot limit.

        Safe at encode entry because no consumer holds raw column indices
        across an encode of *another* block: every hot path takes its
        view and finishes reading before the next encode can happen.
        Outstanding views are invalidated by the epoch bump and re-encode
        lazily on their next use.
        """
        self.compactions += 1
        self._clear()

    # -- reporting ------------------------------------------------------

    @property
    def column_bytes(self) -> int:
        return sum(
            a.itemsize * len(a)
            for a in (self.op, self.dest, self.pred, self.src_off,
                      self.src_pool)
        )

    def counters(self) -> dict:
        return {
            "encodes": self.encodes,
            "view_hits": self.view_hits,
            "instrs_stored": self.instrs_stored,
            "snapshots": self.snapshots,
            "restores": self.restores,
            "compactions": self.compactions,
            "mirror_builds": self.mirror_builds,
            "column_bytes": self.column_bytes,
            "live_slots": len(self.op),
            "live_views": len(self.views),
        }

    def publish_metrics(self, registry=None) -> None:
        """Export the counters as ``arena_*`` gauges in an obs registry."""
        from repro.obs.metrics import get_registry

        target = registry if registry is not None else get_registry()
        for name, value in self.counters().items():
            target.set(f"arena_{name}", value)


#: The process-global store.  ``Function.__init__`` captures it (or
#: ``None`` under the legacy backend); the analyses reach it directly.
STORE = Arena()


def successors_of(block) -> list[str]:
    """``block.successors()`` served from the view's precomputed list.

    CFG rebuilds ask for every block's successors on every analysis
    invalidation; under the arena the terminator scan happened once at
    encode time.  Callers must treat the returned list as read-only (it
    is aliased by every CFG built from the same view).
    """
    if ENABLED:
        return STORE.view_of(block).succ
    return block.successors()
