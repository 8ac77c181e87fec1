"""Live-register analysis (backward may dataflow).

Predicated writes do *not* kill a register: when the predicate is false the
old value remains visible, so only unpredicated definitions enter the kill
set.  Liveness is used by dead-code elimination, by the structural
constraint estimator (live-in = register reads, live-out∩defs = register
writes of a TRIPS block) and by the register allocator.

The solver works over the strongly connected components of the CFG in
reverse topological order (successor components first), so each component
is solved exactly once against already-final successor values.  That
structure is what makes :meth:`Liveness.note_commit` cheap: the analysis
keeps the condensation (component per block, successors-first rank per
component) and patches it in place after a formation commit, then
re-solves only the merged block's component and the predecessor
components a changed live-in set actually propagates into; everything
else keeps its previous (still least-fixpoint) solution.

Dataflow facts are register *bitmasks* (bit ``r`` = register ``r``, see
:mod:`repro.ir.regmask`): the transfer function and the confluence are
single arbitrary-precision integer operations instead of per-element set
algebra, which is what makes the solver's cost scale with function size
divided by the word width rather than with live-set cardinality.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.analysis.predimpl import exposed_mask
from repro.ir.function import CFG, Function


def block_use_kill(block) -> tuple[int, int]:
    """(upward-exposed use mask, unconditional kill mask) for one block.

    Upward-exposed uses are predicate-implication aware: a read guarded by
    the same (or a stronger) predicate than an earlier write in the block
    is not exposed.  Without this every predicated temporary of a
    hyperblock would look live across the CFG.
    """
    use = exposed_mask(block)
    kill = 0
    for instr in block:
        if instr.dest is not None and instr.pred is None:
            kill |= 1 << instr.dest
    return use, kill


def _tarjan_sccs(nodes: list[str], succs: dict[str, list[str]]) -> list[list[str]]:
    """Strongly connected components, emitted successors-first.

    Iterative Tarjan (hyperblock formation unrolls loops into long chains,
    so recursion is off the table).  Tarjan pops a component only after
    every component reachable from it has been emitted, which is exactly
    the reverse-topological order a backward dataflow solver wants.
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    node_set = set(nodes)

    for root in nodes:
        if root in index:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, i = work[-1]
            if i == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            out = succs.get(node, ())
            while i < len(out):
                nxt = out[i]
                i += 1
                if nxt not in node_set:
                    continue
                if nxt not in index:
                    work[-1] = (node, i)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.append(member)
                    if member == node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return sccs


class Liveness:
    """Per-block live-in/live-out register masks for one function.

    ``live_in``/``live_out`` map block name to an int bitmask (bit ``r`` =
    register ``r``); use :func:`repro.ir.regmask.regs_of` for a set view.
    ``use_kill`` may supply precomputed per-block (use, kill) masks for
    the initial solve — hyperblock formation caches them by block version
    across the rebuilds its slow path forces.

    The analysis owns the CFG's SCC condensation: a component id per
    block, the members of each component, and a successors-first rank per
    component (every edge between two components runs from the higher
    rank to the lower).  :meth:`note_commit` patches it in place.
    """

    def __init__(
        self,
        func: Function,
        cfg: Optional[CFG] = None,
        use_kill: Optional[dict[str, tuple[int, int]]] = None,
    ):
        self.func = func
        self.cfg = cfg or func.cfg()
        self.live_in: dict[str, int] = {}
        self.live_out: dict[str, int] = {}
        self._use: dict[str, int] = {}
        self._kill: dict[str, int] = {}
        self._comp_of: dict[str, int] = {}
        self._members: dict[int, list[str]] = {}
        self._rank: dict[int, float] = {}
        self._next_id = 0
        for name, block in func.blocks.items():
            if use_kill is not None and name in use_kill:
                self._use[name], self._kill[name] = use_kill[name]
            else:
                self._use[name], self._kill[name] = block_use_kill(block)
        self._discover()
        for comp in self._members.values():
            self._solve_component(comp)
        #: Components solved by the construction or by the last
        #: :meth:`note_commit` — consumed by the formation perf counters.
        self.sccs_solved = len(self._members)

    # -- solving ----------------------------------------------------------

    def _solve_component(self, comp: list[str]) -> None:
        """Solve one SCC from scratch against final successor values."""
        live_in = self.live_in
        live_out = self.live_out
        use = self._use
        kill = self._kill
        succs = self.cfg.succs
        live_in_get = live_in.get
        if len(comp) == 1:
            name = comp[0]
            if name not in succs.get(name, ()):  # no self loop: one pass
                out = 0
                for succ in succs.get(name, ()):
                    if succ != name:
                        out |= live_in_get(succ, 0)
                live_out[name] = out
                live_in[name] = use[name] | (out & ~kill[name])
                return
        for name in comp:
            live_in[name] = use[name]
            live_out[name] = 0
        changed = True
        while changed:
            changed = False
            for name in comp:
                out = 0
                for succ in succs.get(name, ()):
                    out |= live_in_get(succ, 0)
                new_in = use[name] | (out & ~kill[name])
                if out != live_out[name] or new_in != live_in[name]:
                    live_out[name] = out
                    live_in[name] = new_in
                    changed = True

    def _discover(self) -> None:
        """(Re)build the condensation with one whole-function Tarjan pass;
        the emission order is the rank."""
        comps = _tarjan_sccs(list(self.func.blocks), self.cfg.succs)
        self._comp_of = {
            name: cid for cid, comp in enumerate(comps) for name in comp
        }
        self._members = dict(enumerate(comps))
        self._rank = {cid: float(cid) for cid in self._members}
        self._next_id = len(comps)

    def note_commit(self, hb: str, s: str, in_shape: bool) -> bool:
        """Re-solve after a formation commit rewrote ``hb`` by merging
        ``s`` into it (and possibly deleted ``s``).

        ``self.cfg`` must already hold ``hb``'s new successors and no
        longer hold a deleted ``s``.  ``in_shape`` says the commit replaced
        the edge ``hb -> s`` by edges from ``hb`` to the successors of
        ``s`` and changed no other edge.  Then reachability among all
        blocks other than ``s`` is unchanged (a path through ``hb -> s ->
        t`` maps to one through ``hb -> t`` and back), so only ``s`` can
        leave its component:

        - a deleted ``s`` leaves it;
        - ``s`` stays while another predecessor remains in its component;
        - otherwise ``s`` becomes a singleton, ranked between its old
          component (which it branches into) and its lowest-ranked
          remaining predecessor.

        Any other edit (an unroll whose saved body adds a successor), or a
        rank gap exhausted by repeated splits, re-discovers the components
        instead.  Either way the dirty components are then popped from a
        heap in rank order, starting at ``hb``'s, and re-solved; a
        component whose live-in sets change dirties its predecessors'.
        Every other component keeps its solution: its transfer functions
        and its successors' live-in sets are unchanged, so its old
        solution is still the least fixpoint.

        Returns ``False`` when the components were re-discovered.
        """
        removed = s not in self.func.blocks
        if removed:
            for table in (self.live_in, self.live_out, self._use, self._kill):
                del table[s]
        self._use[hb], self._kill[hb] = block_use_kill(self.func.blocks[hb])
        patched = in_shape and self._patch(s, removed)
        if not patched:
            self._discover()
        self._resolve(hb)
        return patched

    def _patch(self, s: str, removed: bool) -> bool:
        """Move ``s`` out of its component if the commit cut it off (see
        :meth:`note_commit`); ``False`` when no rank fits."""
        comp_of = self._comp_of
        cid = comp_of[s]
        members = self._members[cid]
        if removed:
            del comp_of[s]
            if len(members) == 1:
                del self._members[cid]
                del self._rank[cid]
            else:
                members.remove(s)
            return True
        if len(members) == 1:
            return True
        preds = [p for p in self.cfg.preds[s] if p != s]
        if any(comp_of[p] == cid for p in preds):
            return True
        rank = self._rank
        low = rank[cid]
        if preds:
            high = min(rank[comp_of[p]] for p in preds)
            mid = (low + high) / 2
            if not low < mid < high:
                return False
        else:  # s is unreachable now: no rank bounds it from above
            mid = low + 1.0
        members.remove(s)
        new = self._next_id
        self._next_id += 1
        comp_of[s] = new
        self._members[new] = [s]
        rank[new] = mid
        return True

    def _resolve(self, seed: str) -> None:
        """Re-solve ``seed``'s component and every component a changed
        live-in set propagates into, successors first."""
        comp_of = self._comp_of
        members = self._members
        rank = self._rank
        live_in = self.live_in
        preds = self.cfg.preds
        start = comp_of[seed]
        heap = [(rank[start], start)]
        queued = {start}
        solved = 0
        while heap:
            cid = heappop(heap)[1]
            comp = members[cid]
            old_in = [live_in.get(name) for name in comp]
            self._solve_component(comp)
            solved += 1
            for name, before in zip(comp, old_in):
                if live_in[name] != before:
                    for p in preds[name]:
                        pid = comp_of[p]
                        if pid not in queued:
                            queued.add(pid)
                            heappush(heap, (rank[pid], pid))
        self.sccs_solved = solved

    def live_through(self, name: str) -> int:
        """Mask of registers live across the block without being used in it."""
        return self.live_out[name] & ~self._use[name] & ~self._kill[name]
