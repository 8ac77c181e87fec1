"""Natural-loop detection and the loop forest.

Head duplication needs to know, for a candidate merge edge ``HB -> S``:

- whether ``S`` is a loop header (peeling applies),
- whether the edge is a back edge (unrolling applies),

so the loop forest is the central analysis of the whole reproduction.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.analysis.dominators import DominatorTree
from repro.ir.function import CFG, Function


class Loop:
    """A natural loop: header block plus the body block set."""

    def __init__(self, header: str,
                 back_edges: Iterable[tuple[str, str]] = ()):
        self.header = header
        self.blocks: set[str] = {header}
        #: (latch, header) pairs
        self.back_edges: list[tuple[str, str]] = list(back_edges)
        self.parent: Optional["Loop"] = None
        self.children: list["Loop"] = []

    @property
    def depth(self) -> int:
        depth = 1
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def latches(self) -> list[str]:
        return [src for src, _ in self.back_edges]

    def exits(self, cfg: CFG) -> list[tuple[str, str]]:
        """Edges leaving the loop, as (inside_block, outside_block)."""
        result = []
        for name in sorted(self.blocks):
            for succ in cfg.succs.get(name, []):
                if succ not in self.blocks:
                    result.append((name, succ))
        return result

    def entry_edges(self, cfg: CFG) -> list[tuple[str, str]]:
        """Edges entering the header from outside the loop."""
        return [
            (pred, self.header)
            for pred in cfg.preds.get(self.header, [])
            if pred not in self.blocks
        ]

    def __repr__(self) -> str:
        return f"<Loop header={self.header} blocks={len(self.blocks)}>"


class LoopForest:
    """All natural loops of a function, nested into a forest.

    The forest owns the dominator tree as an immediate-dominator parent
    map, so a formation commit can patch both in place
    (:meth:`note_commit`) instead of rebuilding them.
    """

    def __init__(self, func: Function, cfg: Optional[CFG] = None,
                 domtree: Optional[DominatorTree] = None):
        self.func = func
        self.cfg = cfg or func.cfg()
        dom = domtree or DominatorTree(func, self.cfg)
        #: Immediate dominator of every reachable block (the entry maps to
        #: ``None``); unreachable blocks are absent.
        self.idom: dict[str, Optional[str]] = dict(dom.idom)
        self.loops: dict[str, Loop] = {}  # keyed by header
        self._block_loops: dict[str, list[Loop]] = {}
        #: bodies/nesting are materialized on first query that needs
        #: them: the formation hot path only asks ``is_header`` /
        #: ``is_back_edge``, which headers and back edges answer alone.
        self._bodies_done = False
        self._find_loops(dom)

    # -- construction -------------------------------------------------------

    def _find_loops(self, dom: DominatorTree) -> None:
        for src in dom.rpo:
            for dst in self.cfg.succs.get(src, []):
                if dst in dom.idom or dst == self.func.entry:
                    if dom.dominates(dst, src):
                        loop = self.loops.setdefault(dst, Loop(dst))
                        loop.back_edges.append((src, dst))

    def _ensure_bodies(self) -> None:
        """Collect loop bodies and nest the forest (idempotent, lazy)."""
        if self._bodies_done:
            return
        self._bodies_done = True
        for loop in self.loops.values():
            for src, _ in loop.back_edges:
                self._collect_body(loop, src)
        self._nest_loops()

    def _collect_body(self, loop: Loop, latch: str) -> None:
        stack = [latch]
        while stack:
            name = stack.pop()
            if name in loop.blocks:
                continue
            loop.blocks.add(name)
            stack.extend(self.cfg.preds.get(name, []))

    def _nest_loops(self) -> None:
        ordered = sorted(self.loops.values(), key=lambda l: len(l.blocks))
        for i, inner in enumerate(ordered):
            for outer in ordered[i + 1 :]:
                if inner.header in outer.blocks and inner is not outer:
                    inner.parent = outer
                    outer.children.append(inner)
                    break
        for loop in self.loops.values():
            for name in loop.blocks:
                self._block_loops.setdefault(name, []).append(loop)
        for loops in self._block_loops.values():
            loops.sort(key=lambda l: -l.depth)

    # -- incremental update -------------------------------------------------

    def note_commit(
        self, hb: str, s: str, added: Optional[Iterable[str]]
    ) -> bool:
        """Patch the dominator tree and back edges after a merge commit.

        ``self.cfg`` must already hold ``hb``'s new successor list and
        still hold ``s`` (a block the commit deletes is removed from the
        CFG afterwards).  ``added``, worked out by the caller, is empty
        when the edit replaced the edge ``hb -> s`` by edges from ``hb``
        to successors of ``s`` — every commit, since the local optimizer
        never deletes a branch, except an unroll whose saved body adds a
        successor ``hb`` lacked.  The update is exact for that shape.
        Each new path maps to an old one with ``s`` inserted, and each old
        path to a new one with ``s`` dropped, so every dominator set stays
        the same or loses ``s``:

        - ``s`` dominates ``hb`` (tail duplication of a header into its
          latch; an unroll): the tree is unchanged and only ``hb``'s
          out-edges can change status;
        - otherwise every block ``s`` dominated is reachable around it
          through ``hb``'s new edges, so ``s``'s children move to its old
          idom, ``s`` is re-hung under the nearest common ancestor of its
          remaining reachable predecessors (or leaves the tree), and only
          edges at ``hb`` and ``s`` can change status.

        For an unroll (``s == hb``) that added the edges ``hb -> t``,
        ``added`` names the targets ``t``; no edge was removed.  When
        every ``t`` is reachable and NCA(``hb``, ``t``) is ``t`` or
        idom(``t``), no immediate dominator changes (see
        :meth:`_keeps_idoms`), so the edit is patched like the first case.

        Returns ``False`` for any other edit (``added`` is ``None``); the
        caller then rebuilds the forest.  :class:`Loop` objects already
        handed out are never mutated: changed loops are replaced.
        """
        if added is None:
            return False
        if not all(self._keeps_idoms(hb, t) for t in added):
            return False
        cfg = self.cfg
        if self._bodies_done:
            # Any body may grow or shrink with the edit: re-collect lazily.
            self._bodies_done = False
            self._block_loops = {}
            self.loops = {
                header: Loop(header, loop.back_edges)
                for header, loop in self.loops.items()
            }
        retest = [(hb, t) for t in cfg.succs[hb]]
        idom = self.idom
        if hb in idom and not self._dominates(s, hb):
            parent = idom.pop(s)
            for name, dom in idom.items():
                if dom == s:
                    idom[name] = parent
            preds = [p for p in cfg.preds[s] if p != s and p in idom]
            if preds:
                idom[s] = self._common_dominator(preds)
            retest += [(p, s) for p in cfg.preds[s]]
            retest += [(s, t) for t in cfg.succs[s]]
        if s not in cfg.succs[hb]:
            self._set_back_edge(hb, s, False)
        for src, dst in retest:
            self._set_back_edge(
                src, dst, src in idom and self._dominates(dst, src)
            )
        return True

    def _keeps_idoms(self, hb: str, t: str) -> bool:
        """Adding the edge ``hb -> t`` changes no immediate dominator:
        ``t`` is reachable and NCA(``hb``, ``t``) is ``t`` or idom(``t``),
        that is, ``t`` is the entry or idom(``t``) dominates ``hb``.

        Proof, one added edge at a time: a path to a block ``w`` that
        avoids an old dominator ``d`` of ``w`` must use the edge.  If
        ``d`` dominates ``t``, it is not ``t`` (the path passes ``t``), so
        it dominates idom(``t``) and with it ``hb``; yet the path up to
        its first use of the edge is an old path to ``hb`` that avoids
        ``d``.  Otherwise an old path to ``t`` avoids ``d``, and joined
        with the path after its last use of the edge it is an old path
        to ``w`` that avoids ``d``.  Both contradict ``d`` dominating
        ``w``, so no dominator set changes, and the next added edge is
        tested against the same tree.
        """
        idom = self.idom
        if t not in idom:
            return False
        parent = idom[t]
        return parent is None or self._dominates(parent, hb)

    def _dominates(self, a: str, b: str) -> bool:
        """True if ``a`` dominates ``b`` (reflexively), by idom-chain walk."""
        idom = self.idom
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            node = idom.get(node)
        return False

    def _common_dominator(self, names: list[str]) -> str:
        """Nearest common ancestor of reachable ``names`` in the tree."""
        idom = self.idom
        common = names[0]
        for name in names[1:]:
            ancestors = set()
            node: Optional[str] = common
            while node is not None:
                ancestors.add(node)
                node = idom[node]
            common = name
            while common not in ancestors:
                common = idom[common]
        return common

    def _set_back_edge(self, src: str, dst: str, back: bool) -> None:
        loop = self.loops.get(dst)
        edges = loop.back_edges if loop is not None else []
        if ((src, dst) in edges) == back:
            return
        edges = [e for e in edges if e != (src, dst)]
        if back:
            edges.append((src, dst))
        if edges:
            self.loops[dst] = Loop(dst, edges)
        else:
            del self.loops[dst]

    # -- queries ------------------------------------------------------------

    def is_header(self, name: str) -> bool:
        # Hot path (merge classification): headers are known from back-edge
        # discovery alone — never materializes bodies.
        return name in self.loops

    def loop_of_header(self, name: str) -> Optional[Loop]:
        self._ensure_bodies()
        return self.loops.get(name)

    def innermost_loop(self, name: str) -> Optional[Loop]:
        self._ensure_bodies()
        loops = self._block_loops.get(name)
        return loops[0] if loops else None

    def loop_depth(self, name: str) -> int:
        loop = self.innermost_loop(name)
        return loop.depth if loop else 0

    def is_back_edge(self, src: str, dst: str) -> bool:
        # Hot path (merge classification): back edges are discovered
        # eagerly — never materializes bodies.
        loop = self.loops.get(dst)
        return loop is not None and (src, dst) in loop.back_edges

    def top_level_loops(self) -> list[Loop]:
        self._ensure_bodies()
        return [l for l in self.loops.values() if l.parent is None]

    def all_loops_innermost_first(self) -> list[Loop]:
        self._ensure_bodies()
        return sorted(self.loops.values(), key=lambda l: -l.depth)
