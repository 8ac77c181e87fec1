"""Dominator analysis (Cooper-Harvey-Kennedy iterative algorithm)."""

from __future__ import annotations

from typing import Optional

from repro.ir.function import CFG, Function


def reverse_postorder(func: Function, cfg: Optional[CFG] = None) -> list[str]:
    """Blocks reachable from the entry, in reverse postorder."""
    succs = (cfg or func.cfg()).succs
    entry = func.entry
    visited = {entry}
    order: list[str] = []
    # Iterative DFS, one successor iterator per stack frame, to avoid
    # recursion limits on the long chains that unrolling produces.
    names = [entry]
    frames = [iter(succs.get(entry, ()))]
    while frames:
        for nxt in frames[-1]:
            if nxt not in visited and nxt in succs:
                visited.add(nxt)
                names.append(nxt)
                frames.append(iter(succs[nxt]))
                break
        else:
            order.append(names.pop())
            frames.pop()
    order.reverse()
    return order


class DominatorTree:
    """Immediate dominators for every reachable block of a function."""

    def __init__(self, func: Function, cfg: Optional[CFG] = None):
        self.func = func
        cfg = cfg or func.cfg()
        self.rpo = reverse_postorder(func, cfg)
        self._index = {name: i for i, name in enumerate(self.rpo)}
        self.idom: dict[str, Optional[str]] = {func.entry: func.entry}
        self._compute(cfg)
        self.idom[func.entry] = None
        children: dict[str, list[str]] = {name: [] for name in self.rpo}
        for name, parent in self.idom.items():
            if parent is not None:
                children[parent].append(name)
        self.children = children

    def _intersect(self, a: str, b: str) -> str:
        index = self._index
        idom = self.idom
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    def _compute(self, cfg: CFG) -> None:
        changed = True
        while changed:
            changed = False
            for name in self.rpo:
                if name == self.func.entry:
                    continue
                preds = [p for p in cfg.preds.get(name, []) if p in self.idom]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom)
                if self.idom.get(name) != new_idom:
                    self.idom[name] = new_idom
                    changed = True

    def dominates(self, a: str, b: str) -> bool:
        """True if block ``a`` dominates block ``b`` (reflexively)."""
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            node = self.idom.get(node)
        return False

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def dom_depth(self, name: str) -> int:
        depth = 0
        node = self.idom.get(name)
        while node is not None:
            depth += 1
            node = self.idom.get(node)
        return depth
