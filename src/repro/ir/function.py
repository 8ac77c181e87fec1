"""Functions, modules, and control-flow-graph views."""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.ir.block import BasicBlock
from repro.ir.regdense import RegisterSpace

#: Process-wide monotonic stamp source for function versions (bumped when
#: the block *set* changes; see :attr:`Function.version`).
_fn_version_counter = itertools.count(1)


class CFG:
    """A successor/predecessor view of a function's blocks.

    Recomputed from branch targets on demand; most transforms mutate blocks
    and then simply ask for a fresh view.  Hyperblock formation instead
    patches the view in place through :meth:`update_block` /
    :meth:`remove_node` — a committed merge changes the successor list of
    exactly one block (and possibly deletes the absorbed block), so a full
    rebuild per merge is pure waste.
    """

    __slots__ = ("succs", "preds")

    def __init__(self, func: "Function"):
        self.succs: dict[str, list[str]] = {}
        self.preds: dict[str, list[str]] = {name: [] for name in func.blocks}
        for name, block in func.blocks.items():
            succ = block.successors()
            self.succs[name] = succ
            for target in succ:
                if target in self.preds:
                    self.preds[target].append(name)

    def num_preds(self, name: str) -> int:
        return len(self.preds.get(name, []))

    # -- in-place patching ----------------------------------------------

    def update_block(self, name: str, new_succs: list[str]) -> None:
        """Replace ``name``'s successor list, fixing predecessor lists."""
        for target in self.succs.get(name, ()):
            preds = self.preds.get(target)
            if preds is not None and name in preds:
                preds.remove(name)
        self.succs[name] = list(new_succs)
        for target in new_succs:
            preds = self.preds.get(target)
            if preds is not None:
                preds.append(name)

    def remove_node(self, name: str) -> None:
        """Drop ``name`` from the view (after the block's removal)."""
        for target in self.succs.pop(name, ()):
            preds = self.preds.get(target)
            if preds is not None and name in preds:
                preds.remove(name)
        self.preds.pop(name, None)


class Function:
    """A function: an entry block plus a set of named basic blocks.

    The function owns the virtual-register namespace (``new_reg``) and the
    block-name namespace (``new_block_name``), so transforms that duplicate
    code can mint fresh names without collisions.
    """

    def __init__(self, name: str, params: Optional[list[int]] = None):
        self.name = name
        self.params: list[int] = list(params) if params else []
        self.blocks: dict[str, BasicBlock] = {}
        self.entry: Optional[str] = None
        #: The register interning table (name ↔ dense int); owns the
        #: allocation frontier and is stable across merges, so register
        #: names in printed IR never change behind an analysis's back.
        self.regs = RegisterSpace(self.params)
        self._name_counter = 0
        #: Monotonic stamp bumped whenever the block set changes (add or
        #: remove); per-block content changes bump the block's own version.
        self.version = next(_fn_version_counter)

    def touch(self) -> int:
        """Re-stamp the function after a structural mutation."""
        self.version = next(_fn_version_counter)
        return self.version

    # -- namespaces ---------------------------------------------------------

    def new_reg(self) -> int:
        return self.regs.new()

    def note_reg(self, reg: int) -> int:
        """Record that ``reg`` is in use (keeps ``new_reg`` collision-free)."""
        return self.regs.note(reg)

    def max_reg(self) -> int:
        return self.regs.next_reg

    @property
    def _next_reg(self) -> int:
        # Backwards-compatible view of the interning table's frontier.
        return self.regs.next_reg

    def new_block_name(self, base: str, tag: str = "x") -> str:
        """A fresh block name derived from ``base``, e.g. ``loop.d3``."""
        root = base.split(".")[0]
        while True:
            self._name_counter += 1
            candidate = f"{root}.{tag}{self._name_counter}"
            if candidate not in self.blocks:
                return candidate

    # -- block management -----------------------------------------------

    def add_block(self, block: BasicBlock, entry: bool = False) -> BasicBlock:
        if block.name in self.blocks:
            raise ValueError(f"duplicate block name {block.name!r}")
        self.blocks[block.name] = block
        if entry or self.entry is None:
            self.entry = block.name
        for instr in block:
            for reg in instr.defs() + instr.uses():
                self.note_reg(reg)
        self.version = next(_fn_version_counter)
        return block

    def remove_block(self, name: str) -> None:
        if name == self.entry:
            raise ValueError(f"cannot remove entry block {name!r}")
        del self.blocks[name]
        self.version = next(_fn_version_counter)

    def block(self, name: str) -> BasicBlock:
        return self.blocks[name]

    def cfg(self) -> CFG:
        return CFG(self)

    # -- whole-function queries ---------------------------------------------

    def instructions(self) -> Iterator:
        for block in self.blocks.values():
            yield from block.instrs

    def size(self) -> int:
        return sum(len(b) for b in self.blocks.values())

    def remove_unreachable_blocks(self) -> list[str]:
        """Drop blocks not reachable from the entry; return removed names."""
        assert self.entry is not None
        reachable: set[str] = set()
        stack = [self.entry]
        while stack:
            name = stack.pop()
            if name in reachable or name not in self.blocks:
                continue
            reachable.add(name)
            stack.extend(self.blocks[name].successors())
        removed = [name for name in self.blocks if name not in reachable]
        for name in removed:
            del self.blocks[name]
        if removed:
            self.version = next(_fn_version_counter)
        return removed

    def copy(self) -> "Function":
        """Deep copy with identical block names and register numbers."""
        clone = Function(self.name, list(self.params))
        for name, block in self.blocks.items():
            clone.blocks[name] = block.copy(name)
        clone.entry = self.entry
        clone.regs = self.regs.copy()
        clone._name_counter = self._name_counter
        return clone

    def __setstate__(self, state) -> None:
        # Versions are process-local; re-stamp on unpickle (see
        # BasicBlock.__setstate__).
        self.__dict__.update(state)
        self.version = next(_fn_version_counter)

    def __repr__(self) -> str:
        return f"<Function @{self.name} [{len(self.blocks)} blocks]>"


class Module:
    """A collection of functions; ``main`` is the conventional entry point."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: dict[str, Function] = {}

    def add_function(self, func: Function) -> Function:
        if func.name in self.functions:
            raise ValueError(f"duplicate function @{func.name}")
        self.functions[func.name] = func
        return func

    def function(self, name: str) -> Function:
        return self.functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions.values())

    def copy(self) -> "Module":
        clone = Module(self.name)
        for func in self:
            clone.add_function(func.copy())
        return clone

    def size(self) -> int:
        return sum(f.size() for f in self)

    def __repr__(self) -> str:
        return f"<Module {self.name} [{len(self.functions)} functions]>"
