"""Deterministic fault injection for the formation engine.

A :class:`FaultPlane` is a seeded, *stateless* decider: whether a fault
fires at a given site is a pure function of ``(seed, site, keys...)``, so
the same plane produces the same faults regardless of trial order — which
is what lets the containment proof compare a faulted run against a
no-fault control run function by function.

Trial-level fault kinds (applied to the scratch preview of a merge trial):

- ``"optimizer"`` — raise :class:`InjectedFault` where the local optimizer
  would run (an optimizer crash mid-trial);
- ``"commit"``    — raise *mid-commit*, after the CFG has already been
  partially mutated (the hardest rollback case for the trial guard);
- ``"operand"``   — silently corrupt a source operand of the preview (a
  wrong-code bug only the differential oracle can catch);
- ``"predicate"`` — silently drop a predicate from the preview (ditto).

The module keeps no repro imports so that ``repro.core.merge`` can import
it without cycles.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional


class InjectedFault(RuntimeError):
    """An artificial failure raised by a :class:`FaultPlane`."""


def stable_roll(seed, *key) -> float:
    """Uniform [0, 1) hash of ``(seed, *key)``.

    The repo's one idiom for "deterministic randomness": a pure function
    of its inputs, independent of call order, interpreter hash seed, or
    process.  The fault plane decides firing sites with it.
    """
    digest = hashlib.sha256(
        "|".join((str(seed),) + tuple(str(k) for k in key)).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


#: Trial-level kinds that raise (containment proof) vs. silently corrupt
#: (oracle proof).
RAISING_KINDS = ("optimizer", "commit")
CORRUPTING_KINDS = ("operand", "predicate")
TRIAL_KINDS = RAISING_KINDS + CORRUPTING_KINDS


@dataclass
class FiredFault:
    """A fault the plane actually injected."""

    site: str  # "trial"
    kind: str
    function: str
    seed: Optional[str] = None  # hyperblock seed (trial faults)
    candidate: Optional[str] = None


@dataclass
class FaultPlane:
    """Seeded fault decider.

    ``rate`` is the per-site firing probability; ``functions`` (when set)
    restricts injection to the named functions.  ``fired`` logs every
    fault the plane injected, in firing order.
    """

    rate: float = 0.1
    seed: int = 0
    kinds: tuple = RAISING_KINDS
    functions: Optional[frozenset] = None
    fired: list = field(default_factory=list)

    def _roll(self, *key: str) -> float:
        """Uniform [0, 1) hash of ``(seed, *key)``; order-independent."""
        return stable_roll(self.seed, *key)

    def _targets(self, func_name: str) -> bool:
        return self.functions is None or func_name in self.functions

    # -- trial faults ---------------------------------------------------

    def trial_fault(
        self, func_name: str, hb_name: str, cand_name: str
    ) -> Optional[str]:
        """Which fault kind (if any) fires for this merge trial."""
        if not self.kinds or not self._targets(func_name):
            return None
        roll = self._roll("trial", func_name, hb_name, cand_name)
        if roll >= self.rate:
            return None
        # Re-use the sub-threshold roll to pick the kind deterministically.
        index = int(roll / self.rate * len(self.kinds))
        return self.kinds[min(index, len(self.kinds) - 1)]

    def record(
        self,
        site: str,
        kind: str,
        func_name: str,
        hb_name: Optional[str] = None,
        cand_name: Optional[str] = None,
    ) -> FiredFault:
        fault = FiredFault(site, kind, func_name, hb_name, cand_name)
        self.fired.append(fault)
        return fault

    def corrupt(self, kind: str, preview) -> bool:
        """Apply a silent-corruption kind to a scratch preview block.

        Returns whether anything was actually corrupted (a preview with no
        eligible instruction is left alone, and the fault is not recorded
        by the caller in that case).
        """
        if kind == "operand":
            for instr in preview.instrs:
                if instr.srcs and not instr.is_branch:
                    # Redirect the first source to a (deterministically)
                    # different register: classic use-after-rename bug.
                    instr.srcs = (instr.srcs[0] + 1,) + tuple(instr.srcs[1:])
                    preview.touch()
                    return True
            return False
        if kind == "predicate":
            for instr in preview.instrs:
                if instr.pred is not None and not instr.is_branch:
                    instr.pred = None
                    preview.touch()
                    return True
            return False
        raise ValueError(f"not a corrupting fault kind: {kind!r}")

    # -- bookkeeping ----------------------------------------------------

    def fired_mark(self) -> int:
        """Opaque cursor into the fired log (see :meth:`fired_since`)."""
        return len(self.fired)

    def fired_since(self, mark: int, func_name: str) -> list:
        """Faults fired for ``func_name`` after the ``mark`` cursor."""
        return [f for f in self.fired[mark:] if f.function == func_name]


#: The plane consulted by the formation engine (see ``core/merge.py``).
#: Process-global by design: planes must reach code deep inside the merge
#: loop without threading a parameter through every call site.
_ACTIVE: Optional[FaultPlane] = None


def install(plane: FaultPlane) -> None:
    global _ACTIVE
    _ACTIVE = plane


def clear() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_plane() -> Optional[FaultPlane]:
    return _ACTIVE


@contextmanager
def injected(plane: FaultPlane) -> Iterator[FaultPlane]:
    """Install ``plane`` for the duration of a ``with`` block."""
    previous = _ACTIVE
    install(plane)
    try:
        yield plane
    finally:
        if previous is None:
            clear()
        else:
            install(previous)
