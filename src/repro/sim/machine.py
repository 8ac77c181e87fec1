"""Machine configuration for the TRIPS-like timing model.

Default values approximate the TRIPS prototype as described in the paper
(Section 2): a 16-wide core, 8 blocks in flight (1 non-speculative + 7
speculative), 128-instruction blocks mapped across the execution array,
with per-block fetch/map overhead and an operand network that charges a
routing hop between producer and consumer.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineConfig:
    """Timing parameters of the simulated EDGE core."""

    #: dynamic issue slots per cycle, shared by all in-flight blocks
    issue_width: int = 16
    #: maximum blocks in flight (window = window_blocks * 128 instructions)
    window_blocks: int = 8
    #: fixed pipeline cycles to fetch+map a block before any instruction
    #: in it may issue
    map_latency: int = 6
    #: instructions fetched per cycle (adds ceil(size/rate) to map time)
    fetch_rate: int = 16
    #: cycles between consecutive block fetch starts when prediction is
    #: correct.  Smaller than a full block-fetch time: the front end
    #: pipelines/banks block fetches, but each block still consumes a
    #: window slot and prediction bandwidth — this is the per-block
    #: overhead that makes underfilled blocks costly.
    fetch_gap: int = 3
    #: cycles from branch resolution to fetch restart on a misprediction
    mispredict_penalty: int = 12
    #: bits of global exit history that index each block's next-block
    #: pattern table (0 leaves one pattern entry per block)
    history_bits: int = 8
    #: operand network hop charged on every producer->consumer edge
    route_latency: int = 1
    #: extra cycles for a register value to reach a consuming block
    interblock_forward: int = 1
    #: additional latency of a load beyond its opcode latency (cache model)
    load_extra: int = 0
    #: cycles to commit a block once all outputs are produced
    commit_overhead: int = 1
    #: architectural block capacity.  TRIPS blocks occupy a *fixed-size*
    #: slot in the instruction window and consume a fixed fetch footprint
    #: no matter how full they are — this is the per-block overhead that
    #: makes underfilled blocks expensive and block merging profitable
    #: (paper Sections 1-2).
    block_slot_size: int = 128
    #: if False, fetch cost scales with actual block size instead (an
    #: idealized machine without the fixed-format overhead; used by the
    #: ablation benchmarks)
    fixed_size_blocks: bool = True

    def __post_init__(self) -> None:
        # Bad values fail here, not late: issue_width=0 would never leave
        # the timing model's issue-slot search, window_blocks=0 indexes an
        # empty window and fetch_rate=0 divides by zero.
        for name in ("issue_width", "window_blocks", "fetch_rate"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"MachineConfig.{name} must be at least 1, "
                    f"got {getattr(self, name)}"
                )
        for name in (
            "history_bits", "map_latency", "fetch_gap", "mispredict_penalty",
            "route_latency", "interblock_forward", "load_extra",
            "commit_overhead",
        ):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"MachineConfig.{name} must not be negative, "
                    f"got {getattr(self, name)}"
                )

    def block_fetch_cycles(self, size: int) -> int:
        """Cycles of fetch bandwidth one block of ``size`` instrs consumes."""
        if self.fixed_size_blocks:
            size = self.block_slot_size
        return max(1, -(-size // self.fetch_rate))


#: The default TRIPS-prototype-like configuration.
TRIPS_MACHINE = MachineConfig()
