"""Profile data: edge frequencies, block counts, loop trip-count histograms.

Profiles are collected on the *basic-block* version of a program and then
queried during hyperblock formation on transformed CFGs.  Duplicated blocks
carry their provenance in their name (``body.d3`` was duplicated from
``body``), so all queries resolve through :func:`root_name`.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional


def root_name(block_name: str) -> str:
    """The original (pre-duplication) block a derived name descends from."""
    return block_name.split(".", 1)[0]


class ProfileData:
    """Aggregated execution profile for a module."""

    def __init__(self) -> None:
        #: (func, src_root, dst_root|None) -> count; None = function return.
        self.edge_counts: dict[tuple[str, str, Optional[str]], int] = {}
        #: (func, block_root) -> executions, which is also the total of the
        #: block's ``edge_counts`` rows: every execution leaves by one edge.
        self.block_counts: dict[tuple[str, str], int] = {}
        #: (func, header_root) -> Counter{trip_count: visits}
        self.trip_histograms: dict[tuple[str, str], Counter] = {}
        #: total dynamic blocks over the profiling run
        self.total_blocks = 0

    # -- recording ----------------------------------------------------------

    def record_step(self, func: str, block: str, dst: Optional[str]) -> None:
        """One execution of ``block`` that left along the edge to ``dst``
        (``None``: the function returned)."""
        key = (func, block)
        self.block_counts[key] = self.block_counts.get(key, 0) + 1
        self.total_blocks += 1
        edge = (func, block, dst)
        self.edge_counts[edge] = self.edge_counts.get(edge, 0) + 1

    def record_trip(self, func: str, header: str, trips: int) -> None:
        key = (func, header)
        hist = self.trip_histograms.get(key)
        if hist is None:
            hist = self.trip_histograms[key] = Counter()
        hist[trips] += 1

    # -- queries ------------------------------------------------------------

    def block_count(self, func: str, block: str) -> int:
        return self.block_counts.get((func, root_name(block)), 0)

    def edge_count(self, func: str, src: str, dst: Optional[str]) -> int:
        key = (func, root_name(src), root_name(dst) if dst else None)
        return self.edge_counts.get(key, 0)

    def edge_probability(self, func: str, src: str, dst: Optional[str]) -> float:
        """P(dst | executing src), from profiled outgoing edge counts."""
        total = self.block_count(func, src)
        if total == 0:
            return 0.0
        return self.edge_count(func, src, dst) / total

    def branch_bias(self, func: str, src: str) -> float:
        """Probability of the most likely successor of ``src`` (1.0 = fully
        predictable, 0.5 = coin flip for a two-way branch)."""
        src = root_name(src)
        counts = [
            count
            for (f, s, _), count in self.edge_counts.items()
            if f == func and s == src
        ]
        total = sum(counts)
        if total == 0:
            return 1.0
        return max(counts) / total

    def trip_histogram(self, func: str, header: str) -> Counter:
        return self.trip_histograms.get((func, root_name(header)), Counter())

    def expected_trips(self, func: str, header: str) -> float:
        hist = self.trip_histogram(func, header)
        visits = sum(hist.values())
        if visits == 0:
            return 0.0
        return sum(trips * n for trips, n in hist.items()) / visits

    def common_trip_count(self, func: str, header: str) -> int:
        """The most frequent trip count (the paper's peeling target)."""
        hist = self.trip_histogram(func, header)
        if not hist:
            return 0
        return hist.most_common(1)[0][0]

    def trip_count_coverage(self, func: str, header: str, trips: int) -> float:
        """Fraction of loop visits with trip count <= ``trips``."""
        hist = self.trip_histogram(func, header)
        visits = sum(hist.values())
        if visits == 0:
            return 0.0
        return sum(n for t, n in hist.items() if t <= trips) / visits

    def __repr__(self) -> str:
        return (
            f"<ProfileData blocks={self.total_blocks} "
            f"edges={len(self.edge_counts)} loops={len(self.trip_histograms)}>"
        )
