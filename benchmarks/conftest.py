"""Shared helpers for the benchmark harness.

Every bench regenerates (a slice of) one of the paper's tables or figures
with ``pytest-benchmark`` timing the regeneration, and asserts the *shape*
of the result (who wins, roughly by how much) rather than absolute cycle
counts — our substrate is a simulator, not the authors' RTL-validated one.

Run ``pytest benchmarks/ --benchmark-only -s`` to see the regenerated rows.
"""

from __future__ import annotations

#: Representative microbenchmark slice used by timing-limited benches:
#: covers the paper's key effects (low-trip while loops, the bzip2_3
#: pathology, the unroll-factor-sensitive matmul, branchy and streaming
#: kernels).
TABLE_SLICE = [
    "ammp_1",
    "art_3",
    "bzip2_3",
    "gzip_2",
    "matrix_1",
    "parser_1",
    "sieve",
    "twolf_1",
]

SPEC_SLICE = ["ammp", "bzip2", "gzip", "mcf", "parser", "twolf"]
