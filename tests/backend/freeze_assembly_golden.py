"""Write ``assembly_golden.json``: the pinned assembly of every program.

For each Table-2 configuration and each program of
``tests.conftest.formed_programs`` the sha256 of
``compile_backend(...).assembly`` is frozen, or of the ``ValueError:``
line when emission overflows the execution array.  Re-freeze only when
a change alters the backend's output on purpose, and say so in the
change::

    PYTHONPATH=src python tests/backend/freeze_assembly_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# The programs form through ``tests.conftest``, so the repository root
# must be importable when this file runs as a script.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.backend.pipeline import compile_backend  # noqa: E402
from repro.harness.tables import TABLE2_HEURISTICS  # noqa: E402
from tests.backend.test_placement_oracle import (  # noqa: E402
    GOLDEN_PATH,
    assembly_sha256,
)
from tests.conftest import formed_programs  # noqa: E402


def assembly_of(formed) -> str:
    try:
        return compile_backend(formed.copy()).assembly
    except ValueError as exc:
        return f"ValueError: {exc}"


def main() -> None:
    golden = {
        config: {
            name: assembly_sha256(assembly_of(formed))
            for name, formed, _, _ in formed_programs(config)
        }
        for config in TABLE2_HEURISTICS
    }
    # One program per line, so a re-freeze diffs line by line.
    blocks = []
    for config in TABLE2_HEURISTICS:
        rows = [
            f"  {json.dumps(name)}: {json.dumps(digest)}"
            for name, digest in sorted(golden[config].items())
        ]
        blocks.append(f" {json.dumps(config)}: {{\n" + ",\n".join(rows) + "\n }")
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n" + ",\n".join(blocks) + "\n}\n")
    count = sum(len(digests) for digests in golden.values())
    print(f"wrote {count} programs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
