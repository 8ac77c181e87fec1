"""Write ``formation_golden.json``: the pinned output of every golden pipeline.

For each pipeline of ``test_formation_golden.py`` the sha256 of the
printed module, the m/t/u/p counters, the attempt count and the digest
of the decision log are frozen.
Re-freeze only when a change moves formation decisions on purpose, and
say so in the change::

    PYTHONPATH=src python tests/core/freeze_formation_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# The pipelines form through ``tests.conftest``, so the repository root
# must be importable when this file runs as a script.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.core.test_formation_golden import (  # noqa: E402
    GOLDEN_PATH,
    PIPELINES,
    run_pipeline,
)


def main() -> None:
    golden = {
        pid: run_pipeline(name, config) for pid, name, config in PIPELINES
    }
    # One pipeline per line, so a re-freeze diffs line by line.
    rows = [
        f" {json.dumps(pid)}: {json.dumps(golden[pid], sort_keys=True)}"
        for pid in sorted(golden)
    ]
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(golden)} pipelines to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
