"""Write ``simulation_golden.json``: the pinned simulation of every program.

For each program of ``test_simulation_golden.py`` the return value,
memory digest, ``SimStats`` scalars and edge-count digest, the timing
statistics and, for unformed inputs, the profile digest are frozen.
Re-freeze only when a change alters simulation results on purpose, and
say so in the change::

    PYTHONPATH=src python tests/sim/freeze_simulation_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# The programs form through ``tests.conftest``, so the repository root
# must be importable when this file runs as a script.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.sim.test_simulation_golden import (  # noqa: E402
    GOLDEN_PATH,
    PROGRAMS,
    run_program,
)


def main() -> None:
    golden = {pid: run_program(name, config) for pid, name, config in PROGRAMS}
    # One program per line, so a re-freeze diffs line by line.
    rows = [
        f" {json.dumps(pid)}: {json.dumps(golden[pid], sort_keys=True)}"
        for pid in sorted(golden)
    ]
    with open(GOLDEN_PATH, "w") as handle:
        handle.write("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(golden)} programs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
