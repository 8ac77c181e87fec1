"""Write ``expected.json``: the reference output of every benchmark program.

For each program of every workload, the interpreter runs the
pre-formation IR and the return value plus a sha256 of the final memory
are frozen.  ``run.py`` checks every formed program against this file as
well as against the interpreter's output at set-up, so a change that
alters both the compiler and the interpreter still shows.  Regenerate
only when a workload's programs change on purpose::

    python benchmarks/e2e/freeze_expected.py
"""

from __future__ import annotations

import json

import e2e


def main() -> None:
    expected = {}
    for spec in e2e.WORKLOADS.values():
        for program in spec.programs():
            base = e2e.baseline_of(program)
            expected[program.name] = {
                "ret": base.ret,
                "memory_sha256": e2e.output_digest(base.ret, base.memory),
            }
    with open(e2e.EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(expected)} programs to {e2e.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
