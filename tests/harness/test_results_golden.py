"""The paper's results as a golden: ``python -m repro.harness all``
reproduces ``results_full.txt``.

Tables 1-3 and Figure 7 are deterministic, so the command's output must
equal the committed file apart from its ``(generated in ...)`` line and
trailing blank lines.  A change that moves results on purpose
re-freezes the file and quotes the table diff in its CHANGES entry::

    PYTHONPATH=src python -m repro.harness all --out results_full.txt
"""

from __future__ import annotations

import difflib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RESULTS_PATH = ROOT / "results_full.txt"

_TIMING_LINE = re.compile(r"\(generated in [0-9.]+s\)")


def _lines(text: str) -> list[str]:
    lines = [line for line in text.split("\n") if not _TIMING_LINE.fullmatch(line)]
    while lines and not lines[-1]:
        lines.pop()
    return lines


def test_harness_all_reproduces_results_full():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    run = subprocess.run(
        [sys.executable, "-m", "repro.harness", "all"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    got = _lines(run.stdout)
    want = _lines(RESULTS_PATH.read_text())
    assert got == want, "\n".join(
        difflib.unified_diff(
            want, got, "results_full.txt", "harness all", lineterm=""
        )
    )
