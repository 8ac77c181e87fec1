"""The paper's results as a golden: ``python -m repro.harness all``
reproduces ``results_full.txt``.

Tables 1-3 and Figure 7 are deterministic, so the command's output must
equal the committed file apart from its ``(generated in ...)`` line,
blank lines at the end included.  A change that moves results on
purpose re-freezes the file and quotes the table diff in its CHANGES
entry::

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
    return [line for line in text.split("\n") if not _TIMING_LINE.fullmatch(line)]


def _harness(*args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    run = subprocess.run(
        [sys.executable, "-m", "repro.harness", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return run.stdout


def test_harness_all_reproduces_results_full():
    got = _lines(_harness("all"))
    want = _lines(RESULTS_PATH.read_text())
    assert got == want, "\n".join(
        difflib.unified_diff(
            want, got, "results_full.txt", "harness all", lineterm=""
        )
    )


def test_table_stdout_equals_its_out_file(tmp_path):
    out = tmp_path / "table1.txt"
    stdout = _harness("table1", "--subset", "sieve", "--out", str(out))
    assert stdout == out.read_text()
