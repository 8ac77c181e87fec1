"""Tests for the experiment harness (small subsets to stay fast)."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.harness import (
    ExperimentError,
    RunResult,
    TableResult,
    WorkloadExperiment,
    figure7,
    ordering_config,
    table1,
    table3,
)
from repro.harness.cli import run as cli_run
from repro.workloads.microbench import MICROBENCHMARKS, Workload


@pytest.fixture(scope="module")
def small_table1():
    return table1(subset=["bzip2_3", "twolf_3"])


def test_table1_rows_and_configs(small_table1):
    assert set(small_table1.rows) == {"bzip2_3", "twolf_3"}
    for row in small_table1.rows.values():
        assert set(row) == {"BB", "UPIO", "IUPO", "(IUP)O", "(IUPO)"}
        assert row["BB"].cycles > 0


def test_improvement_math(small_table1):
    row = small_table1.rows["bzip2_3"]
    manual = 100.0 * (row["BB"].cycles - row["(IUPO)"].cycles) / row["BB"].cycles
    assert small_table1.improvement("bzip2_3", "(IUPO)") == pytest.approx(manual)


def test_format_contains_all_rows(small_table1):
    text = small_table1.format()
    assert "bzip2_3" in text and "twolf_3" in text
    assert "Average" in text and "m/t/u/p" in text


def _figure7_of(points):
    """Figure 7's fit over hand-made ``(dblocks, dcycles)`` points."""
    rows = {}
    for i, (dblocks, dcycles) in enumerate(points):
        rows[f"w{i}"] = {
            "BB": RunResult(f"w{i}", "BB", 1000, 100, 0, 1),
            "X": RunResult(f"w{i}", "X", 1000 - dcycles, 100 - dblocks, 0, 1),
        }
    return figure7(TableResult("hand-made", ("X",), rows))


def test_figure7_regression(small_table1):
    regression = figure7(small_table1)
    assert len(regression.points) == 2 * 4
    assert "linear fit" in regression.format()

    collinear = _figure7_of([(1, 8), (2, 11), (3, 14), (4, 17)])
    assert collinear.slope == pytest.approx(3.0)
    assert collinear.intercept == pytest.approx(5.0)
    assert collinear.r_squared == pytest.approx(1.0)

    # By hand: mean x 1.5, mean y 2.75, Sxx 5, Sxy 5.5, so slope 1.1,
    # intercept 1.1; residuals -0.1, 0.8, -1.3, 0.6 give SSres 2.7
    # against SStot 8.75.
    scattered = _figure7_of([(0, 1), (1, 3), (2, 2), (3, 5)])
    assert scattered.slope == pytest.approx(1.1)
    assert scattered.intercept == pytest.approx(1.1)
    assert scattered.r_squared == pytest.approx(1 - 2.7 / 8.75)


def test_table3_counts_blocks_without_timing():
    result = table3(subset=["wupwise"])
    row = result.rows["wupwise"]
    assert row["BB"].cycles == 0
    assert row["BB"].dynamic_blocks > 0
    assert result.metric == "blocks"
    assert result.average("(IUPO)") > 0


def test_experiment_detects_miscompilation():
    """The harness cross-checks every configuration's output."""

    def evil(module, profile):
        # Sabotage: change a constant in the program.
        from repro.ir import Opcode

        for instr in module.function("main").instructions():
            if instr.op is Opcode.MOVI and isinstance(instr.imm, int):
                instr.imm += 1
                break
        from repro.core.merge import MergeStats

        return MergeStats()

    experiment = WorkloadExperiment(workload=MICROBENCHMARKS["vadd"], timing=False)
    with pytest.raises(ExperimentError, match="differs"):
        experiment.run({"evil": evil})


def test_cli_subset_and_out(tmp_path):
    out = tmp_path / "report.txt"
    report = cli_run(["table3", "--subset", "wupwise", "--out", str(out)])
    assert "wupwise" in report
    assert out.read_text() == report + "\n"


def test_cli_rejects_unknown_target():
    with pytest.raises(SystemExit):
        cli_run(["table9"])


@pytest.mark.parametrize(
    "verb", [["selfcheck"], ["selfcheck", "--faults"]],
    ids=["selfcheck", "faults"],
)
def test_cli_unknown_spec_subset_lists_the_available_names(verb):
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro.harness", *verb, "--subset", "nosuch"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode != 0
    assert "available:" in result.stderr
    assert "Traceback" not in result.stderr


#: The ``repro`` modules ``benchmarks/e2e/e2e.py`` imports at start-up;
#: their import time is part of its ``setup_s``.
E2E_IMPORTS = (
    "repro.backend.pipeline",
    "repro.harness.experiment",
    "repro.ir.arena",
    "repro.ir.function",
    "repro.ir.printer",
    "repro.ir.verify",
    "repro.profiles.collect",
    "repro.sim.functional",
    "repro.sim.timing",
    "repro.workloads.generators",
    "repro.workloads.microbench",
    "repro.workloads.spec",
)


@pytest.fixture(scope="module")
def e2e_modules() -> list[str]:
    """Every module loaded by importing :data:`E2E_IMPORTS` in a fresh
    interpreter, so modules other tests imported do not count."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    code = (
        "import importlib, sys\n"
        f"for name in {E2E_IMPORTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_pipeline_imports_load_no_process_machinery(e2e_modules):
    # Formation runs in one process and starts no other program, so
    # nothing the pipeline imports needs multiprocessing or subprocess;
    # loading them anyway costs every e2e process start-up time and
    # memory.
    assert [
        name for name in e2e_modules
        if name.split(".")[0] in ("multiprocessing", "subprocess")
    ] == []


def test_pipeline_imports_load_no_cli_verb(e2e_modules):
    # The verbs (and the decision-log code only they use) are not part
    # of the pipeline e2e times, so its start-up does not load them.
    verbs = {
        "repro.harness.cli",
        "repro.harness.replaycmd",
        "repro.harness.selfcheck",
        "repro.harness.tracecmd",
        "repro.obs.replay",
    }
    assert "repro.harness.experiment" in e2e_modules
    assert sorted(verbs.intersection(e2e_modules)) == []


def test_ordering_config_applies_policy():
    """An ordering configurator forms under the breadth-first policy."""
    from repro.profiles import collect_profile

    workload = MICROBENCHMARKS["twolf_3"]
    module = workload.module()
    profile = collect_profile(
        module.copy(), args=workload.args,
        preload={k: list(v) for k, v in workload.preload.items()},
    )
    stats = ordering_config("(IUPO)")(module, profile)
    assert stats.merges > 0
