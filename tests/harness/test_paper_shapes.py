"""The paper's Table 2 and Figure 7 shape claims (EXPERIMENTS.md's ✅
rows), checked on the committed results.

``test_results_golden`` proves that ``python -m repro.harness all``
reproduces ``results_full.txt``, so these tests read the numbers from
that file instead of running the tables again.  The one number the file
does not print, parser_1's mispredictions, comes from one in-process
Table 2 run of that workload.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness import table2

RESULTS_PATH = Path(__file__).resolve().parents[2] / "results_full.txt"
SEPARATOR = "\n" + "=" * 72 + "\n"


def _section(title_prefix: str) -> list[str]:
    """The lines of one ``results_full.txt`` section, title first."""
    (section,) = (
        text.strip("\n")
        for text in RESULTS_PATH.read_text().split(SEPARATOR)
        if text.lstrip("\n").startswith(title_prefix)
    )
    return section.split("\n")


def _table(title_prefix: str) -> tuple[dict, dict]:
    """``(rows, averages)`` of a printed table: benchmark -> {config ->
    percent improvement}, and the Average row's {config -> percent}."""
    lines = _section(title_prefix)
    header = next(line for line in lines if line.startswith("benchmark"))
    configs = [
        cell.split("m/t/u/p")[0].strip() for cell in header.split(" | ")[1:]
    ]

    def percents(line: str) -> dict[str, float]:
        cells = line.split(" | ")[1:]
        return {c: float(cell.split("%")[0]) for c, cell in zip(configs, cells)}

    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if line.startswith("Average"):
            return rows, percents(line)
        if not line.startswith("-"):
            rows[line.split()[0]] = percents(line)
    raise AssertionError(f"{title_prefix} has no Average row")


@pytest.fixture(scope="module")
def table2_rows():
    return _table("Table 2:")


def test_table2_breadth_first_has_the_best_average(table2_rows):
    _, averages = table2_rows
    assert set(averages) == {"VLIW", "Convergent VLIW", "DF", "BF"}
    others = [value for config, value in averages.items() if config != "BF"]
    assert averages["BF"] > max(others), averages


def test_table2_iterative_optimization_does_not_hurt_vliw(table2_rows):
    _, averages = table2_rows
    assert averages["Convergent VLIW"] >= averages["VLIW"], averages


def test_table2_bzip2_3_pathology(table2_rows):
    """Section 7.2: breadth-first wins on bzip2_3 while depth-first and
    the VLIW heuristic lose to basic blocks."""
    rows, _ = table2_rows
    row = rows["bzip2_3"]
    assert row["BF"] > 0 > max(row["DF"], row["VLIW"]), row


def test_table2_parser_1_misprediction_effect(table2_rows):
    """The VLIW heuristic excludes parser_1's rarely-taken paths and pays
    mispredictions for them; breadth-first is ahead with no more."""
    rows, _ = table2_rows
    row = rows["parser_1"]
    assert row["BF"] > row["VLIW"], row
    result = table2(subset=["parser_1"])
    # The in-process run is the one the file printed.
    for config in ("BF", "VLIW"):
        printed = f"{result.improvement('parser_1', config):.1f}"
        assert float(printed) == row[config], (config, printed)
    runs = result.rows["parser_1"]
    assert runs["BF"].mispredictions <= runs["VLIW"].mispredictions, (
        runs["BF"].mispredictions, runs["VLIW"].mispredictions,
    )


def test_figure7_is_a_positive_fit_over_all_table1_runs():
    """Over every Table 1 run the cycle reduction grows with the block
    reduction: slope > 0, and r^2 in [0.50, 0.65] around the measured
    0.576 (the paper's 0.78 is not reproduced; see EXPERIMENTS.md)."""
    table1_rows, _ = _table("Table 1:")
    lines = _section("Figure 7:")
    header = next(i for i, line in enumerate(lines) if line.startswith("benchmark"))
    points = lines[header + 1:lines.index("", header)]
    runs = sum(len(configs) for configs in table1_rows.values())
    assert len(points) == runs == 96
    fit = next(line for line in lines if line.startswith("linear fit:"))
    slope = float(fit.split("=")[1].split("*")[0])
    r_squared = float(fit.split("r^2 =")[1].strip(" )"))
    assert slope > 0, fit
    assert 0.50 <= r_squared <= 0.65, fit
