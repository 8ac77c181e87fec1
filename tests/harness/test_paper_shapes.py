"""The paper's shape claims for Tables 1-3 and Figure 7 (EXPERIMENTS.md's
✅ rows), checked on the committed results.

``test_results_golden`` proves that ``python -m repro.harness all``
reproduces ``results_full.txt``, so these tests read the numbers from
that file instead of running the tables again.  The numbers the file
does not print come from one in-process run of one workload: parser_1's
mispredictions (Table 2) and mcf's cycle counts under Table 3's
functional-only simulation.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.harness import table2, table3

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


def _base_column(title_prefix: str) -> dict[str, int]:
    """The basic-block column of a printed table: benchmark -> count."""
    lines = _section(title_prefix)
    header = next(i for i, line in enumerate(lines) if line.startswith("benchmark"))
    return {
        line.split()[0]: int(line.split()[1])
        for line in lines[header + 2:]
        if not line.startswith(("-", "Average")) and " | " in line
    }


def _figure7_points() -> dict[tuple[str, str], tuple[int, int]]:
    """(benchmark, config) -> (block reduction, cycle reduction)."""
    lines = _section("Figure 7:")
    header = next(i for i, line in enumerate(lines) if line.startswith("benchmark"))
    points = {}
    for line in lines[header + 1:lines.index("", header)]:
        name, config, blocks, cycles = line.split()
        points[name, config] = (int(blocks), int(cycles))
    return points


@pytest.fixture(scope="module")
def table1_rows():
    return _table("Table 1:")


@pytest.fixture(scope="module")
def table2_rows():
    return _table("Table 2:")


@pytest.fixture(scope="module")
def table3_rows():
    return _table("Table 3:")


def test_table1_every_ordering_beats_basic_blocks(table1_rows):
    _, averages = table1_rows
    assert set(averages) == {"UPIO", "IUPO", "(IUP)O", "(IUPO)"}
    assert min(averages.values()) > 0, averages


def test_table1_convergent_ordering_is_near_the_best_discrete(table1_rows):
    """(IUPO) is not the best ordering (EXPERIMENTS.md's ⚠️ row), but it
    stays within 8 points of the best discrete one."""
    _, averages = table1_rows
    best_discrete = max(averages["UPIO"], averages["IUPO"])
    assert averages["(IUPO)"] >= best_discrete - 8.0, averages


def test_table1_iterating_unroll_and_peel_adds_little(table1_rows):
    """IUPO and (IUP)O are within a point (the paper: 25.0 vs 24.2)."""
    _, averages = table1_rows
    assert abs(averages["IUPO"] - averages["(IUP)O"]) <= 1.0, averages


def test_table1_per_benchmark_signatures(table1_rows):
    """The low-trip ammp loops gain most where they can be peeled; sieve
    is positive only under (IUPO); gzip_1 and vadd carry negative
    entries, as in the paper's table."""
    rows, _ = table1_rows
    for name in ("ammp_1", "ammp_2"):
        assert rows[name]["(IUPO)"] > rows[name]["UPIO"], rows[name]
    sieve = rows["sieve"]
    assert sieve["(IUPO)"] > max(sieve["UPIO"], sieve["IUPO"]), sieve
    for name in ("gzip_1", "vadd"):
        assert min(rows[name].values()) < 0, rows[name]


def test_table1_bzip2_3_forms_fewer_dynamic_blocks():
    """bzip2_3 takes cycles as basic blocks, and (IUPO) runs fewer
    dynamic blocks: Figure 7's block reduction is basic blocks' count
    minus (IUPO)'s."""
    assert _base_column("Table 1:")["bzip2_3"] > 0
    blocks, _ = _figure7_points()["bzip2_3", "(IUPO)"]
    assert blocks > 0, blocks


def test_table3_convergent_ordering_is_best_and_every_gain_is_large(table3_rows):
    """Every average is above 20% and (IUPO) has the best one; the
    paper's monotone trend is not reproduced (EXPERIMENTS.md's ⚠️ row)."""
    _, averages = table3_rows
    assert set(averages) == {"UPIO", "IUPO", "(IUP)O", "(IUPO)"}
    assert min(averages.values()) > 20, averages
    others = [value for config, value in averages.items() if config != "(IUPO)"]
    assert averages["(IUPO)"] > max(others), averages


def test_table3_counts_blocks_with_the_functional_simulator_only(table3_rows):
    """Table 3 runs no timing simulation (the move that let the paper
    reach SPEC scale): mcf's runs take no cycles, and (IUPO) runs fewer
    dynamic blocks than basic blocks."""
    rows, _ = table3_rows
    result = table3(subset=["mcf"])
    runs = result.rows["mcf"]
    assert all(run.cycles == 0 for run in runs.values()), runs
    assert runs["(IUPO)"].dynamic_blocks < runs["BB"].dynamic_blocks
    # The in-process run is the one the file printed.
    assert runs["BB"].dynamic_blocks == _base_column("Table 3:")["mcf"]
    printed = f"{result.improvement('mcf', '(IUPO)'):.1f}"
    assert float(printed) == rows["mcf"]["(IUPO)"], printed


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
