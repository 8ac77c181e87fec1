"""Tests for the timing model and its next-block predictor."""

import os
import random
import subprocess
import sys

import pytest

from repro.core.convergent import form_module
from repro.ir import FunctionBuilder, Predicate, build_module
from repro.profiles import collect_profile
from repro.sim.machine import MachineConfig, TRIPS_MACHINE
from repro.sim.timing import TimingSimulator, simulate_cycles
from repro.workloads.microbench import MICROBENCHMARKS
from tests.conftest import make_counting_loop, make_while_loop


def test_fixed_slot_fetch_cycles():
    assert TRIPS_MACHINE.block_fetch_cycles(5) == 8  # 128/16 regardless
    assert TRIPS_MACHINE.block_fetch_cycles(128) == 8
    ideal = MachineConfig(fixed_size_blocks=False)
    assert ideal.block_fetch_cycles(5) == 1
    assert ideal.block_fetch_cycles(33) == 3


@pytest.mark.parametrize(
    "field, value",
    [
        ("issue_width", 0),
        ("window_blocks", 0),
        ("fetch_rate", 0),
        ("history_bits", -1),
        ("map_latency", -1),
        ("fetch_gap", -1),
        ("mispredict_penalty", -1),
        ("route_latency", -1),
        ("interblock_forward", -1),
        ("load_extra", -1),
        ("commit_overhead", -1),
    ],
)
def test_machine_config_rejects_bad_values(field, value):
    # Construction only: issue_width=0 would hang a simulation.
    with pytest.raises(ValueError, match=f"MachineConfig.{field} "):
        MachineConfig(**{field: value})


def test_cycles_deterministic():
    module = build_module(make_while_loop())
    a = simulate_cycles(module.copy(), args=(27,)).cycles
    b = simulate_cycles(module.copy(), args=(27,)).cycles
    assert a == b > 0


def test_more_dynamic_blocks_cost_more_cycles():
    small = simulate_cycles(build_module(make_counting_loop(bound=5)))
    large = simulate_cycles(build_module(make_counting_loop(bound=50)))
    assert large.cycles > small.cycles
    assert large.blocks > small.blocks


def test_formation_improves_counting_loop_cycles():
    base = build_module(make_counting_loop(bound=30))
    baseline = simulate_cycles(base.copy())
    formed = base.copy()
    profile = collect_profile(base.copy())
    form_module(formed, profile=profile)
    improved = simulate_cycles(formed)
    assert improved.cycles < baseline.cycles
    assert improved.blocks < baseline.blocks


def test_block_overhead_dominates_for_tiny_blocks():
    """With fixed-size slots, N empty-ish blocks cost ~N * fetch cycles."""
    fb = FunctionBuilder("main")
    n = 50
    fb.block("b0", entry=True)
    for i in range(n):
        fb.br(f"b{i + 1}")
        fb.block(f"b{i + 1}")
    fb.ret(fb.movi(0))
    stats = simulate_cycles(build_module(fb.finish()))
    assert stats.cycles >= n * TRIPS_MACHINE.fetch_gap


def test_mispredict_penalty_visible():
    """A data-dependent alternating branch costs cycles via flushes."""
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br("head")
    fb.block("head")
    c = fb.tlt(i, fb.movi(64))
    fb.br_cond(c, "body", "exit")
    fb.block("body")
    # branch on load of a pseudo-random memory value
    val = fb.load(i, offset=2000)
    odd = fb.tne(val, fb.movi(0))
    fb.br_cond(odd, "t", "f")
    fb.block("t")
    fb.br("latch")
    fb.block("f")
    fb.br("latch")
    fb.block("latch")
    fb.mov_to(i, fb.add(i, fb.movi(1)))
    fb.br("head")
    fb.block("exit")
    fb.ret(i)
    module = build_module(fb.finish())

    rng = random.Random(42)
    noisy = {2000 + k: rng.randint(0, 1) for k in range(64)}
    predictable = {2000 + k: 1 for k in range(64)}

    def run(values):
        sim = TimingSimulator(module.copy())
        sim_interp_preload = {k: [v] for k, v in values.items()}
        return sim.run(args=(0,), preload=sim_interp_preload)

    noisy_stats = run(noisy)
    predictable_stats = run(predictable)
    assert noisy_stats.mispredictions > predictable_stats.mispredictions + 10
    assert noisy_stats.cycles > predictable_stats.cycles


def test_issue_width_contention():
    """A very wide independent block is limited by issue width."""
    fb = FunctionBuilder("main")
    fb.block("entry", entry=True)
    regs = [fb.movi(i) for i in range(64)]  # 64 independent instructions
    fb.ret(regs[0])
    module = build_module(fb.finish())
    wide = simulate_cycles(module.copy(), config=MachineConfig(issue_width=16))
    narrow = simulate_cycles(module.copy(), config=MachineConfig(issue_width=2))
    assert narrow.cycles > wide.cycles


def test_dependence_chain_beats_independent():
    fb = FunctionBuilder("main", nparams=1)
    fb.block("entry", entry=True)
    acc = 0
    for _ in range(64):
        acc = fb.add(acc, acc)  # serial dependence chain
    fb.ret(acc)
    chain = simulate_cycles(build_module(fb.finish()), args=(3,))

    fb2 = FunctionBuilder("main", nparams=1)
    fb2.block("entry", entry=True)
    values = [fb2.add(0, 0) for _ in range(64)]  # independent adds
    fb2.ret(values[-1])
    flat = simulate_cycles(build_module(fb2.finish()), args=(3,))
    assert chain.cycles > flat.cycles * 2


def test_ipc_and_rates():
    stats = simulate_cycles(build_module(make_counting_loop()))
    assert 0 < stats.ipc < 16
    assert 0 <= stats.misprediction_rate <= 1


def _nested_loops(outer: int, inner: int):
    """``outer`` visits of a one-block loop that runs ``inner`` times:
    ``loop`` exits to itself ``inner - 1`` times, then to ``latch``."""
    fb = FunctionBuilder("main")
    fb.block("entry", entry=True)
    o = fb.movi(0)
    i = fb.func.new_reg()
    fb.br("outer")
    fb.block("outer")
    fb.movi_to(i, 0)
    fb.br("loop")
    fb.block("loop")
    fb.mov_to(i, fb.addi(i, 1))
    fb.br_cond(fb.tlt(i, fb.movi(inner)), "loop", "latch")
    fb.block("latch")
    fb.mov_to(o, fb.addi(o, 1))
    fb.br_cond(fb.tlt(o, fb.movi(outer)), "outer", "done")
    fb.block("done")
    fb.ret(o)
    return build_module(fb.finish())


def _exit_pattern(bits: list):
    """A loop whose ``pick`` block leaves for ``a`` when the next of
    ``bits`` (preloaded at address 1000) is set and for ``b`` otherwise;
    returns the module and its preload."""
    fb = FunctionBuilder("main")
    fb.block("entry", entry=True)
    i = fb.movi(0)
    fb.br("pick")
    fb.block("pick")
    fb.br_cond(fb.tne(fb.load(i, offset=1000), fb.movi(0)), "a", "b")
    fb.block("a")
    fb.br("latch")
    fb.block("b")
    fb.br("latch")
    fb.block("latch")
    fb.mov_to(i, fb.addi(i, 1))
    fb.br_cond(fb.tlt(i, fb.movi(len(bits))), "pick", "exit")
    fb.block("exit")
    fb.ret(i)
    return build_module(fb.finish()), {1000: list(bits)}


def test_predictor_learns_loop_exit():
    """20 visits of a loop running 5 iterations: the exit history tells
    the last iteration from the others, so the pattern tables learn the
    exit that a history-less predictor misses on every visit."""
    module = _nested_loops(outer=20, inner=5)
    learned = simulate_cycles(module)
    no_history = simulate_cycles(
        module, config=MachineConfig(history_bits=0)
    )
    assert no_history.mispredictions >= 20
    assert learned.mispredictions <= 5
    assert 1 - learned.misprediction_rate > 0.95


def test_predictor_returns_always_correct():
    """A block that leaves by a return on every other call never
    mispredicts: returns go to the return-address stack and never train
    the exit tables, so its branch exit stays predicted."""
    f = FunctionBuilder("f", nparams=1)
    f.block("entry", entry=True)
    taken = f.tlt(f.movi(0), 0)
    f.br("body", pred=Predicate(taken, True))
    f.ret(f.movi(7), pred=Predicate(taken, False))
    f.block("body")
    f.ret(0)
    main = FunctionBuilder("main")
    main.block("entry", entry=True)
    total = main.movi(0)
    for call in range(10):
        total = main.add(total, main.call("f", main.movi(call % 2)))
    main.ret(total)
    stats = simulate_cycles(build_module(main.finish(), f.finish()))
    assert stats.blocks == 16
    assert stats.mispredictions == 0


def test_predictor_random_targets_mispredict():
    """Exits drawn at random cannot be learned: ``pick`` mispredicts far
    more often than one time in five."""
    rng = random.Random(1)
    module, preload = _exit_pattern([rng.randint(0, 1) for _ in range(500)])
    stats = simulate_cycles(module, preload=preload)
    assert stats.mispredictions > 0.2 * 500


def test_predictor_stable_across_runs():
    """The exit history hashes block names with a stable hash, so the
    same run mispredicts the same times in a process with another
    ``str`` hash seed."""
    script = (
        "from tests.sim.test_timing import _exit_pattern\n"
        "from repro.sim.timing import simulate_cycles\n"
        "module, preload = _exit_pattern([1, 1, 1, 0] * 50)\n"
        "stats = simulate_cycles(module, preload=preload)\n"
        "print(stats.cycles, stats.mispredictions)\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    runs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
        )
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, check=True,
        )
        runs.add(out.stdout)
    module, preload = _exit_pattern([1, 1, 1, 0] * 50)
    stats = simulate_cycles(module, preload=preload)
    assert runs == {f"{stats.cycles} {stats.mispredictions}\n"}
    assert stats.mispredictions > 0


def test_predictor_history_ablation():
    """Next-block prediction quality matters: on the branchy slice 8 bits
    of exit history cost at most 5% more cycles than none."""

    def cycles(history_bits):
        total = 0
        for name in ("bzip2_3", "parser_1", "twolf_1"):
            workload = MICROBENCHMARKS[name]
            total += simulate_cycles(
                workload.module(),
                args=workload.args,
                preload={k: list(v) for k, v in workload.preload.items()},
                config=MachineConfig(history_bits=history_bits),
            ).cycles
        return total

    assert cycles(8) <= cycles(0) * 1.05
