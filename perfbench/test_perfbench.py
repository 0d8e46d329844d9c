"""Tests of the benchmark itself: seeded inputs, answer checks, and span accounting.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import cliwork  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def tr():
    return workloads.load_package()


def small_ops(workload, families, seed=3):
    return [op for op in workloads.generate(workload, seed)
            if op.k == 2 and op.scale == 1.0 and op.family in families]


@pytest.mark.parametrize("workload", ["solve", "sweep"])
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.input_bytes(workloads.generate(workload, 41))
    assert first == workloads.input_bytes(workloads.generate(workload, 41))
    assert first != workloads.input_bytes(workloads.generate(workload, 42))


def cli_inputs(seed, index=0):
    srcs = cliwork.sources(seed, ROOT)
    deck = cliwork.pass_deck(cliwork.commands(seed, srcs), srcs, seed, index)
    return [(op.argv, op.write) for op in deck]


@pytest.mark.parametrize("index", [0, 1])
def test_same_seed_gives_byte_identical_cli_inputs(index):
    first = cli_inputs(41, index)
    assert first == cli_inputs(41, index)
    assert first != cli_inputs(42, index)


def test_later_passes_get_fresh_inputs_with_the_same_answers(tr):
    deck = small_ops("solve", {"force_at_distortion", "capacity_point", "entropy_at_energy"})[::4]
    deck += small_ops("sweep", {"tilted_conditional", "rd_curve"})[::4]
    relabelled = workloads.pass_deck(deck, 3, 1)
    assert workloads.input_bytes(relabelled) != workloads.input_bytes(deck)
    assert workloads.input_bytes(relabelled) == workloads.input_bytes(workloads.pass_deck(deck, 3, 1))
    workloads.build(tr, relabelled)
    for op in relabelled:
        assert workloads.check(op, workloads.call(tr, op)), op.label


def test_relabelled_configs_round_trip():
    srcs = cliwork.sources(5, ROOT)
    ops = cliwork.pass_deck(cliwork.commands(5, srcs), srcs, 5, 2)
    files = dict(op.write for op in ops)
    assert len(files) == len(srcs) and all(path.startswith(".perfbench/p2/") for path in files)
    for path, text in files.items():
        suffix = Path(path).suffix
        assert cliwork.render_config(cliwork.parse_config(text, suffix), suffix) == text


def test_perturbed_answer_counts_as_failed(tr):
    op = small_ops("solve", {"force_at_distortion"})[0]
    workloads.build(tr, [op])
    point = workloads.call(tr, op)
    assert workloads.check(op, point)
    assert not workloads.check(op, replace(point, rate=point.rate + 1e-8))
    assert not workloads.check(op, replace(point, s=point.s * (1.0 + 1e-4)))


def test_perturbed_cli_output_counts_as_failed():
    op = next(op for op in cliwork.commands(3, cliwork.sources(3, ROOT)) if op.label == "capacity.bsc")
    rate = op.expect["rate"]

    def output(value):
        return f"quantity,value\nrate_nats,{value:.12g}\ns_star,-1\nmutual_information_nats,{rate:.12g}\n"

    assert op.passes(output(rate))
    assert not op.passes(output(rate + 1e-8))
    assert not op.passes("tiltrate: numerical failure\n")


def traced(tr, deck):
    spans = tracer.Tracer()
    spans.install()
    try:
        for index, op in enumerate(deck):
            spans.op = index
            workloads.call(tr, op)
    finally:
        spans.uninstall()
    return spans.spans


def test_span_self_times_are_never_negative(tr):
    deck = small_ops("sweep", {"rate_mmse_integral", "sandwich_bounds"})[:4]
    deck += small_ops("solve", {"rate_legendre", "equilibrium_force"})[:4]
    workloads.build(tr, deck)
    spans = traced(tr, deck)
    assert any(rec[tracer.PARENT] >= 0 for rec in spans)
    assert min(tracer.self_times(spans)) >= 0.0
    assert tr.tilting.tilt is tr.ratedistortion.tilt
    assert not hasattr(tr.ratedistortion.tilt, "__wrapped__")


def test_traced_counts_repeat_exactly(tr):
    deck = small_ops("sweep", {"rate_mmse_integral"})[:3] + small_ops("solve", {"force_at_distortion"})[:3]
    workloads.build(tr, deck)
    runs = [tracer.layer_metrics(tracer.aggregate(traced(tr, deck))) for _ in range(2)]
    for name in ("tilting.tilt.calls", "solvers.invert_monotone.evals_per_call",
                 "solvers.adaptive_simpson.evals_per_call", "solvers.adaptive_simpson.calls"):
        assert runs[0][name] == runs[1][name]
        assert runs[0][name][0] > 0


def test_brute_allocation_bracket_has_both_sides():
    op = next(op for op in cliwork.commands(3, cliwork.sources(3, ROOT)) if op.label == "oracle_alloc.asym")
    rate, slack = op.expect["rate"], op.expect["slack"]
    assert 0.0 < slack < 1e-2

    def output(value):
        return f"quantity,value\nbrute_min,{value:.12g}\nrate_legendre,{rate:.12g}\n"

    assert op.passes(output(rate + 0.5 * slack))
    assert not op.passes(output(rate + 2.0 * slack))
    assert not op.passes(output(rate - 1e-8))
    assert not op.passes(output(float("inf")))


def test_latency_is_the_median_pass_at_reference_speed():
    tally = run.Tally()
    tally.passes = 3
    tally.latencies = [1.0, 4.0, 2.0, 4.0, 3.0, 8.0]   # three passes over two slots
    tally.speeds = [1.0, 2.0, 1.0, 1.0, 1.5, 2.0]
    assert tally.typical() == [2.0, 4.0]

