"""Scaling a table and its budget by c leaves every rate and entropy unchanged and divides every force by c."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltrate import (
    ChainSystem,
    ElementArray,
    FiniteDistribution,
    RdProblem,
    RdProblem2,
    distortion_at_force,
    entropy_at_energy,
    equal_force_allocation,
    equilibrium_force,
    force_at_distortion,
    from_rd_problem,
    mean_via_integral,
    quasistatic_work,
    rate_legendre,
    rate_mmse_integral,
    rate_two_distortions,
    rate_work_integral,
)
from tiltrate.errors import NumericalError
from tiltrate.ratedistortion import distortion_mmse_integral, observable_expectation, observable_sweep

from conftest import LN2, LN3, h2, kernel_calls

REL = 1e-9


def draw_problem(seed: int) -> RdProblem:
    rng = np.random.default_rng(seed)
    k, j = (int(n) for n in rng.integers(2, 6, size=2))
    return RdProblem(rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(j)), rng.random((k, j)))


def scaled(problem: RdProblem, c: float) -> RdProblem:
    return RdProblem(problem.source_probs, problem.coding_probs, problem.distortion * c)


def interior_budget(problem: RdProblem, u: float) -> float:
    floor = float(problem.source_probs @ problem.distortion.min(axis=1))
    top = float(problem.source_probs @ (problem.distortion @ problem.coding_probs))
    return floor + u * (top - floor)


seeds = st.integers(0, 2**32 - 1)
factors = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


@given(seeds, factors, st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_rates_invariant_under_scaling(seed, c, u):
    problem = draw_problem(seed)
    delta = interior_budget(problem, u)
    big = scaled(problem, c)
    assert rate_legendre(big, c * delta) == pytest.approx(rate_legendre(problem, delta), rel=REL)
    _, rate = equal_force_allocation(problem, delta)
    _, big_rate = equal_force_allocation(big, c * delta)
    assert big_rate == pytest.approx(rate, rel=REL)


@given(seeds, factors, st.floats(0.05, 0.95), st.floats(0.5, 2.0))
@settings(max_examples=60, deadline=None)
def test_equilibrium_force_scales_inversely(seed, c, u, beta):
    system = from_rd_problem(draw_problem(seed), beta=beta)
    lo = sum(a.fraction * float(a.state_lengths.min()) for a in system.arrays)
    hi = sum(a.fraction * float(a.state_lengths.max()) for a in system.arrays)
    target = lo + u * (hi - lo)
    stretched = ChainSystem(
        arrays=tuple(ElementArray(a.state_lengths * c, a.state_energies, a.fraction) for a in system.arrays),
        beta=beta,
    )
    lam = equilibrium_force(system, target)
    assert equilibrium_force(stretched, c * target) * c == pytest.approx(lam, rel=REL)


@given(seeds, factors, st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_entropy_invariant_under_scaling(seed, c, u):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    levels, weights = rng.random(k), rng.dirichlet(np.ones(k))
    spectrum = FiniteDistribution(levels, weights)
    energy = spectrum.min_value + u * (spectrum.mean - spectrum.min_value)
    entropy = entropy_at_energy(spectrum, energy)
    assert entropy_at_energy(FiniteDistribution(levels * c, weights), c * energy) == pytest.approx(entropy, rel=REL)


@given(seeds, factors)
@settings(max_examples=60, deadline=None)
def test_min_distortion_rate_invariant_under_scaling(seed, c):
    problem = draw_problem(seed)
    floor = float(problem.source_probs @ problem.distortion.min(axis=1))
    point = force_at_distortion(scaled(problem, c), c * floor)
    assert point.boundary == "min_distortion"
    assert point.rate == pytest.approx(force_at_distortion(problem, floor).rate, rel=REL)


@given(seeds, factors, st.floats(-3.0, -0.1), st.floats(-3.0, -0.1))
@settings(max_examples=60, deadline=None)
def test_two_budget_rate_invariant_under_scaling(seed, c, s1, s2):
    rng = np.random.default_rng(seed)
    k, j = (int(n) for n in rng.integers(2, 5, size=2))
    p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(j))
    d1, d2 = rng.random((k, j)), rng.random((k, j))
    # budgets on the frontier: the tilted means at the force pair (s1, s2)
    law = q * np.exp(s1 * d1 + s2 * d2)
    law /= law.sum(axis=1, keepdims=True)
    delta1, delta2 = p @ (law * d1).sum(axis=1), p @ (law * d2).sum(axis=1)
    rate, f1, f2 = rate_two_distortions(RdProblem2(p, q, d1, d2), delta1, delta2)
    big_rate, g1, g2 = rate_two_distortions(RdProblem2(p, q, d1 * c, d2 * c), c * delta1, c * delta2)
    assert big_rate == pytest.approx(rate, rel=REL)
    assert (g1 * c, g2 * c) == pytest.approx((f1, f2), rel=1e-6)


@pytest.mark.parametrize("c", [1e-200, 1e-300])
def test_a_table_with_no_slope_at_zero_force_is_solved(c):
    # Tilted raw, the zero-force variance of bss scaled by c underflowed to 0 below about 1e-154, and the
    # solve, with no Newton step from 0, bisected: 3e-10 off after 35 kernel calls.  In the table's units
    # (its span, c) the Newton point from 0 is the root
    calls = kernel_calls("table")
    point = force_at_distortion(scaled(RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]), c), 0.25 * c)
    assert point.rate == pytest.approx(LN2 - h2(0.25), rel=1e-13)
    assert point.s == pytest.approx(-LN3 / c, rel=1e-13)
    assert 0 < calls() <= 3


@pytest.mark.parametrize("c", [1e-310, 1e-320])
def test_a_span_with_no_finite_force_scale_is_a_numerical_failure(c):
    # the force, about -1.1e310, overflows as it leaves the table's units: a numerical failure, not
    # bad input, and never the -inf of an end
    with pytest.raises(NumericalError):
        force_at_distortion(scaled(RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]), c), 0.25 * c)


BSS = RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


def slope_routes(c: float) -> dict:
    """The two routes that integrate a tilted variance to a mean, on bss scaled by c at the force
    ln(1/3) / c, whose mean is 0.25 c: each to tol 1e-9 times its span, c."""
    s, coin = -LN3 / c, FiniteDistribution([0.0, c], [0.5, 0.5])
    return {
        "distortion_mmse_integral": lambda: distortion_mmse_integral(scaled(BSS, c), s, 1e-9),
        "mean_via_integral": lambda: mean_via_integral(coin, s, 1e-9),
    }


def rate_routes(c: float) -> dict:
    """The three routes that integrate u times a tilted variance to a rate, on bss scaled by c at the
    force ln(1/3) / c, whose rate is ln 2 - h(0.25): each to tol 1e-9 nats."""
    s, coin = -LN3 / c, FiniteDistribution([0.0, c], [0.5, 0.5])
    return {
        "rate_mmse_integral": lambda: rate_mmse_integral(scaled(BSS, c), s, 1e-9),
        "rate_work_integral": lambda: rate_work_integral(coin, s, 1e-9),
        "quasistatic_work": lambda: quasistatic_work(from_rd_problem(scaled(BSS, c)), s, 1e-9),
    }


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("beta", [1e-12, 1e-9, 1e-3, 1e3, 1e9, 1e12])
def test_quasistatic_work_is_the_rate_over_beta_at_every_beta(beta, c):
    # the work is integrated in the kernel's force s = beta * lam to tol in nats, so beta times it is
    # the rate at s: a tol in the work's units was below its rounding at beta 1e-9 and 1e-12, and
    # the answer 1e-7 off at 1e3 and 1e9
    s = -LN3 / c
    work = quasistatic_work(from_rd_problem(scaled(BSS, c), beta), s / beta)
    assert work * beta == pytest.approx(force_at_distortion(scaled(BSS, c), 0.25 * c).rate, rel=REL)
    assert work * beta == pytest.approx(distortion_at_force(scaled(BSS, c), s).rate, rel=REL)


@pytest.mark.parametrize("c", [10.0**e for e in range(-12, 13, 3)])
@pytest.mark.parametrize("name", ["distortion_mmse_integral", "mean_via_integral"])
def test_slope_integrals_are_scale_free(name, c):
    # each integrates to tol times its span, so bss answers alike at every scale (an absolute tol
    # ran out of evaluations at 1e9 and was 1.3e-8 off at 1e-6)
    assert slope_routes(c)[name]() == pytest.approx(0.25 * c, rel=REL)


@given(seeds, factors, st.floats(-8.0, -0.5))
@settings(max_examples=30, deadline=None)
def test_slope_integrals_scale_with_the_table(seed, c, s):
    problem = draw_problem(seed)
    dist = FiniteDistribution(problem.distortion[0], problem.coding_probs)
    assert distortion_mmse_integral(scaled(problem, c), s / c) == pytest.approx(
        c * distortion_mmse_integral(problem, s), rel=REL)
    big = FiniteDistribution(dist.values * c, dist.probs)
    assert mean_via_integral(big, s / c) == pytest.approx(c * mean_via_integral(dist, s), rel=REL)


@pytest.mark.parametrize("c", [1e-150, 1e150])
def test_variance_integrals_answer_where_the_range_has_a_normal_square(c):
    for route in slope_routes(c).values():
        assert abs(route() - 0.25 * c) <= 1e-9 * c
    for route in rate_routes(c).values():
        assert abs(route() - (LN2 - h2(0.25))) <= 1e-9


@pytest.mark.parametrize("c", [1e-160, 1e-200, 1e-300, 1e160, 1e300])
@pytest.mark.parametrize("name", ["distortion_mmse_integral", "mean_via_integral", "rate_mmse_integral",
                                  "rate_work_integral", "quasistatic_work"])
def test_variance_integrals_answer_at_every_scale(name, c):
    # Tilted raw, the variance, a squared spread, underflowed below a range of about 1.5e-154 and
    # overflowed above 1.3e154: these routes returned 0 or the zero-force mean without an error
    # (1e-200, 1e-300), were 8e-4 off (1e-160), or warned of an overflow and ran for 24 s (1e160),
    # and then were refused.  In the table's units the rate routes answer within tol at every scale,
    # and the slope routes wherever their answer, 0.25 c, is a normal float.
    route = {**slope_routes(c), **rate_routes(c)}[name]
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = route()
    assert time.perf_counter() - start < 0.1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if name in rate_routes(c):
        assert abs(got - (LN2 - h2(0.25))) <= 1e-9
    else:
        assert abs(got - 0.25 * c) <= 1e-9 * c


THREE = RdProblem([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 0.5, 0.0]])
THREE_OBSERVABLE = np.array([[1.0, -2.0, 0.5], [0.5, 3.0, -1.0], [0.0, 1.0, 2.0]])


@pytest.mark.parametrize("ct", [10.0**e for e in range(-12, 13, 3)])
@pytest.mark.parametrize("c", [1e-12, 1.0, 1e12])
def test_observable_sweep_is_scale_free(c, ct):
    # it integrates to tol times the observable's source-weighted span, so it answers alike at every
    # scale of either table (an absolute tol was below the rounding at ct = 1e12 and 3e-7 off at 1e-6)
    problem, t, s = scaled(THREE, c), THREE_OBSERVABLE * ct, -1.3 / c
    want = observable_expectation(problem, t, s)
    assert observable_sweep(problem, t, s) == pytest.approx(want, rel=REL, abs=0.0)


@pytest.mark.parametrize("c, ct", [(1e-200, 1e-200), (1e-100, 1e-300), (1e160, 1e160)])
def test_observable_sweep_answers_at_every_scale_of_either_table(c, ct):
    # the integrand, a covariance, is a product of the two tables' spreads: tilted raw, at 1e-200
    # each it underflowed and the answer came back 68 % off without an error, and then the route was
    # refused.  Each table in its own units answers as at scale 1.
    problem, t, s = scaled(THREE, c), THREE_OBSERVABLE * ct, -1.3 / c
    want = observable_expectation(problem, t, s)
    assert observable_sweep(problem, t, s) == pytest.approx(want, rel=REL, abs=0.0)
