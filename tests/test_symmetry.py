"""Relabelling the letters (at every scale of the table), shifting a row of the table with the
budget, and the chain's beta/lambda reparametrisation leave every rate and every equilibrium
force unchanged;
shifting the rows of the table and offsetting an observable leave its two routes in step."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tiltrate import (
    Channel,
    RdProblem,
    RdProblem2,
    capacity_point,
    distortion_at_force,
    equal_force_allocation,
    equilibrium_force,
    force_at_distortion,
    from_rd_problem,
    log_mgf,
    mmse,
    observable_expectation,
    observable_sweep,
    protocol_work_bounds,
    quasistatic_work,
    rate_at_force,
    rate_legendre,
    rate_mmse_integral,
    rate_two_distortions,
    riemann_sandwich,
    sandwich_bounds,
    tilt,
    tilted_conditional,
)
from tiltrate.chain import array_lengths, length_variance

REL = 1e-9

seeds = st.integers(0, 2**32 - 1)
budgets = st.floats(0.05, 0.95)
# a table and its budget multiplied by one of these: relabelling must hold at every scale
scales = st.sampled_from([1.0, 1e-12, 1e-6, 1e6, 1e12])


def draw(seed: int):
    """Source law, coding law and two tables of a random problem."""
    rng = np.random.default_rng(seed)
    k, j = (int(n) for n in rng.integers(2, 7, size=2))
    return rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(j)), rng.random((k, j)), rng.random((k, j))


def interior_budget(p, q, d, u: float) -> float:
    floor = float(p @ d.min(axis=1))
    return floor + u * (float(p @ (d @ q)) - floor)


def pair_budgets(p, q, d1, d2, s1: float, s2: float):
    """The tilted means at force pair (s1, s2): a pair on the frontier."""
    law = q * np.exp(s1 * d1 + s2 * d2)
    law /= law.sum(axis=1, keepdims=True)
    return float(p @ (law * d1).sum(axis=1)), float(p @ (law * d2).sum(axis=1))


def permuted(seed: int, p, q, *tables):
    """The laws and tables with rows and columns relabelled at random."""
    rng = np.random.default_rng([seed, 1])
    rows, cols = rng.permutation(p.size), rng.permutation(q.size)
    return (p[rows], q[cols], *(t[np.ix_(rows, cols)] for t in tables))


@given(seeds, budgets, scales)
@settings(max_examples=100, deadline=None)
def test_rd_rates_invariant_under_relabelling(seed, u, c):
    p, q, d, _ = draw(seed)
    d = d * c
    delta = interior_budget(p, q, d, u)
    problem, relabelled = RdProblem(p, q, d), RdProblem(*permuted(seed, p, q, d))
    assert rate_legendre(relabelled, delta) == pytest.approx(rate_legendre(problem, delta), rel=REL)
    assert equal_force_allocation(relabelled, delta)[1] == pytest.approx(
        equal_force_allocation(problem, delta)[1], rel=REL)


@given(seeds, st.floats(-3.0, -0.1), st.floats(-3.0, -0.1), scales)
@settings(max_examples=100, deadline=None)
def test_two_budget_rate_invariant_under_relabelling(seed, s1, s2, c):
    p, q, d1, d2 = draw(seed)
    delta1, delta2 = (c * delta for delta in pair_budgets(p, q, d1, d2, s1, s2))
    d1, d2 = d1 * c, d2 * c
    rate = rate_two_distortions(RdProblem2(p, q, d1, d2), delta1, delta2)[0]
    relabelled = RdProblem2(*permuted(seed, p, q, d1, d2))
    assert rate_two_distortions(relabelled, delta1, delta2)[0] == pytest.approx(rate, rel=REL)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_capacity_rate_invariant_under_relabelling(seed):
    rng = np.random.default_rng(seed)
    inputs, outputs = (int(n) for n in rng.integers(2, 7, size=2))
    law, transition = rng.dirichlet(np.ones(inputs)), rng.dirichlet(np.ones(outputs), size=inputs)
    rate = capacity_point(Channel(transition, law)).rate
    relabelled_law, _, relabelled = permuted(seed, law, np.ones(outputs), transition)
    assert capacity_point(Channel(relabelled, relabelled_law)).rate == pytest.approx(rate, rel=REL)


@given(seeds, budgets, st.floats(0.5, 2.0), scales)
@settings(max_examples=100, deadline=None)
def test_equilibrium_force_invariant_under_relabelling(seed, u, beta, c):
    p, q, d, _ = draw(seed)
    d = d * c
    target = float(p @ d.min(axis=1)) + u * float(p @ np.ptp(d, axis=1))
    lam = equilibrium_force(from_rd_problem(RdProblem(p, q, d), beta), target)
    relabelled = from_rd_problem(RdProblem(*permuted(seed, p, q, d)), beta)
    assert equilibrium_force(relabelled, target) == pytest.approx(lam, rel=REL)


@given(seeds, budgets, st.floats(-3.0, -0.1), st.floats(-3.0, -0.1))
@settings(max_examples=60, deadline=None)
def test_rates_invariant_under_row_shifts(seed, u, s1, s2):
    p, q, d1, d2 = draw(seed)
    rng = np.random.default_rng([seed, 2])
    c1, c2 = rng.uniform(-10.0, 10.0, size=(2, p.size))
    shifted1, shifted2 = d1 + c1[:, None], d2 + c2[:, None]
    delta = interior_budget(p, q, d1, u)
    moved = delta + float(p @ c1)
    problem, shifted = RdProblem(p, q, d1), RdProblem(p, q, shifted1)
    assert rate_legendre(shifted, moved) == pytest.approx(rate_legendre(problem, delta), rel=REL)
    assert equal_force_allocation(shifted, moved)[1] == pytest.approx(
        equal_force_allocation(problem, delta)[1], rel=REL)
    delta1, delta2 = pair_budgets(p, q, d1, d2, s1, s2)
    rate = rate_two_distortions(RdProblem2(p, q, d1, d2), delta1, delta2)[0]
    moved_pair = rate_two_distortions(RdProblem2(p, q, shifted1, shifted2), delta1 + float(p @ c1), delta2 + float(p @ c2))
    assert moved_pair[0] == pytest.approx(rate, rel=REL)


@given(seeds, st.floats(-3.0, -0.1), st.floats(-1e9, 1e9))
@settings(max_examples=60, deadline=None)
def test_observable_routes_hold_under_shifts(seed, s, c_t):
    # Rows of d shifted by c_x and the observable offset by c_t, with |c| up to 1e9, may not
    # widen the gap between the swept and the direct route.  The yardstick is the gap on the
    # plain problem, not 0: adaptive Simpson alone may miss by its tolerance.
    p, q, d, t = draw(seed)
    rng = np.random.default_rng([seed, 3])
    c_x = rng.choice([-1.0, 1.0], size=p.size) * 10.0 ** rng.uniform(-1.0, 9.0, size=p.size)
    plain, shifted = RdProblem(p, q, d), RdProblem(p, q, d + c_x[:, None])
    want = observable_expectation(shifted, t + c_t, s)
    gap = observable_sweep(shifted, t + c_t, s) - want
    plain_gap = observable_sweep(plain, t, s) - observable_expectation(plain, t, s)
    assert abs(gap - plain_gap) <= 1e-8 + 1e-13 * abs(want)


@pytest.mark.parametrize("seed, s", [(3027138430, -2.6640620255031044), (1510215039, -1.840310912806338)])
def test_observable_sweep_never_rests_on_one_comparison(seed, s):
    # On these draws the halves of the whole sweep agree by chance, and a rule that accepted
    # the root interval there answered after 5 nodes, 9.3e-8 and 1.4e-8 off the direct route.
    p, q, d, t = draw(seed)
    problem = RdProblem(p, q, d)
    assert abs(observable_sweep(problem, t, s) - observable_expectation(problem, t, s)) <= 1e-9


@given(seeds, budgets, st.floats(-3.0, -0.1))
# shifts up to 2.1e9 of mixed sign: a floor summed by np.dot once put this draw 1.78e-6 off, over its 1.63e-6 bound
@example(seed=2141, u=0.26378981473177077, s=-1.0)
@settings(max_examples=60, deadline=None)
def test_rates_exact_under_far_row_shifts(seed, u, s):
    # Entries on a 2^-16 grid and whole-number row shifts c_x up to 1e10 keep every shifted
    # entry exact, and the moved budget is rounded once from its exact value, so the shifted
    # problem is the plain one and any gap is the solver's own.  A budget solve still pays
    # |s| times the rounding of its budget, of its sum_x P(x) c_x and of its tolerance.
    p, q, d, _ = draw(seed)
    d = np.round(d * 2.0**16) / 2.0**16
    rng = np.random.default_rng([seed, 4])
    c = np.round(rng.choice([-1.0, 1.0], size=p.size) * 10.0 ** rng.uniform(0.0, 10.0, size=p.size))
    plain, shifted = RdProblem(p, q, d), RdProblem(p, q, d + c[:, None])
    rate = distortion_at_force(plain, s).rate
    assert abs(distortion_at_force(shifted, s).rate - rate) <= 1e-13 * rate
    delta = interior_budget(p, q, d, u)
    moved = float(Fraction(delta) + sum(Fraction(x) * Fraction(y) for x, y in zip(p, c)))
    point = force_at_distortion(plain, delta)
    span = float(p @ np.ptp(d, axis=1))
    ulps = np.spacing(abs(moved)) + 2.0 * float(p @ np.spacing(np.abs(c)))
    bound = 1e-9 * max(1.0, point.rate) + abs(point.s) * (ulps + 1e-10 * span)
    assert abs(rate_legendre(shifted, moved) - point.rate) <= bound


@given(seeds, st.floats(-3.0, -0.1), st.floats(0.5, 2.0))
@settings(max_examples=60, deadline=None)
def test_table_routes_exact_under_far_row_shifts(seed, s, beta):
    # Shifted entries are exact as above, and every table route runs on the rows moved to 0,
    # so it answers bit for bit as on the plain table.  On plain rows that start at 0 the
    # per-array lengths are the tilted means themselves, and the shifted lengths are those
    # plus the shift, rounded once.
    p, q, d, _ = draw(seed)
    d = np.round(d * 2.0**16) / 2.0**16
    rng = np.random.default_rng([seed, 5])
    c = np.round(rng.choice([-1.0, 1.0], size=p.size) * 10.0 ** rng.uniform(0.0, 10.0, size=p.size))
    plain, shifted = RdProblem(p, q, d), RdProblem(p, q, d + c[:, None])
    grid = np.linspace(0.0, s, 9)
    assert sandwich_bounds(shifted, grid) == sandwich_bounds(plain, grid)
    assert np.array_equal(tilted_conditional(shifted, s), tilted_conditional(plain, s))
    chains, lam = (from_rd_problem(plain, beta), from_rd_problem(shifted, beta)), s / beta
    assert protocol_work_bounds(chains[1], grid / beta) == protocol_work_bounds(chains[0], grid / beta)
    assert quasistatic_work(chains[1], lam) == quasistatic_work(chains[0], lam)
    assert length_variance(chains[1], lam) == length_variance(chains[0], lam)
    at_zero = d - d.min(axis=1)[:, None]
    base, moved = (array_lengths(from_rd_problem(RdProblem(p, q, t), beta), lam) for t in (at_zero, at_zero + c[:, None]))
    assert np.array_equal(moved, base + c)


@given(seeds, st.floats(-3.0, -0.1))
@settings(max_examples=60, deadline=None)
def test_one_row_routes_exact_under_far_row_shifts(seed, s):
    # Shifted entries are exact as above, and the plain rows start at 0, so each one-row route,
    # run on its distribution at origin, answers bit for bit as on the plain rows, and what adds
    # the start back adds it to the plain answer, rounded once.  mmse goes first: off origin, a
    # far row once sent rate_mmse_integral subdividing until it ran out of evaluations.
    p, q, d, _ = draw(seed)
    d = np.round(d * 2.0**16) / 2.0**16
    d -= d.min(axis=1)[:, None]
    rng = np.random.default_rng([seed, 6])
    c = np.round(rng.choice([-1.0, 1.0], size=p.size) * 10.0 ** rng.uniform(0.0, 10.0, size=p.size))
    plain, shifted = RdProblem(p, q, d), RdProblem(p, q, d + c[:, None])
    assert mmse(shifted, s) == mmse(plain, s)
    grid = np.linspace(0.0, s, 9)
    for a, b, x in zip(plain.delta_dists, shifted.delta_dists, c):
        ta, tb = tilt(a, s), tilt(b, s)
        assert (tb.variance, tb.mean, tb.log_mgf) == (ta.variance, ta.mean + x, ta.log_mgf + s * x)
        assert np.array_equal(tb.tilted.probs, ta.tilted.probs)
        assert log_mgf(b, s) == log_mgf(a, s) + s * x
        ra, rb = rate_at_force(a, s), rate_at_force(b, s)
        assert (rb.rate, rb.level) == (ra.rate, ra.level + x)
        assert riemann_sandwich(b, grid) == riemann_sandwich(a, grid)
        assert b.variance == a.variance
    assert rate_mmse_integral(shifted, s) == rate_mmse_integral(plain, s)


@given(seeds, budgets, st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
@settings(max_examples=60, deadline=None)
def test_chain_force_times_beta_invariant_under_reparametrisation(seed, u, beta):
    # energies -ln Q / beta: the Boltzmann weights at beta are the coding law for every beta
    p, q, d, _ = draw(seed)
    problem = RdProblem(p, q, d)
    target = float(p @ d.min(axis=1)) + u * float(p @ np.ptp(d, axis=1))
    s = equilibrium_force(from_rd_problem(problem, 1.0), target)
    assert beta * equilibrium_force(from_rd_problem(problem, beta), target) == pytest.approx(s, rel=REL)
