"""Acceptance gate: ten end-to-end checks at pinned tolerances.

Each criterion is one test, so a ``pytest -v`` run prints exactly one
PASS/FAIL line per criterion.  Tolerances are module constants; the measured
extremes are printed so a failing run shows how far off it was.
"""

import math
import time

import numpy as np

import tiltrate as tr

from conftest import LN2, h2, feasible_delta, random_problem, rd2_stats

SEED = 20240817

TOL_CLOSED_FORM = 1e-9        # criterion 1
TOL_ROUTE_AGREEMENT = 1e-7    # criterion 2 (integral route)
TOL_ALLOCATION = 1e-8         # criterion 2 (allocation route)
GAP_RATIO = 0.51              # criterion 3
TOL_BRUTE_LOWER = 1e-10       # criterion 4
TOL_CAPACITY = 1e-9           # criterion 5
TOL_CHAIN_WORK = 2e-8         # criterion 6
TOL_FORCE_MATCH = 1e-5        # criterion 6 (finite differences)
EXPONENT_GAP_AT_64 = 0.08     # criterion 7
TOL_BA_UNIFORM = 1e-8         # criterion 8
TOL_BA_REEVAL = 1e-6          # criterion 8
TOL_TWO_BUDGET = 1e-7         # criterion 9
TOL_TWO_BUDGET_SLACK = 1e-8   # criterion 9
TOL_FD_FIRST = 1e-7           # criterion 10
TOL_FD_SECOND = 1e-6          # criterion 10


def bss_problem():
    return tr.RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


def test_criterion_01_closed_form_curve():
    """Uniform-bit curve matches ln2 - h2(delta) at fifty budgets, fast."""
    problem = bss_problem()
    budgets = np.linspace(0.02, 0.5, 50)
    start = time.perf_counter()
    worst = max(
        abs(tr.rate_legendre(problem, float(d)) - (LN2 - h2(float(d))))
        for d in budgets
    )
    elapsed = time.perf_counter() - start
    print(f"[acceptance 01] max closed-form error {worst:.3e}, {elapsed:.3f}s")
    assert worst <= TOL_CLOSED_FORM
    assert elapsed < 1.0


def test_criterion_02_route_agreement():
    """Legendre, work-integral, and allocation routes agree on random problems."""
    rng = np.random.default_rng(SEED)
    worst_integral = 0.0
    worst_alloc = 0.0
    start = time.perf_counter()
    for _ in range(100):
        problem = random_problem(rng)
        for _ in range(3):
            delta = feasible_delta(rng, problem)
            point = tr.force_at_distortion(problem, delta, tol=1e-12)
            via_integral = tr.rate_mmse_integral(problem, point.s)
            worst_integral = max(worst_integral, abs(via_integral - point.rate))
            _, alloc_rate = tr.equal_force_allocation(problem, delta, tol=1e-12)
            worst_alloc = max(worst_alloc, abs(alloc_rate - point.rate))
    elapsed = time.perf_counter() - start
    print(f"[acceptance 02] integral route {worst_integral:.3e}, "
          f"allocation route {worst_alloc:.3e}, {elapsed:.1f}s")
    assert worst_integral <= TOL_ROUTE_AGREEMENT
    assert worst_alloc <= TOL_ALLOCATION
    assert elapsed < 30.0


def test_criterion_03_sandwich_refinement():
    """Doubling a uniform partition at least halves the sandwich gap (plus slack)."""
    rng = np.random.default_rng(SEED + 3)
    worst_ratio = 0.0
    for _ in range(20):
        problem = random_problem(rng)
        s = float(-rng.uniform(0.5, 3.0))
        l1, h1 = tr.sandwich_bounds(problem, np.linspace(0.0, s, 1001))
        l2, h2_ = tr.sandwich_bounds(problem, np.linspace(0.0, s, 2001))
        assert h1 >= l1 and h2_ >= l2
        if h1 - l1 > 1e-14:
            worst_ratio = max(worst_ratio, (h2_ - l2) / (h1 - l1))
    print(f"[acceptance 03] worst refinement ratio {worst_ratio:.6f}")
    assert worst_ratio <= GAP_RATIO


def test_criterion_04_brute_allocation_bracket():
    """Brute-force budget splits sit above the optimum, within grid slack."""
    rng = np.random.default_rng(SEED + 4)
    checked = 0
    while checked < 8:
        problem = random_problem(rng, max_letters=3)
        delta = feasible_delta(rng, problem)
        grid_points = 220
        direct = tr.rate_legendre(problem, delta, tol=1e-12)
        brute = tr.brute_allocation_min(problem, delta, grid_points)
        assert brute >= direct - TOL_BRUTE_LOWER, (
            f"brute {brute} fell below optimum {direct}"
        )
        # upper bound: push each optimal per-letter budget down one grid cell
        # and price the move at that cell's force (convexity bound)
        allocation, _ = tr.equal_force_allocation(problem, delta, tol=1e-12)
        slack = 1e-9
        for i, dist in enumerate(problem.delta_dists):
            spacing = (dist.mean - dist.min_value) / (grid_points - 1)
            snapped = max(allocation.per_symbol_distortion[i] - spacing, dist.min_value)
            force = tr.force_at_level(dist, snapped).force
            if not math.isfinite(force):
                force = tr.force_at_level(dist, snapped + spacing * 1e-3).force
            slack += float(problem.source_probs[i]) * abs(force) * spacing
        assert brute <= direct + slack, f"brute {brute} above {direct} + slack {slack}"
        checked += 1
    print(f"[acceptance 04] {checked} problems bracketed")


def test_criterion_05_capacity_matches_mutual_information():
    """Distortion-route channel rate equals mutual information, unit force."""
    rng = np.random.default_rng(SEED + 5)
    channels = [tr.Channel([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])]
    while len(channels) < 51:
        k = int(rng.integers(2, 5))
        j = int(rng.integers(2, 5))
        w = rng.random((k, j)) + 0.05
        w /= w.sum(axis=1, keepdims=True)
        q = rng.random(k) + 0.1
        q /= q.sum()
        channels.append(tr.Channel(w, q))
    worst_rate = 0.0
    worst_force = 0.0
    worst_identity = 0.0
    for ch in channels:
        pt = tr.capacity_point(ch)
        mi = tr.mutual_information(ch)
        worst_rate = max(worst_rate, abs(pt.rate - mi))
        worst_force = max(worst_force, abs(abs(pt.s_star) - 1.0))
        # the identity the route rests on: at force -1 on d = -ln W, the tilted law is the posterior,
        # its distortion the budget H(X | Xhat) and its rate I(q)
        w, q = ch.transition, ch.input_probs
        at_unit = tr.distortion_at_force(tr.RdProblem(q @ w, q, -np.log(w.T)), -1.0)
        worst_identity = max(worst_identity, abs(at_unit.distortion - pt.delta), abs(at_unit.rate - mi))
    print(f"[acceptance 05] rate vs MI {worst_rate:.3e}, |force|-1 {worst_force:.3e}, "
          f"force -1 vs (budget, MI) {worst_identity:.3e}")
    assert worst_rate <= TOL_CAPACITY
    assert worst_force <= TOL_CAPACITY
    assert worst_identity <= TOL_CAPACITY


def test_criterion_06_chain_work_identities():
    """Quasistatic work reproduces the rate; protocols bracket; force matches."""
    rng = np.random.default_rng(SEED + 6)
    worst_work = 0.0
    worst_force = 0.0
    for beta in (0.5, 1.0, 2.0):
        for _ in range(5):
            problem = random_problem(rng)
            system = tr.from_rd_problem(problem, beta=beta)
            s = float(-rng.uniform(0.3, 2.5))
            lam = s / beta
            work = tr.quasistatic_work(system, lam)
            rate = tr.distortion_at_force(problem, s).rate
            worst_work = max(worst_work, abs(beta * work - rate))
            left, right = tr.protocol_work_bounds(system, np.linspace(0.0, lam, 33))
            assert left - 1e-12 <= work <= right + 1e-12
            # holding force equals kT times the rate-curve slope there
            delta0 = tr.expected_length(system, lam)
            h = 1e-5
            slope = (
                tr.rate_legendre(problem, delta0 + h, tol=1e-12)
                - tr.rate_legendre(problem, delta0 - h, tol=1e-12)
            ) / (2 * h)
            worst_force = max(worst_force, abs(lam - slope / beta))
    print(f"[acceptance 06] beta*work vs rate {worst_work:.3e}, "
          f"force vs slope {worst_force:.3e}")
    assert worst_work <= TOL_CHAIN_WORK
    assert worst_force <= TOL_FORCE_MATCH


def test_criterion_07_exact_exponent_trend():
    """Finite-block exponents dominate the rate and close in on it."""
    problem = bss_problem()
    rate = tr.rate_legendre(problem, 0.25, tol=1e-12)
    prob8, _ = tr.exact_ld_probability(problem, 8, 0.25)
    assert prob8 == 37.0 / 256.0
    exponents = [tr.exact_ld_probability(problem, n, 0.25)[1] for n in (8, 16, 32, 64)]
    print(f"[acceptance 07] exponents {[round(e, 6) for e in exponents]}, rate {rate:.6f}")
    for e in exponents:
        assert e >= rate - 1e-12
    assert all(a > b for a, b in zip(exponents, exponents[1:]))
    assert exponents[-1] - rate <= EXPONENT_GAP_AT_64


def test_criterion_08_optimal_coding_law():
    """The iterative law optimizer recovers known optima and self-reports honestly."""
    worst_uniform = 0.0
    for s in (-0.5, -1.0, -2.0):
        result = tr.blahut_arimoto([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], s)
        assert result.converged
        worst_uniform = max(worst_uniform, float(np.max(np.abs(result.coding_probs - 0.5))))
    rng = np.random.default_rng(SEED + 8)
    worst_reeval = 0.0
    for _ in range(10):
        problem = random_problem(rng)
        s = float(-rng.uniform(0.3, 2.0))
        result = tr.blahut_arimoto(problem.source_probs, problem.distortion, s)
        assert result.converged
        objs = result.objectives
        assert all(a >= b - 1e-11 for a, b in zip(objs, objs[1:]))
        tuned = tr.RdProblem(problem.source_probs, result.coding_probs, problem.distortion)
        pt = tr.distortion_at_force(tuned, s)
        worst_reeval = max(
            worst_reeval, abs(pt.rate - result.rate), abs(pt.distortion - result.distortion)
        )
    print(f"[acceptance 08] uniform law error {worst_uniform:.3e}, re-eval {worst_reeval:.3e}")
    assert worst_uniform <= TOL_BA_UNIFORM
    assert worst_reeval <= TOL_BA_REEVAL


def test_criterion_09_two_budget_rate():
    """Two-budget optimizer: frontier targets recovered, slack budgets inert."""
    rng = np.random.default_rng(SEED + 9)
    worst_frontier = 0.0
    worst_slack = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 5))
        j = int(rng.integers(2, 5))
        p_vec = rng.random(k) + 0.1
        p_vec /= p_vec.sum()
        q_vec = rng.random(j) + 0.1
        q_vec /= q_vec.sum()
        d1 = rng.random((k, j)) * 2.0
        d2 = rng.random((k, j)) * 2.0
        problem2 = tr.RdProblem2(p_vec, q_vec, d1, d2)

        # a target pair on the frontier: tilted means at a random force pair
        sbar = -rng.uniform(0.05, 3.0, size=2)
        value, grad, _ = rd2_stats(problem2, sbar, 0.0, 0.0)
        t1, t2 = -grad[0], -grad[1]
        want = sbar[0] * t1 + sbar[1] * t2 + value
        rate, _, _ = tr.rate_two_distortions(problem2, t1, t2)
        assert rate <= want + 1e-12
        worst_frontier = max(worst_frontier, abs(rate - want))

        # loosen the second budget past its value at the one-budget optimum:
        # the answer must collapse to the one-budget rate with zero force
        problem1 = tr.RdProblem(p_vec, q_vec, d1)
        delta1 = feasible_delta(rng, problem1)
        s_opt = tr.force_at_distortion(problem1, delta1, tol=1e-12).s
        cond = tr.tilted_conditional(problem1, s_opt)
        slack_budget = float(np.dot(p_vec, (cond * d2).sum(axis=1))) * 1.05 + 1e-6
        rate2, _, s2 = tr.rate_two_distortions(problem2, delta1, slack_budget)
        worst_slack = max(worst_slack, abs(rate2 - tr.rate_legendre(problem1, delta1, tol=1e-12)))
        assert s2 == 0.0
    print(f"[acceptance 09] frontier {worst_frontier:.3e}, slack budget {worst_slack:.3e}")
    assert worst_frontier <= TOL_TWO_BUDGET
    assert worst_slack <= TOL_TWO_BUDGET_SLACK


def test_criterion_10_finite_difference_hygiene():
    """Analytic moments and slopes agree with finite differences."""
    rng = np.random.default_rng(SEED + 10)
    worst_first = 0.0
    worst_second = 0.0
    worst_mmse = 0.0
    worst_slope = 0.0
    for _ in range(10):
        problem = random_problem(rng)
        dist = problem.delta_dists[int(rng.integers(len(problem.delta_dists)))]
        s = float(rng.uniform(-2.5, 1.0))
        scale = max(1.0, abs(tr.log_mgf(dist, s)))
        h = 1e-5
        fd1 = (tr.log_mgf(dist, s + h) - tr.log_mgf(dist, s - h)) / (2 * h)
        worst_first = max(worst_first, abs(fd1 - tr.tilt(dist, s).mean) / scale)
        h = 1e-4
        fd2 = (
            tr.log_mgf(dist, s + h) - 2 * tr.log_mgf(dist, s) + tr.log_mgf(dist, s - h)
        ) / (h * h)
        worst_second = max(worst_second, abs(fd2 - tr.tilt(dist, s).variance) / scale)

        s_neg = float(-rng.uniform(0.3, 2.0))
        fd_mmse = (
            tr.distortion_at_force(problem, s_neg + h).distortion
            - tr.distortion_at_force(problem, s_neg - h).distortion
        ) / (2 * h)
        worst_mmse = max(worst_mmse, abs(fd_mmse - tr.mmse(problem, s_neg)))

        pt = tr.distortion_at_force(problem, s_neg)
        hd = 1e-4
        fd_slope = (
            tr.rate_legendre(problem, pt.distortion + hd, tol=1e-12)
            - tr.rate_legendre(problem, pt.distortion - hd, tol=1e-12)
        ) / (2 * hd)
        worst_slope = max(worst_slope, abs(fd_slope - s_neg))
    print(f"[acceptance 10] d(log-mgf) {worst_first:.3e}, d2 {worst_second:.3e}, "
          f"d(dist)/ds {worst_mmse:.3e}, budget slope {worst_slope:.3e}")
    assert worst_first <= TOL_FD_FIRST
    assert worst_second <= TOL_FD_SECOND
    assert worst_mmse <= TOL_FD_SECOND
    assert worst_slope <= TOL_FORCE_MATCH
