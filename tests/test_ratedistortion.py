import math

import numpy as np
import pytest

from tiltrate import (
    RdProblem,
    ValidationError,
    distortion_at_force,
    equal_force_allocation,
    force_at_distortion,
    legendre_grid_max,
    mmse,
    observable_expectation,
    observable_sweep,
    rate_legendre,
    rate_mmse_integral,
    rd_curve,
    sandwich_bounds,
    tilted_conditional,
)
from tiltrate import tilting
from tiltrate.errors import DistortionTooLowError
from tiltrate.ratedistortion import distortion_mmse_integral
from tiltrate.solvers import invert_monotone

from conftest import LN2, h2, feasible_delta, random_problem

S_QUARTER = math.log(1.0 / 3.0)
R_QUARTER = 0.13081203594113698  # ln2 - h2(1/4)


class TestRdProblem:
    def test_delta_dists_bss(self, bss):
        dists = bss.delta_dists
        assert len(dists) == 2
        for d in dists:
            assert list(d.values) == [0.0, 1.0]
            np.testing.assert_allclose(d.probs, [0.5, 0.5])

    def test_delta_dist_merges_equal_penalties(self):
        # two reproduction letters with the same penalty fold together
        problem = RdProblem([1.0], [0.25, 0.5, 0.25], [[0.0, 1.0, 1.0]])
        (d,) = problem.delta_dists
        assert list(d.values) == [0.0, 1.0]
        np.testing.assert_allclose(d.probs, [0.25, 0.75])

    def test_zero_probability_letters_dropped(self):
        problem = RdProblem([0.5, 0.0, 0.5], [0.5, 0.5, 0.0],
                            [[0.0, 1.0, 9.0], [5.0, 5.0, 9.0], [1.0, 0.0, 9.0]])
        assert problem.distortion.shape == (2, 2)
        assert problem.num_source_letters == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0]])

    def test_nonfinite_entry(self):
        with pytest.raises(ValidationError):
            RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, math.inf], [1.0, 0.0]])

    def test_bad_probs_name_the_field(self):
        with pytest.raises(ValidationError, match="source_probs"):
            RdProblem([0.6, 0.6], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="coding_probs"):
            RdProblem([0.5, 0.5], [0.6, 0.6], [[0.0, 1.0], [1.0, 0.0]])


class TestForceAtDistortion:
    def test_bss_quarter(self, bss):
        pt = force_at_distortion(bss, 0.25)
        assert pt.s == pytest.approx(S_QUARTER, abs=1e-9)
        assert pt.rate == pytest.approx(R_QUARTER, abs=1e-9)
        assert pt.mmse == pytest.approx(0.1875, abs=1e-9)
        assert pt.boundary is None

    def test_budget_above_zero_force_point(self, bss):
        pt = force_at_distortion(bss, 0.8)
        assert pt.s == 0.0
        assert pt.rate == 0.0
        assert pt.boundary == "above_zero_force"

    def test_budget_at_zero_force_point(self, bss):
        pt = force_at_distortion(bss, 0.5)
        assert pt.s == pytest.approx(0.0, abs=1e-9)
        assert pt.rate == pytest.approx(0.0, abs=1e-12)

    def test_budget_at_floor(self, bss):
        pt = force_at_distortion(bss, 0.0)
        assert pt.s == -math.inf
        assert pt.boundary == "min_distortion"
        # cheapest letter has coding mass 1/2 for either source letter
        assert pt.rate == pytest.approx(LN2, abs=1e-12)

    def test_budget_below_floor(self, bss):
        with pytest.raises(DistortionTooLowError):
            force_at_distortion(bss, -0.01)

    def test_nan_budget_rejected(self, bss):
        # a nan budget is bad input, not a failed solve
        with pytest.raises(ValidationError, match="not nan"):
            force_at_distortion(bss, math.nan)
        with pytest.raises(ValidationError, match="not nan"):
            equal_force_allocation(bss, math.nan)

    def test_infinite_budget_is_the_zero_force_point(self, bss):
        pt = force_at_distortion(bss, math.inf)
        assert (pt.s, pt.rate, pt.boundary) == (0.0, 0.0, "above_zero_force")

    def test_asym_floor_rate(self, asym):
        pt = force_at_distortion(asym, 0.0)
        assert pt.rate == pytest.approx(LN2, abs=1e-12)

    def test_floor_rate_on_a_tiny_table(self):
        # distortions of 1e-12 are still two distinct values
        problem = RdProblem([0.5, 0.5], [0.3, 0.7], np.array([[0.0, 1.0], [1.0, 0.0]]) * 1e-12)
        pt = force_at_distortion(problem, 0.0)
        assert pt.boundary == "min_distortion"
        assert pt.rate == pytest.approx(-0.5 * (math.log(0.3) + math.log(0.7)), rel=1e-12)

    def test_roundtrip_with_distortion_at_force(self, bss, rng):
        for _ in range(10):
            problem = random_problem(rng)
            delta = feasible_delta(rng, problem)
            pt = force_at_distortion(problem, delta, tol=1e-12)
            back = distortion_at_force(problem, pt.s)
            assert back.distortion == pytest.approx(delta, abs=1e-9)


class TestSolveCost:
    @pytest.mark.parametrize("k, draws", [(2, 40), (64, 4), (512, 1)])
    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_at_most_ten_evaluations_per_target(self, monkeypatch, k, draws, scale):
        counts = []

        def counting(f, *args, **kwargs):
            calls = [0]

            def counted(u):
                calls[0] += 1
                return f(u)

            try:
                return invert_monotone(counted, *args, **kwargs)
            finally:
                counts.append(calls[0])

        monkeypatch.setattr(tilting, "invert_monotone", counting)
        rng = np.random.default_rng(k)
        for _ in range(draws):
            table = rng.random((k, k)) * scale
            problem = RdProblem(rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)), table)
            # forces over the benchmark's strata, in the table's own scale
            s = rng.uniform(-2.5, -0.2) / scale
            pt = force_at_distortion(problem, distortion_at_force(problem, s).distortion)
            assert pt.s == pytest.approx(s, rel=1e-6)
        assert len(counts) == draws
        assert max(counts) <= 10


class TestDistortionAtForce:
    def test_bss_values(self, bss):
        pt = distortion_at_force(bss, S_QUARTER)
        assert pt.distortion == pytest.approx(0.25, abs=1e-12)
        assert pt.rate == pytest.approx(R_QUARTER, abs=1e-12)

    def test_zero_force(self, bss):
        pt = distortion_at_force(bss, 0.0)
        assert pt.distortion == pytest.approx(0.5, abs=1e-14)
        assert pt.rate == pytest.approx(0.0, abs=1e-14)
        assert pt.mmse == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("name", ["bss", "asym"])
    def test_zero_rates_are_positive_zeros(self, request, name):
        # every rate is floored at +0.0: a force of -0, or a budget above D0, never reports -0.0
        problem = request.getfixturevalue(name)
        rates = [distortion_at_force(problem, -0.0).rate, rd_curve(problem, [-0.0])[0].rate,
                 equal_force_allocation(problem, 5.0)[1]]
        assert [(r, math.copysign(1.0, r), type(r)) for r in rates] == [(0.0, 1.0, float)] * 3

    def test_asym_zero_force_mmse(self, asym):
        pt = distortion_at_force(asym, 0.0)
        assert pt.mmse == pytest.approx(0.475, abs=1e-14)

    def test_monotone_in_force(self, rng):
        problem = random_problem(rng)
        pts = [distortion_at_force(problem, s) for s in np.linspace(-6.0, 0.0, 31)]
        dists = [p.distortion for p in pts]
        rates = [p.rate for p in pts]
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("s", [math.nan, -math.inf, math.inf])
    def test_non_finite_force_rejected(self, bss, s):
        with pytest.raises(ValidationError, match="must be finite"):
            distortion_at_force(bss, s)


class TestRateLegendre:
    def test_bss_sweep_matches_closed_form(self, bss):
        for delta in np.linspace(0.02, 0.49, 12):
            want = LN2 - h2(delta)
            assert rate_legendre(bss, float(delta)) == pytest.approx(want, abs=1e-9)

    def test_agrees_with_grid_oracle(self, rng):
        for _ in range(8):
            problem = random_problem(rng)
            delta = feasible_delta(rng, problem)
            direct = rate_legendre(problem, delta)
            gridded = legendre_grid_max(problem, delta)
            assert gridded == pytest.approx(direct, abs=1e-6)

    def test_convex_in_budget(self, bss):
        deltas = np.linspace(0.05, 0.45, 17)
        rates = [rate_legendre(bss, float(d)) for d in deltas]
        for i in range(1, len(deltas) - 1):
            assert rates[i] <= 0.5 * (rates[i - 1] + rates[i + 1]) + 1e-10


class TestEqualForceAllocation:
    def test_bss_budget_splits_evenly(self, bss):
        allocation, rate = equal_force_allocation(bss, 0.25)
        np.testing.assert_allclose(allocation.per_symbol_distortion, [0.25, 0.25], atol=1e-9)
        assert allocation.total(bss) == pytest.approx(0.25, abs=1e-9)
        assert rate == pytest.approx(R_QUARTER, abs=1e-9)

    def test_total_meets_budget(self, rng):
        for _ in range(10):
            problem = random_problem(rng)
            delta = feasible_delta(rng, problem)
            allocation, rate = equal_force_allocation(problem, delta)
            assert allocation.total(problem) == pytest.approx(delta, abs=1e-8)
            assert rate == pytest.approx(rate_legendre(problem, delta), abs=1e-8)

    def test_beats_small_perturbations(self, asym):
        from tiltrate import force_at_level

        delta = 0.4
        allocation, rate = equal_force_allocation(asym, delta, tol=1e-12)
        base = allocation.per_symbol_distortion
        p = asym.source_probs
        dists = asym.delta_dists
        eps = 1e-3
        # shift budget between the two letters while keeping the total fixed
        for sign in (+1.0, -1.0):
            shifted = [base[0] + sign * eps / p[0], base[1] - sign * eps / p[1]]
            try:
                perturbed = sum(
                    float(p[i]) * force_at_level(dists[i], shifted[i]).rate
                    for i in range(2)
                )
            except Exception:
                continue
            assert perturbed >= rate - 1e-10


class TestMmseIntegrals:
    def test_mmse_known_values(self, bss):
        assert mmse(bss, 0.0) == pytest.approx(0.25, abs=1e-14)
        assert mmse(bss, S_QUARTER) == pytest.approx(0.1875, abs=1e-12)

    def test_rate_via_mmse_integral(self, rng):
        for _ in range(8):
            problem = random_problem(rng)
            s = float(-rng.uniform(0.2, 3.0))
            direct = distortion_at_force(problem, s).rate
            assert rate_mmse_integral(problem, s) == pytest.approx(direct, abs=1e-8)

    def test_distortion_via_mmse_integral(self, rng):
        for _ in range(8):
            problem = random_problem(rng)
            s = float(-rng.uniform(0.2, 3.0))
            direct = distortion_at_force(problem, s).distortion
            assert distortion_mmse_integral(problem, s) == pytest.approx(direct, abs=1e-8)

    def test_sandwich_brackets_rate(self, bss):
        s = -2.0
        low, high = sandwich_bounds(bss, np.linspace(0.0, s, 201))
        exact = distortion_at_force(bss, s).rate
        assert low - 1e-12 <= exact <= high + 1e-12


class TestTiltedConditional:
    def test_rows_are_distributions(self, rng):
        problem = random_problem(rng)
        cond = tilted_conditional(problem, -1.3)
        assert cond.shape == problem.distortion.shape
        np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(cond >= 0.0)

    def test_zero_force_recovers_coding_law(self, bss):
        cond = tilted_conditional(bss, 0.0)
        np.testing.assert_allclose(cond, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_favors_cheap_letters(self, bss):
        cond = tilted_conditional(bss, -3.0)
        # source letter 0 has penalty 0 with reproduction 0: mass moves there
        assert cond[0, 0] > 0.9
        assert cond[1, 1] > 0.9


class TestObservableRoutes:
    def test_sweep_matches_direct(self, rng):
        for _ in range(6):
            problem = random_problem(rng)
            g = rng.random(problem.distortion.shape) * 3.0
            s = float(-rng.uniform(0.2, 2.5))
            direct = observable_expectation(problem, g, s)
            swept = observable_sweep(problem, g, s)
            assert swept == pytest.approx(direct, abs=1e-8)

    def test_distortion_as_observable(self, bss):
        s = S_QUARTER
        val = observable_expectation(bss, bss.distortion, s)
        assert val == pytest.approx(distortion_at_force(bss, s).distortion, abs=1e-12)

    def test_shape_validation(self, bss):
        with pytest.raises(ValidationError):
            observable_expectation(bss, np.ones((3, 3)), -1.0)


class TestRdCurve:
    def test_bss_curve(self, bss):
        grid = np.array([-2.0, -1.0, -0.5])
        points = rd_curve(bss, grid)
        assert [p.s for p in points] == [-0.5, -1.0, -2.0]
        for p in points:
            assert p.rate == pytest.approx(LN2 - h2(p.distortion), abs=1e-10)

    def test_rejects_positive_force(self, bss):
        with pytest.raises(ValidationError):
            rd_curve(bss, np.array([-1.0, 0.5]))
