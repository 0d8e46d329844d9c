import math
from fractions import Fraction

import numpy as np
import pytest

from tiltrate import (
    RdProblem,
    ValidationError,
    blahut_arimoto,
    brute_allocation_min,
    distortion_at_force,
    exact_ld_probability,
    legendre_grid_max,
    rate_legendre,
)
from tiltrate.errors import AlphabetTooLargeError, CompositionNotIntegralError

from conftest import random_problem


class TestExactLdProbability:
    def test_bss_n8_is_exact_binomial_tail(self, bss):
        prob, exponent = exact_ld_probability(bss, 8, 0.25)
        assert prob == Fraction(37, 256)  # C(8,0)+C(8,1)+C(8,2) over 2^8
        assert exponent == pytest.approx(-math.log(37.0 / 256.0) / 8.0, abs=1e-12)

    def test_bss_n16(self, bss):
        prob, _ = exact_ld_probability(bss, 16, 0.25)
        assert prob == pytest.approx(2517.0 / 65536.0, abs=1e-15)

    def test_exponent_decreases_toward_rate(self, bss):
        rate = rate_legendre(bss, 0.25)
        exps = [exact_ld_probability(bss, n, 0.25)[1] for n in (8, 16, 32)]
        assert exps[0] > exps[1] > exps[2] > rate

    def test_whole_space_event(self, bss):
        prob, exponent = exact_ld_probability(bss, 8, 1.0)
        assert prob == 1.0
        assert exponent == 0.0

    @pytest.mark.parametrize("delta", [1.0, 2.0, math.inf])
    def test_certain_event_costs_positive_zero(self, bss, delta):
        prob, exponent = exact_ld_probability(bss, 6, delta)
        assert prob == 1.0
        assert exponent == 0.0 and math.copysign(1.0, exponent) == 1.0

    def test_impossible_event(self, bss):
        prob, exponent = exact_ld_probability(bss, 8, -0.5)
        assert prob == 0.0
        assert exponent == math.inf

    def test_nan_budget_rejected(self, bss):
        with pytest.raises(ValidationError, match="delta must be a number, not nan"):
            exact_ld_probability(bss, 10, math.nan)

    @pytest.mark.parametrize("delta", [-0.5, 0.25, 1.0, math.inf])
    def test_returns_builtin_floats(self, bss, delta):
        assert [type(x) for x in exact_ld_probability(bss, 8, delta)] == [float, float]

    @pytest.mark.parametrize("delta, want", [(1.5, (1.0, 0.0)), (1.4, (0.0, math.inf))])
    def test_constant_rows_need_no_lattice(self, delta, want):
        # every block totals 1 + 2: the event is certain at a budget of 3 / 2 a letter, else impossible
        problem = RdProblem([0.5, 0.5], [0.5, 0.5], [[1.0, 1.0], [2.0, 2.0]])
        assert exact_ld_probability(problem, 2, delta) == want

    def test_composition_must_be_integral(self):
        problem = RdProblem([0.7, 0.3], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        prob, _ = exact_ld_probability(problem, 10, 0.3)  # 7 and 3 letters
        assert 0.0 < prob < 1.0
        with pytest.raises(CompositionNotIntegralError):
            exact_ld_probability(problem, 9, 0.3)  # 6.3 letters of the first kind

    def test_skewed_coding_law(self):
        # n=2, one source letter, q=(1/4, 3/4), penalties (0, 1), budget 1/2:
        # need at least one zero-penalty pick: 1 - (3/4)^2 = 7/16
        problem = RdProblem([1.0], [0.25, 0.75], [[0.0, 1.0]])
        prob, _ = exact_ld_probability(problem, 2, 0.5)
        assert prob == pytest.approx(7.0 / 16.0, abs=1e-12)

    def test_matches_direct_enumeration(self, rng):
        # tiny instance checked against a full product-space enumeration
        problem = RdProblem([0.5, 0.5], [0.3, 0.7],
                            [[0.1, 0.9], [0.8, 0.2]])
        n, delta = 6, 0.45
        prob, _ = exact_ld_probability(problem, n, delta)
        q = problem.coding_probs
        rows = problem.distortion
        total = 0.0
        comp = [3, 3]
        from itertools import product
        for picks in product(range(2), repeat=n):
            cost = sum(rows[0, picks[i]] for i in range(comp[0]))
            cost += sum(rows[1, picks[i]] for i in range(comp[0], n))
            if cost <= n * delta + 1e-12:
                total += math.prod(q[j] for j in picks)
        assert prob == pytest.approx(total, abs=1e-12)


class TestBruteAllocationMin:
    def test_single_letter_matches_rate(self):
        problem = RdProblem([1.0], [0.25, 0.75], [[0.0, 1.0]])
        # the letter's budget grid spans [0, 3/4], so 3001 points land on 0.4
        delta = 0.4
        brute = brute_allocation_min(problem, delta, 3001)
        direct = rate_legendre(problem, delta)
        assert direct - 1e-8 <= brute  # both sides carry bisection tolerance
        assert brute == pytest.approx(direct, abs=1e-6)

    def test_bss_brute_upper_bounds_legendre(self, bss):
        brute = brute_allocation_min(bss, 0.25, 400)
        direct = rate_legendre(bss, 0.25)
        assert direct - 1e-10 <= brute <= direct + 1e-4

    def test_three_letter_source(self, rng):
        problem = RdProblem([0.3, 0.3, 0.4], [0.5, 0.5],
                            [[0.0, 1.0], [1.0, 0.0], [0.5, 1.5]])
        delta = 0.5
        brute = brute_allocation_min(problem, delta, 150)
        assert brute >= rate_legendre(problem, delta) - 1e-10

    def test_too_many_letters(self):
        problem = RdProblem([0.25] * 4, [0.5, 0.5],
                            [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(AlphabetTooLargeError):
            brute_allocation_min(problem, 0.25, 50)

    def test_unreachable_budget(self, bss):
        with pytest.raises(ValidationError):
            brute_allocation_min(bss, -0.2, 50)

    def test_nan_budget_rejected(self, bss):
        with pytest.raises(ValidationError, match="delta must be a number, not nan"):
            brute_allocation_min(bss, math.nan, 20)


class TestLegendreGridMax:
    def test_matches_bisection_route(self, rng):
        for _ in range(5):
            problem = random_problem(rng)
            floor = float(np.dot(problem.source_probs, problem.distortion.min(axis=1)))
            top = float(np.dot(problem.source_probs,
                               (problem.distortion * problem.coding_probs).sum(axis=1)))
            delta = floor + 0.4 * (top - floor)
            assert legendre_grid_max(problem, delta) == pytest.approx(
                rate_legendre(problem, delta), abs=1e-6
            )

    def test_loose_budget_gives_zero(self, bss):
        assert legendre_grid_max(bss, 0.9) == pytest.approx(0.0, abs=1e-12)

    def test_nan_budget_rejected(self, bss):
        with pytest.raises(ValidationError, match="delta must be a number, not nan"):
            legendre_grid_max(bss, math.nan)

    @pytest.mark.parametrize("s_min", [-math.inf, math.nan])
    def test_non_finite_lower_end_rejected(self, bss, s_min):
        message = "s_min must be finite" if s_min == -math.inf else "s_min must be negative"
        with pytest.raises(ValidationError, match=message):
            legendre_grid_max(bss, 0.3, s_min=s_min)

    @pytest.mark.parametrize("s_min", [0.0, 1.0, math.inf])
    def test_nonnegative_lower_end_keeps_its_message(self, bss, s_min):
        with pytest.raises(ValidationError, match="^s_min must be negative$"):
            legendre_grid_max(bss, 0.3, s_min=s_min)


@pytest.mark.parametrize("c", [(1e3, 1e3), (1e9, -2e9), (1e10, 1e10), (1e10, -3e9)])
def test_oracles_exact_under_far_row_shifts(c):
    # bss's rows start at 0.  Whole-number row shifts, with the budget moved by their P-weighted
    # sum (exact for these), leave both oracles' answers bit for bit as on bss: each takes its
    # rows at origin.  Keyed on the raw values, a row at 1e10 overflowed the int64 lattice.
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    plain, shifted = (RdProblem([0.5, 0.5], [0.5, 0.5], t) for t in (table, table + np.array(c)[:, None]))
    moved = 0.375 + 0.5 * (c[0] + c[1])
    assert exact_ld_probability(shifted, 8, moved) == exact_ld_probability(plain, 8, 0.375)
    assert legendre_grid_max(shifted, moved) == legendre_grid_max(plain, 0.375)


class TestBlahutArimoto:
    def test_bss_recovers_uniform(self):
        for s in (-0.3, -1.0, -2.5):
            result = blahut_arimoto([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], s)
            np.testing.assert_allclose(result.coding_probs, [0.5, 0.5], atol=1e-8)
            assert result.converged

    def test_objective_never_increases(self, rng):
        problem = random_problem(rng)
        result = blahut_arimoto(problem.source_probs, problem.distortion, -1.2)
        objs = result.objectives
        assert all(a >= b - 1e-11 for a, b in zip(objs, objs[1:]))

    def test_optimized_law_beats_fixed_law(self, rng):
        # evaluating the optimizer's law through the fixed-law machinery
        # reproduces its own rate and distortion
        for _ in range(5):
            problem = random_problem(rng)
            s = float(-rng.uniform(0.3, 2.0))
            result = blahut_arimoto(problem.source_probs, problem.distortion, s)
            tuned = RdProblem(problem.source_probs, result.coding_probs, problem.distortion)
            pt = distortion_at_force(tuned, s)
            assert pt.rate == pytest.approx(result.rate, abs=1e-6)
            assert pt.distortion == pytest.approx(result.distortion, abs=1e-6)
            # and the tuned law never does worse at its own distortion
            fixed_rate = rate_legendre(problem, pt.distortion)
            assert pt.rate <= fixed_rate + 1e-8

    def test_positive_force_rejected(self, bss):
        with pytest.raises(ValidationError):
            blahut_arimoto([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 0.2)

    def test_iteration_cap_flags_no_convergence(self):
        result = blahut_arimoto([0.3, 0.7], [[0.0, 1.0], [2.0, 0.0]], -1.5, max_iter=1)
        assert not result.converged
        assert result.iterations == 1

    def test_zero_force_keeps_any_law_optimal(self):
        # at zero force every law already achieves rate 0
        result = blahut_arimoto([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 0.0)
        assert result.rate == pytest.approx(0.0, abs=1e-12)
