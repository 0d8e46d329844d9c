import math

import numpy as np
import pytest

from tiltrate import RdProblem, RdProblem2, ValidationError, force_at_distortion, rate_legendre, rate_two_distortions
from tiltrate.errors import InfeasiblePairError
from tiltrate.multiconstraint import _stats

from conftest import h2

D_HAMMING = [[0.0, 1.0], [1.0, 0.0]]


def bss2(d2=None):
    return RdProblem2([0.5, 0.5], [0.5, 0.5], D_HAMMING, d2 if d2 is not None else D_HAMMING)


def bss1():
    return RdProblem([0.5, 0.5], [0.5, 0.5], D_HAMMING)


def grid_oracle(problem, delta1, delta2, reach=12.0, points=201):
    """Dense 2-D scan of the concave objective: a lower bound on the true max."""
    axis = -np.linspace(0.0, math.sqrt(reach), points) ** 2
    a, b = axis[:, None, None, None], axis[None, :, None, None]
    expo = a * problem.distortion_1 + b * problem.distortion_2 + np.log(problem.coding_probs)
    mx = expo.max(axis=-1, keepdims=True)
    phi = mx[..., 0] + np.log(np.exp(expo - mx).sum(axis=-1))
    objective = axis[:, None] * delta1 + axis[None, :] * delta2 - phi @ problem.source_probs
    return max(0.0, float(objective.max()))


class TestRdProblem2:
    def test_shape_checks_both_tables(self):
        with pytest.raises(ValidationError, match="distortion_2"):
            RdProblem2([0.5, 0.5], [0.5, 0.5], D_HAMMING, [[0.0, 1.0]])

    def test_zero_letters_dropped(self):
        p = RdProblem2([0.5, 0.5, 0.0], [0.5, 0.5],
                       [[0.0, 1.0], [1.0, 0.0], [9.0, 9.0]],
                       [[0.0, 2.0], [2.0, 0.0], [9.0, 9.0]])
        assert p.distortion_1.shape == (2, 2)
        assert p.distortion_2.shape == (2, 2)


class TestRateTwoDistortions:
    def test_duplicated_table_matches_single(self):
        rate, s1, s2 = rate_two_distortions(bss2(), 0.25, 0.25)
        want = rate_legendre(bss1(), 0.25)
        assert rate == pytest.approx(want, abs=1e-9)
        # the two forces share the work; only their sum is pinned down
        assert s1 + s2 == pytest.approx(math.log(1.0 / 3.0), abs=1e-6)

    def test_one_budget_slack(self):
        rate, s1, s2 = rate_two_distortions(bss2(), 0.25, 0.4)
        assert rate == pytest.approx(rate_legendre(bss1(), 0.25), abs=1e-9)
        assert s2 == 0.0
        assert s1 == pytest.approx(math.log(1.0 / 3.0), abs=1e-6)

    @pytest.mark.parametrize("d2, budgets, active", [
        (D_HAMMING, (0.25, 0.4), 0), ([[0.0, 2.0], [1.0, 0.0]], (0.3, 0.4), 1)])
    def test_active_force_is_the_one_table_force(self, d2, budgets, active):
        # with one budget slack the other force is the one-table solve's to 1e-12, not to the
        # ~1e-8 that the ascent's value plateau alone leaves
        forces = rate_two_distortions(bss2(d2), *budgets)[1:]
        assert forces[1 - active] == 0.0
        table = (D_HAMMING, d2)[active]
        want = force_at_distortion(RdProblem([0.5, 0.5], [0.5, 0.5], table), budgets[active]).s
        assert forces[active] == pytest.approx(want, rel=1e-12)

    def test_zero_force_pair(self):
        rate, s1, s2 = rate_two_distortions(bss2(), 0.6, 0.7)
        assert rate == 0.0
        assert s1 == 0.0 and s2 == 0.0

    def test_returns_builtin_floats(self):
        for pair in ((0.25, 0.25), (0.25, 0.4), (0.6, 0.7)):
            assert all(type(x) is float for x in rate_two_distortions(bss2(), *pair))

    def test_scaled_table_reduces_to_single(self):
        # with d2 = 2*d1 the tighter of the two budgets governs
        p = bss2([[0.0, 2.0], [2.0, 0.0]])
        for pair in [(0.25, 0.25), (0.1, 0.4), (0.4, 0.44)]:
            rate, s1, s2 = rate_two_distortions(p, *pair)
            want = rate_legendre(bss1(), min(pair[0], pair[1] / 2.0))
            assert rate == pytest.approx(want, abs=1e-8)

    def test_agrees_with_grid_oracle(self, rng):
        for _ in range(5):
            k = int(rng.integers(2, 4))
            j = int(rng.integers(2, 4))
            p_vec = rng.random(k) + 0.1
            p_vec /= p_vec.sum()
            q_vec = rng.random(j) + 0.1
            q_vec /= q_vec.sum()
            d1 = rng.random((k, j)) * 2.0
            d2 = rng.random((k, j)) * 2.0
            problem = RdProblem2(p_vec, q_vec, d1, d2)
            sbar = -rng.uniform(0.1, 2.0, size=2)
            _, grad, _ = _stats(problem, sbar, 0.0, 0.0)
            delta1, delta2 = -grad[0], -grad[1]
            rate, _, _ = rate_two_distortions(problem, delta1, delta2)
            assert rate >= grid_oracle(problem, delta1, delta2) - 1e-6
            assert rate <= grid_oracle(problem, delta1, delta2, points=401) + 1e-4

    def test_frontier_construction_recovers_forces(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 5))
            j = int(rng.integers(2, 5))
            p_vec = rng.random(k) + 0.1
            p_vec /= p_vec.sum()
            q_vec = rng.random(j) + 0.1
            q_vec /= q_vec.sum()
            problem = RdProblem2(p_vec, q_vec, rng.random((k, j)) * 2.0, rng.random((k, j)) * 2.0)
            sbar = -rng.uniform(0.05, 3.0, size=2)
            value, grad, _ = _stats(problem, sbar, 0.0, 0.0)
            delta1, delta2 = -grad[0], -grad[1]
            want = sbar[0] * delta1 + sbar[1] * delta2 + value
            rate, s1, s2 = rate_two_distortions(problem, delta1, delta2)
            assert rate == pytest.approx(want, abs=1e-7)
            assert rate <= want + 1e-12

    def test_monotone_in_budgets(self):
        p = bss2()
        r_tight, _, _ = rate_two_distortions(p, 0.2, 0.2)
        r_loose, _, _ = rate_two_distortions(p, 0.3, 0.3)
        assert r_tight >= r_loose - 1e-12

    def test_budget_below_floor(self):
        with pytest.raises(InfeasiblePairError):
            rate_two_distortions(bss2(), -0.1, 0.25)
        with pytest.raises(InfeasiblePairError):
            rate_two_distortions(bss2(), 0.25, 0.0)

    def test_jointly_unsatisfiable_pair(self):
        # second penalty is the complement of the first: their per-letter sum
        # is always 1, so both budgets cannot sit below one half at once
        p = bss2([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InfeasiblePairError):
            rate_two_distortions(p, 0.1, 0.1)

    def test_anti_correlated_feasible_region(self):
        p = bss2([[1.0, 0.0], [0.0, 1.0]])
        rate, s1, s2 = rate_two_distortions(p, 0.3, 0.72)
        assert rate == pytest.approx(rate_legendre(bss1(), 0.3), abs=1e-8)
        assert s2 == 0.0
