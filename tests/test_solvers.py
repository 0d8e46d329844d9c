import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltrate.errors import NumericalError, TiltrateError
from tiltrate.solvers import BracketError, adaptive_simpson, invert_monotone


def value_and_slope(f, df):
    return lambda x: (f(x), df(x))


class TestInvertMonotone:
    def test_cubic(self):
        root = invert_monotone(value_and_slope(lambda x: x**3, lambda x: 3.0 * x * x), 8.0, f_tol=0.0)
        assert root == pytest.approx(2.0, abs=1e-12)

    def test_starting_bracket_far_from_root(self):
        root = invert_monotone(lambda x: (x - 1000.0, 1.0), 0.0, f_tol=0.0)
        assert root == pytest.approx(1000.0, abs=1e-9)

    def test_negative_side_expansion(self):
        atan = value_and_slope(math.atan, lambda x: 1.0 / (1.0 + x * x))
        root = invert_monotone(atan, math.atan(-321.5), f_tol=0.0)
        assert root == pytest.approx(-321.5, rel=1e-10)

    def test_respects_upper_limit(self):
        # root of x = 2 does not exist inside (-inf, 0]
        with pytest.raises(BracketError):
            invert_monotone(lambda x: (x, 1.0), 2.0, f_tol=0.0, hi=0.0, hi_limit=0.0)

    def test_limit_touching_target_is_found(self):
        root = invert_monotone(lambda x: (x, 1.0), 0.0, f_tol=0.0, lo=-4.0, hi=-1.0, hi_limit=0.0)
        assert root == pytest.approx(0.0, abs=1e-12)

    def test_early_exit_uses_f_tol(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.atan(x), 1.0 / (1.0 + x * x)

        invert_monotone(f, 0.5, f_tol=1e-3)
        loose = len(calls)
        calls.clear()
        invert_monotone(f, 0.5, f_tol=0.0)
        assert len(calls) > loose

    def test_flat_plateau_does_not_spin(self):
        plateau = lambda x: (0.0, 0.0) if x < 1 else (x - 1.0, 1.0)  # noqa: E731
        root = invert_monotone(plateau, 0.0, f_tol=0.0)
        assert math.isfinite(root)

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_affine_roundtrip(self, target):
        root = invert_monotone(lambda x: (3.0 * x + 1.0, 3.0), target, f_tol=0.0)
        assert 3.0 * root + 1.0 == pytest.approx(target, abs=1e-9 * max(1.0, abs(target)))

    def test_bisects_when_newton_leaves_the_bracket(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.atan(x), 1.0 / (1.0 + x * x)

        # From the end x = 10 the tangent reaches x = -92, far outside
        # [-10, 10]: the step is replaced by the midpoint, then Newton
        # takes over again.
        root = invert_monotone(f, math.atan(0.5), f_tol=0.0, lo=-10.0, hi=10.0)
        assert calls[:3] == [-10.0, 10.0, 0.0]
        assert root == pytest.approx(0.5, rel=1e-12)
        assert len(calls) <= 10

    def test_bisects_where_the_slope_vanishes(self):
        # The slope is zero at the starting end, so Newton has no step there.
        calls = []

        def f(x):
            calls.append(x)
            return x**3, 3.0 * x * x

        root = invert_monotone(f, 1e-3, f_tol=0.0, lo=0.0, hi=4.0)
        assert calls[2] == 2.0
        assert root == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_scaled_root_pinned_to_relative_width(self, scale):
        # f(x) = atan(x / scale): the root sits at 0.3 * scale, so an
        # absolute stop would end far from it at scale 1e-12.
        f = value_and_slope(lambda x: math.atan(x / scale), lambda x: scale / (scale * scale + x * x))
        root = invert_monotone(f, math.atan(0.3), f_tol=0.0, lo=-scale, hi=scale)
        assert root == pytest.approx(0.3 * scale, rel=1e-12)

    def test_bracket_error_is_a_numerical_error(self):
        assert issubclass(BracketError, NumericalError)
        with pytest.raises(TiltrateError):
            invert_monotone(lambda x: (x, 1.0), 2.0, f_tol=0.0, hi=0.0, hi_limit=0.0)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        # Simpson is exact on cubics, so the first slice already lands
        val = adaptive_simpson(lambda x: x**3, 0.0, 2.0, 1e-12)
        assert val == pytest.approx(4.0, abs=1e-12)

    def test_exponential(self):
        val = adaptive_simpson(math.exp, 0.0, 1.0, 1e-12)
        assert val == pytest.approx(math.e - 1.0, abs=1e-11)

    def test_orientation(self):
        fwd = adaptive_simpson(math.sin, 0.0, math.pi, 1e-11)
        rev = adaptive_simpson(math.sin, math.pi, 0.0, 1e-11)
        assert fwd == pytest.approx(2.0, abs=1e-10)
        assert rev == pytest.approx(-2.0, abs=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.5, 1.5, 1e-12) == 0.0

    def test_peaked_integrand(self):
        # narrow logistic bump; adaptivity has to find it
        val = adaptive_simpson(lambda x: 1.0 / math.cosh(40.0 * (x - 0.7)) ** 2, 0.0, 2.0, 1e-12)
        want = (math.tanh(40.0 * 1.3) - math.tanh(-40.0 * 0.7)) / 40.0
        assert val == pytest.approx(want, abs=1e-10)

    def test_deterministic(self):
        f = lambda x: math.exp(-x * x)
        runs = {adaptive_simpson(f, -3.0, 3.0, 1e-10) for _ in range(5)}
        assert len(runs) == 1

    def test_budget_caps_evaluations(self):
        count = [0]

        def f(x):
            count[0] += 1
            return abs(x - 1 / 3) ** 0.1

        with pytest.raises(NumericalError):
            adaptive_simpson(f, 0.0, 1.0, 1e-15, max_evals=2000)
        # unwinding siblings each spend two evaluations before seeing the
        # exhausted budget, so allow that much slop over the cap
        assert count[0] <= 2000 + 2 * 61 + 2

    def test_unresolved_integrand_raises(self):
        # sin(1/x) oscillates without end near 0; no budget resolves it
        with pytest.raises(NumericalError):
            adaptive_simpson(lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0, 1e-9, max_evals=1000)
