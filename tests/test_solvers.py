import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltrate.errors import NumericalError, TiltrateError, ValidationError
from tiltrate import solvers
from tiltrate.solvers import _MAX_CALL, BracketError, adaptive_simpson, invert_monotone

from conftest import recursive_simpson


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
            invert_monotone(lambda x: (x, 1.0), 2.0, f_tol=0.0, hi_limit=0.0)

    def test_limit_touching_target_is_found(self):
        root = invert_monotone(lambda x: (x - 4.0, 1.0), 0.0, f_tol=0.0, reach=3.0, hi_limit=4.0)
        assert root == pytest.approx(4.0, abs=1e-12)

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
            y = x + 10.0
            calls.append(y)
            return math.atan(y), 1.0 / (1.0 + y * y)

        # atan(x + 10): from the start y = 10 the tangent reaches y = -92, and the reach of 20
        # stops the step at -10, across the target.  From -10 the tangent reaches y = 185, far
        # outside [-10, 10]: the step is replaced by the midpoint, then Newton takes over again.
        root = invert_monotone(f, math.atan(0.5), f_tol=0.0, reach=20.0)
        assert calls[:3] == [10.0, -10.0, 0.0]
        assert root == pytest.approx(-9.5, rel=1e-12)
        assert len(calls) <= 10

    def test_bisects_where_the_slope_vanishes(self):
        # A map that reports no slope: the start doubles to 1, across the target, and Newton has no
        # step inside [0, 1], so every step is the midpoint.
        calls = []

        def f(x):
            calls.append(x)
            return x, 0.0

        root = invert_monotone(f, 0.3, f_tol=0.0)
        assert calls[:4] == [0.0, 1.0, 0.5, 0.25]
        assert root == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_scaled_root_pinned_to_relative_width(self, scale):
        # f(x) = atan(x / scale): the root sits at 0.3 * scale, so an
        # absolute stop would end far from it at scale 1e-12.
        f = value_and_slope(lambda x: math.atan(x / scale), lambda x: scale / (scale * scale + x * x))
        root = invert_monotone(f, math.atan(0.3), f_tol=0.0, reach=scale)
        assert root == pytest.approx(0.3 * scale, rel=1e-12)

    def test_running_out_of_steps_raises(self):
        # a zero slope bisects toward a root at 1e-300, which no bracket of relative width 1e-13
        # reaches in 240 steps: the cap is no answer
        with pytest.raises(NumericalError, match="after 240 steps"):
            invert_monotone(lambda x: (x, 0.0), 1e-300, f_tol=0.0)

    def test_a_midpoint_that_rounds_onto_an_end_is_returned(self):
        # a step map with no slope bisects toward 0 from below; no float lies strictly inside
        # [-ulp(0), 0], so the midpoint rounds onto its lower end, which is the answer
        tiny = math.ulp(0.0)
        root = invert_monotone(lambda x: (1.0 if x >= 0.0 else -1.0, 0.0), 0.5, f_tol=0.0, reach=8.0 * tiny)
        assert root == -tiny

    def test_a_small_newton_step_that_does_not_lower_the_residual_returns_the_best_point(self):
        # the map stalls at 1 while claiming slope 1, as values down to their rounding noise do:
        # the Newton step from 1 is 1e-10 long, below 1e-8 of the point, and its value is no
        # nearer the target, so the solve ends at 1
        calls = []

        def f(x):
            calls.append(x)
            return min(x, 1.0), 1.0

        assert invert_monotone(f, 1.0 + 1e-10, f_tol=0.0) == 1.0
        assert calls == [0.0, 1.0, pytest.approx(1.0 + 1e-10, rel=1e-15)]

    def test_a_small_newton_step_that_would_not_halve_the_last_returns_the_best_point(self):
        # inside the bracket [1 - e, 1] the Newton step from 1 - e is 3/4 of the step before it, and
        # below 1e-8 of the point: only rounding noise stalls a step that small, so the solve ends at
        # the point of least residual, 1 - e, and evaluates no other
        e = 2.0**-34
        values = {0.0: -1.0, 1.0: e, 1.0 - e: -0.75 * e}
        calls = []

        def f(x):
            calls.append(x)
            return values[x], 1.0

        assert invert_monotone(f, 0.0, f_tol=0.0) == 1.0 - e
        assert calls == [0.0, 1.0, 1.0 - e]

    def test_a_newton_step_that_collapses_the_bracket_onto_its_far_end_returns_its_point(self):
        # Newton steps down from the bracket's top, each half the one before.  The last is 450.5
        # ulps long from 1 + 901 ulps and rounds to even, onto 1 + 450 ulps: it is 451 ulps long,
        # above 1e-13 of the point (450.36 ulps), and leaves 450 ulps to the far end at 1
        u = 2.0**-52
        values = {0.0: -1.0, 1.0: -1802 * u, 1.0 + 1802 * u: 901 * u, 1.0 + 901 * u: 450.5 * u, 1.0 + 450 * u: 225 * u}
        root = invert_monotone(lambda x: (values[x], 1.0), 0.0, f_tol=0.0, reach=2.0)
        assert root == 1.0 + 450 * u

    def test_bracket_error_is_a_numerical_error(self):
        assert issubclass(BracketError, NumericalError)
        with pytest.raises(TiltrateError):
            invert_monotone(lambda x: (x, 1.0), 2.0, f_tol=0.0, hi_limit=0.0)


class TestOpenBracket:
    """Until the target is crossed, each step is the Newton step from the latest point, capped at a
    reach that doubles with each step; no point is spent on a probe that the solve then drops."""

    @staticmethod
    def recorded(f):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)

        return g, calls

    def test_a_linear_map_takes_one_evaluation_past_its_start(self):
        f, calls = self.recorded(lambda x: (3.0 * x + 1.0, 3.0))
        assert invert_monotone(f, 7.0, f_tol=0.0, reach=4.0) == 2.0
        assert calls == [0.0, 2.0]

    def test_a_convex_map_reached_from_its_uncrossed_side_takes_its_closing_step(self):
        # from 0 the tangents of e**x stay right of the root ln 1e-3: no point crosses it, and the
        # answer is the Newton step from the last point, taken without evaluating it
        f, calls = self.recorded(lambda x: (math.exp(x), math.exp(x)))
        root = invert_monotone(f, 1e-3, f_tol=1e-9, reach=8.0)
        last = calls[-1]
        assert all(x > math.log(1e-3) for x in calls)
        assert root == last - (math.exp(last) - 1e-3) / math.exp(last)
        assert root not in calls
        assert root == pytest.approx(math.log(1e-3), rel=1e-12)

    def test_a_slow_one_sided_run_is_not_cut_at_sixty_steps(self):
        # near its triple root (x + 1)**3 draws each tangent only a third of the way in from the
        # right, so no point crosses the root -1 + 1e-12 for more than 60 steps; none of them is
        # cut short by the reach, so they count toward the 240 steps in all and not toward the
        # 60 expansions
        f, calls = self.recorded(lambda x: ((x + 1.0) ** 3, 3.0 * (x + 1.0) ** 2))
        root = invert_monotone(f, 1e-36, f_tol=0.0)
        assert len(calls) > 61
        assert all(x > -1.0 + 1e-12 for x in calls)
        assert root == pytest.approx(-1.0 + 1e-12, abs=1e-14)

    def test_a_zero_slope_at_the_start_doubles(self):
        # no Newton step from 0: the first step is the whole reach, across the target
        f, calls = self.recorded(lambda x: (x**3, 3.0 * x * x))
        root = invert_monotone(f, 1e-3, f_tol=0.0, reach=4.0)
        assert calls[:2] == [0.0, 4.0]
        assert root == pytest.approx(0.1, rel=1e-12)

    def test_newton_steps_are_capped_at_a_doubling_reach(self):
        # atan is convex left of 0, so its tangents from 0 toward -321.5 never cross the target.  The
        # first reaches -1.57, past the reach 1; each later step is at most the reach, 2, 4, 8, ...
        f, calls = self.recorded(value_and_slope(math.atan, lambda x: 1.0 / (1.0 + x * x)))
        root = invert_monotone(f, math.atan(-321.5), f_tol=0.0)
        assert calls[1] == -1.0
        assert all(-(2.0**i) <= b - a < 0.0 for i, (a, b) in enumerate(zip(calls, calls[1:])))
        assert root == pytest.approx(-321.5, rel=1e-13)

    def test_steps_past_the_upper_limit_are_clipped_to_it(self):
        # the Newton point 4 + 5e-13 lies past the limit 4: the step stops at 4, within f_tol of
        # the target, and the closing step, which would leave (-inf, 4], is not taken
        f, calls = self.recorded(lambda x: (x - 4.0, 1.0))
        assert invert_monotone(f, 5e-13, f_tol=1e-12, reach=10.0, hi_limit=4.0) == 4.0
        assert calls == [0.0, 4.0]
        calls.clear()
        with pytest.raises(BracketError):
            invert_monotone(f, 5e-13, f_tol=0.0, reach=10.0, hi_limit=4.0)
        assert calls == [0.0, 4.0]
        # a limit below 0 is where the solve starts
        calls.clear()
        assert invert_monotone(f, -7.0, f_tol=0.0, hi_limit=-1.0) == -3.0
        assert calls[0] == -1.0

    @pytest.mark.parametrize("reach, points", [(math.inf, [0.0]), (1e308, [0.0, 1e308])], ids=["inf", "doubled"])
    def test_a_step_to_a_force_that_is_not_finite_raises(self, reach, points):
        # a reach that is not finite, from the start or once doubled, is no step: the map is never
        # evaluated there
        f, calls = self.recorded(lambda x: (-1.0, 0.0))
        with pytest.raises(BracketError, match="could not bracket"):
            invert_monotone(f, 0.0, f_tol=0.0, reach=reach)
        assert calls == points

    @pytest.mark.parametrize("target", [2.0, -2.0])
    def test_a_target_out_of_range_raises_after_sixty_steps(self, target):
        f, calls = self.recorded(value_and_slope(math.atan, lambda x: 1.0 / (1.0 + x * x)))
        with pytest.raises(BracketError, match="could not bracket"):
            invert_monotone(f, target, f_tol=0.0)
        assert len(calls) == 61


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        # Simpson is exact on cubics, so the first comparison already lands
        val = adaptive_simpson(lambda x: x**3, 0.0, 2.0, 1e-12)
        assert val == pytest.approx(4.0, abs=1e-12)

    def test_root_interval_is_always_split(self):
        # the cubic passes its first comparison, on the 5 nodes of the first call; the root is
        # split regardless, and both halves are compared once more: 9 nodes in 2 calls
        sizes = []

        def f(x):
            sizes.append(x.size)
            return x**3

        adaptive_simpson(f, 0.0, 2.0, 1e-12)
        assert sizes == [5, 4]

    def test_exponential(self):
        val = adaptive_simpson(np.exp, 0.0, 1.0, 1e-12)
        assert val == pytest.approx(math.e - 1.0, abs=1e-11)

    def test_orientation(self):
        fwd = adaptive_simpson(np.sin, 0.0, math.pi, 1e-11)
        rev = adaptive_simpson(np.sin, math.pi, 0.0, 1e-11)
        assert fwd == pytest.approx(2.0, abs=1e-10)
        assert rev == pytest.approx(-2.0, abs=1e-10)

    def test_empty_interval(self):
        assert adaptive_simpson(np.exp, 1.5, 1.5, 1e-12) == 0.0

    def test_peaked_integrand(self):
        # narrow logistic bump; adaptivity has to find it
        val = adaptive_simpson(lambda x: 1.0 / np.cosh(40.0 * (x - 0.7)) ** 2, 0.0, 2.0, 1e-12)
        want = (math.tanh(40.0 * 1.3) - math.tanh(-40.0 * 0.7)) / 40.0
        assert val == pytest.approx(want, abs=1e-10)

    def test_deterministic(self):
        f = lambda x: np.exp(-x * x)
        runs = {adaptive_simpson(f, -3.0, 3.0, 1e-10) for _ in range(5)}
        assert len(runs) == 1

    def test_budget_caps_evaluations(self, monkeypatch):
        monkeypatch.setattr(solvers, "_MAX_EVALS", 2000)
        count = [0]

        def f(x):
            count[0] += x.size
            return np.abs(x - 1 / 3) ** 0.1

        with pytest.raises(NumericalError, match=r"^adaptive Simpson short of tolerance near 0\.00048828125: out of evaluations$"):
            adaptive_simpson(f, 0.0, 1.0, 1e-15)
        # the budget is checked before a level is evaluated, so no node goes past it
        assert count[0] <= 2000

    def test_calls_are_capped_in_size(self, monkeypatch):
        # a level wider than one call is handed over in several calls, each within the cap
        monkeypatch.setattr(solvers, "_MAX_EVALS", 20_000)
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.abs(x - 1 / 3) ** 0.1

        with pytest.raises(NumericalError):
            adaptive_simpson(f, 0.0, 1.0, 1e-15)
        assert max(sizes) == _MAX_CALL
        assert sum(sizes) > 2 * _MAX_CALL

    def test_unresolved_integrand_raises(self, monkeypatch):
        # sin(1/x) oscillates without end near 0; no budget resolves it
        monkeypatch.setattr(solvers, "_MAX_EVALS", 1000)

        def f(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(x == 0.0, 0.0, np.sin(1.0 / x))

        with pytest.raises(NumericalError):
            adaptive_simpson(f, 0.0, 1.0, 1e-9)

    def test_depth_cap_raises(self):
        # a step at 1e-20 stays inside [0, 2^-L] on every level: the interval [0, h] keeps an error
        # estimate of h / 12 against its limit 15 tol h, so it fails on every level for any tol below
        # 1/180, and the levels run out long before the budget does
        with pytest.raises(NumericalError, match=r"^adaptive Simpson short of tolerance near 4\.336808689942018e-19: 60 subdivisions deep$"):
            adaptive_simpson(lambda x: (x <= 1e-20).astype(float), 0.0, 1.0, 1e-12)

    @pytest.mark.parametrize("tol", [1e-20, 1e-300, 5e-324])
    def test_a_tolerance_below_the_rounding_is_refused_after_the_root_level(self, tol):
        # the root level's estimate of the step is 1/12, whose half ulp is about 7e-18: no sum of
        # rounded values meets a tol below it, so the rule stops on its first 5 nodes
        sizes = []

        def f(x):
            sizes.append(x.size)
            return (x <= 1e-20).astype(float)

        size = re.escape(repr(1.0 / 12.0))
        with pytest.raises(NumericalError, match=rf"^adaptive Simpson tolerance {re.escape(repr(tol))} is below the rounding of the integral's size {size}$"):
            adaptive_simpson(f, 0.0, 1.0, tol)
        assert sizes == [5]

    def test_a_tolerance_at_the_rounding_is_still_tried(self):
        # half an ulp of the root estimate 2 is 2^-52: a tol of exactly that is tried, and the cubic,
        # which Simpson's rule integrates exactly, meets it
        assert adaptive_simpson(lambda x: x**3 / 2.0, 0.0, 2.0, 2.0**-52) == 2.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_recursive_rule_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-3.0, 3.0, size=5)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        tol = 10.0 ** rng.uniform(-12.0, -5.0)

        def g(u: float) -> float:
            return c[0] * math.exp(c[1] * u) + c[2] * math.cos(c[3] * u) + 1.0 / (1.0 + c[4] ** 2 * u * u)

        def recorded(nodes):
            return lambda u: nodes.append(u) or g(u)

        # each rule's abscissae in the order it asks for them
        want_nodes, nodes = [], []
        want = recursive_simpson(recorded(want_nodes), a, b, tol)
        level = recorded(nodes)
        assert adaptive_simpson(lambda x: np.array([level(u) for u in x.tolist()]), a, b, tol) == want
        # the level rule asks for the recursion's nodes, each once, only in another order
        assert len(set(nodes)) == len(nodes)
        assert sorted(nodes) == sorted(want_nodes)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_refuses_a_tolerance_no_rule_can_meet(self, tol):
        calls = []
        with pytest.raises(ValidationError, match=r"^tol must be finite and > 0 \(got "):
            adaptive_simpson(lambda x: calls.append(x) or np.exp(x), 0.0, 1.0, tol)
        assert calls == []

    @pytest.mark.parametrize("a, b", [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)])
    def test_refuses_an_end_that_is_not_finite_before_any_node(self, a, b):
        calls = []
        with pytest.raises(ValidationError, match=r"^the ends of the interval must be finite \(got "):
            adaptive_simpson(lambda x: calls.append(x) or np.exp(x), a, b, 1e-9)
        assert calls == []

    @pytest.mark.parametrize("a, b", [(-1.7e308, 0.0), (0.0, 2.0**1023), (-2.0**1023, -2.0**1023)])
    def test_refuses_an_end_whose_midpoints_can_overflow_before_any_node(self, a, b):
        # from -1.7e308 the rule's first quarter point was -inf, and it spent its whole budget of evaluations
        calls = []
        with pytest.raises(NumericalError, match=r"^the end .* is 2\^1023 or more in size: its midpoints can overflow$"):
            adaptive_simpson(lambda x: calls.append(x) or np.ones_like(x), a, b, 1e-9)
        assert calls == []

    def test_takes_finite_nodes_up_to_the_largest_end_it_admits(self):
        # from an end just under 2^1023 in size, the sum of it with itself is the largest float, so every
        # node stays finite; the kernel's held forces, a hair past tilting._HOLD = 2^1022, sit well inside
        end, nodes = math.nextafter(2.0**1023, 0.0), []
        total = adaptive_simpson(lambda x: nodes.append(x) or np.ones_like(x), -end, -0.5 * end, 2.0**1000)
        assert np.isfinite(np.concatenate(nodes)).all()
        assert total == pytest.approx(0.5 * end, rel=1e-15)
