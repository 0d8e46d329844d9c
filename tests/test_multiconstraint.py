import itertools
import math

import numpy as np
import pytest

from tiltrate import RdProblem, RdProblem2, ValidationError, force_at_distortion, rate_legendre, rate_two_distortions
from tiltrate.errors import InfeasiblePairError, NumericalError
from tiltrate import multiconstraint
from tiltrate.multiconstraint import _stats
from tiltrate.tilting import _at_origin, _legendre

from conftest import h2
from test_symmetry import REL, permuted

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


def feasibility_slack(p, d1, d2, delta1, delta2) -> float:
    """min over a in [0, 1] of a*delta1 + (1-a)*delta2 - sum_x P(x) min_j (a*d1 + (1-a)*d2)(x, j).

    Some reproduction law meets both budgets iff this is >= 0 (LP duality).  The
    slack is convex and piecewise linear in a, so its least value sits at an end
    or where two letters of a row cross: there d2 + a*(d1 - d2) ties.
    """
    e = d1 - d2
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (d2[:, None, :] - d2[:, :, None]) / (e[:, :, None] - e[:, None, :])
    a = np.concatenate(([0.0, 1.0], cross[(cross > 0.0) & (cross < 1.0)]))
    mixed = d2 + a[:, None, None] * e
    return float(np.min(a * delta1 + (1.0 - a) * delta2 - mixed.min(axis=2) @ p))


# second tables drawn against the first: independent, or affinely dependent on it
SECOND_TABLES = {
    "random": lambda rng, d: rng.random(d.shape),
    "duplicate": lambda rng, d: d,
    "scaled": lambda rng, d: 2.0 * d + 0.3,
    "complement": lambda rng, d: 1.0 - d,
    "noisy": lambda rng, d: d + 1e-9 * rng.random(d.shape),
}


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

    @pytest.mark.parametrize("delta2", [0.2, 0.4, 0.6])
    def test_an_infinite_budget_never_binds(self, delta2):
        # a budget at or above its table's largest achievable mean is slack: inf answers as 1e9 does
        d2 = [[0.0, 2.0], [1.0, 0.0]]
        answer = rate_two_distortions(bss2(d2), math.inf, delta2)
        assert answer == rate_two_distortions(bss2(d2), 1e9, delta2)
        assert answer[1] == 0.0
        assert answer[0] == pytest.approx(rate_legendre(RdProblem([0.5, 0.5], [0.5, 0.5], d2), delta2),
                                          rel=1e-14, abs=0.0)

    def test_two_infinite_budgets_cost_nothing(self):
        assert rate_two_distortions(bss2(), math.inf, math.inf) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("budget", [math.nan, -math.inf])
    def test_nan_and_minus_inf_budgets_are_refused(self, budget):
        with pytest.raises(InfeasiblePairError, match="does not exceed the minimum achievable"):
            rate_two_distortions(bss2(), budget, 0.4)

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
        # each Hamming table's floor is 0: a budget of 0 sits on it and is answered (TestFloorPairs)
        with pytest.raises(InfeasiblePairError):
            rate_two_distortions(bss2(), -0.1, 0.25)
        with pytest.raises(InfeasiblePairError):
            rate_two_distortions(bss2(), 0.25, -0.1)

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

    @pytest.mark.parametrize("q, budgets", [([0.5, 0.5], (0.45, 0.5)), ([0.5, 0.5], (0.48, 0.48)),
                                            ([0.2, 0.8], (0.48, 0.48))])
    def test_complement_pairs_below_one_raise(self, q, budgets):
        # d1 + d2 = 1 in every cell, so no law keeps both budgets when they sum below 1; a
        # plateau test run before the ceiling once returned ~1e13 nats here, or stalled
        p = RdProblem2([0.5, 0.5], q, D_HAMMING, [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InfeasiblePairError):
            rate_two_distortions(p, *budgets)

    @pytest.mark.parametrize("budgets, active", [((0.25, 0.3), 0), ((0.3, 0.25), 1), ((0.1, 0.45), 0),
                                                 ((0.45, 0.1), 1)])
    def test_duplicate_table_takes_the_tighter_budget(self, budgets, active):
        # on one table twice the maximum sits on the tighter budget's face: its one-table solve
        rate, *forces = rate_two_distortions(bss2(), *budgets)
        want = force_at_distortion(bss1(), budgets[active])
        assert forces[active] == want.s and forces[1 - active] == 0.0
        assert rate == pytest.approx(want.rate, rel=1e-15)

    def test_dependent_tables_take_no_newton_step(self, monkeypatch):
        # Dependent tables go from the zero-force tests straight to the one-table faces: the
        # objective at 0 and the two Kuhn-Tucker checks.  A Newton step on their singular
        # covariance, when LAPACK solves it by rounding, is huge and backtracks for dozens of calls.
        calls = []
        stats = multiconstraint._stats
        monkeypatch.setattr(multiconstraint, "_stats", lambda *args: calls.append(1) or stats(*args))
        rng = np.random.default_rng(5)
        dependent = ["duplicate", "scaled", "complement"]
        for n in range(200):
            k, j = (int(x) for x in rng.integers(2, 6, size=2))
            p_vec, q_vec, d1 = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(j)), rng.random((k, j))
            d2 = SECOND_TABLES[dependent[n % 3]](rng, d1)
            budgets = []
            for d in (d1, d2):
                floor = float(p_vec @ d.min(axis=1))
                budgets.append(floor + rng.uniform(0.05, 0.95) * (float(p_vec @ d.max(axis=1)) - floor))
            calls.clear()
            try:
                rate_two_distortions(RdProblem2(p_vec, q_vec, d1, d2), *budgets)
            except InfeasiblePairError:
                pass
            assert len(calls) <= 3

    def test_raises_exactly_on_unsatisfiable_pairs(self, rng):
        # Against the exact feasibility slack, on every family of second table; draws within
        # 1e-3 of the frontier are skipped.  A satisfiable pair costs at most -ln min Q.
        drawn = {family: [0, 0] for family in SECOND_TABLES}
        for n in range(1000):
            family = list(SECOND_TABLES)[n % len(SECOND_TABLES)]
            k, j = (int(x) for x in rng.integers(2, 6, size=2))
            p_vec, q_vec, d1 = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(j)), rng.random((k, j))
            d2 = SECOND_TABLES[family](rng, d1)
            budgets = []
            for d in (d1, d2):
                floor = float(p_vec @ d.min(axis=1))
                budgets.append(floor + rng.uniform(0.0, 1.2) * (float(p_vec @ (d @ q_vec)) - floor))
            slack = feasibility_slack(p_vec, d1, d2, *budgets)
            if abs(slack) <= 1e-3:
                continue
            problem = RdProblem2(p_vec, q_vec, d1, d2)
            drawn[family][slack < 0.0] += 1
            if slack < 0.0:
                with pytest.raises(InfeasiblePairError):
                    rate_two_distortions(problem, *budgets)
            else:
                assert rate_two_distortions(problem, *budgets)[0] <= -math.log(q_vec.min())
        # every family contributes satisfiable pairs, and the complement and random ones unsatisfiable
        assert all(feasible >= 10 for feasible, _ in drawn.values())
        assert drawn["complement"][1] >= 100 and drawn["random"][1] >= 20

    def test_stiff_independent_pair_is_never_called_unsatisfiable(self):
        # A frontier pair at forces (-38, -143): the tilted law sits on two letters per row, where
        # any two tables look affinely dependent, and neither face holds the other budget.  The
        # tables themselves are independent, so that proves nothing about the pair: it is
        # satisfiable, and the ascent must answer its rate or fail as numerical (exit 2).
        rng = np.random.default_rng(16)
        k, j = (int(x) for x in rng.integers(2, 5, size=2))
        problem = RdProblem2(rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(j)), rng.random((k, j)),
                             rng.random((k, j)))
        s = -(10.0 ** rng.uniform(1.0, 2.5, size=2))
        value, grad, _ = _stats(problem, s, 0.0, 0.0)
        try:
            rate = rate_two_distortions(problem, -grad[0], -grad[1])[0]
        except NumericalError:
            return
        assert rate == pytest.approx(float(s @ -grad) + value, rel=1e-8)


def restricted_solve(p, q, d1, d2, delta2):
    """_legendre on d2 restricted to each row's letters where d1 is 0, its floor in these draws."""
    log_w = np.where(np.asarray(d1) == 0.0, np.log(q), -math.inf)
    return _legendre(_at_origin(np.asarray(p), log_w, np.asarray(d2, dtype=float)), delta2, 1e-10, nonpositive=True)


def tied_tables(rng, k, m):
    """Laws and a pair of tables whose first two columns are cheapest in d1, all at 0."""
    p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(m))
    d1 = rng.integers(0, 2, (k, m)).astype(float)
    d1[:, :2] = 0.0
    return p, q, d1, rng.random((k, m))


def stiff_draws():
    """ROADMAP item 4's stiff recipe, draw by draw: (draw, problem, forces, budgets, truth).  The budgets
    are the tilted means at forces -10^U(1, 2.5), and the truth is the dual value there, a lower bound
    on the rate."""
    rng = np.random.default_rng(2024)
    for draw in itertools.count():
        k, m = (int(x) for x in rng.integers(2, 5, size=2))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(m))
        problem = RdProblem2(p, q, rng.random((k, m)), rng.random((k, m)))
        s = -(10.0 ** rng.uniform(1.0, 2.5, size=2))
        value, grad, _ = _stats(problem, s, 0.0, 0.0)
        yield draw, problem, s, -grad, float(s @ -grad) + value


def is_low(rate, truth, rel=1e-8) -> bool:
    return rate < truth - rel * max(1.0, abs(truth))


def inside_restricted(rng, p, q, d1, d2) -> float:
    """A budget on d2 drawn inside its table restricted to d1's floor letters: [floor, D(0)]."""
    live = np.where(d1 == 0.0, q, 0.0)
    floor = float(p @ np.where(d1 == 0.0, d2, math.inf).min(axis=1))
    at_zero = float(p @ ((live * d2).sum(axis=1) / live.sum(axis=1)))
    return floor + rng.uniform() * (at_zero - floor)


class TestFloorPairs:
    """A budget on its table's floor holds that table rigid (force -inf) on each row's cheapest
    letters, and the other table settles there alone: the one-table solve on those letters."""

    def test_two_budget_config_at_the_first_floor(self):
        # configs/two_budget.cfg at delta1 = 0, as `rd point --delta=0` answers ln 2 on its first table
        assert rate_two_distortions(bss2([[0.0, 2.0], [1.0, 0.0]]), 0.0, 0.4) == (math.log(2.0), -math.inf, 0.0)

    def test_a_far_floor_is_found(self):
        # both tables far from 0 at their own scale: the end band is relative to the floor
        problem = RdProblem2([0.6, 0.4], [0.5, 0.5], np.array(D_HAMMING) + 1e6, [[0.0, 2.0], [1.0, 0.5]])
        assert rate_two_distortions(problem, 1e6, 10.0) == (math.log(2.0), -math.inf, 0.0)

    def test_both_floors_cost_the_letters_cheapest_in_both(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k, m = int(rng.integers(2, 6)), int(rng.integers(3, 6))
            p, q, d1, d2 = tied_tables(rng, k, m)
            if (d1 == 0.0).all():  # a constant table is slack at zero force, not held on a floor
                continue
            d2[:, 0] = 0.0  # column 0 is cheapest in both; column 1 in d1 alone
            shared = (d1 == 0.0) & (d2 == 0.0)
            want = -float(p @ np.log(np.where(shared, q, 0.0).sum(axis=1)))
            rate, s1, s2 = rate_two_distortions(RdProblem2(p, q, d1, d2), 0.0, 0.0)
            assert (s1, s2) == (-math.inf, -math.inf)
            assert rate == pytest.approx(want, rel=1e-14)

    def test_both_floors_without_a_shared_letter_are_unsatisfiable(self):
        # row 0 is cheapest at letter 0 in d1 and at letter 1 in d2
        with pytest.raises(InfeasiblePairError, match="jointly unsatisfiable"):
            rate_two_distortions(bss2([[1.0, 0.0], [0.5, 0.0]]), 0.0, 0.25)

    def test_other_budget_below_the_restricted_floor_is_unsatisfiable(self):
        # on d1's floor letters the complement table costs 1 in every row
        with pytest.raises(InfeasiblePairError, match="jointly unsatisfiable"):
            rate_two_distortions(bss2([[1.0, 0.0], [0.0, 1.0]]), 0.0, 0.5)
        with pytest.raises(InfeasiblePairError, match="jointly unsatisfiable"):
            rate_two_distortions(bss2([[1.0, 0.0], [0.0, 1.0]]), 0.5, 0.0)

    def test_infinite_other_budget_costs_the_cheapest_letters(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            k, m = int(rng.integers(2, 6)), int(rng.integers(3, 6))
            p, q, d1, d2 = tied_tables(rng, k, m)
            if (d1 == 0.0).all():  # a constant table is slack at zero force, not held on a floor
                continue
            want = -float(p @ np.log(np.where(d1 == 0.0, q, 0.0).sum(axis=1)))
            rate, s1, s2 = rate_two_distortions(RdProblem2(p, q, d1, d2), 0.0, math.inf)
            assert (s1, s2) == (-math.inf, 0.0)
            assert rate == pytest.approx(want, rel=1e-14)
            # and with the tables swapped, the floor is the second budget's
            assert rate_two_distortions(RdProblem2(p, q, d2, d1), math.inf, 0.0) == (rate, 0.0, -math.inf)

    @pytest.mark.parametrize("delta2", [0.1, 0.25, 0.45, 0.9])
    def test_a_constant_table_at_its_own_value_leaves_the_other(self, delta2):
        d2 = [[0.0, 2.0], [1.0, 0.0]]
        problem = RdProblem2([0.5, 0.5], [0.5, 0.5], [[1.0, 1.0], [2.0, 2.0]], d2)
        rate = rate_two_distortions(problem, 1.5, delta2)[0]
        assert rate == pytest.approx(rate_legendre(RdProblem([0.5, 0.5], [0.5, 0.5], d2), delta2), rel=1e-12)

    def test_floor_pairs_keep_relabelling(self):
        rng = np.random.default_rng(6)
        for seed in range(40):
            k, m = int(rng.integers(2, 6)), int(rng.integers(3, 6))
            p, q, d1, d2 = tied_tables(rng, k, m)
            delta2 = inside_restricted(rng, p, q, d1, d2)
            rate = rate_two_distortions(RdProblem2(p, q, d1, d2), 0.0, delta2)[0]
            relabelled = RdProblem2(*permuted(seed, p, q, d1, d2))
            assert rate_two_distortions(relabelled, 0.0, delta2)[0] == pytest.approx(rate, rel=REL)

    def test_stiff_pairs_next_to_a_floor_are_answered(self):
        # ROADMAP item 4's stiff recipe: the budgets are the tilted means at forces -10^U(1, 2.5).
        # In the listed draws one budget rounds into its floor's band, and the other sits up to
        # 9e-13 of its table's span below the floor of the table restricted to the floor letters,
        # one letter a row with no span of its own: draw 18 is at forces (-104.6, -26.3).  Every
        # pair is feasible, so none may be called unsatisfiable, and a floor answer must be the
        # dual value at the drawn forces.  No answer may sit more than 1e-8 below that value but
        # draw 245's, which the face loop returns 1.9e-8 low, and none more than criterion 9's 1e-7.
        on_floor, low, stalled = [], [], set()
        for draw, problem, s, budgets, truth in itertools.islice(stiff_draws(), 600):
            try:
                rate, s1, s2 = rate_two_distortions(problem, *budgets)
            except NumericalError:  # the ascent's own stalls on this recipe stay with item 4
                stalled.add(draw)
                continue
            if -math.inf in (s1, s2):
                on_floor.append(draw)
                assert rate == pytest.approx(truth, rel=1e-10)
            if is_low(rate, truth):
                low.append(draw)
                assert not is_low(rate, truth, rel=1e-7)
        assert {18, 49, 160, 259, 269, 289, 322, 327, 537, 582} <= set(on_floor)
        assert low <= [245]
        assert stalled <= {42, 47, 103, 277, 485, 578}

    def test_every_tied_floor_pair_is_the_restricted_solve(self):
        # d1 is 0 on at least two letters of each row, so delta1 = 0 sits on its floor; delta2 is
        # drawn inside the restricted table's [floor, D(0)].  Each pair once raised InfeasiblePairError.
        rng = np.random.default_rng(8)
        for _ in range(400):
            k, m = int(rng.integers(2, 5)), int(rng.integers(3, 6))
            p, q, d1, d2 = tied_tables(rng, k, m)
            delta2 = inside_restricted(rng, p, q, d1, d2)
            force, rate, _ = restricted_solve(p, q, d1, d2, delta2)
            answer = rate_two_distortions(RdProblem2(p, q, d1, d2), 0.0, delta2)
            if (d1 == 0.0).all():  # a constant first table has no floor letters apart: the ascent answers
                assert answer[0] == pytest.approx(rate, rel=1e-9)
            else:
                assert answer == (rate, -math.inf, force)


class TestDualityGap:
    """rd2 returns a rate only once its duality gap |s . (delta - m(s))| backs it: a projected
    gradient below tol says nothing about the rate at forces of 1e10, where the gap is the force
    times the residual."""

    def test_a_tiny_residual_at_a_huge_force_is_not_an_answer(self):
        # stiff draw 398 once stopped at forces (-3.65e9, -1.47e10) with a residual of 2.8e-11 of
        # the span, a gap of 0.199 nats, and returned 1.2021 against a truth of at least 1.4414
        _, problem, _, budgets, truth = next(itertools.islice(stiff_draws(), 398, None))
        assert truth > 1.4414
        assert not is_low(rate_two_distortions(problem, *budgets)[0], truth)

    def test_frontier_pairs_are_not_low(self):
        # ROADMAP item 11's frontier recipe: the budgets are the means of the law held on each row's
        # argmin of a*d1 + (1 - a)*d2, so the rate is -sum P ln Q(argmin letters).  102 of the 300
        # once came back low, by up to 3.6e-6; draw 108 stalls (k = 2, m = 4), an exit 2
        rng = np.random.default_rng(11)
        stalled = set()
        for draw in range(300):
            k, m = (int(x) for x in rng.integers(2, 5, size=2))
            p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(m))
            d1, d2 = rng.random((k, m)), rng.random((k, m))
            a = rng.uniform(0.1, 0.9)
            mix = a * d1 + (1.0 - a) * d2
            law = np.where(mix == mix.min(axis=1, keepdims=True), q, 0.0)
            mass = law.sum(axis=1)
            law /= mass[:, None]
            budgets = float(p @ (law * d1).sum(axis=1)), float(p @ (law * d2).sum(axis=1))
            try:
                rate = rate_two_distortions(RdProblem2(p, q, d1, d2), *budgets)[0]
            except NumericalError:
                stalled.add(draw)
                continue
            assert not is_low(rate, -float(p @ np.log(mass))), draw
        assert stalled <= {108}

    def test_the_benchmark_pair_that_read_low(self):
        # perfbench's solve deck at seed 409, operation 97: the budgets are the tilted means at
        # forces (-1.1949063278772187, -1.2550822369425145), where its numpy reference rate is
        # 0.015165895409468666.  The ascent once returned 0.015165890825668882 at forces (-3.9, 0)
        problem = RdProblem2(
            [0.012663621074042267, 0.9873363789259578], [0.03544415266159113, 0.9645558473384088],
            [[0.6156307498154947, 0.27970746756461773], [0.38032047282918247, 0.5717638054662878]],
            [[0.973636106183479, 0.24128804029884077], [0.22561004329760204, 0.6390322056921581]])
        rate, s1, s2 = rate_two_distortions(problem, 0.5544935929143415, 0.6046880224686847)
        assert rate == pytest.approx(0.015165895409468666, rel=1e-9)
        assert (s1, s2) == pytest.approx((-1.1949063278772187, -1.2550822369425145), rel=1e-6)
