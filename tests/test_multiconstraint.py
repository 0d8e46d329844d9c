import itertools
import math

import numpy as np
import pytest

from tiltrate import RdProblem, RdProblem2, ValidationError, force_at_distortion, rate_legendre, rate_two_distortions
from tiltrate.errors import InfeasiblePairError, NumericalError
from tiltrate import multiconstraint
from tiltrate.tilting import _at_origin, _legendre

from conftest import dispatch_level, h2, kernel_calls, rd2_stats
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

    @pytest.mark.parametrize("budgets, message", [
        ((math.nan, 0.4), "delta1 must be a number, not nan"),
        ((0.4, math.nan), "delta2 must be a number, not nan"),
        ((-math.inf, 0.4), "does not exceed the minimum achievable"),
    ], ids=["nan", "nan_delta2", "-inf"])
    def test_nan_and_minus_inf_budgets_are_refused(self, budgets, message):
        with pytest.raises(InfeasiblePairError, match=message):
            rate_two_distortions(bss2(), *budgets)

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
            _, grad, _ = rd2_stats(problem, sbar, 0.0, 0.0)
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
            value, grad, _ = rd2_stats(problem, sbar, 0.0, 0.0)
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
        # plateau test once returned ~1e13 nats here, or stalled
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
        # Counted on the ascent's one evaluation path, which every off-floor solve takes at zero force.
        calls = []
        evaluate = multiconstraint._evaluate
        monkeypatch.setattr(multiconstraint, "_evaluate", lambda *args: calls.append(1) or evaluate(*args))
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
            assert 1 <= len(calls) <= 3

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
        value, grad, _ = rd2_stats(problem, s, 0.0, 0.0)
        try:
            rate = rate_two_distortions(problem, -grad[0], -grad[1])[0]
        except NumericalError:
            return
        assert rate == pytest.approx(float(s @ -grad) + value, rel=1e-8)


def restricted_solve(p, q, d1, d2, delta2):
    """_legendre on d2 restricted to each row's letters where d1 is 0, its floor in these draws, with
    its force moved out of the table's units."""
    log_w = np.where(np.asarray(d1) == 0.0, np.log(q), -math.inf)
    table = _at_origin(np.asarray(p), log_w, np.asarray(d2, dtype=float))
    force, rate, moments = _legendre(table, delta2, 1e-10, nonpositive=True)
    return table.force_from_unit(force), rate, moments


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
        value, grad, _ = rd2_stats(problem, s, 0.0, 0.0)
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
        # dual value at the drawn forces.  No answer may sit more than 1e-8 below that value: draw
        # 245 once left through the plateau test 2.0e-8 low, with s2 held at 0 while its mean
        # exceeded budget 2.  Draws 42, 47, 103, 277 and 485 once stalled; a face point that beats
        # the iterate is now the next iterate, and only 578 still stalls.
        on_floor, low, stalled = [], [], set()
        for draw, problem, s, budgets, truth in itertools.islice(stiff_draws(), 600):
            try:
                rate, s1, s2 = rate_two_distortions(problem, *budgets)
            except NumericalError:  # the ascent's own stall on this recipe stays with ROADMAP item 4
                stalled.add(draw)
                continue
            if -math.inf in (s1, s2):
                on_floor.append(draw)
                assert rate == pytest.approx(truth, rel=1e-10)
            if is_low(rate, truth):
                low.append(draw)
                assert not is_low(rate, truth, rel=1e-7)
        assert {18, 49, 160, 259, 269, 289, 322, 327, 537, 582} <= set(on_floor)
        assert low == []
        assert stalled <= {578}

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


def frontier_draws():
    """ROADMAP item 11's frontier recipe, draw by draw: (draw, problem, budgets, truth).  The budgets are
    the means of the law held on each row's argmin of a*d1 + (1 - a)*d2, so the rate, the truth, is
    -sum P ln Q(argmin letters)."""
    rng = np.random.default_rng(11)
    for draw in itertools.count():
        k, m = (int(x) for x in rng.integers(2, 5, size=2))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(m))
        d1, d2 = rng.random((k, m)), rng.random((k, m))
        a = rng.uniform(0.1, 0.9)
        mix = a * d1 + (1.0 - a) * d2
        law = np.where(mix == mix.min(axis=1, keepdims=True), q, 0.0)
        mass = law.sum(axis=1)
        law /= mass[:, None]
        budgets = float(p @ (law * d1).sum(axis=1)), float(p @ (law * d2).sum(axis=1))
        yield draw, RdProblem2(p, q, d1, d2), budgets, -float(p @ np.log(mass))


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
        stalled = set()
        for draw, problem, budgets, truth in itertools.islice(frontier_draws(), 300):
            try:
                rate = rate_two_distortions(problem, *budgets)[0]
            except NumericalError:
                stalled.add(draw)
                continue
            assert not is_low(rate, truth), draw
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


def unsatisfiable_draws():
    """Jointly unsatisfiable pairs, draw by draw: (draw, problem, budgets).  k = m = 2, Dirichlet laws,
    tables U(0, 1), and each budget its table's floor plus U(0, 0.1) of the way to D(0); only the draws
    whose exact feasibility slack is negative are kept, and they are numbered in that order."""
    rng = np.random.default_rng(9)
    draw = 0
    while True:
        p, q = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
        d1, d2 = rng.random((2, 2)), rng.random((2, 2))
        budgets = []
        for d in (d1, d2):
            floor = float(p @ d.min(axis=1))
            budgets.append(floor + rng.uniform(0.0, 0.1) * (float(p @ (d @ q)) - floor))
        if feasibility_slack(p, d1, d2, *budgets) < 0.0:
            yield draw, RdProblem2(p, q, d1, d2), tuple(budgets)
            draw += 1


# Draws 2345, 2359 and 2504 of default_rng(5): k, m in [2, 6], Dirichlet laws, tables U(0, 1), and for d1
# then d2 a budget floor + U(0, 1.2) * (D(0) - floor), as (p, q, d1, d2, budgets).  Each once stalled.
STALLED_UNSATISFIABLE = {
    2345: ([0.43698552835075394, 0.2275775552281016, 0.33543691642114454],
           [0.552940600532198, 0.05188223118639558, 0.020647828093466502, 0.37452934018794004],
           [[0.22869525332592588, 0.41008821382989713, 0.892953127382598, 0.8420750713573266],
            [0.09103000877107692, 0.8442020494003324, 0.12755929362827456, 0.7698742281164265],
            [0.15533260397685078, 0.5573774985756546, 0.08215288425650324, 0.7734319306749758]],
           [[0.3164486665998084, 0.7951172887592926, 0.11427123196966282, 0.677376652784833],
            [0.1224911786828018, 0.2275069042955754, 0.3615475592848094, 0.2705853021500715],
            [0.4254923772677629, 0.8228506088598002, 0.7104582393506378, 0.372887685039348]],
           (0.15606512178499854, 0.3580333963965955)),
    2359: ([0.6728196618375905, 0.2803526425906829, 0.046827695571726585], [0.06302777750457406, 0.936972222495426],
           [[0.8678367040223803, 0.4462238691678295], [0.2924311685484908, 0.7793706003502938],
            [0.9157973053920568, 0.34194079487822093]],
           [[0.509232811584711, 0.3494116154935232], [0.9293470261361274, 0.8803247939002048],
            [0.2215531228677684, 0.6474129855399016]],
           (0.4252897392684184, 0.5047898374900347)),
    2504: ([0.03158212756594212, 0.3080076301519065, 0.21589219053258157, 0.2060896884842429, 0.2384283632653269],
           [0.012022774462010558, 0.27164435210800936, 0.71633287342998],
           [[0.5360770097898145, 0.6248550568799783, 0.6227258749929813],
            [0.30529584308644586, 0.8028777014812454, 0.14215846035789315],
            [0.7012231879804669, 0.9720733062449884, 0.48046003262010184],
            [0.22691226790264318, 0.6539668894963513, 0.10394801911352802],
            [0.1939608109840929, 0.48267409221075963, 0.0852446299606926]],
           [[0.5687358752409992, 0.8689419023376488, 0.3358147602176418],
            [0.7764229529454193, 0.11488971015422755, 0.6838161309356482],
            [0.8706196172852716, 0.12867988339584346, 0.23242633844376837],
            [0.8666961604406224, 0.5982426761979819, 0.36187599230782563],
            [0.6582289694865519, 0.23500294937914834, 0.005889701737895714]],
           (0.29623336596196526, 0.2537164717330799)),
}


class TestUnsatisfiablePairs:
    """A pair that no law meets raises InfeasiblePairError by one rule: where the ascent stops without
    an answer, the slack along the direction its forces ran is below the mixed table's end band."""

    def test_unsatisfiable_draws_are_refused(self):
        # 22, 50 and 147 once stalled (exit 2).  147 still does: the ascent stalls at forces (-4.4, -1.2),
        # where the slack along a = s1 / (s1 + s2) = 0.79 is +7e-3; it is negative only near a = 0.001
        stalled = set()
        for draw, problem, budgets in itertools.islice(unsatisfiable_draws(), 200):
            with pytest.raises((InfeasiblePairError, NumericalError)) as error:
                rate_two_distortions(problem, *budgets)
            if error.type is NumericalError:
                stalled.add(draw)
        assert stalled == set()

    @pytest.mark.parametrize("draw", [540, 745])
    def test_family_pairs_that_stalled_are_refused(self, draw):
        _, _, problem, budgets = next(itertools.islice(family_draws(), draw, None))
        assert feasibility_slack(problem.source_probs, problem.distortion_1, problem.distortion_2, *budgets) < 0.0
        with pytest.raises(InfeasiblePairError, match="jointly unsatisfiable"):
            rate_two_distortions(problem, *budgets)

    @pytest.mark.parametrize("draw", sorted(STALLED_UNSATISFIABLE))
    def test_random_pairs_that_stalled_are_refused(self, draw):
        p, q, d1, d2, budgets = (np.array(x) for x in STALLED_UNSATISFIABLE[draw])
        assert feasibility_slack(p, d1, d2, *budgets) < 0.0
        with pytest.raises(InfeasiblePairError, match="jointly unsatisfiable"):
            rate_two_distortions(RdProblem2(p, q, d1, d2), *budgets)


def family_draws():
    """Seeded pairs on every family of second table, draw by draw: (draw, family, problem, budgets).
    Over 25 draws each family meets each scale 1e-12, 1e-6, 1, 1e6 and 1e12 once; each budget sits
    from 2 % above its floor to 20 % past its mean at zero force."""
    rng = np.random.default_rng(28)
    for draw in itertools.count():
        family = list(SECOND_TABLES)[draw % len(SECOND_TABLES)]
        k, m = (int(x) for x in rng.integers(2, 5, size=2))
        p, q, d1 = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(m)), rng.random((k, m))
        d2 = SECOND_TABLES[family](rng, d1)
        scale = 10.0 ** (6 * (draw // 5 % 5) - 12)
        budgets = []
        for d in (d1, d2):
            floor = float(p @ d.min(axis=1))
            budgets.append(scale * (floor + rng.uniform(0.02, 1.2) * (float(p @ (d @ q)) - floor)))
        yield draw, family, RdProblem2(p, q, scale * d1, scale * d2), tuple(budgets)


def pinned_pairs():
    """The pinned deck, name by name: (name, problem, budgets)."""
    drawn = (1, 3, 6, 7, 42, 245, 277, 398, 1095, 2663)
    stiff = {draw: (problem, budgets) for draw, problem, _, budgets, _ in itertools.islice(stiff_draws(), 2664)
             if draw in drawn}
    # 3 takes 22 one-force steps, 7 sits on a floor, 398 is a face answer; 6 and 245 once left the plateau
    # with s2 held at 0 while its mean exceeded budget 2, and 42 and 277 stalled until a face point that
    # beats the iterate became the next iterate; 1095 and 2663 stall under a closed-form 2x2 Newton
    # solve (Cramer's rule), so they pin the LAPACK step; frontier draw 0 sits on a floor and 108 stalls
    for draw in drawn:
        yield f"stiff{draw}", *stiff[draw]
    frontier = {draw: (problem, budgets) for draw, problem, budgets, _ in itertools.islice(frontier_draws(), 109)}
    for draw in (0, 2, 3, 108):
        yield f"frontier{draw}", *frontier[draw]
    for draw, family, problem, budgets in itertools.islice(family_draws(), 25):
        yield f"{family}{draw}", problem, budgets
    two_budget = bss2([[0.0, 2.0], [1.0, 0.0]])
    yield "two_budget", two_budget, (0.3, 0.4)
    yield "two_budget_floor", two_budget, (0.0, 0.4)
    yield "one_free_force", two_budget, (0.4, 0.3)
    yield "below_floor", two_budget, (-0.1, 0.4)
    yield "nan_budget", two_budget, (0.3, math.nan)


# Each pinned pair's kernel calls and answer (rate, s1, s2) as float.hex, or the error class it raises.
# Re-taken when every table went into its span's units at lowering: the ascent keeps its bits, and the
# pairs answered on a face or refused after one (the one-table solve, now in units) moved in their last
# bits; random0 takes 21 calls, noisy4 and scaled12 one fewer, duplicate6 one more.
PINNED = {
    "stiff1": (9, "0x1.c3706dfb88544p+0 -0x1.702223d1d2ee5p+4 -0x1.81f3fc085268cp+3"),
    "stiff3": (22, "0x1.3ccff15ecf60ap+0 -0x1.d8646cdb468f3p+5 0x0.0p+0"),
    "stiff6": (17, "0x1.4b9f3b952adbbp+0 -0x1.c640c7c3c03fbp+7 -0x1.1c1e1f90c5bc1p+4"),
    "stiff7": (5, "0x1.30ae030ae2e8dp-2 -inf 0x0.0p+0"),
    "stiff42": (24, "0x1.8c246ba4ff460p+1 -0x1.56156bd142c14p+3 -0x1.d99ad81e8b6a9p+5"),
    "stiff245": (23, "0x1.1a579899a3c20p+0 -0x1.1e719a54a561ep+7 -0x1.3683878573331p+7"),
    "stiff277": (12, "0x1.4f05a16901b71p+2 -0x1.9f4c555604acbp+1 -0x1.dcaa9e1ba91fep+4"),
    "stiff398": (10, "0x1.71001890d17b1p+0 -0x1.fa6151580dabap+8 0x0.0p+0"),
    # added with the LAPACK step's record: both answer under LAPACK's dgesv and stall under Cramer's rule
    "stiff1095": (47, "0x1.f54cf20f67574p+1 -0x1.cd455afa139f9p+5 -0x1.287a6a9c1f0e5p+5"),
    "stiff2663": (59, "0x1.750137249228cp+0 -0x1.671c3b120e404p+4 -0x1.91cc1b9fb4c4dp+3"),
    "frontier0": (5, "0x1.ecfae96f5106cp-1 -inf 0x0.0p+0"),
    "frontier2": (26, "0x1.af9f81717b520p-1 -0x1.7e9fb63c0b1e5p+7 -0x1.0032060ad817fp+5"),
    "frontier3": (27, "0x1.1c7bb768c4410p-1 -0x1.b1938409fc348p+7 -0x1.26d1791df3d26p+10"),
    "frontier108": (20, "NumericalError"),
    "random0": (21, "InfeasiblePairError"),
    "duplicate1": (8, "0x1.8b9a299ad6839p+0 -0x1.c9f08388e535cp+42 0x0.0p+0"),
    "scaled2": (9, "0x1.9a8be4f383882p+0 -0x1.fa495548c2da9p+42 0x0.0p+0"),
    "complement3": (10, "InfeasiblePairError"),
    "noisy4": (12, "0x1.6cc3fa17a6c40p-4 0x0.0p+0 -0x1.52f08c8d519fcp+41"),
    "random5": (8, "0x1.d7f65bb9df8ddp-1 0x0.0p+0 -0x1.1b21c15ab3a6fp+24"),
    "duplicate6": (15, "0x1.b97ef0e3cd25bp-2 0x0.0p+0 -0x1.e261b92cc697ep+21"),
    "scaled7": (13, "0x1.35382cdd63c4ap-1 0x0.0p+0 -0x1.1858424ddd610p+21"),
    "complement8": (9, "0x1.42224160e6a40p-9 0x0.0p+0 -0x1.69371836b8349p+18"),
    "noisy9": (9, "0x1.2048846674244p+0 -0x1.9fa3668780566p+25 0x0.0p+0"),
    "random10": (7, "0x1.ab6026d70c950p-1 0x0.0p+0 -0x1.f5f5521bce98ap+2"),
    "duplicate11": (13, "0x1.15403277cea38p-3 0x0.0p+0 -0x1.09a6f9373ccbap+1"),
    "scaled12": (6, "0x1.b85dfc67b9c18p-6 -0x1.8a4d0ec7762f4p-1 0x0.0p+0"),
    "complement13": (12, "InfeasiblePairError"),
    # noisy14 and complement18 re-taken when _Table.floor became exact: np.dot put one floor of each 1 ulp off
    "noisy14": (11, "0x1.8f84a110f40eap-2 0x0.0p+0 -0x1.46bf2bd7d7829p+2"),
    "random15": (6, "0x1.8aa5f369bdf94p-3 -0x1.d19e34e64f561p-19 -0x1.595d4ade73076p-22"),
    "duplicate16": (7, "0x1.355d9ad9e5e45p-2 -0x1.f0407f839bcecp-19 0x0.0p+0"),
    "scaled17": (9, "0x1.60f632773c810p-5 -0x1.2a6de84531af5p-18 0x0.0p+0"),
    "complement18": (10, "InfeasiblePairError"),
    "noisy19": (8, "0x1.4c0cd9c1f7ee0p-7 0x0.0p+0 -0x1.d507f50cac40ep-22"),
    "random20": (11, "0x1.ade65c4554df8p-1 -0x1.2bfb56f282f49p-37 0x0.0p+0"),
    "duplicate21": (8, "0x1.68b3ff79577fcp-5 -0x1.9c3f10f8eaf7fp-39 0x0.0p+0"),
    "scaled22": (8, "0x1.192b4b4c51bbep-4 -0x1.a65161c7fa180p-39 0x0.0p+0"),
    "complement23": (13, "InfeasiblePairError"),
    "noisy24": (7, "0x1.a900de9a6df80p-4 -0x1.b3fc138f4fe37p-39 0x0.0p+0"),
    "two_budget": (5, "0x1.a53d9241fec3cp-4 0x0.0p+0 -0x1.3cb1afbb9b806p-1"),
    "two_budget_floor": (3, "0x1.62e42fefa39efp-1 -inf 0x0.0p+0"),
    "one_free_force": (8, "0x1.6927e3c79a44ep-3 0x0.0p+0 -0x1.b915dd7eaf561p-1"),
    "below_floor": (1, "InfeasiblePairError"),
    "nan_budget": (0, "InfeasiblePairError"),
}

# The pairs whose bits differ from PINNED at each SIMD level that numpy 2.4.6 dispatches to on x86-64
# (``conftest.dispatch_level``), taken on one AVX512_SPR host with the levels above disabled by
# NPY_DISABLE_CPU_FEATURES.  Below X86_V4, exp, log and the reductions round a few last bits
# differently: frontier3, stiff2663, complement8 and duplicate21 move by 1 to 32 ulps, and complement18
# takes one kernel call more before it is refused.
BELOW_X86_V4 = {
    "stiff2663": (59, "0x1.750137249228cp+0 -0x1.671c3b120e407p+4 -0x1.91cc1b9fb4c4cp+3"),
    "frontier3": (27, "0x1.1c7bb768c4410p-1 -0x1.b1938409fc345p+7 -0x1.26d1791df3d25p+10"),
    "complement8": (9, "0x1.42224160e6a60p-9 0x0.0p+0 -0x1.69371836b8348p+18"),
    "complement18": (11, "InfeasiblePairError"),
    "duplicate21": (8, "0x1.68b3ff7957800p-5 -0x1.9c3f10f8eaf7ep-39 0x0.0p+0"),
}
PINNED_AT_LEVEL = {
    "AVX512_SPR": {}, "AVX512_ICL": {}, "X86_V4": {}, "X86_V3": BELOW_X86_V4, "baseline": BELOW_X86_V4,
}


class TestPinnedDeck:
    """rd2's answers, bit for bit, and the kernel calls each pair makes, pinned on a seeded deck: stiff
    and frontier pairs, every dependent family at scales 1e-12 to 1e12, one-force faces, floors, a
    face answer, stalls and refusals.  The literals are the numpy ascent's bits under numpy 2.4.6
    and OpenBLAS 0.3.31 on x86-64, one set for each SIMD level numpy dispatches to
    (``PINNED_AT_LEVEL``, the pairs that differ from ``PINNED``), since exp, log and ddot round
    their last bits by the kernel numpy picks.  On a level with no set the test fails and names
    it: the pins are then taken from that ascent on that level, never loosened."""

    def test_every_pair_answers_as_pinned(self):
        level = dispatch_level()
        if level not in PINNED_AT_LEVEL:
            pytest.fail(f"no pins for numpy's SIMD dispatch level {level}: take them on that level")
        got = {}
        for name, problem, budgets in pinned_pairs():
            calls = kernel_calls()
            try:
                answer = " ".join(x.hex() for x in rate_two_distortions(problem, *budgets))
            except (InfeasiblePairError, NumericalError) as error:
                answer = type(error).__name__
            got[name] = (calls(), answer)
        assert got == {**PINNED, **PINNED_AT_LEVEL[level]}
