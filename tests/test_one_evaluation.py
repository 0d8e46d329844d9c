"""Every solve evaluates each force once, and full-table quantities are taken in the kernel's row blocks.

Kernel calls are counted by wrapping ``tilting._Table.grid``, the one
entry of the moments, and record the kernel's forces: each force times its
table's unit (``tilting._Table.force``).  The row-blocked results are checked
bit for bit against in-test full-table references, taken at origin and in
units as the kernel takes them.
"""

import math

import numpy as np
import pytest

from tiltrate import (
    Channel,
    ChainSystem,
    ElementArray,
    FiniteDistribution,
    RdProblem,
    RdProblem2,
    capacity_point,
    distortion_at_force,
    entropy_at_energy,
    equal_force_allocation,
    equilibrium_force,
    expected_length,
    force_at_distortion,
    force_at_level,
    from_rd_problem,
    observable_expectation,
    observable_sweep,
    protocol_work_bounds,
    quasistatic_work,
    rate_legendre,
    rate_mmse_integral,
    rate_work_integral,
    rd_curve,
    riemann_sandwich,
    sandwich_bounds,
)
from tiltrate import chain, ratedistortion, tilting
from tiltrate.errors import LengthInfeasibleError, LevelInfeasibleError
from tiltrate.ratedistortion import distortion_mmse_integral
from tiltrate.solvers import adaptive_simpson
from tiltrate.tilting import _BLOCK_ENTRIES, _floored, _legendre

from conftest import (
    feasible_delta,
    full_table_observable,
    kernel_calls,
    letters_in_units,
    letters_mmse,
    random_problem,
    raw_table,
    rd2_stats,
    recursive_simpson,
)
from test_delta_dists import KINDS, law, table as kind_table


class Calls(list):
    """Every force the kernel is evaluated at, in call order, with the moment order asked there."""

    def __init__(self):
        super().__init__()
        self.orders = []

    def clear(self):
        super().clear()
        self.orders.clear()


@pytest.fixture
def forces(monkeypatch):
    """Every force the kernel is evaluated at, in call order (``Calls``)."""
    seen = Calls()
    grid = tilting._Table.grid

    def counted(table, s, order=2):
        seen.append(s)
        seen.orders.append(order)
        return grid(table, s, order)

    monkeypatch.setattr(tilting._Table, "grid", counted)
    return seen


def problems():
    rng = np.random.default_rng(7)
    return [RdProblem([0.7, 0.3], [0.5, 0.5], [[0.0, 1.0], [2.0, 0.0]])] + [random_problem(rng) for _ in range(6)]


def interior(problem):
    return feasible_delta(np.random.default_rng(11), problem)


class TestEachForceOnce:
    @pytest.mark.parametrize("solve", [force_at_distortion, rate_legendre, equal_force_allocation])
    def test_zero_force_once_per_rd_solve(self, forces, solve):
        for problem in problems():
            for delta in (interior(problem), distortion_at_force(problem, 0.0).distortion, 1e9):
                forces.clear()
                solve(problem, delta)
                assert forces.count(0.0) == 1

    @pytest.mark.parametrize("p, level", [(0.3, 0.1), (0.5, 0.9), (0.9, 0.5), (0.2, 2.5)])
    def test_the_force_after_zero_is_the_newton_point(self, forces, p, level):
        # On one row of two values the logit is linear in s, so the Newton point from 0 is the
        # root.  The solve evaluates it next, and then at most the rate's closing step; no
        # probe at twice that step is evaluated and then dropped.  The row spans 3, its unit, so
        # the kernel's force is 3 times the root.
        point = force_at_level(FiniteDistribution([0.0, 3.0], [1.0 - p, p]), level)
        root = (math.log(level / (3.0 - level)) - math.log(p / (1.0 - p))) / 3.0
        assert forces[:2] == [0.0, pytest.approx(3.0 * root, rel=1e-14)]
        assert len(forces) <= 3
        assert point.force == pytest.approx(root, rel=1e-14)

    def test_allocation_adds_no_evaluation(self, forces):
        for problem in problems():
            delta = interior(problem)
            # the kernel's force at the point: its force in the table's units
            kernel_s = _legendre(ratedistortion._table(problem), delta, 1e-10, nonpositive=True)[0]
            forces.clear()
            point = force_at_distortion(problem, delta)
            solve_calls = list(forces)
            forces.clear()
            _, rate = equal_force_allocation(problem, delta)
            assert forces == solve_calls
            assert forces.count(kernel_s) == 1
            assert rate == pytest.approx(point.rate, rel=1e-12)

    def test_one_kernel_call_per_capacity_point(self, monkeypatch):
        # the rate's maximum sits at force -1 on every channel: one order-1 call there, no solve, and
        # the budget H(X | Xhat) is that call's row-weighted tilted mean, moved back from origin
        seen, grid = [], tilting._Table.grid

        def counted(table, s, order=2):
            seen.append((table, s, order, grid(table, s, order)))
            return seen[-1][3]

        def refused(*args, **kwargs):
            raise AssertionError("capacity_point ran a root solve")

        monkeypatch.setattr(tilting._Table, "grid", counted)
        monkeypatch.setattr(tilting, "invert_monotone", refused)
        rng = np.random.default_rng(3)
        channels = [Channel([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5])]
        channels += [Channel(rng.dirichlet(np.ones(4), size=3), rng.dirichlet(np.ones(3))) for _ in range(5)]
        for channel in channels:
            seen.clear()
            table_calls = kernel_calls("table")
            point = capacity_point(channel)
            assert table_calls() == 1 and len(seen) == 1
            table, s, order, (_, means) = seen[0]
            assert s == table.force(-1.0) != 0.0 and order == 1
            assert point.s_star == -1.0
            assert point.delta == float(np.dot(table.row_weights, table.means_from_origin(means)))

    def test_equilibrium_takes_no_rate(self, forces):
        # the chain reads only the force: its solve skips the kernel call that the rate takes at s
        rng = np.random.default_rng(5)
        systems = [from_rd_problem(RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]), 2.0)]
        systems += [from_rd_problem(random_problem(rng), float(rng.uniform(0.5, 2.0))) for _ in range(5)]
        for system in systems:
            table = chain._table(system)
            lo, hi = (float(np.dot(table.row_weights, end)) for end in (table.starts, table.starts + table.ranges))
            for target in (lo + u * (hi - lo) for u in (0.1, 0.3, 0.93)):
                forces.clear()
                equilibrium_force(system, target)
                solve = list(forces)
                forces.clear()
                s = _legendre(table, target, 1e-10)[0]
                assert solve.count(0.0) == 1 and len(set(solve)) == len(solve)
                assert forces == solve + ([] if s in solve else [s])

    def test_zero_force_first_on_every_branch(self, forces):
        # the two-sided solves too, and before the ends are checked: at an end, or past one, force 0
        # is the one force evaluated
        dist = FiniteDistribution([0.0, 0.4, 1.0, 1.7], [0.1, 0.2, 0.3, 0.4])
        system = from_rd_problem(problems()[0], 1.3)
        table = chain._table(system)
        lo, hi = (float(np.dot(table.row_weights, end)) for end in (table.starts, table.starts + table.ranges))
        solves = [(force_at_level, dist, level) for level in (0.2, 1.5, 0.0, 1.7, 2.0)]
        solves += [(equilibrium_force, system, lo + u * (hi - lo)) for u in (0.2, 0.9, 0.0, 1.0, 1.5)]
        for solve, subject, level in solves:
            forces.clear()
            try:
                solve(subject, level)
            except (LengthInfeasibleError, LevelInfeasibleError):
                assert forces == [0.0]
            assert forces[0] == 0.0 and forces.count(0.0) == 1

    def test_zero_force_once_per_entropy(self, forces):
        spectrum = FiniteDistribution([0.0, 0.4, 1.0, 1.7], [0.1, 0.2, 0.3, 0.4])
        for energy in (0.3, 0.9, spectrum.mean, 1.6):
            forces.clear()
            entropy_at_energy(spectrum, energy)
            assert forces.count(0.0) == 1


@pytest.fixture
def batched_forces(monkeypatch):
    """Every force the kernel front ``_tilted`` is called at, one entry per force of a batched
    call (its blocks go to the body, not back through the front)."""
    seen = []
    front = tilting._tilted

    def counted(body, log_weights, tables, s, *args):
        seen.extend(np.ravel(s).tolist())
        return front(body, log_weights, tables, s, *args)

    monkeypatch.setattr(tilting, "_tilted", counted)
    return seen


class TestQuadratureZeroForce:
    """The quadrature routes that add an integral to the value at force 0 read that value off the
    rule's root level, which ends at force 0, so the kernel sees force 0 once per call."""

    @pytest.mark.parametrize("s", [-1.3, 0.7, 0.0])
    def test_distortion_mmse_integral(self, batched_forces, s):
        for problem in problems():
            batched_forces.clear()
            distortion_mmse_integral(problem, s)
            assert batched_forces.count(0.0) == 1

    @pytest.mark.parametrize("s", [-1.3, 0.7, 0.0])
    def test_observable_sweep(self, batched_forces, s):
        for problem in problems():
            t = np.arange(problem.distortion.size, dtype=float).reshape(problem.distortion.shape) % 3.0
            batched_forces.clear()
            observable_sweep(problem, t, s)
            assert batched_forces.count(0.0) == 1


class TestWorkIntegralEveryNode:
    """The work routes integrate u times a slope and, like every quadrature, take it at every node,
    u = +-0 included: each answer is the every-node rule's bit for bit (``tilting._work_integral``)."""

    @staticmethod
    def routes():
        problem = problems()[1]
        system = from_rd_problem(problem, beta=1.7)
        table, dist = chain._table(system), problem.delta_dists[0]
        beta, lowered = system.beta, ratedistortion._table(problem)
        letters = letters_in_units(problem, lowered)

        def every_node(integrand, s):
            return _floored(adaptive_simpson(integrand, 0.0, s, 1e-9))

        return [  # (route, its answer with the integrand called at every node, its force's unit)
            (lambda s: rate_work_integral(dist, s),
             lambda s: every_node(lambda u: u * dist._table.averaged(u, 2), dist._table.force(s)),
             dist._table.unit),
            # the rate's work integral at the kernel's force beta * lam, over beta
            (lambda s: quasistatic_work(system, s),
             lambda s: every_node(lambda us: us * table.averaged(us, 2), table.force(beta * s)) / beta,
             table.unit * beta),
            (lambda s: rate_mmse_integral(problem, s),
             lambda s: every_node(lambda us: np.array([u * letters_mmse(letters, problem.source_probs, u)
                                                       for u in us.tolist()]), lowered.force(s)),
             lowered.unit),
        ]

    @pytest.mark.parametrize("route", range(3))
    @pytest.mark.parametrize("s", [-1.3, 0.7, -5e-324])
    def test_every_node_bits(self, route, s):
        # at a kernel force of -5e-324 the nodes round to +-0 except s itself, from the root level on
        answer, every_node, unit = self.routes()[route]
        if s == -5e-324:
            s /= unit
        assert answer(s) == every_node(s)

    def test_rate_mmse_integral_on_bss(self, bss):
        # the rate keeps the bits of the every-node rule on the letters it tilts, in the table's units
        s = math.log(1.0 / 3.0)
        table = ratedistortion._table(bss)
        letters, p = letters_in_units(bss, table), bss.source_probs
        every_node = lambda us: np.array([u * letters_mmse(letters, p, u) for u in us.tolist()])  # noqa: E731
        assert rate_mmse_integral(bss, s) == adaptive_simpson(every_node, 0.0, table.force(s), 1e-9)


class TestMomentOrder:
    """Routes that read only log-partitions and means ask the kernel to stop after the mean."""

    @staticmethod
    def cases():
        problem = RdProblem([0.7, 0.3], [0.5, 0.5], [[0.0, 1.0], [2.0, 0.0]])
        system = from_rd_problem(problem, 1.3)
        grid = np.linspace(0.0, -2.0, 9)
        dist = FiniteDistribution([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
        mean_only = [
            lambda: sandwich_bounds(problem, grid),
            lambda: riemann_sandwich(dist, grid),
            lambda: protocol_work_bounds(system, grid),
            lambda: expected_length(system, -0.4),
            lambda: chain.array_lengths(system, -0.4),
            lambda: chain.gibbs_free_energy(system, -0.4),
        ]
        with_variance = [
            lambda: rd_curve(problem, grid),
            lambda: distortion_at_force(problem, -0.4),
            lambda: chain.length_variance(system, -0.4),
            lambda: quasistatic_work(system, -0.4),
        ]
        return mean_only, with_variance

    def test_mean_only_routes_ask_for_order_one(self, forces):
        for route in self.cases()[0]:
            forces.clear()
            route()
            assert forces.orders and set(forces.orders) == {1}

    def test_routes_that_read_variances_ask_for_order_two(self, forces):
        for route in self.cases()[1]:
            forces.clear()
            route()
            assert forces.orders and set(forces.orders) == {2}


def full_table_stats(problem, s, delta1, delta2):
    """The two-force objective, gradient and covariance from whole-table temporaries."""
    d1, d2 = problem.distortion_1, problem.distortion_2
    p = problem.source_probs
    cond, phi = raw_table(np.log(problem.coding_probs)[None, :], s[0] * d1 + s[1] * d2).law(1.0)
    m1 = np.einsum("ij,ij->i", cond, d1)
    m2 = np.einsum("ij,ij->i", cond, d2)
    c1 = d1 - m1[:, None]
    c2 = d2 - m2[:, None]
    cov11 = float(np.dot(p, np.einsum("ij,ij,ij->i", cond, c1, c1)))
    cov22 = float(np.dot(p, np.einsum("ij,ij,ij->i", cond, c2, c2)))
    cov12 = float(np.dot(p, np.einsum("ij,ij,ij->i", cond, c1, c2)))
    value = s[0] * delta1 + s[1] * delta2 - float(np.dot(p, phi))
    grad = np.array([delta1 - float(np.dot(p, m1)), delta2 - float(np.dot(p, m2))])
    return value, grad, np.array([[cov11, cov12], [cov12, cov22]])


ROWS_PER_BLOCK = _BLOCK_ENTRIES // 512  # rows of 512 entries in one block of the kernel
# small tables, and row counts of 512 columns that straddle a row block
SHAPES = [(2, 2), (64, 64)] + [(ROWS_PER_BLOCK + n, 512) for n in (-1, 0, 1)]


class TestBlockedTwoForceStats:
    @pytest.mark.parametrize("rows, cols", [(2, 2), (64, 64), (512, 512)] + [
        (ROWS_PER_BLOCK + n, 512) for n in (-1, 0, 1)])
    def test_equals_full_table_reference(self, rows, cols):
        rng = np.random.default_rng(rows * 1000 + cols)
        problem = RdProblem2(rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(cols)),
                             rng.random((rows, cols)), 3.0 * rng.random((rows, cols)) - 1.0)
        for s in (np.zeros(2), np.array([-1.3, -0.7]), np.array([-40.0, 0.0])):
            value, grad, cov = rd2_stats(problem, s, 0.3, 0.4)
            want = full_table_stats(problem, s, 0.3, 0.4)
            assert value == want[0]
            assert np.array_equal(grad, want[1])
            assert np.array_equal(cov, want[2])


class TestBlockedObservable:
    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_equals_full_table_reference(self, rows, cols):
        rng = np.random.default_rng(rows * 1000 + cols + 1)
        problem = RdProblem(rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(cols)), rng.random((rows, cols)))
        t = 3.0 * rng.random((rows, cols)) - 1.0
        table = ratedistortion._table(problem)
        for s in (0.0, -1.3, -40.0):
            assert observable_expectation(problem, t, s) == full_table_observable(problem, t, table.force(s))[0]

    def test_reads_one_tilted_law_and_no_pair(self, monkeypatch):
        # the expectation is t averaged against the law tilted_conditional reads: one _Table.law call
        # on the lowered distortion table, and the raw observable never reaches the pair kernel
        calls = []
        for name in ("law", "pair", "grid"):
            method = getattr(tilting._Table, name)
            monkeypatch.setattr(tilting._Table, name,
                                lambda table, *args, name=name, method=method: calls.append(name) or method(table, *args))
        for problem in problems():
            t = np.arange(problem.distortion.size, dtype=float).reshape(problem.distortion.shape) % 3.0
            calls.clear()
            observable_expectation(problem, t, -1.3)
            assert calls == ["law"]


# every kind of table of test_delta_dists (ties, near ties at 0.999 and 1.001 of the merge band,
# constant rows, signed zeros) at scales 1e-12 to 1e12, as drawn and moved by -1e6 times the scale
SCALED = [(kind, scale, shift) for kind in KINDS for scale in (1e-12, 1.0, 1e12) for shift in (0.0, -1e6)]


class TestBatchedQuadrature:
    """``rate_mmse_integral`` hands a whole Simpson level to one ``tilt`` per letter, and answers bit
    for bit as the recursive rule does with the letters' mmse taken once per node.  The other
    quadrature routes' per-node checks are in ``tests/test_force_grids.py``."""

    @staticmethod
    def problem(case):
        """The problem of a uniform table of a shape of ``SHAPES``, or of a kind of table at a scale
        moved by ``shift`` times it (``SCALED``), and the scale."""
        if case in SHAPES:
            rows, cols = case
            rng = np.random.default_rng(rows * 1000 + cols + 2)
            return RdProblem(rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(cols)), rng.random((rows, cols))), 1.0
        kind, scale, shift = case
        rng = np.random.default_rng([KINDS.index(kind), round(math.log10(scale)) + 12])
        d = kind_table(rng, 6, 9, kind, scale) + shift * scale
        return RdProblem(rng.dirichlet(np.ones(6)), law(rng, 9), d), scale

    @pytest.mark.parametrize("case", SHAPES + SCALED, ids=str)
    def test_rate_mmse_integral(self, case):
        # the mmse of the letters derived from delta_dists into the table's units, at the kernel's forces
        problem, scale = self.problem(case)
        table, s = ratedistortion._table(problem), -1.3 / scale
        letters, p = letters_in_units(problem, table), problem.source_probs
        want = recursive_simpson(lambda u: u * letters_mmse(letters, p, u), 0.0, table.force(s), 1e-9)
        assert rate_mmse_integral(problem, s) == want


def per_array_equilibrium(system, target, tol=1e-10):
    """The equilibrium force with its range summed one array at a time."""
    lo = sum(a.fraction * float(a.state_lengths.min()) for a in system.arrays)
    hi = sum(a.fraction * float(a.state_lengths.max()) for a in system.arrays)
    table = chain._table(system)
    s = _legendre(table, target, tol, force_only=True)[0]
    return lo, hi, table.force_from_unit(s) / system.beta


class TestEquilibriumRange:
    @pytest.mark.parametrize("arrays", [3, 70, 600])
    def test_ragged_arrays_match_the_per_array_reference(self, arrays):
        rng = np.random.default_rng(arrays)
        sizes = rng.integers(1, 9, size=arrays)
        fractions = rng.dirichlet(np.ones(arrays))
        system = ChainSystem(
            arrays=tuple(ElementArray(rng.normal(size=n) * 3.0, rng.random(n), f) for n, f in zip(sizes, fractions)),
            beta=1.7,
        )
        lo, hi, _ = per_array_equilibrium(system, 0.0)
        for u in (0.1, 0.5, 0.93):
            target = lo + u * (hi - lo)
            assert equilibrium_force(system, target) == per_array_equilibrium(system, target)[2]
        for end in (lo, hi):
            with pytest.raises(LengthInfeasibleError) as raised:
                equilibrium_force(system, end)
            assert f"({lo!r}, {hi!r})" in str(raised.value)
        assert math.isfinite(lo) and math.isfinite(hi)

    def test_a_length_within_the_end_band_is_that_end(self):
        # within 1e-12 of the span (plus a few ulps of the end) an end is claimed, as by every
        # other solve; its force would be infinite
        system = from_rd_problem(RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]))
        for length in (1e-13, 1.0 - 1e-13, 1e-12):
            with pytest.raises(LengthInfeasibleError, match=r"\(0\.0, 1\.0\)"):
                equilibrium_force(system, length)
        assert equilibrium_force(system, 1e-11) == pytest.approx(-25.33, abs=0.01)
