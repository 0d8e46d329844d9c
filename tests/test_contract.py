"""The input contract: one probability-law check, read-only arrays, finite forces.

Every public function that takes a force refuses a non-finite one with
``ValidationError`` (exit 1 on the command line), and every constructor
stores read-only copies of its arrays.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import tiltrate
from tiltrate import (
    ChainSystem,
    Channel,
    ElementArray,
    FiniteDistribution,
    RdProblem,
    RdProblem2,
    ValidationError,
    blahut_arimoto,
    distortion_at_force,
    expected_length,
    from_rd_problem,
    gibbs_free_energy,
    log_mgf,
    mean_via_integral,
    mmse,
    observable_expectation,
    observable_sweep,
    quasistatic_work,
    rate_at_force,
    rate_mmse_integral,
    rate_work_integral,
    tilt,
    tilted_conditional,
)
from tiltrate.chain import array_lengths, length_variance
from tiltrate.ratedistortion import distortion_mmse_integral

DIST = FiniteDistribution([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
POINT_MASS = FiniteDistribution([2.0], [1.0])
PROBLEM = RdProblem([0.7, 0.3], [0.5, 0.5], [[0.0, 1.0], [2.0, 0.0]])
OBSERVABLE = [[1.0, -2.0], [0.5, 3.0]]
SYSTEM = from_rd_problem(PROBLEM, beta=2.0)

FORCE_TAKERS = {
    "tilt": lambda s: tilt(DIST, s),
    "log_mgf": lambda s: log_mgf(DIST, s),
    "rate_at_force": lambda s: rate_at_force(DIST, s),
    "rate_work_integral": lambda s: rate_work_integral(DIST, s),
    "mean_via_integral": lambda s: mean_via_integral(DIST, s),
    "distortion_at_force": lambda s: distortion_at_force(PROBLEM, s),
    "mmse": lambda s: mmse(PROBLEM, s),
    "rate_mmse_integral": lambda s: rate_mmse_integral(PROBLEM, s),
    "distortion_mmse_integral": lambda s: distortion_mmse_integral(PROBLEM, s),
    "tilted_conditional": lambda s: tilted_conditional(PROBLEM, s),
    "observable_expectation": lambda s: observable_expectation(PROBLEM, OBSERVABLE, s),
    "observable_sweep": lambda s: observable_sweep(PROBLEM, OBSERVABLE, s),
    "gibbs_free_energy": lambda s: gibbs_free_energy(SYSTEM, s),
    "array_lengths": lambda s: array_lengths(SYSTEM, s),
    "expected_length": lambda s: expected_length(SYSTEM, s),
    "length_variance": lambda s: length_variance(SYSTEM, s),
    "quasistatic_work": lambda s: quasistatic_work(SYSTEM, s),
}


class TestNonFiniteForce:
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(FORCE_TAKERS))
    def test_raises_validation_error(self, name, s):
        # quasistatic_work names its own argument, and refuses it before any quadrature
        message = "lam_final must be finite" if name == "quasistatic_work" else "force s must be finite"
        with pytest.raises(ValidationError, match=message):
            FORCE_TAKERS[name](s)

    @pytest.mark.parametrize("route", [rate_work_integral, mean_via_integral])
    @pytest.mark.parametrize("s", [math.nan, -math.inf])
    def test_point_mass_integral_routes_raise_too(self, route, s):
        with pytest.raises(ValidationError, match="force s must be finite"):
            route(POINT_MASS, s)

    @pytest.mark.parametrize("name", sorted(FORCE_TAKERS))
    def test_the_tilted_law_refuses_an_array_of_forces(self, name):
        # every route tilts the law at one force: an array would broadcast into the table's columns,
        # run the kernel as a grid, or reach numpy's own TypeError; quasistatic_work names its argument
        force = "lam_final" if name == "quasistatic_work" else "force s"
        with pytest.raises(ValidationError, match=rf"^{force} must be one number \(got an array of shape \(2,\)\)$"):
            FORCE_TAKERS[name](np.array([-0.5, -1.0]))

    @pytest.mark.parametrize("name", sorted(FORCE_TAKERS))
    def test_a_finite_force_still_answers(self, name):
        FORCE_TAKERS[name](-0.5)


class TestZeroForceReturns:
    """The integral routes answer s = 0 without a quadrature."""

    def test_rate_routes_are_zero(self):
        assert rate_mmse_integral(PROBLEM, 0.0) == 0.0
        assert rate_work_integral(DIST, 0.0) == 0.0

    def test_distortion_route_is_the_zero_force_mean(self):
        assert distortion_mmse_integral(PROBLEM, 0.0) == distortion_at_force(PROBLEM, 0.0).distortion

    def test_mean_route_is_the_mean(self):
        assert mean_via_integral(DIST, 0.0) == DIST.mean

    def test_observable_route_is_the_direct_expectation(self):
        assert observable_sweep(PROBLEM, OBSERVABLE, 0.0) == observable_expectation(PROBLEM, OBSERVABLE, 0.0)


def stored_arrays():
    """(constructor name, caller's writable array, the array the object stored from it)."""
    values, probs = np.array([0.0, 1.0]), np.array([0.5, 0.5])
    dist = FiniteDistribution(values, probs)
    p, q, d1, d2 = np.array([0.5, 0.5]), np.array([0.5, 0.5]), np.eye(2), 1.0 - np.eye(2)
    problem = RdProblem(p, q, d1)
    problem2 = RdProblem2(p, q, d1, d2)
    w, u = np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0.5, 0.5])
    channel = Channel(w, u)
    y, e = np.array([0.0, 1.0]), np.array([0.0, 0.5])
    element = ElementArray(y, e, 1.0)
    return [
        ("FiniteDistribution.values", values, dist.values),
        ("FiniteDistribution.probs", probs, dist.probs),
        ("RdProblem.source_probs", p, problem.source_probs),
        ("RdProblem.coding_probs", q, problem.coding_probs),
        ("RdProblem.distortion", d1, problem.distortion),
        ("RdProblem2.distortion_1", d1, problem2.distortion_1),
        ("RdProblem2.distortion_2", d2, problem2.distortion_2),
        ("Channel.transition", w, channel.transition),
        ("Channel.input_probs", u, channel.input_probs),
        ("ElementArray.state_lengths", y, element.state_lengths),
        ("ElementArray.state_energies", e, element.state_energies),
    ]


class TestReadOnlyArrays:
    @pytest.mark.parametrize("index", range(11))
    def test_stored_array_is_read_only_and_its_own(self, index):
        name, given, stored = stored_arrays()[index]
        assert not stored.flags.writeable, name
        with pytest.raises(ValueError):
            stored.flat[0] = 7.0
        # the caller's array stays writable, and writing to it leaves the object unchanged
        assert given.flags.writeable, name
        before = stored.copy()
        given.flat[0] = 7.0
        np.testing.assert_array_equal(stored, before)


class TestOneLawCheck:
    @pytest.mark.parametrize("build, name", [
        (lambda v: FiniteDistribution([0.0, 1.0], v), "probs"),
        (lambda v: RdProblem(v, [0.5, 0.5], np.eye(2)), "source_probs"),
        (lambda v: RdProblem([0.5, 0.5], v, np.eye(2)), "coding_probs"),
        (lambda v: RdProblem2([0.5, 0.5], v, np.eye(2), np.eye(2)), "coding_probs"),
        (lambda v: Channel(np.eye(2), v), "input_probs"),
        (lambda v: blahut_arimoto(v, np.eye(2), -1.0), "source_probs"),
    ])
    def test_every_law_gets_the_same_messages(self, build, name):
        with pytest.raises(ValidationError, match=f"^{name} must be finite and nonnegative$"):
            build([-0.5, 1.5])
        with pytest.raises(ValidationError, match=f"^{name} must be finite and nonnegative$"):
            build([math.nan, 1.0])
        with pytest.raises(ValidationError, match=rf"^{name} must sum to 1 within 1e-12 \(got 1\.2\)$"):
            build([0.6, 0.6])

    def test_channel_sum_message(self):
        with pytest.raises(ValidationError) as info:
            Channel([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.6])
        assert str(info.value) == "input_probs must sum to 1 within 1e-12 (got 1.1)"

    def test_channel_rows_keep_their_own_check(self):
        with pytest.raises(ValidationError, match="each transition row must sum to 1"):
            Channel([[0.9, 0.2], [0.1, 0.9]], [0.5, 0.5])

    def test_chain_fractions(self):
        a = ElementArray([0.0, 1.0], [0.0, 0.0], 0.6)
        with pytest.raises(ValidationError, match=r"^array fractions must sum to 1 within 1e-12 \(got 1\.2"):
            ChainSystem(arrays=(a, a))


def test_row_starts_are_found_by_the_origin_table_alone():
    # every table route takes its rows' starts from tilting._at_origin; oracles.py keeps its own
    modules = Path(tiltrate.__file__).parent.glob("*.py")
    assert sorted(m.name for m in modules if "_row_ends" in m.read_text()) == ["tilting.py"]


def test_rates_are_floored_by_tilting_alone():
    # a rate is floored at +0.0 by tilting._floored alone, behind _Table.rate and the two sums that
    # keep their own grouping; oracles.py keeps its own.  _legendre's max(reach, 0.0) is the upper
    # end of its force bracket, not a rate
    floors = {}
    for module in Path(tiltrate.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(module.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.Call) and ast.unparse(node.func) in ("max", "np.maximum")
                        and any(isinstance(arg, ast.Constant) and isinstance(arg.value, float) and arg.value == 0.0
                                for arg in node.args)):
                    floors.setdefault(module.name, set()).add(function.name)
    floors.pop("oracles.py")
    assert floors == {"tilting.py": {"_floored", "_legendre"}}


def test_every_rate_is_formed_by_the_origin_table(monkeypatch):
    # tilting._Table.rate forms the rate of every Legendre solve, curve point, grid and one-force route
    def marked(table, s, level, log_z):
        return np.full(s.shape, 7.0) if isinstance(s, np.ndarray) else 7.0

    monkeypatch.setattr(tiltrate.tilting._Table, "rate", marked)
    assert distortion_at_force(PROBLEM, -0.5).rate == 7.0
    assert [point.rate for point in tiltrate.rd_curve(PROBLEM, [0.0, -0.5, -2.0])] == [7.0] * 3
    for delta in (0.1, 0.5, 0.0, 5.0):  # interior, at the floor and above the zero-force mean
        assert tiltrate.force_at_distortion(PROBLEM, delta).rate == 7.0
    assert rate_at_force(DIST, -0.5).rate == 7.0
    for level in (0.0, 1.2, 3.0):
        assert tiltrate.force_at_level(DIST, level).rate == 7.0
    assert tiltrate.capacity_point(Channel([[0.9, 0.1], [0.2, 0.8]], [0.5, 0.5])).rate == 7.0
    assert tiltrate.entropy_at_energy(DIST, 1.0) == -math.log(0.2) - 7.0
    # affinely dependent tables answer on a face, by the one-table solve
    assert tiltrate.rate_two_distortions(RdProblem2([0.7, 0.3], [0.5, 0.5], PROBLEM.distortion,
                                                    2.0 * PROBLEM.distortion), 0.5, 0.5)[0] == 7.0


def test_blocks_are_cut_by_the_kernel_front_alone():
    # tilting._tilted is the one scalar-versus-grid dispatch and block loop of the moment and pair
    # kernels: no other code reads the block size, and the old blocking helpers are gone
    modules = {m.name: m.read_text() for m in Path(tiltrate.__file__).parent.glob("*.py")}
    assert sorted(name for name, text in modules.items() if "_BLOCK_ENTRIES" in text) == ["tilting.py"]
    tree = ast.parse(modules["tilting.py"])
    readers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "_BLOCK_ENTRIES"
    }
    assert readers == {"_tilted"}
    assert not [name for name, text in modules.items() if "_by_force" in text or "_by_rows" in text]


def test_every_force_grid_has_one_check_and_one_kernel_path():
    # partitions and schedules share tilting._check_partition, and the tilted law takes one force:
    # its only callers pass it a scalar, and no module hands it to the grid front as a body
    modules = {m.name: m.read_text() for m in Path(tiltrate.__file__).parent.glob("*.py")}
    assert not [name for name, text in modules.items() if "_check_schedule" in text]
    defines = {name for name, text in modules.items() if "def _check_partition(" in text}
    assert defines == {"tilting.py"}
    for name, text in modules.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and any(
                    isinstance(arg, ast.Name) and arg.id == "_tilted_law" for arg in node.args):
                raise AssertionError(f"{name} passes _tilted_law to {ast.unparse(node.func)}")


def test_the_tilted_law_is_asked_at_scalar_forces_only(monkeypatch):
    seen = []
    law = tiltrate.tilting._tilted_law

    def counted(log_weights, values, s):
        seen.append(np.ndim(s))
        return law(log_weights, values, s)

    for module in (tiltrate.tilting, tiltrate.ratedistortion):
        monkeypatch.setattr(module, "_tilted_law", counted)
    grid = np.linspace(0.0, -2.0, 9)
    tilt(DIST, -0.5).tilted
    tiltrate.riemann_sandwich(DIST, grid)
    tiltrate.sandwich_bounds(PROBLEM, grid)
    tiltrate.rd_curve(PROBLEM, grid)
    tilted_conditional(PROBLEM, -0.5)
    tiltrate.rate_two_distortions(RdProblem2([0.7, 0.3], [0.5, 0.5], PROBLEM.distortion, OBSERVABLE), 0.5, 0.5)
    tiltrate.force_at_level(DIST, 0.0)
    assert seen and set(seen) == {0}
