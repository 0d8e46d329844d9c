"""The input contract: one probability-law check, read-only arrays, finite forces.

Every public function that takes a force refuses a non-finite one with
``ValidationError`` (exit 1 on the command line), and every constructor
stores read-only copies of its arrays.
"""

import ast
import importlib
import math
import re
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
    array_lengths,
    blahut_arimoto,
    distortion_at_force,
    distortion_mmse_integral,
    entropy_at_energy,
    equal_force_allocation,
    equilibrium_force,
    expected_length,
    force_at_distortion,
    force_at_level,
    from_rd_problem,
    gibbs_free_energy,
    length_variance,
    log_mgf,
    mean_via_integral,
    mmse,
    observable_expectation,
    observable_sweep,
    quasistatic_work,
    rate_at_force,
    rate_legendre,
    rate_mmse_integral,
    rate_two_distortions,
    rate_work_integral,
    tilt,
    tilted_conditional,
)
from tiltrate.tilting import _floats

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
# the two routes that take a 1-D array of forces as well as one force (tilting._force_grid)
GRID_TAKERS = {"tilt": lambda s: tilt(DIST, s), "mmse": lambda s: mmse(PROBLEM, s)}
# the routes that integrate over the force by solvers.adaptive_simpson, at a finite force and tolerance tol
QUADRATURE_ROUTES = {
    "rate_work_integral": lambda tol: rate_work_integral(DIST, -0.5, tol),
    "mean_via_integral": lambda tol: mean_via_integral(DIST, -0.5, tol),
    "rate_mmse_integral": lambda tol: rate_mmse_integral(PROBLEM, -0.5, tol),
    "distortion_mmse_integral": lambda tol: distortion_mmse_integral(PROBLEM, -0.5, tol),
    "observable_sweep": lambda tol: observable_sweep(PROBLEM, OBSERVABLE, -0.5, tol),
    "quasistatic_work": lambda tol: quasistatic_work(SYSTEM, -0.5, tol),
}


# the chain routes name their own argument, the force lam (quasistatic_work's lam_final)
CHAIN_FORCES = {"gibbs_free_energy": "lam", "array_lengths": "lam", "expected_length": "lam",
                "length_variance": "lam", "quasistatic_work": "lam_final"}


class TestNonFiniteForce:
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(FORCE_TAKERS))
    def test_raises_validation_error(self, name, s):
        # quasistatic_work refuses its force before any quadrature
        with pytest.raises(ValidationError, match=f"{CHAIN_FORCES.get(name, 'force s')} must be finite"):
            FORCE_TAKERS[name](s)

    @pytest.mark.parametrize("name", sorted(CHAIN_FORCES))
    def test_the_chain_refuses_a_force_whose_product_with_beta_overflows(self, name, recwarn):
        # SYSTEM's beta is 2: lam = -1e308 is finite, and s = beta * lam is not
        force = CHAIN_FORCES[name]
        with pytest.raises(ValidationError, match=rf"^{force} times beta must be finite \(got -1e\+308 \* 2\.0\)$"):
            FORCE_TAKERS[name](-1e308)
        assert not recwarn.list

    @pytest.mark.parametrize("route", [rate_work_integral, mean_via_integral])
    @pytest.mark.parametrize("s", [math.nan, -math.inf])
    def test_point_mass_integral_routes_raise_too(self, route, s):
        with pytest.raises(ValidationError, match="force s must be finite"):
            route(POINT_MASS, s)

    @pytest.mark.parametrize("s", [math.nan, -math.inf, np.array([-0.5, -1.0])])
    @pytest.mark.parametrize("name", sorted(QUADRATURE_ROUTES))
    def test_the_quadrature_front_refuses_the_force_before_any_kernel_call(self, name, s, exponentials):
        # tilting._pieces checks the force of all six routes; those that lower their table first
        # (distortion_mmse_integral, observable_sweep, mean_via_integral) run no kernel before it
        with pytest.raises(ValidationError, match=f"^{CHAIN_FORCES.get(name, 'force s')} must be"):
            FORCE_TAKERS[name](s)
        assert exponentials() == 0

    @pytest.mark.parametrize("route", [observable_expectation, observable_sweep])
    def test_a_misshapen_observable_is_refused_for_its_shape_before_its_force(self, route):
        with pytest.raises(ValidationError, match="^observable must match the distortion table shape"):
            route(PROBLEM, [[1.0, 2.0, 3.0]], math.nan)

    @pytest.mark.parametrize("name", sorted(set(FORCE_TAKERS) - set(GRID_TAKERS)))
    def test_the_tilted_law_refuses_an_array_of_forces(self, name):
        # every other route tilts the law at one force: an array would broadcast into the table's
        # columns, run the kernel as a grid, or reach numpy's own TypeError; the chain names its argument
        force = CHAIN_FORCES.get(name, "force s")
        with pytest.raises(ValidationError, match=rf"^{force} must be one number \(got an array of shape \(2,\)\)$"):
            FORCE_TAKERS[name](np.array([-0.5, -1.0]))

    @pytest.mark.parametrize("name, force, kind", [
        (name, force, kind) for name in sorted(FORCE_TAKERS)
        for force, kind in [([-0.5, -1.0], "list"), ((-0.5,), "tuple"), ("-0.5", "str"), (None, "NoneType")]
        if name not in GRID_TAKERS or kind in ("str", "NoneType")  # tilt and mmse take a list or tuple as a grid
    ])
    def test_a_force_that_is_no_number_is_refused(self, name, force, kind):
        # math.isfinite raises TypeError on each of these
        force_name = CHAIN_FORCES.get(name, "force s")
        with pytest.raises(ValidationError, match=rf"^{force_name} must be one number \(got a {kind}\)$"):
            FORCE_TAKERS[name](force)

    @pytest.mark.parametrize("name", sorted(FORCE_TAKERS))
    def test_a_finite_force_still_answers(self, name):
        FORCE_TAKERS[name](-0.5)


class TestForceGrid:
    """``tilt`` and ``mmse`` take a 1-D array of finite forces as well as one force
    (``tilting._force_grid``); every other route refuses an array (``TestNonFiniteForce``)."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", sorted(GRID_TAKERS))
    def test_a_grid_with_a_force_that_is_not_finite_is_refused(self, name, bad, exponentials):
        with pytest.raises(ValidationError, match=rf"^force s must be finite \(got {re.escape(repr(bad))}\)$"):
            GRID_TAKERS[name](np.array([-0.5, bad, -1.0]))
        assert exponentials() == 0

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (2, 2, 1)])
    @pytest.mark.parametrize("name", sorted(GRID_TAKERS))
    def test_an_array_of_more_dimensions_is_refused(self, name, shape, exponentials):
        message = rf"^force s must be one number or a 1-D array \(got an array of shape {re.escape(str(shape))}\)$"
        with pytest.raises(ValidationError, match=message):
            GRID_TAKERS[name](np.full(shape, -0.5))
        assert exponentials() == 0

    @pytest.mark.parametrize("name", sorted(GRID_TAKERS))
    def test_a_grid_answers_an_array_and_one_force_a_float(self, name):
        assert isinstance(GRID_TAKERS[name](np.array([-0.5, -1.0])), (np.ndarray, tiltrate.TiltReport))
        one = GRID_TAKERS[name](np.float64(-0.5))
        assert type(one.s if name == "tilt" else one) is float

    @pytest.mark.parametrize("kind", [list, tuple])
    @pytest.mark.parametrize("name", sorted(GRID_TAKERS))
    def test_a_list_or_tuple_is_a_grid(self, name, kind):
        def fields(answer):
            return [answer.s, answer.log_mgf, answer.mean, answer.variance] if name == "tilt" else [answer]

        got, want = fields(GRID_TAKERS[name](kind([-0.5, -1.0]))), fields(GRID_TAKERS[name](np.array([-0.5, -1.0])))
        assert [np.asarray(a).tobytes() for a in got] == [w.tobytes() for w in want]

    @pytest.mark.parametrize("bad, message", [
        ([-0.5, "x"], "force s must be an array of numbers (got a list that numpy cannot read)"),
        ([[-0.5], [-1.0, -2.0]], "force s must be an array of numbers (got a list that numpy cannot read)"),
        ([[-0.5, -1.0]], "force s must be one number or a 1-D array (got an array of shape (1, 2))"),
    ])
    @pytest.mark.parametrize("name", sorted(GRID_TAKERS))
    def test_a_list_that_is_no_1d_grid_of_numbers_is_refused(self, name, bad, message, exponentials):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            GRID_TAKERS[name](bad)
        assert exponentials() == 0

    def test_a_grid_report_has_no_tilted_law(self):
        report = tilt(DIST, np.array([-0.5, -1.0]))
        with pytest.raises(ValidationError, match=r"^tilted needs a report at one force s \(this one holds 2 forces\)$"):
            report.tilted
        one = tilt(DIST, -0.5)
        assert one.tilted.mean == pytest.approx(one.mean, rel=1e-15)

    def test_no_grid_report_field_aliases_the_callers_array(self):
        forces = np.array([-0.5, -1.0])
        report = tilt(DIST, forces)
        fields = [report.s, report.log_mgf, report.mean, report.variance]
        assert not any(np.shares_memory(field, forces) for field in fields)
        forces[0] = 7.0
        assert report.s.tolist() == [-0.5, -1.0]


class TestQuadratureTolerance:
    """A tolerance that is not finite and > 0 is refused before the rule evaluates any node."""

    @pytest.fixture
    def integrand_calls(self, monkeypatch):
        # every route's integrand, counted on its way into the rule
        calls, rule = [], tiltrate.solvers.adaptive_simpson

        def counted(f, *args, **kwargs):
            return rule(lambda x: calls.append(x.size) or f(x), *args, **kwargs)

        monkeypatch.setattr(tiltrate.tilting, "adaptive_simpson", counted)
        return calls

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", sorted(QUADRATURE_ROUTES))
    def test_raises_validation_error_before_any_integrand_call(self, name, tol, integrand_calls):
        with pytest.raises(ValidationError, match=rf"^tol must be finite and > 0 \(got {re.escape(repr(tol))}\)$"):
            QUADRATURE_ROUTES[name](tol)
        assert integrand_calls == []

    @pytest.mark.parametrize("name", sorted(QUADRATURE_ROUTES))
    def test_a_positive_tolerance_reaches_the_integrand(self, name, integrand_calls):
        QUADRATURE_ROUTES[name](1e-6)
        assert integrand_calls[:2] == [5, 4]

# every root solve, at an interior target and tolerance tol
PROBLEM2 = RdProblem2([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [1.0, 0.0]])
ROOT_SOLVES = {
    "force_at_distortion": lambda tol: force_at_distortion(PROBLEM, 0.3, tol),
    "rate_legendre": lambda tol: rate_legendre(PROBLEM, 0.3, tol),
    "equal_force_allocation": lambda tol: equal_force_allocation(PROBLEM, 0.3, tol),
    "force_at_level": lambda tol: force_at_level(DIST, 2.0, tol),
    "equilibrium_force": lambda tol: equilibrium_force(SYSTEM, 0.9, tol),
    "entropy_at_energy": lambda tol: entropy_at_energy(DIST, 1.0, tol),
    "rate_two_distortions": lambda tol: rate_two_distortions(PROBLEM2, 0.3, 0.4, tol),
}


class TestSolveTolerance:
    """A root solve's tolerance that is nan, negative or infinite is refused before any kernel call;
    0 asks for a solve to machine width."""

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    @pytest.mark.parametrize("name", sorted(ROOT_SOLVES))
    def test_raises_validation_error_before_any_kernel_call(self, name, tol, exponentials):
        with pytest.raises(ValidationError, match=rf"^tol must be finite and >= 0 \(got {re.escape(repr(tol))}\)$"):
            ROOT_SOLVES[name](tol)
        assert exponentials() == 0

    @pytest.mark.parametrize("tol", [0.0, 1e-10])
    @pytest.mark.parametrize("name", sorted(ROOT_SOLVES))
    def test_zero_and_a_positive_tolerance_answer(self, name, tol, exponentials):
        ROOT_SOLVES[name](tol)
        assert exponentials() > 0

    def test_an_infinite_tolerance_is_refused_not_answered_at_zero_force(self):
        # every projected gradient is below inf: rd2 once returned (0.0, 0.0, 0.0) here, where the
        # rate is 0.102841922111 at s2 = -0.6185
        with pytest.raises(ValidationError):
            rate_two_distortions(PROBLEM2, 0.3, 0.4, math.inf)
        rate, s1, s2 = rate_two_distortions(PROBLEM2, 0.3, 0.4)
        assert rate == pytest.approx(0.102841922111, rel=1e-11) and s1 == 0.0
        assert s2 == pytest.approx(-0.6185, abs=1e-4)


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


def test_memory_layout_is_decided_by_floats_alone():
    # every array argument enters through tilting._floats, which reads it in C order, so no answer
    # depends on the caller's layout (tests/test_stored_tables.py); a C-ordered array is not copied,
    # and no other module decides a layout
    given = np.ones((3, 2))
    assert _floats(given, "x") is given
    for given in (np.asfortranarray(given), np.ones((3, 4))[:, ::2], [[1, 2], [3, 4]], 2.0):
        assert _floats(given, "x").flags.c_contiguous
    layout = re.compile(r"[cf]_contiguous|order=|ascontiguousarray|asfortranarray")
    modules = Path(tiltrate.__file__).parent.glob("*.py")
    assert sorted(m.name for m in modules if layout.search(m.read_text())) == ["tilting.py"]


# each name that a module exports and the package does not, on purpose
NOT_EXPORTED = {
    # the input tolerances, read as tiltrate.tilting.<name>: no other module names the merge tolerance
    "tilting": {"PROB_TOL", "VALUE_MERGE_TOL"},
    # the numerical layer under the routes, which refuse through the errors tiltrate exports
    "solvers": {"BracketError", "invert_monotone", "adaptive_simpson"},
    # the command line's entry point, run as python -m tiltrate
    "cli": {"main"},
}


def test_every_module_export_is_a_package_export():
    unexported = {
        (module.stem, name)
        for module in Path(tiltrate.__file__).parent.glob("[!_]*.py")
        for name in getattr(importlib.import_module(f"tiltrate.{module.stem}"), "__all__", ())
        if name not in tiltrate.__all__ and name not in NOT_EXPORTED.get(module.stem, ())
    }
    assert unexported == set()
    assert [name for name in tiltrate.__all__ if not hasattr(tiltrate, name)] == []


def test_row_starts_are_found_by_the_origin_table_alone():
    # every table route takes its rows' starts from tilting._at_origin; oracles.py keeps its own
    modules = Path(tiltrate.__file__).parent.glob("*.py")
    assert sorted(m.name for m in modules if "_row_ends" in m.read_text()) == ["tilting.py"]


def test_every_table_is_lowered_by_at_origin_alone():
    # tilting._at_origin is the one lowering: no other code builds a _Table, the one-row table of a
    # FiniteDistribution included, so a table's origin is set in one place (a table derived from a
    # lowered one, by _Table._replace, keeps it)
    lowered = []
    for module in Path(tiltrate.__file__).parent.glob("*.py"):
        tree = ast.parse(module.read_text())
        owner = {id(node): f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) for node in ast.walk(f)}
        lowered += [
            (module.name, owner.get(id(node)))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_Table"
        ]
    assert lowered == [("tilting.py", "_at_origin")]


def test_row_starts_and_ranges_are_summed_by_the_origin_table_alone():
    # A budget moves to the rows' origin by tilting._Table.floor, sum_x w_x start_x, and the ceiling
    # at origin is the span _at_origin stores, sum_x w_x range_x: no other function takes a weighted sum of a table's
    # starts or ranges, so how that sum is rounded is decided in one place.  oracles.py sums its own
    # starts, as it finds them, independent of the table it checks.
    summing = {"np.dot", "np.vecdot", "np.inner", "np.matmul", "_exact_dot"}

    def is_starts_or_ranges(node):
        return (isinstance(node, ast.Attribute) and node.attr in ("starts", "ranges")
                or isinstance(node, ast.Name) and node.id in ("starts", "ranges"))

    summers = set()
    for module in Path(tiltrate.__file__).parent.glob("*.py"):
        if module.name == "oracles.py":
            continue
        for function in ast.walk(ast.parse(module.read_text())):
            for node in ast.walk(function) if isinstance(function, ast.FunctionDef) else ():
                if isinstance(node, ast.Call) and ast.unparse(node.func) in summing:
                    operands = node.args
                elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                    operands = (node.left, node.right)
                else:
                    continue
                if any(map(is_starts_or_ranges, operands)):
                    summers.add((module.name, function.name))
    assert summers == {("tilting.py", "floor"), ("tilting.py", "_at_origin")}


def test_only_tilting_reads_row_starts_and_ranges():
    # The way to origin and back lives on tilting._Table (floor, span, means_from_origin,
    # log_z_from_origin, variances, least), and so does every decision read off its unit, widest
    # row or largest start (one_valued, least_force, the hold in forces), so moving the origin or
    # the units edits one module.  oracles.py finds its own starts, independent of the table it checks.
    lowering = {"starts", "ranges", "unit", "widest", "far", "_HOLD"}
    readers = set()
    for module in Path(tiltrate.__file__).parent.glob("*.py"):
        if module.name in ("tilting.py", "oracles.py"):
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in lowering
                    or isinstance(node, ast.Name) and node.id == "_HOLD"
                    or isinstance(node, ast.alias) and node.name == "_HOLD"):
                readers.add((module.name, node.lineno))
    assert readers == set()


def test_rate_distortion_moves_nothing_into_units_by_hand():
    # every rate-distortion route reads its table's rows, already at origin and in units, and
    # rate_mmse_integral's letters are those rows (tilting._set_laws), not delta_dists lowered again
    assert "in_units" not in names(ast.parse((Path(tiltrate.__file__).parent / "ratedistortion.py").read_text()))


def names(tree) -> set:
    """Every identifier a module's code uses: names, attributes and imported names."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} | {
        alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names}


def calls_by_function(module: str) -> dict:
    """Each function of the package module ``module`` by name, a method as "Class.name", with the last
    part of the name of everything it calls, in the functions nested in it too."""
    calls = {}
    for node in ast.parse((Path(tiltrate.__file__).parent / module).read_text()).body:
        functions = [(f"{node.name}.", f) for f in node.body] if isinstance(node, ast.ClassDef) else [("", node)]
        for prefix, function in functions:
            if isinstance(function, ast.FunctionDef):
                calls[prefix + function.name] = {
                    ast.unparse(call.func).split(".")[-1] for call in ast.walk(function) if isinstance(call, ast.Call)}
    return calls


def test_a_force_grid_reaches_the_kernel_through_tilt_and_mmse_alone():
    # _Table.grid takes its forces unchecked: tilt and mmse check a public grid by _force_grid and hand
    # its kernel forces to the kernel, tilt through the grid of its one-row table and mmse through the
    # table's source-weighted variances, so they are the public routes that take a force grid, and
    # neither has a tilted law, dot product or centring of its own
    modules = [m.name for m in Path(tiltrate.__file__).parent.glob("*.py")]
    callers = {(m, name) for m in modules for name, called in calls_by_function(m).items() if "_force_grid" in called}
    assert callers == {("tilting.py", "tilt"), ("ratedistortion.py", "mmse")}
    in_tilt, in_mmse = calls_by_function("tilting.py")["tilt"], calls_by_function("ratedistortion.py")["mmse"]
    assert {"_force_grid", "forces", "grid"} <= in_tilt
    assert {"_force_grid", "forces", "averaged", "variances"} <= in_mmse
    own = {"law", "laws", "vecdot", "dot", "einsum", "stack", "_normalised", "_tilted_weights", "tilt"}
    assert not in_tilt & own and not in_mmse & own


def test_ratedistortion_tilts_its_letters_in_the_mmse_integral_alone():
    # the public mmse reads the kernel; only rate_mmse_integral still tilts one source letter at a time
    calls = calls_by_function("ratedistortion.py")
    assert {name for name, called in calls.items() if "tilt" in called} == {"rate_mmse_integral"}


def test_the_quadrature_rule_is_named_by_tilting_alone():
    # every quadrature route reaches solvers.adaptive_simpson through tilting._pieces, so a new rule
    # edits solvers.py and tilting.py alone
    modules = Path(tiltrate.__file__).parent.glob("*.py")
    assert sorted(m.name for m in modules if "adaptive_simpson" in names(ast.parse(m.read_text()))) == [
        "solvers.py", "tilting.py"]


def test_the_quadrature_cut_is_set_by_tilting_alone():
    # tilting._pieces is the one quadrature front: it checks the tol and cuts [0, s], a kernel force
    # that _Table.force has checked, in the table's force scale.  The rule is
    # called there alone (and in its own reversed-interval call), no other module names the front,
    # and the tol check is made by the front and the rule alone, so no route keeps a scale, and so
    # no tolerance, in a force unit of its own
    trees = {m.name: ast.parse(m.read_text()) for m in Path(tiltrate.__file__).parent.glob("*.py")}
    callers = {
        (name, function.name)
        for name, tree in trees.items()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("adaptive_simpson", "_check_quadrature_tol")
    }
    assert callers == {("solvers.py", "adaptive_simpson"), ("tilting.py", "_pieces")}
    assert sorted(name for name, tree in trees.items() if "_pieces" in names(tree)) == ["tilting.py"]


def test_records_are_built_only_for_classes_that_check_nothing():
    # tilting._record skips __post_init__, so it may build only a class that defines none: a
    # validated input class is built by its constructor, or not at all
    trees = [ast.parse(m.read_text()) for m in Path(tiltrate.__file__).parent.glob("*.py")]
    classes = {
        node.name: any(isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body)
        for tree in trees for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    recorded = {
        node.args[0].id
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_record"
    }
    assert recorded and recorded <= classes.keys()
    assert sorted(name for name in recorded if classes[name]) == []


def test_supports_are_sorted_and_merged_in_one_function():
    # tilting._set_laws is the one sort-and-merge of a support: the one-row constructor,
    # RdProblem.delta_dists and rate_mmse_integral's letters (the rows of its lowered table) call
    # it, and no other code merges runs of values
    mergers, callers = set(), set()
    for module in Path(tiltrate.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(module.read_text())):
            for node in ast.walk(function) if isinstance(function, ast.FunctionDef) else ():
                if isinstance(node, ast.Attribute) and node.attr == "reduceat":
                    mergers.add((module.name, function.name))
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_set_laws":
                    callers.add((module.name, function.name))
    assert mergers == {("tilting.py", "_set_laws")}
    assert callers == {("tilting.py", "__post_init__"), ("ratedistortion.py", "delta_dists"),
                       ("ratedistortion.py", "rate_mmse_integral")}


def test_end_letters_are_chosen_by_tilting_alone():
    # tilting._Table.at_end is the one choice of the letters on a row's end: the one-table end mass
    # and rd2's floor pairs both take it, no other module reads the merge tolerance, and rd2 keeps
    # no finite stand-in for force -inf on its faces
    modules = {m.name: m.read_text() for m in Path(tiltrate.__file__).parent.glob("*.py")}
    assert not [name for name, text in modules.items() if "_FAR" in text]
    assert sorted(name for name, text in modules.items() if "VALUE_MERGE_TOL" in text) == ["tilting.py"]
    callers = {
        (name, function.name)
        for name, text in modules.items()
        for function in ast.walk(ast.parse(text))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "at_end"
    }
    assert callers == {("tilting.py", "_legendre"), ("multiconstraint.py", "rate_two_distortions")}


def is_float_zero(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float) and node.value == 0.0


def test_rates_are_floored_by_tilting_alone():
    # every nonnegative result is floored at +0.0 by tilting._floored alone, and no 0.0 + x or
    # 0.0 - x sign guard is left; oracles.py keeps its own
    floors, guards = {}, {}
    for module in Path(tiltrate.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(module.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.Call) and ast.unparse(node.func) in ("max", "np.maximum")
                        and any(is_float_zero(arg) for arg in node.args)):
                    floors.setdefault(module.name, set()).add(function.name)
                if (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                        and (is_float_zero(node.left) or is_float_zero(node.right))):
                    guards.setdefault(module.name, set()).add(function.name)
    floors.pop("oracles.py")
    guards.pop("oracles.py")
    assert floors == {"tilting.py": {"_floored"}}
    assert guards == {"tilting.py": {"_floored"}}


CONSTANT_ROWS = RdProblem([0.5, 0.5], [0.5, 0.5], [[1.0, 1.0], [2.0, 2.0]])
BSS = RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
COIN = FiniteDistribution([0.0, 1.0], [0.5, 0.5])

# every floored route, each at a case whose exact result is 0: unfloored, its rounding can land at
# -0.0 or below 0 (the two laws of the gap differ by about 1e-15)
ZERO_CASES = {
    "rate_at_force": lambda: rate_at_force(COIN, -0.0).rate,
    "distortion_at_force": lambda: distortion_at_force(BSS, -0.0).rate,
    "equal_force_allocation": lambda: tiltrate.equal_force_allocation(BSS, 0.5)[1],
    "rate_two_distortions": lambda: tiltrate.rate_two_distortions(
        RdProblem2([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [1.0, 0.5]]), 5.0, 5.0)[0],
    "rate_work_integral": lambda: rate_work_integral(POINT_MASS, -1.0),
    "riemann_sandwich": lambda: tiltrate.riemann_sandwich(COIN, [0.0, -1.0])[0],
    "sandwich_bounds": lambda: tiltrate.sandwich_bounds(BSS, [0.0, -1.0])[0],
    "protocol_work_bounds": lambda: tiltrate.protocol_work_bounds(from_rd_problem(BSS), [0.0, -1.0])[0],
    "protocol_work": lambda: tiltrate.protocol_work(from_rd_problem(CONSTANT_ROWS), [0.0, -1.0]),
    "kl_free_energy_gap": lambda: tiltrate.kl_free_energy_gap(
        FiniteDistribution([0.0, 1.0], [0.2, 0.8]),
        FiniteDistribution([0.0, 1.0], [0.2000000000000002, 0.7999999999999998])),
    "rate_mmse_integral": lambda: rate_mmse_integral(CONSTANT_ROWS, -1.0),
    "quasistatic_work": lambda: quasistatic_work(from_rd_problem(CONSTANT_ROWS), -1.0),
    "mutual_information": lambda: tiltrate.mutual_information(Channel([[0.52, 0.11, 0.37]] * 2, [0.81, 0.19])),
    "capacity_point.delta": lambda: tiltrate.capacity_point(Channel([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])).delta,
}


@pytest.mark.parametrize("name", sorted(ZERO_CASES))
def test_every_floored_route_is_plus_zero_at_a_zero_case(name):
    x = ZERO_CASES[name]()
    assert x >= 0.0
    assert math.copysign(1.0, x) == 1.0


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
    # kernels (tilting._Table.grid and .pair): no other code reads the block size but the sort-and-merge of supports, which cuts
    # whole tables into row blocks of the same size, and the old blocking helpers are gone
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
    assert readers == {"_tilted", "_set_laws"}
    assert not [name for name, text in modules.items() if "_by_force" in text or "_by_rows" in text]


def test_every_force_grid_has_one_check_and_one_kernel_path():
    # partitions and schedules share tilting._check_partition, and the tilted law takes one force:
    # the block loop's only bodies are the moments and the pair, never the law
    modules = {m.name: m.read_text() for m in Path(tiltrate.__file__).parent.glob("*.py")}
    assert not [name for name, text in modules.items() if "_check_schedule" in text]
    defines = {name for name, text in modules.items() if "def _check_partition(" in text}
    assert defines == {"tilting.py"}
    bodies = {
        ast.unparse(node.args[0])
        for node in ast.walk(ast.parse(modules["tilting.py"]))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_tilted"
    }
    assert bodies == {"_moments", "_pair"}


def test_every_kernel_call_is_a_table_method():
    # tilting._Table's grid, pair and law are the kernel's only entry: no other module names the
    # block loop, its bodies or its exponential, and the old module-level fronts are gone
    inner = {"_tilted", "_moments", "_pair", "_tilted_weights", "_normalised"}
    fronts = {"_tilted_moments", "_tilted_pair", "_tilted_law"}
    for module in Path(tiltrate.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(module.read_text())))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
        assert not names & fronts, module.name
        if module.name != "tilting.py":
            assert not names & inner, module.name


def test_the_pair_kernel_is_asked_by_its_two_covariance_routes_alone():
    # tilting._Table.pair takes a second lowered table, and only the routes that read its covariances
    # ask for it: rd2's _evaluate and observable_sweep; a tilted mean alone (observable_expectation)
    # reads _Table.law, so no route hands the kernel a table _at_origin did not lower
    callers = {
        f"{module.stem}.{function.name}"
        for module in Path(tiltrate.__file__).parent.glob("*.py")
        for function in ast.walk(ast.parse(module.read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "pair"
    }
    assert callers == {"multiconstraint._evaluate", "ratedistortion.observable_sweep"}


def test_the_tilted_law_is_asked_at_scalar_forces_only(monkeypatch):
    seen = []
    law = tiltrate.tilting._Table.law

    def counted(table, s):
        seen.append(np.ndim(s))
        return law(table, s)

    monkeypatch.setattr(tiltrate.tilting._Table, "law", counted)
    grid = np.linspace(0.0, -2.0, 9)
    tilt(DIST, -0.5).tilted
    tiltrate.riemann_sandwich(DIST, grid)
    tiltrate.sandwich_bounds(PROBLEM, grid)
    tiltrate.rd_curve(PROBLEM, grid)
    tilted_conditional(PROBLEM, -0.5)
    tiltrate.rate_two_distortions(RdProblem2([0.7, 0.3], [0.5, 0.5], PROBLEM.distortion, OBSERVABLE), 0.5, 0.5)
    tiltrate.force_at_level(DIST, 0.0)
    assert seen and set(seen) == {0}


def einsum_moments(log_weights, values, s, order):
    """``tilting._moments`` written with the public ``np.einsum`` and fresh arrays."""
    w = values * s + log_weights
    shift = w.max(axis=-1)
    w = np.exp(w - shift[..., None])
    z = w.sum(axis=-1)
    mean = np.einsum("...j,...j->...", w, values) / z
    if order == 1:
        return shift + np.log(z), mean
    centered = values - mean[..., None]
    var = np.einsum("...j,...j,...j->...", w, centered, centered) / z
    close = var < tiltrate.tilting._CLOSE * mean * mean
    m = np.einsum("ij,ij->i", w[close], centered[close]) / z[close]
    var[close] -= m * m
    return shift + np.log(z), mean, var


def einsum_pair(log_weights, a, b, s_a, s_b):
    """``tilting._pair`` written with the public ``np.einsum`` and fresh arrays."""
    exponent = a * s_a + b * s_b if s_b != 0.0 else a * s_a
    w = exponent + log_weights
    shift = w.max(axis=-1)
    w = np.exp(w - shift[..., None])
    z = w.sum(axis=-1)
    law = w / z[..., None]
    mean_a, mean_b = (np.einsum("...j,...j->...", law, t) for t in (a, b))
    ca, cb = a - mean_a[..., None], b - mean_b[..., None]
    covariances = [np.einsum("...j,...j,...j->...", law, x, y) for x, y in ((ca, ca), (cb, cb), (ca, cb))]
    return shift + np.log(z), mean_a, mean_b, *covariances


def kernel_blocks():
    """Random k x k blocks under one shared row of log-weights at one force, k = 2, 64 and 512, and a
    2 x 2 block at a 33-force grid shaped as ``tilting._tilted`` hands it to the body."""
    rng = np.random.default_rng(27)
    for k, s in ((2, -1.3), (64, -1.3), (512, -1.3), (2, np.linspace(0.0, -3.0, 33)[:, None, None])):
        log_weights = np.log(rng.dirichlet(np.ones(k)))[None, :]
        yield log_weights, rng.random((k, k)), rng.random((k, k)), s


class TestKernelEinsum:
    """The kernel calls the C einsum that ``np.einsum`` forwards to, with none of its Python dispatch:
    the same function, the same bits, and the one private numpy import of the package."""

    def test_is_the_c_einsum_that_np_einsum_forwards_to(self, monkeypatch):
        from numpy._core import einsumfunc

        assert np.einsum is einsumfunc.einsum
        assert tiltrate.tilting.c_einsum is einsumfunc.c_einsum
        forwarded = []
        monkeypatch.setattr(einsumfunc, "c_einsum", lambda *operands, **kwargs: forwarded.append(operands))
        np.einsum("...j,...j->...", np.ones((2, 2)), np.ones((2, 2)))
        assert len(forwarded) == 1

    def test_gives_np_einsum_bits(self):
        for log_weights, a, b, s in kernel_blocks():
            w = np.exp(a * s + log_weights)
            for spec, operands in (("...j,...j->...", (w, a)), ("...j,...j,...j->...", (w, a, b))):
                want = np.einsum(spec, *operands)
                assert tiltrate.tilting.c_einsum(spec, *operands).tobytes() == want.tobytes()

    def test_the_kernel_bodies_keep_np_einsum_bits(self):
        # the sums divided and the log-partition formed in place, as fresh arrays gave them
        for log_weights, a, b, s in kernel_blocks():
            for order in (1, 2):
                got, want = tiltrate.tilting._moments(log_weights, a, s, order), einsum_moments(log_weights, a, s, order)
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
            for s_b in (0.0, -0.4):
                got, want = tiltrate.tilting._pair(log_weights, a, b, s, s_b), einsum_pair(log_weights, a, b, s, s_b)
                assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    def test_tilting_alone_imports_from_numpy_core(self):
        importers = set()
        for module in Path(tiltrate.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(module.read_text())):
                names = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [
                    node.module or ""] if isinstance(node, ast.ImportFrom) else []
                if any(re.match(r"numpy\.(_core|core)\b", name) for name in names) or (
                        isinstance(node, ast.Attribute) and node.attr in ("_core", "core")):
                    importers.add(module.name)
        assert importers == {"tilting.py"}
