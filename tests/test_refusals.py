"""Every input refusal raises its documented error class with its message, and the CLI
exits 1 with that message on stderr: one test per refusal no other test reaches."""

import json
import math
import re

import numpy as np
import pytest

from tiltrate import (
    ChainSystem,
    Channel,
    ElementArray,
    FiniteDistribution,
    RdProblem,
    RdProblem2,
    blahut_arimoto,
    brute_allocation_min,
    cli,
    entropy_at_energy,
    equal_force_allocation,
    exact_ld_probability,
    force_at_distortion,
    force_at_level,
    from_rd_problem,
    legendre_grid_max,
    load_config,
    mean_via_integral,
    observable_expectation,
    observable_sweep,
    protocol_work_bounds,
    quasistatic_work,
    rate_legendre,
    rate_mmse_integral,
    rate_two_distortions,
    rate_work_integral,
    rd_curve,
    sandwich_bounds,
)
from tiltrate.errors import (
    ConfigError,
    NumericalError,
    PartitionInvalidError,
    ScheduleInvalidError,
    ValidationError,
)
from tiltrate.oracles import BaResult
from tiltrate.ratedistortion import distortion_mmse_integral


def raises(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


@pytest.fixture
def bss():
    return RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


class TestConstructors:
    def test_transition_rows_must_match_the_inputs(self):
        with raises(ValidationError, "transition must have one row per input letter (shape (1, 2), 2 inputs)"):
            Channel([[0.5, 0.5]], [0.5, 0.5])

    def test_state_tables_must_be_finite(self):
        with raises(ValidationError, "state_lengths and state_energies must be finite"):
            ElementArray([0.0, math.inf], [0.0, 0.0], 0.5)
        for energy in [math.inf, -math.inf, math.nan]:
            with raises(ValidationError, "state_lengths and state_energies must be finite"):
                ElementArray([0.0, 1.0], [0.0, energy], 0.5)

    @pytest.mark.parametrize("fraction", [-0.1, math.nan, math.inf])
    def test_fraction_must_be_a_nonnegative_real(self, fraction):
        with raises(ValidationError, "fraction must be a nonnegative real"):
            ElementArray([0.0, 1.0], [0.0, 0.0], fraction)

    def test_chain_needs_an_array(self):
        with raises(ValidationError, "a chain needs at least one element array"):
            ChainSystem(arrays=())

    @pytest.mark.parametrize("field, message", [
        ("beta", "beta must be a positive real"), ("boltzmann_k", "boltzmann_k must be a positive real")])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_chain_constants_must_be_positive_reals(self, field, message, value):
        with raises(ValidationError, message):
            ChainSystem(arrays=(ElementArray([0.0, 1.0], [0.0, 0.0], 1.0),), **{field: value})

    @pytest.mark.parametrize("beta", [0.0, math.inf])
    def test_mapped_chain_beta_must_be_a_positive_real(self, bss, beta):
        with raises(ValidationError, "beta must be a positive real"):
            from_rd_problem(bss, beta)

    def test_a_law_must_be_nonempty(self):
        with raises(ValidationError, "source_probs must be nonempty"):
            RdProblem([], [1.0], np.zeros((0, 1)))


BSS = RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
PAIR = RdProblem2([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], [[0.0, 2.0], [1.0, 0.0]])
COIN = FiniteDistribution([0.0, 1.0], [0.5, 0.5])
CHAIN = from_rd_problem(BSS)

# Each route with one scalar argument in turn set to x: the argument's name, and the call
ONE_NUMBER = {
    "force_at_distortion tol": ("tol", lambda x: force_at_distortion(BSS, 0.25, x)),
    "rate_legendre tol": ("tol", lambda x: rate_legendre(BSS, 0.25, x)),
    "equal_force_allocation tol": ("tol", lambda x: equal_force_allocation(BSS, 0.25, x)),
    "force_at_level tol": ("tol", lambda x: force_at_level(COIN, 0.25, x)),
    "entropy_at_energy tol": ("tol", lambda x: entropy_at_energy(COIN, 0.25, x)),
    "rate_two_distortions tol": ("tol", lambda x: rate_two_distortions(PAIR, 0.3, 0.6, x)),
    "rate_mmse_integral tol": ("tol", lambda x: rate_mmse_integral(BSS, -1.0, x)),
    "distortion_mmse_integral tol": ("tol", lambda x: distortion_mmse_integral(BSS, -1.0, x)),
    "observable_sweep tol": ("tol", lambda x: observable_sweep(BSS, [[1.0, 2.0], [3.0, 4.0]], -1.0, x)),
    "rate_work_integral tol": ("tol", lambda x: rate_work_integral(COIN, -1.0, x)),
    "mean_via_integral tol": ("tol", lambda x: mean_via_integral(COIN, -1.0, x)),
    "quasistatic_work tol": ("tol", lambda x: quasistatic_work(CHAIN, -1.0, x)),
    "blahut_arimoto tol": ("tol", lambda x: blahut_arimoto([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], -1.0, x)),
    "force_at_distortion budget": ("the target level", lambda x: force_at_distortion(BSS, x)),
    "force_at_level level": ("the target level", lambda x: force_at_level(COIN, x)),
    "rate_two_distortions delta1": ("delta1", lambda x: rate_two_distortions(PAIR, x, 0.6)),
    "rate_two_distortions delta2": ("delta2", lambda x: rate_two_distortions(PAIR, 0.3, x)),
    "entropy_at_energy energy": ("energy", lambda x: entropy_at_energy(COIN, x)),
    "blahut_arimoto slope": ("slope s", lambda x: blahut_arimoto([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], x)),
    "legendre_grid_max s_min": ("s_min", lambda x: legendre_grid_max(BSS, 0.25, x)),
    "ElementArray fraction": ("fraction", lambda x: ElementArray([0.0, 1.0], [0.0, 0.0], x)),
    "ChainSystem beta": ("beta", lambda x: ChainSystem((ElementArray([0.0, 1.0], [0.0, 0.0], 1.0),), beta=x)),
    "ChainSystem boltzmann_k": ("boltzmann_k", lambda x: ChainSystem((ElementArray([0.0, 1.0], [0.0, 0.0], 1.0),),
                                                                      boltzmann_k=x)),
    "from_rd_problem beta": ("beta", lambda x: from_rd_problem(BSS, x)),
}


@pytest.mark.parametrize("bad, got", [
    ([1e-9], "a list"), ("1e-9", "a str"), (None, "a NoneType"), (np.array([1e-9, 1e-9]), "an array of shape (2,)"),
    (np.array([1e-9]), "an array of shape (1,)")])
@pytest.mark.parametrize("route", sorted(ONE_NUMBER))
def test_a_scalar_that_is_not_one_number_is_refused_by_name(route, bad, got):
    # each had raised a bare TypeError from math.isfinite, math.isnan or a comparison, and
    # blahut_arimoto's tol only after two iterations
    name, call = ONE_NUMBER[route]
    with raises(ValidationError, f"{name} must be one number (got {got})") as refusal:
        call(bad)
    assert refusal.type is ValidationError  # not a budget's InfeasiblePairError: the pair was never read


# Each route with one count argument set to x: the argument's name, and the call
ONE_COUNT = {
    "exact_ld_probability n": ("block length n", lambda x: exact_ld_probability(BSS, x, 0.25)),
    "brute_allocation_min grid_points_per_symbol": ("grid_points_per_symbol",
                                                    lambda x: brute_allocation_min(BSS, 0.25, x)),
    "legendre_grid_max points": ("points", lambda x: legendre_grid_max(BSS, 0.25, points=x)),
    "blahut_arimoto max_iter": ("max_iter", lambda x: blahut_arimoto([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], -1.0,
                                                                     max_iter=x)),
}


@pytest.mark.parametrize("bad, got", [
    ("5", "a str"), (None, "a NoneType"), ([1.0, 2.0], "a list"), (math.nan, "a float"), (2.5, "a float"),
    (4.0, "a float"), (True, "a bool"), (np.array([4]), "an array of shape (1,)"), (np.array(4.0), "an array of shape ()")])
@pytest.mark.parametrize("route", sorted(ONE_COUNT))
def test_a_count_that_is_not_one_whole_number_is_refused_by_name(route, bad, got):
    # most had raised a bare TypeError from a comparison, np.linspace or range; n = 4.0, np.array([4])
    # and np.array(4.0), and max_iter = True, had answered.  A bool is a flag and a float a
    # measurement, even of whole value, so neither is a count
    name, call = ONE_COUNT[route]
    with raises(ValidationError, f"{name} must be one whole number (got {got})"):
        call(bad)


@pytest.mark.parametrize("route", sorted(ONE_COUNT))
def test_a_numpy_integer_count_answers_as_its_int(route):
    call = ONE_COUNT[route][1]

    def answer(count):
        got = call(count)
        return (got.rate, got.iterations) if isinstance(got, BaResult) else got

    assert answer(np.int64(4)) == answer(np.uint8(4)) == answer(np.array(4)) == answer(4)


@pytest.mark.parametrize("route, name", [
    (lambda bad: RdProblem(bad, [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]), "source_probs"),
    (lambda bad: RdProblem([0.5, 0.5], bad, [[0.0, 1.0], [1.0, 0.0]]), "coding_probs"),
    (lambda bad: RdProblem([0.5, 0.5], [0.5, 0.5], bad), "distortion"),
    (lambda bad: RdProblem2([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], bad), "distortion_2"),
    (lambda bad: FiniteDistribution(bad, [0.5, 0.5]), "values"),
    (lambda bad: FiniteDistribution([0.0, 1.0], bad), "probs"),
    (lambda bad: Channel(bad, [0.5, 0.5]), "transition"),
    (lambda bad: Channel([[1.0, 0.0], [0.0, 1.0]], bad), "input_probs"),
    (lambda bad: ElementArray(bad, [0.0, 0.0], 1.0), "state_lengths"),
    (lambda bad: ElementArray([0.0, 1.0], bad, 1.0), "state_energies"),
    (lambda bad: rd_curve(BSS, bad), "force_grid"),
    (lambda bad: sandwich_bounds(BSS, bad), "partition"),
    (lambda bad: observable_expectation(BSS, bad, -1.0), "observable"),
    (lambda bad: blahut_arimoto([0.5, 0.5], bad, -1.0), "distortion"),
])
@pytest.mark.parametrize("bad, kind", [(["a", "b"], "list"), ([[0.0, 1.0], [1.0]], "list"), ({"a": 1.0}, "dict")])
def test_an_array_that_numpy_cannot_read_is_refused_by_name(route, name, bad, kind):
    # a string entry or ragged rows had raised numpy's bare ValueError, and a dict its TypeError
    with raises(ValidationError, f"{name} must be an array of numbers (got a {kind} that numpy cannot read)"):
        route(bad)


@pytest.mark.parametrize("route, name, error", [
    (lambda bad: sandwich_bounds(BSS, bad), "partition", PartitionInvalidError),
    (lambda bad: protocol_work_bounds(CHAIN, bad), "schedule", ScheduleInvalidError),
])
@pytest.mark.parametrize("bad, rule", [
    ([], "must be nonempty"),
    ([0.0, math.nan], "must be finite and start at 0"),
    ([-0.5, -1.0], "must be finite and start at 0"),
    ([0.0, -1.0, -0.5], "must be monotone"),
])
def test_a_partition_is_refused_before_any_kernel_call(route, name, error, bad, rule, exponentials):
    # tilting._check_partition, the one check of Riemann partitions and protocol schedules
    with raises(error, f"{name} {rule}") as refusal:
        route(bad)
    assert refusal.type is error
    assert exponentials() == 0


class TestRateDistortion:
    def test_allocation_at_the_minimum_distortion_is_the_row_minima(self, bss):
        allocation, rate = equal_force_allocation(bss, 0.0)
        assert np.array_equal(allocation.per_symbol_distortion, [0.0, 0.0])
        assert rate == pytest.approx(math.log(2.0), rel=1e-15)

    def test_observable_must_be_finite(self, bss):
        with raises(ValidationError, "observable entries must all be finite"):
            observable_expectation(bss, [[0.0, math.nan], [1.0, 0.0]], -1.0)

    @pytest.mark.parametrize("grid, message", [
        ([], "force_grid must be nonempty"),
        ([-1.0, math.nan], "force_grid values must be finite and <= 0"),
        ([-1.0, 0.5], "force_grid values must be finite and <= 0")])
    def test_force_grid_must_be_nonempty_finite_and_nonpositive(self, bss, grid, message, exponentials):
        with raises(ValidationError, message):
            rd_curve(bss, grid)
        assert exponentials() == 0


class TestOracles:
    def test_block_length_must_be_positive(self, bss):
        with raises(ValidationError, "block length n must be positive"):
            exact_ld_probability(bss, 0, 0.25)

    def test_least_block_total_must_be_a_float(self):
        problem = RdProblem([0.5, 0.5], [0.5, 0.5], [[1e308, 1.5e308], [1e308, 1.2e308]])
        with raises(NumericalError, "the least total of a block of 4, inf, is past the largest float"):
            exact_ld_probability(problem, 4, 1.2e308)

    def test_s_min_times_the_budget_must_stay_a_float(self):
        problem = RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1e308], [1e308, 0.0]])
        with raises(NumericalError, "s_min -50.0 times the budget above the floor, 1e+308, is past 2^1021"):
            legendre_grid_max(problem, 1e308)

    def test_allocation_grid_needs_two_points(self, bss):
        with raises(ValidationError, "grid_points_per_symbol must be at least 2"):
            brute_allocation_min(bss, 0.25, 1)

    def test_one_letter_allocation_below_its_grid(self):
        problem = RdProblem([1.0], [0.5, 0.5], [[1.0, 2.0]])
        with raises(ValidationError, "no grid point satisfies the distortion budget"):
            brute_allocation_min(problem, 0.5, 10)

    def test_legendre_grid_needs_three_points(self, bss):
        with raises(ValidationError, "points must be at least 3"):
            legendre_grid_max(bss, 0.25, points=2)

    @pytest.mark.parametrize("table, kwargs, message", [
        ([[0.0, 1.0]], {}, "distortion must have one row per source letter"),
        ([[], []], {}, "distortion must have at least one column"),
        ([[0.0, math.nan], [1.0, 0.0]], {}, "distortion entries must all be finite"),
        ([[0.0, 1.0], [1.0, 0.0]], {"max_iter": 0}, "max_iter must be at least 1"),
    ])
    def test_blahut_arimoto_inputs(self, table, kwargs, message):
        with raises(ValidationError, message):
            blahut_arimoto([0.5, 0.5], table, -1.0, **kwargs)


def refused(capsys, argv, message):
    """cli.main(argv) exits 1 and prints exactly ``message`` as its error."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tiltrate: error: {message}\n"


class TestCliRefusals:
    @pytest.fixture
    def cfg(self, tmp_path):
        path = tmp_path / "bss.cfg"
        path.write_text("source_probs = 0.5, 0.5\ncoding_probs = 0.5, 0.5\ndistortion = 0, 1; 1, 0\n")
        return str(path)

    @pytest.mark.parametrize("grid, message", [
        ("a:b:3", "bad grid spec 'a:b:3': expected lo:hi:count"),
        ("0:-1:0", "grid count must be at least 1"),
        ("0, x", "bad grid spec '0, x'"),
        (" ", "grid spec is empty"),
    ])
    def test_grid_specs(self, capsys, cfg, grid, message):
        refused(capsys, ["rd", "curve", "--config", cfg, f"--grid={grid}"], message)

    @pytest.mark.parametrize("coding, message", [
        ("coding_probs = 0.5, 0.5\n", "force_grid values must be finite and <= 0"),
        ("", "slope s must be <= 0 (got 1.0)"),  # the coding law is optimized at each slope
    ])
    def test_curve_grids_are_checked_by_the_library(self, capsys, tmp_path, coding, message):
        path = tmp_path / "curve.cfg"
        path.write_text("source_probs = 0.5, 0.5\n" + coding + "distortion = 0, 1; 1, 0\n")
        refused(capsys, ["rd", "curve", "--config", str(path), "--grid=0.5:1:2"], message)

    def test_positive_force(self, capsys, cfg):
        refused(capsys, ["rd", "point", "--config", cfg, "--force=0.5"], "--force must be <= 0")

    @pytest.mark.parametrize("flag, message", [
        ("--bounds=4", "sandwich bounds need a finite force"),
        ("--integral-route", "the integral route needs a finite force"),
    ])
    def test_routes_at_the_minimum_distortion(self, capsys, cfg, flag, message):
        refused(capsys, ["rd", "point", "--config", cfg, "--delta=0", flag], message)

    def test_negative_bounds(self, capsys, cfg):
        refused(capsys, ["rd", "point", "--config", cfg, "--delta=0.25", "--bounds=-3"], "--bounds must be >= 0")

    @pytest.mark.parametrize("length, message", [
        ("1e-13", "length 1e-13 lies within the end band of the achievable range (0.0, 1.0) "
                  "and needs an infinite force"),
        ("0", "length 0.0 is not strictly inside the achievable range (0.0, 1.0)"),
        ("1.5", "length 1.5 is not strictly inside the achievable range (0.0, 1.0)"),
    ])
    def test_equilibrium_names_the_end_band(self, capsys, cfg, length, message):
        refused(capsys, ["chain", "equilibrium", "--config", cfg, f"--length={length}"], message)

    def test_positive_final_force(self, capsys, cfg):
        refused(capsys, ["chain", "work", "--config", cfg, "--lambda-final=0.5"],
                "--lambda-final must be <= 0 for the compression branch")


class TestConfigRefusals:
    @pytest.mark.parametrize("doc, message", [
        ({"source_probs": ["a", 1]}, "config field 'source_probs' must be a numeric vector"),
        ({"source_probs": [[0.5, 0.5]]}, "config field 'source_probs' must be a one-dimensional vector"),
        ({"distortion": [["a"]]}, "config field 'distortion' must be a numeric matrix"),
        ({"distortion": [[0.0, 1.0], [1.0]]}, "config field 'distortion' must be a numeric matrix"),
        ({"beta": None}, "config field 'beta' must be a real number"),
        ({"channel": [1]}, "config field 'channel' must be an object with transition and input_probs"),
    ])
    def test_json_fields(self, capsys, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        refused(capsys, ["capacity", "--config", str(path)], message)

    @pytest.mark.parametrize("text, message", [
        ('{"beta": 1, "beta": 2}', "duplicate config field 'beta'"),
        ('{"channel": {"input_probs": [1.0], "input_probs": [1.0]}}', "duplicate config field 'input_probs'"),
        ('{"channel": {"transition": [[1.0]]}, "channel_transition": [[1.0]]}',
         "config fields 'channel.transition' and 'channel_transition' give the same field twice"),
    ])
    def test_json_fields_given_twice(self, capsys, tmp_path, text, message):
        # json keeps a repeated key's last value, and the nested channel block would override a flat field
        path = tmp_path / "twice.json"
        path.write_text(text)
        refused(capsys, ["capacity", "--config", str(path)], message)

    @pytest.mark.parametrize("line, message", [
        ("distortion = ;", "config field 'distortion' must contain at least one row"),
        ("beta = abc", "config field 'beta' must be a real number"),
        ("beta = inf", "config field 'beta' must be finite"),
    ])
    def test_text_fields(self, capsys, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        refused(capsys, ["capacity", "--config", str(path)], message)

    @pytest.mark.parametrize("k, temperature", [("0", "1"), ("1", "0"), ("1e-200", "1e-200")])
    def test_k_times_temperature_must_not_be_zero(self, capsys, tmp_path, k, temperature):
        # beta = 1 / (k * temperature): a zero product, an underflowed one included, is refused
        path = tmp_path / "cold.cfg"
        path.write_text(f"source_probs = 0.5, 0.5\ncoding_probs = 0.5, 0.5\ndistortion = 0, 1; 1, 0\n"
                        f"k = {k}\ntemperature = {temperature}\n")
        refused(capsys, ["chain", "work", "--config", str(path), "--lambda-final=-0.5"],
                f"k * temperature must not be 0 (got k = {float(k)!r}, temperature = {float(temperature)!r})")

    def test_top_level_json_must_be_an_object(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        refused(capsys, ["capacity", "--config", str(path)], f"{path}: top-level JSON value must be an object")

    def test_errors_are_config_errors(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("beta = abc\n")
        with raises(ConfigError, "config field 'beta' must be a real number"):
            load_config(path)
