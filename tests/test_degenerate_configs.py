"""Every command on degenerate tables, in process: an answer, or a refusal with exit 1 or 2.

Each command line runs through ``tiltrate.cli.main`` on configs with one column, one row, constant
rows, zero-probability letters, negative entries, entries of +-1e308 (rows whose range overflows, and
rows each one value but far apart) and entries of 5e-324.  Every call returns 0, 1 or 2 and raises
nothing; ``pyproject.toml`` turns a ``RuntimeWarning`` into an error, so an overflow or an invalid
value on the way fails here too.
"""

import math
import re

import numpy as np
import pytest

from tiltrate import (
    ChainSystem,
    ElementArray,
    FiniteDistribution,
    RdProblem,
    RdProblem2,
    blahut_arimoto,
    cli,
    distortion_at_force,
    equilibrium_force,
    exact_ld_probability,
    force_at_distortion,
    from_rd_problem,
    kl_free_energy_gap,
    observable_expectation,
    quasistatic_work,
    rate_mmse_integral,
    rate_two_distortions,
    tilt,
)
from tiltrate.errors import (
    InfeasiblePairError,
    LengthInfeasibleError,
    NumericalError,
    SupportMismatchError,
    ValidationError,
)

CONFIGS = {
    "one_column": """
source_probs = 0.5, 0.5
coding_probs = 1
distortion = 0; 1
distortion_2 = 1; 0
observable = 2; 3
""",
    "one_row": """
source_probs = 1
coding_probs = 0.5, 0.5
distortion = 0, 1
distortion_2 = 1, 0
observable = 1, -1
""",
    "constant_rows": """
source_probs = 0.5, 0.5
coding_probs = 0.5, 0.5
distortion = 1, 1; 2, 2
distortion_2 = 0, 0; 3, 3
observable = 0, 1; 1, 0
""",
    "zero_probability_letters": """
source_probs = 0.5, 0.5, 0
coding_probs = 0.5, 0, 0.5
distortion = 0, 1, 2; 1, 0, 3; 5, 5, 5
distortion_2 = 1, 0, 0; 0, 2, 1; 4, 4, 4
observable = 1, 2, 3; 4, 5, 6; 7, 8, 9
""",
    "negative_entries": """
source_probs = 0.7, 0.3
coding_probs = 0.5, 0.5
distortion = -3, -1; -2, -5
distortion_2 = -1, 0; 0, -1
observable = -1, 2; -3, 4
""",
    # each row's range overflows
    "huge_entries": """
source_probs = 0.5, 0.5
coding_probs = 0.5, 0.5
distortion = -1e308, 1e308; 1e308, -1e308
distortion_2 = 0, 1; 1, 0
observable = 0, 1; 1, 0
""",
    # every row is sound, and the table as a whole spans more than the largest float: the floor's
    # exact sum once came out nan, and rd point --delta ended in a ZeroDivisionError
    "huge_rows_each_sound": """
source_probs = 0.5, 0.5
coding_probs = 0.5, 0.5
distortion = -1e308, -1e308; 1e308, 1e308
distortion_2 = 0, 1; 1, 0
observable = -1e308, 0; 0, 1e308
""",
    # the span, 1e308, is the table's unit: a force past about -0.9 takes the least letters' law, the
    # limit, and the mmse at force 0, 2.5e615, cannot be represented.  rd curve warned "overflow
    # encountered in multiply" at the kernel's s * value and printed mmse,inf with exit 0, and the
    # oracle grid warned there too
    "huge_span": """
source_probs = 0.5, 0.5
coding_probs = 0.5, 0.5
distortion = 0, 1e308; 1e308, 0
distortion_2 = 0, 1; 1, 0
observable = 0, 1; 1, 0
""",
    # a row of subnormal weight carries the whole range, 1e310 or 1e320 spans: dividing the table by
    # its span warned "overflow encountered in divide" on every route, and rd point --force exited 2
    "light_row_1e-310": """
source_probs = 1, 1e-310
coding_probs = 0.5, 0.5
distortion = 0, 0; 0, 1
distortion_2 = 0, 0; 1, 0
observable = 0, 1; 1, 0
""",
    "light_row_1e-320": """
source_probs = 1, 1e-320
coding_probs = 0.5, 0.5
distortion = 0, 0; 0, 1
distortion_2 = 0, 0; 1, 0
observable = 0, 1; 1, 0
""",
    # the ranges are the least subnormal, and their weighted sum rounds to 0
    "subnormal_entries": """
source_probs = 0.5, 0.5
coding_probs = 0.5, 0.5
distortion = 0, 5e-324; 5e-324, 0
distortion_2 = 0, 1; 1, 0
observable = 0, 1; 1, 0
""",
}

COMMANDS = {
    "rd point --delta": ["rd", "point", "--delta", "0.25"],
    "rd point --force --bounds": ["rd", "point", "--force=-1", "--bounds", "4"],
    "rd point --force --allocation": ["rd", "point", "--force=-1", "--allocation"],
    "rd point --force --integral-route": ["rd", "point", "--force=-1", "--integral-route"],
    "rd point --force --observable": ["rd", "point", "--force=-1", "--observable"],
    "rd curve": ["rd", "curve", "--grid=-3:0:2"],
    "rd2": ["rd2", "--delta1", "0.3", "--delta2", "0.4"],
    "chain work": ["chain", "work", "--lambda-final=-1"],
    "chain equilibrium": ["chain", "equilibrium", "--length", "0.3"],
    "chain protocol": ["chain", "protocol", "--schedule=0:-1:3"],
    "oracle exact": ["oracle", "exact", "--n", "2", "--delta", "0.25"],
    "oracle ba": ["oracle", "ba", "--force=-1"],
    "oracle alloc": ["oracle", "alloc", "--delta", "0.25", "--grid-points", "20"],
    "oracle grid": ["oracle", "grid", "--delta", "0.25"],
}


@pytest.fixture
def config(tmp_path):
    def write(name: str) -> str:
        path = tmp_path / f"{name}.cfg"
        path.write_text(CONFIGS[name])
        return str(path)

    return write


def run(capsys, argv) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_command_answers_or_refuses(capsys, config, name, command):
    code, out, err = run(capsys, COMMANDS[command] + ["--config", config(name)])
    assert code in (0, 1, 2)
    assert (code == 0) == (err == ""), err


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_row_whose_range_overflows_is_refused_at_construction(capsys, config, command):
    # rd point --force and rd curve printed nan with exit 0, and rd point --delta, rd2 and the
    # oracles ended in a traceback from a math domain error
    code, out, err = run(capsys, COMMANDS[command] + ["--config", config("huge_entries")])
    assert code == 1
    table = "distortion_1" if command == "rd2" else "distortion"
    assert err == f"tiltrate: error: the range of row 0 of {table}, -1e+308 to 1e+308, overflows\n"


@pytest.mark.parametrize("argv", [["oracle", "exact", "--n", "2", "--delta", "0"]])
def test_ranges_that_weigh_to_a_span_of_0_are_a_numerical_failure(capsys, config, argv):
    # the exact oracle printed probability 1, where it is 0.25, after a divide by zero
    code, out, err = run(capsys, argv + ["--config", config("subnormal_entries")])
    assert code == 2
    assert err.startswith("tiltrate: numerical failure: ")


def test_a_budget_on_the_floor_of_ranges_that_weigh_to_a_span_of_0_is_that_floor(capsys, config):
    # rd point printed s 0 and rate 0, where the budget is the floor and the rate ln 2, and then was
    # refused; the one-table solve takes a budget on the floor of such a table as that end
    code, out, err = run(capsys, ["rd", "point", "--delta", "0", "--config", config("subnormal_entries")])
    assert (code, err) == (0, "")
    assert csv_values(out)["s"] == "-inf" and csv_values(out)["rate_nats"] == f"{math.log(2.0):.12g}"


def test_the_kernels_force_past_the_largest_float_takes_the_ends_limit(capsys, config):
    # rd curve warned "overflow encountered in multiply" at the kernel's s * value, then printed
    # mmse,inf with exit 0: at force -3 the law is the least letters' (rate ln 2, mmse 0), and the
    # mmse at force 0, 2.5e615, cannot be represented
    code, out, err = run(capsys, ["rd", "curve", "--grid=-3:0:2", "--config", config("huge_span")])
    assert (code, out) == (2, "")
    assert err.startswith("tiltrate: numerical failure: mmse is not representable")
    problem = RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1e308], [1e308, 0.0]])
    point = distortion_at_force(problem, -3.0)
    assert (point.distortion, point.rate, point.mmse) == (0.0, math.log(2.0), 0.0)
    # tilt returned nan: for s > 0 past the force at which the exponent s * value passes 2^1022 the
    # log-partition is near the largest float, and the force is refused
    with pytest.raises(NumericalError, match="passes 2"):
        tilt(FiniteDistribution([0.0, 1e308], [0.5, 0.5]), 3.0)
    assert tilt(FiniteDistribution([0.0, 1e308], [0.5, 0.5]), -3.0).mean == 0.0


def test_a_budget_above_the_rounded_span_still_answers(capsys, config):
    # every budget above 0 lies above the mean at force 0, whose true value is below 5e-324
    code, out, err = run(capsys, ["rd", "point", "--delta", "0.25", "--config", config("subnormal_entries")])
    assert (code, err) == (0, "")
    assert "rate_nats,0\n" in out and out.endswith("boundary,above_zero_force\n")


def csv_values(out: str) -> dict:
    return dict(line.split(",") for line in out.splitlines()[1:])


def test_a_configs_observable_is_checked_against_the_configs_own_shape(capsys, config, tmp_path):
    # the observable was compared with the table left after the zero-probability letters are
    # dropped, and refused: "observable must match the distortion table shape (2, 2)"
    argv = ["rd", "point", "--force=-1", "--observable", "--config"]
    code, out, err = run(capsys, argv + [config("zero_probability_letters")])
    assert (code, err) == (0, "")
    problem = RdProblem([0.5, 0.5, 0], [0.5, 0, 0.5], [[0, 1, 2], [1, 0, 3], [5, 5, 5]])
    direct = observable_expectation(problem, [[1, 3], [4, 6]], -1.0)  # rows 0, 1 and columns 0, 2
    assert csv_values(out)["observable_direct"] == f"{direct:.12g}"
    # an observable of another shape is still refused, naming the config's own
    path = tmp_path / "wrong_observable.cfg"
    path.write_text(CONFIGS["zero_probability_letters"].replace("observable = 1, 2, 3; 4, 5, 6; 7, 8, 9",
                                                                "observable = 1, 2; 4, 5; 7, 8"))
    code, out, err = run(capsys, argv + [str(path)])
    assert (code, err) == (1, "tiltrate: error: observable must match the distortion table shape (3, 3)\n")


def test_a_beta_whose_energies_overflow_is_refused_before_numpy_forms_them(capsys, tmp_path):
    # -ln Q / beta overflowed in numpy, with a RuntimeWarning, before the chain refused its energies
    path = tmp_path / "tiny_beta.cfg"
    path.write_text("source_probs = 0.5, 0.5\ncoding_probs = 0.5, 0.5\ndistortion = 0, 1; 1, 0\nbeta = 1e-310\n")
    code, out, err = run(capsys, ["chain", "work", "--lambda-final=-1", "--config", str(path)])
    message = "beta is too small: the energies -ln Q / beta overflow (got beta = 1e-310)"
    assert (code, err) == (1, f"tiltrate: error: {message}\n")
    bss = RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
    with refused(message):
        from_rd_problem(bss, beta=1e-310)
    # ln 2 / 1e-308 is finite, and so is every energy; a coding law of one letter has energy 0
    assert from_rd_problem(bss, beta=1e-308).beta == 1e-308
    assert from_rd_problem(RdProblem([1.0], [1.0], [[0.0]]), beta=5e-324).beta == 5e-324


def refused(message):
    return pytest.raises(ValidationError, match=f"^{re.escape(message)}$")


class TestRangesThatOverflow:
    """A row whose greatest entry less its least overflows is refused where its table is built,
    by ``tilting._check_entries``; a nan or an infinite entry keeps its own message."""

    def test_a_support_is_refused_not_merged_at_its_least_value(self):
        with refused("the range of values, -1e+308 to 1e+308, overflows"):
            FiniteDistribution([-1e308, 1e308], [0.5, 0.5])
        with refused("values must all be finite"):
            FiniteDistribution([0.0, math.inf], [0.5, 0.5])
        assert FiniteDistribution([-1e308, 0.0], [0.5, 0.5]).values.tolist() == [-1e308, 0.0]

    def test_the_problem_tables_name_the_row(self):
        with refused("the range of row 1 of distortion, -1e+308 to 1e+308, overflows"):
            RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1e308, -1e308]])
        with refused("distortion entries must all be finite"):
            RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [math.nan, -1e308]])
        with refused("distortion entries must all be finite"):
            blahut_arimoto([0.5, 0.5], [[0.0, 1.0], [math.inf, 0.0]], -1.0)
        with refused("the range of row 0 of distortion, -1e+308 to 1e+308, overflows"):
            blahut_arimoto([0.5, 0.5], [[-1e308, 1e308], [1.0, 0.0]], -1.0)
        bss = RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])
        with refused("the range of row 1 of observable, -1e+308 to 1e+308, overflows"):
            observable_expectation(bss, [[0.0, 1.0], [-1e308, 1e308]], -1.0)

    def test_rows_that_are_each_sound_are_kept(self):
        # the whole table spans more than the largest float, and each row less
        problem = RdProblem([0.5, 0.5], [0.5, 0.5], [[-1e308, -1e308], [1e308, 1e308]])
        assert force_at_distortion(problem, 1.0).boundary == "above_zero_force"

    def test_the_chain_refuses_lengths_energies_and_log_weights_whose_range_overflows(self):
        with refused("the range of state_lengths, -1e+308 to 1e+308, overflows"):
            ElementArray([-1e308, 1e308], [0.0, 0.0], 1.0)
        # the energies enter the kernel as the log-weights -beta * energies, checked with beta
        energies = ElementArray([0.0, 1.0], [-1e308, 1e308], 1.0)
        with refused("the range of row 0 of -beta * state_energies, -1e+308 to 1e+308, overflows"):
            ChainSystem((energies,), beta=1.0)
        assert ChainSystem((energies,), beta=1e-3).beta == 1e-3
        # the kernel weighs the states by e^{-beta * energy}: at beta = 10 these energies give
        # log-weights +-1e308, and the free energy and the lengths were nan
        sound = ElementArray([0.0, 1.0], [0.0, 1.0], 0.5)
        wide = ElementArray([0.0, 1.0], [-1e307, 1e307], 0.5)
        assert ChainSystem((sound, wide), beta=1.0).beta == 1.0
        with refused("the range of row 1 of -beta * state_energies, -1e+308 to 1e+308, overflows"):
            ChainSystem((sound, wide), beta=10.0)
        with refused("-beta * state_energies must be finite"):
            ChainSystem((ElementArray([0.0, 1.0], [1e307, 1e307], 1.0),), beta=100.0)

    def test_supports_whose_union_overflows_do_not_match(self):
        # each support is one value, but the two together span 2e308: the merge band was inf
        far_right, far_left = FiniteDistribution([1e308], [1.0]), FiniteDistribution([-1e308], [1.0])
        for q, p in ((far_right, far_left), (far_left, far_right)):
            with pytest.raises(SupportMismatchError):
                kl_free_energy_gap(q, p)
        assert kl_free_energy_gap(far_left, FiniteDistribution([-1e308], [1.0])) == 0.0


class TestSpanBelowTheLeastSubnormal:
    """Row ranges whose weighted sum rounds to 0 leave the floor, the mean at force 0 and the
    ceiling one float: a budget there is that end (it was refused with ``NumericalError``), and
    the exact oracle, whose lattice width is 0, is refused."""

    PROBLEM = RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 5e-324], [5e-324, 0.0]])

    def test_a_budget_at_the_floor_is_that_floor(self):
        point = force_at_distortion(self.PROBLEM, 0.0)
        assert point.boundary == "min_distortion" and point.rate == pytest.approx(math.log(2.0), rel=1e-15)
        point = force_at_distortion(self.PROBLEM, 1e-320)
        assert (point.s, point.rate, point.boundary) == (0.0, 0.0, "above_zero_force")

    def test_a_wider_span_still_finds_its_floor(self):
        # at 1e-320 the span is representable, and the floor's rate is ln 2
        point = force_at_distortion(RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1e-320], [1e-320, 0.0]]), 0.0)
        assert point.boundary == "min_distortion" and point.rate == pytest.approx(math.log(2.0), rel=1e-15)

    def test_the_chain_length_solve_takes_it_as_that_end_too(self):
        # a length on an end needs an infinite force
        arrays = tuple(ElementArray([0.0, 5e-324], [0.0, 0.0], 0.5) for _ in range(2))
        with pytest.raises(LengthInfeasibleError, match="is not strictly inside the achievable range"):
            equilibrium_force(ChainSystem(arrays), 0.0)

    def test_the_exact_oracle_refuses_a_lattice_width_of_0(self):
        with pytest.raises(NumericalError, match="lattice width"):
            exact_ld_probability(self.PROBLEM, 2, 0.0)
        assert np.isclose(exact_ld_probability(RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]]), 2, 0.0)[0],
                          0.25)


@pytest.mark.parametrize("w", [1e-310, 1e-320])
class TestARowOfSubnormalWeightCarriesTheWholeRange:
    """Source law (1, w) on rows {0, 0} and {0, 1} under the coding law (1/2, 1/2): the second row spans
    1 / w spans.  Every route warned "overflow encountered in divide" where the table was put in units
    of its span, 1e310 or 1e320 of them past the largest float; the unit is now that row's range over
    2^64.  Each answer is within 64 subnormal steps of w (5e-324 each) of the closed form: at force s
    the rate is w (s m - ln((1 + e^s) / 2)), m = e^s / (1 + e^s) the row's tilted mean, and a budget
    of 0.4 w is met at s = ln(2/3)."""

    @staticmethod
    def closed_form(w: float, s: float) -> tuple[float, float]:
        m = math.exp(s) / (1.0 + math.exp(s))
        return w * (s * m - math.log((1.0 + math.exp(s)) / 2.0)), w * m * (1.0 - m)

    @staticmethod
    def near(w: float, value: float):
        return pytest.approx(value, rel=1e-12 + 64 * 5e-324 / w)

    def test_the_problem(self, w):
        problem = RdProblem([1.0, w], [0.5, 0.5], [[0.0, 0.0], [0.0, 1.0]])
        rate, mmse = self.closed_form(w, -1.0)
        point = distortion_at_force(problem, -1.0)
        assert point.rate == self.near(w, rate) and point.mmse == self.near(w, mmse)
        assert rate_mmse_integral(problem, -1.0, tol=max(1e-9 * w, 5e-324)) == self.near(w, rate)
        solved = force_at_distortion(problem, 0.4 * w)
        assert solved.s == self.near(w, math.log(2.0 / 3.0))
        assert solved.rate == self.near(w, self.closed_form(w, math.log(2.0 / 3.0))[0])

    def test_the_chain(self, w):
        system = from_rd_problem(RdProblem([1.0, w], [0.5, 0.5], [[0.0, 0.0], [0.0, 1.0]]))
        assert quasistatic_work(system, -1.0, tol=max(1e-9 * w, 5e-324)) == self.near(w, self.closed_form(w, -1.0)[0])
        assert equilibrium_force(system, 0.4 * w) == self.near(w, math.log(2.0 / 3.0))

    def test_rd2(self, w):
        # the second table holds the row's other letter: budgets 0.4 w and 0.7 w meet on the first
        # table's face, and 0.4 w with 0.3 w ask the row for a mass both below 0.4 and above 0.7
        problem = RdProblem2([1.0, w], [0.5, 0.5], [[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])
        rate, s1, s2 = rate_two_distortions(problem, 0.4 * w, 0.7 * w)
        assert rate == self.near(w, self.closed_form(w, math.log(2.0 / 3.0))[0])
        assert (s1, s2) == (self.near(w, math.log(2.0 / 3.0)), 0.0)
        with pytest.raises(InfeasiblePairError, match="jointly unsatisfiable"):
            rate_two_distortions(problem, 0.4 * w, 0.3 * w)

    def test_rd_point_at_a_force(self, capsys, config, w):
        # exit 2, "mmse is not representable", after the overflow warnings
        code, out, err = run(capsys, ["rd", "point", "--force=-1", "--config", config(f"light_row_{w!r}")])
        assert (code, err) == (0, "")
        rate, mmse = self.closed_form(w, -1.0)
        assert float(csv_values(out)["rate_nats"]) == self.near(w, rate)
        assert float(csv_values(out)["mmse"]) == self.near(w, mmse)
