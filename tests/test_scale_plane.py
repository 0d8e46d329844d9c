"""The plane of table scale x force, with Python warnings raised as errors.

Every route in ``tiltrate.__all__`` that takes a force or a budget runs on a table scaled by
c = 10^U(-320, 308), subnormal entries included, at a force s = +-10^U(-320, 308), or at a budget
halfway from its floor to its mean at force 0.  Each call answers with finite values (a solve's
force may be an end's +-inf) or raises a ``TiltrateError``: nothing unrepresentable leaves as
inf, nan or a warning.  Where the scaled table holds its twin at scale 1 to full precision (every
entry times every weight a normal float) and both calls answer, each answer moved to scale 1 (a
distortion over c, a force times c, a variance over c^2) agrees with the twin's within 1e-9
relative (a quantity in nats also 1e-14 absolute, and the rounding of a Legendre rate's terms,
eps * |s| times the table's scale); an answer that is subnormal has lost its digits, and a
solve's force at an end or at 0 can be either by the last bit of its budget, so neither is
compared.

CI runs this file under hypothesis seeds 1 to 5 as well as its own.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tiltrate
from tiltrate import (
    ChainSystem,
    ElementArray,
    FiniteDistribution,
    NumericalError,
    RdProblem,
    RdProblem2,
    TiltrateError,
    blahut_arimoto,
    brute_allocation_min,
    distortion_at_force,
    entropy_at_energy,
    equal_force_allocation,
    equilibrium_force,
    exact_ld_probability,
    expected_length,
    force_at_distortion,
    force_at_level,
    from_rd_problem,
    gibbs_free_energy,
    legendre_grid_max,
    log_mgf,
    mean_via_integral,
    mmse,
    observable_expectation,
    observable_sweep,
    protocol_work,
    protocol_work_bounds,
    quasistatic_work,
    rate_at_force,
    rate_legendre,
    rate_mmse_integral,
    rate_two_distortions,
    rate_work_integral,
    rd_curve,
    riemann_sandwich,
    sandwich_bounds,
    tilt,
    tilted_conditional,
)
from tiltrate.errors import InfeasiblePairError
from tiltrate.ratedistortion import distortion_mmse_integral

from conftest import LN2, LN3, h2

TINY, EPS = float(np.finfo(float).tiny), float(np.finfo(float).eps)


class Case:
    """The problem of one draw at scale c: its laws, the table d = c * U(0, 1) (k x k), its first
    row as a distribution, its chain, ragged, and a two-budget problem with a second table d2 drawn
    as d is.  Array x of the chain is row x of d with the energies -ln Q, every odd one a state
    shorter."""

    def __init__(self, p, q, d, d2, c):
        self.c = c
        self.problem = RdProblem(p, q, d)
        self.dist = FiniteDistribution(d[0], q)
        table, energies = self.problem.distortion, -np.log(self.problem.coding_probs)
        self.system = ChainSystem(tuple(
            ElementArray(row[: row.size - x % 2], energies[: row.size - x % 2], fraction)
            for x, (row, fraction) in enumerate(zip(table, self.problem.source_probs.tolist()))))
        self.pair = RdProblem2(p, q, d, d2)


def halfway(lo: float, hi: float) -> float:
    return 0.5 * lo + 0.5 * hi


def budgets(case) -> dict:
    """The budget routes' targets on the case: halfway from each floor to the mean at force 0 (or,
    for a level or a length, to the greatest value)."""
    p, q, d, dist = case.problem.source_probs, case.problem.coding_probs, case.problem.distortion, case.dist
    arrays = case.system.arrays
    return {
        "budget": halfway(float(p @ d.min(axis=1)), float(p @ (d @ q))),
        "level": halfway(dist.min_value, dist.max_value),
        "length": halfway(sum(a.fraction * float(a.state_lengths.min()) for a in arrays),
                          sum(a.fraction * float(a.state_lengths.max()) for a in arrays)),
        "energy": halfway(dist.min_value, dist.mean),
    }


def three(s: float) -> list[float]:
    return [0.0, 0.5 * s, s]


def point(pt) -> list:
    return [(pt.rate, 0), (pt.distortion, 1), *((m, 1) for m in pt.per_symbol_mean.tolist())]


# Each route at the case's force s or budget: its answers as (value, power), the value at scale c
# being the twin's times c^power.  NO_TWIN's answers are checked for finiteness alone: the grid
# oracle scans forces in [-50, 0] at every scale, and the brute-force allocation admits a grid
# point within 1e-12 of the budget absolute, below scale 1.
ROUTES = {
    "distortion_at_force": lambda case, s, b: point(distortion_at_force(case.problem, s)),
    "RdPoint.mmse": lambda case, s, b: [(distortion_at_force(case.problem, s).mmse, 2)],
    "RdPoint.per_symbol_var": lambda case, s, b: [(v, 2) for v in distortion_at_force(case.problem, s).per_symbol_var],
    "rd_curve": lambda case, s, b: [x for pt in rd_curve(case.problem, [s, 0.0]) for x in point(pt)],
    "mmse": lambda case, s, b: [(mmse(case.problem, s), 2)],
    "rate_mmse_integral": lambda case, s, b: [(rate_mmse_integral(case.problem, s), 0)],
    "observable_expectation": lambda case, s, b: [
        (observable_expectation(case.problem, case.problem.distortion, s), 1)],
    "observable_sweep": lambda case, s, b: [(observable_sweep(case.problem, case.problem.distortion, s), 1)],
    "sandwich_bounds": lambda case, s, b: [(x, 0) for x in sandwich_bounds(case.problem, three(s))],
    "tilted_conditional": lambda case, s, b: [(x, 0) for x in tilted_conditional(case.problem, s).ravel().tolist()],
    "gibbs_free_energy": lambda case, s, b: [(gibbs_free_energy(case.system, s), 0)],
    "expected_length": lambda case, s, b: [(expected_length(case.system, s), 1)],
    "quasistatic_work": lambda case, s, b: [(quasistatic_work(case.system, s), 0)],
    "protocol_work_bounds": lambda case, s, b: [(x, 0) for x in protocol_work_bounds(case.system, three(s))],
    "protocol_work": lambda case, s, b: [(protocol_work(case.system, three(s)), 0)],
    "log_mgf": lambda case, s, b: [(log_mgf(case.dist, s), 0)],
    "rate_at_force": lambda case, s, b: (lambda r: [(r.level, 1), (r.rate, 0)])(rate_at_force(case.dist, s)),
    "tilt": lambda case, s, b: (lambda r: [(r.log_mgf, 0), (r.mean, 1), (r.variance, 2)])(tilt(case.dist, s)),
    "FiniteDistribution.variance": lambda case, s, b: [(case.dist.variance, 2)],
    "rate_work_integral": lambda case, s, b: [(rate_work_integral(case.dist, s), 0)],
    "mean_via_integral": lambda case, s, b: [(mean_via_integral(case.dist, s), 1)],
    "riemann_sandwich": lambda case, s, b: [(x, 0) for x in riemann_sandwich(case.dist, three(s))],
    "blahut_arimoto": lambda case, s, b: (lambda r: [(r.rate, 0), (r.distortion, 1)])(
        blahut_arimoto(case.problem.source_probs, case.problem.distortion, s, max_iter=50)),
    "force_at_distortion": lambda case, s, b: (lambda pt: [(pt.s, -1), *point(pt)])(
        force_at_distortion(case.problem, b["budget"])),
    "rate_legendre": lambda case, s, b: [(rate_legendre(case.problem, b["budget"]), 0)],
    "equal_force_allocation": lambda case, s, b: (lambda a: [(a[1], 0), *((x, 1) for x in a[0].per_symbol_distortion)])(
        equal_force_allocation(case.problem, b["budget"])),
    "force_at_level": lambda case, s, b: (lambda r: [(r.force, -1), (r.rate, 0)])(
        force_at_level(case.dist, b["level"])),
    "equilibrium_force": lambda case, s, b: [(equilibrium_force(case.system, b["length"]), -1)],
    "entropy_at_energy": lambda case, s, b: [(entropy_at_energy(case.dist, b["energy"]), 0)],
    "rate_two_distortions": lambda case, s, b: (lambda r: [(r[0], 0), (r[1], -1), (r[2], -1)])(
        rate_two_distortions(case.pair, b["budget"], b["budget"])),
    "brute_allocation_min": lambda case, s, b: [(brute_allocation_min(case.problem, b["budget"], 6), 0)],
    "exact_ld_probability": lambda case, s, b: [(x, 0) for x in exact_ld_probability(case.problem, 3, b["budget"])],
    "legendre_grid_max": lambda case, s, b: [(legendre_grid_max(case.problem, b["budget"], points=21), 0)],
}
NO_TWIN = {"legendre_grid_max", "brute_allocation_min"}
# a solve's force at an end, and the exponent of an event of probability 0, are +-inf by design
ENDS = {"force_at_distortion", "force_at_level", "rate_two_distortions", "exact_ld_probability"}


def test_every_public_route_that_takes_a_force_or_a_budget_is_in_the_plane():
    takers = {"distortion_at_force", "rd_curve", "mmse", "rate_mmse_integral", "observable_expectation",
              "observable_sweep", "sandwich_bounds", "tilted_conditional", "gibbs_free_energy",
              "expected_length", "quasistatic_work", "protocol_work_bounds", "protocol_work", "log_mgf",
              "rate_at_force", "tilt", "rate_work_integral", "mean_via_integral", "riemann_sandwich",
              "blahut_arimoto", "force_at_distortion", "rate_legendre", "equal_force_allocation",
              "force_at_level", "equilibrium_force", "entropy_at_energy", "rate_two_distortions",
              "brute_allocation_min", "exact_ld_probability", "legendre_grid_max"}
    assert takers <= set(tiltrate.__all__) and takers <= set(ROUTES)
    assert {name.split(".")[0] for name in ROUTES} <= set(tiltrate.__all__)


def answers(route, case, s, b):
    """The route's (value, power) pairs, or None where it raised a ``TiltrateError``; a warning
    fails the test, as does any other exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return ROUTES[route](case, s, b)
        except TiltrateError:
            return None


def at_scale_1(value: float, power: int, c: float) -> float:
    """``value`` over c^power, one factor at a time, so that no power of c overflows."""
    for _ in range(abs(power)):
        value = value / c if power > 0 else value * c
    return value


def check(route, case, s, twin, twin_s):
    """One route on the case and, where there is one, its twin at the budgets taken on the case and
    moved to scale 1, so that the two calls ask one question."""
    b = budgets(case)
    got = answers(route, case, s, b)
    if got is None:
        return "refused"
    for value, _ in got:
        assert math.isfinite(value) or (route in ENDS and math.isinf(value)), (route, got)
    twin_b = {name: x / case.c for name, x in b.items()}
    want = None if twin is None or route in NO_TWIN else answers(route, twin, twin_s, twin_b)
    if want is None:
        return "answered"
    assert len(got) == len(want)
    for (value, power), (twin_value, _) in zip(got, want):
        if value != 0.0 and abs(value) < TINY:
            continue  # subnormal: its digits are gone at this scale
        if power < 0 and not (math.isfinite(value) and math.isfinite(twin_value) and value and twin_value):
            continue  # an end or force 0: a budget on the edge of an end band gets either by its last bit
        moved = at_scale_1(value, power, case.c)
        # a quantity in nats (power 0) is also allowed 1e-14 absolute, and the rounding of the terms
        # near s * level of which a Legendre rate is the difference (ROADMAP item 1)
        terms = abs(twin_s) * float(np.abs(twin.problem.distortion).max()) if math.isfinite(twin_s) else 0.0
        tolerance = 1e-14 + 8.0 * EPS * terms if power == 0 else 1e-290
        assert math.isclose(moved, twin_value, rel_tol=1e-9, abs_tol=tolerance) or moved == twin_value, (
            route, value, moved, twin_value)
    return "agreed"


def draw_case(seed: int, k: int, c: float) -> tuple[Case, Case | None]:
    """The case at scale c and, where the scaled tables hold it to full precision, its twin at
    scale 1: the scaled tables over c, so the two hold one problem."""
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k))
    d = rng.random((k, k)) * c
    d2 = rng.random((k, k)) * c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        case = Case(p, q, d, d2, c)
    nonzero = np.abs(np.concatenate((d[d != 0.0], d2[d2 != 0.0])))
    held = nonzero.size == 0 or float(nonzero.min()) * min(float(p.min()), float(q.min())) > 1e-290
    twin_held = held and max(float(d.max()), float(d2.max())) < 1e300
    return case, (Case(p, q, d / c, d2 / c, 1.0) if twin_held else None)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-320.0, 308.0), st.floats(-320.0, 308.0),
       st.sampled_from([-1.0, 1.0]))
@settings(max_examples=150, deadline=None)
@example(0, 2, -300.0, 0.0, -1.0)
@example(1, 3, 160.0, -160.0, -1.0)
@example(2, 6, -320.0, 300.0, 1.0)
@example(3, 1, 300.0, -310.0, -1.0)
@example(4, 4, -161.0625, 0.0, -1.0)  # every letter's variance leaves its units subnormal: mmse answered 0.0
@example(400, 3, 0.0, 0.0, -1.0)  # an unsatisfiable rd2 pair: the ascent stepped past the kernel's hold, an overflow
@example(0, 1, 1.25, 307.0, -1.0)  # one-value rows at a force near the largest float: a quadrature node overflowed
def test_the_scale_plane(seed, k, log_c, log_s, sign):
    case, twin = draw_case(seed, k, 10.0**log_c)
    s = sign * 10.0**log_s
    twin_s = s * case.c
    if not math.isfinite(twin_s):
        twin = None
    for route in ROUTES:
        check(route, case, s, twin, twin_s)


def read_mmse(route):
    """The bits of an mmse, or the message of the ``NumericalError`` it raised, under warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.asarray(route(), dtype=float).tobytes()
        except NumericalError as error:
            return str(error)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-320.0, 308.0), st.floats(-320.0, 308.0),
       st.sampled_from([-1.0, 1.0]))
@settings(max_examples=100, deadline=None)
@example(4, 4, -161.0625, 0.0, -1.0)  # mmse answered 0.0, where RdPoint.mmse raises
@example(0, 2, -300.0, 0.0, -1.0)
@example(1, 3, 160.0, -160.0, -1.0)
def test_mmse_is_the_points_mmse_and_raises_where_it_does(seed, k, log_c, log_s, sign):
    # at one force, bit for bit or the same refusal; on a grid, each entry's bits, or a refusal where
    # any entry's point refuses
    problem, s = draw_case(seed, k, 10.0**log_c)[0].problem, sign * 10.0**log_s
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = [distortion_at_force(problem, u) for u in (s, -0.0, 0.5 * s)]
    except TiltrateError:
        return  # no point to read (a rate at a positive force past 2^52 keeps no digit)
    each = [read_mmse(lambda: point.mmse) for point in points]
    assert read_mmse(lambda: mmse(problem, s)) == each[0]
    grid = read_mmse(lambda: mmse(problem, np.array([s, -0.0, 0.5 * s])))
    if all(isinstance(one, bytes) for one in each):
        assert grid == b"".join(each)
    else:
        assert isinstance(grid, str) and grid.startswith("mmse is not representable")


def bss(c: float) -> RdProblem:
    return RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, c], [c, 0.0]])


@pytest.mark.parametrize("c", [1e-300, 1e-200, 1e160, 1e200])
def test_bss_answers_at_every_scale(c):
    # bss at budget 0.25 c and force ln(1/3) / c: the rate is ln 2 - h(0.25) and the force
    # ln(1/3) / c, solved to 1e-13 relative; the variance routes raise where their value, 0.1875
    # c^2 or 0.25 c^2, is not a float, and no route leaves inf, nan or a silent 0
    truth, force = LN2 - h2(0.25), -LN3 / c
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = force_at_distortion(bss(c), 0.25 * c)
        assert point.rate == pytest.approx(truth, rel=1e-13) and point.s == pytest.approx(force, rel=1e-13)
        assert distortion_at_force(bss(c), force).rate == pytest.approx(truth, rel=1e-13)
        pair = RdProblem2([0.5, 0.5], [0.5, 0.5], [[0.0, c], [c, 0.0]], [[0.0, c / 2], [c / 2, 0.0]])
        assert rate_two_distortions(pair, 0.25 * c, 0.2 * c)[0] > 0.0
        coin = FiniteDistribution([0.0, c], [0.5, 0.5])
        assert force_at_level(coin, 0.25 * c).force == pytest.approx(force, rel=1e-13)
        assert equilibrium_force(from_rd_problem(bss(c)), 0.25 * c) == pytest.approx(force, rel=1e-13)
        for route in (lambda: rate_mmse_integral(bss(c), force), lambda: rate_work_integral(coin, force),
                      lambda: quasistatic_work(from_rd_problem(bss(c)), force)):
            assert abs(route() - truth) <= 1e-9
        for variance in (lambda: distortion_at_force(bss(c), force).mmse, lambda: tilt(coin, force).variance,
                         lambda: distortion_at_force(bss(c), force).per_symbol_var, lambda: coin.variance,
                         lambda: mmse(bss(c), force)):
            with pytest.raises(NumericalError, match="is not representable"):
                variance()


def test_a_point_whose_mmse_overflows_raises_when_read():
    # rd point --force=-1e-160 on distortion = 0, 1e160; 1e160, 0 printed mmse,inf and var_x0,inf
    # with exit 0, even under python -W error: the rate answers, and the mmse, 1.97e319, raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = distortion_at_force(bss(1e160), -1e-160)
        assert point.rate == pytest.approx(distortion_at_force(bss(1.0), -1.0).rate, rel=1e-13)
        with pytest.raises(NumericalError, match="^mmse is not representable"):
            point.mmse
        with pytest.raises(NumericalError, match="^per_symbol_var is not representable"):
            point.per_symbol_var


def test_a_row_of_weight_1e_200_that_carries_the_whole_range():
    # The table's span is 1e-200, and that row spans 1e200 of it: the unit is the row's range over
    # 2^64 (tilting._WIDEST_UNITS), where in units of the span its tilted variance, about 1e400,
    # overflowed.  Every route answers within 1e-12 of the closed form (two_letter_rows), with no
    # warning: the point's mmse and per_symbol_var and the mmse integral had raised NumericalError,
    # and the solve for a budget, whose Newton slope it is, had bisected and run out of steps.
    w = 1e-200
    problem = RdProblem([1.0 - w, w], [0.5, 0.5], [[0.0, 0.0], [0.0, 1.0]])
    tilted = 1.0 / (1.0 + math.e)  # the row's tilted mass on distortion 1 at force -1
    rate, distortion = two_letter_rows([1.0 - w, w], [0.0, 1.0], -1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = distortion_at_force(problem, -1.0)
        assert point.distortion == pytest.approx(distortion, rel=1e-12)
        assert point.rate == pytest.approx(rate, rel=1e-12)
        assert point.rate == pytest.approx(w * (-tilted - math.log(0.5 + 0.5 / math.e)), rel=1e-12)
        assert point.mmse == pytest.approx(w * tilted * (1.0 - tilted), rel=1e-12)
        assert point.per_symbol_var == pytest.approx([0.0, tilted * (1.0 - tilted)], rel=1e-12)
        assert rate_mmse_integral(problem, -1.0, tol=1e-213) == pytest.approx(rate, rel=1e-12)
        assert force_at_distortion(problem, point.distortion).s == pytest.approx(-1.0, rel=1e-12)
        # a budget of 0.4 w puts mass 0.4 on distortion 1, at force ln(2/3)
        solved = force_at_distortion(problem, 0.4 * w)
        assert solved.s == pytest.approx(math.log(2.0 / 3.0), rel=1e-12)
        assert solved.rate == pytest.approx(w * (0.4 * math.log(2.0 / 3.0) - math.log(5.0 / 6.0)), rel=1e-12)
        assert solved.rate == pytest.approx(0.0201355135507 * w, rel=1e-11)


@pytest.mark.parametrize("w", [1e-25, 1e-100, 1e-200])
def test_tolerances_in_units_of_the_span_hold_where_a_light_row_sets_the_unit(w):
    # Where a row of weight w carries the whole range the table spans 2^64 w units, not 1.  The slope
    # integrals meet tol times the span, where in units they had run to tol (2.3 times tol times the
    # span off); rd2's stopping tests read its gradient in units of each table's span, where a
    # gradient near 2^64 w passed them at once and answered (0, 0, 0) for every pair
    problem = RdProblem([1.0 - w, w], [0.5, 0.5], [[0.0, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        distortion = distortion_at_force(problem, -1.0).distortion
        assert abs(distortion_mmse_integral(problem, -1.0) - distortion) <= 1e-9 * w
        twice = [[0.0, 0.0], [0.0, 2.0]]
        assert abs(observable_sweep(problem, twice, -1.0) - 2.0 * distortion) <= 2e-9 * w
        pair = RdProblem2([1.0 - w, w], [0.5, 0.5], [[0.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [1.0, 0.0]])
        rate, s1, s2 = rate_two_distortions(pair, 0.4 * w, 0.7 * w)
        assert rate == pytest.approx(w * (0.4 * math.log(2.0 / 3.0) - math.log(5.0 / 6.0)), rel=1e-12)
        assert (s1, s2) == (pytest.approx(math.log(2.0 / 3.0), rel=1e-12), 0.0)
        with pytest.raises(InfeasiblePairError, match="jointly unsatisfiable"):
            rate_two_distortions(pair, 0.4 * w, 0.3 * w)


def two_letter_rows(p, ranges, s: float) -> tuple[float, float]:
    """(rate, distortion) at force s of rows {0, r} under the coding law (1/2, 1/2), in closed form:
    Z_x = (1 + e^{s r_x}) / 2 and D_x = r_x e^{s r_x} / (1 + e^{s r_x})."""
    weights = [math.exp(s * r) for r in ranges]
    distortion = sum(px * r * w / (1.0 + w) for px, r, w in zip(p, ranges, weights))
    return s * distortion - sum(px * math.log((1.0 + w) / 2.0) for px, w in zip(p, weights)), distortion


@pytest.mark.parametrize("s", [-1e14, -1e17, -1e300, -1e308])
def test_a_narrow_row_keeps_its_own_law_past_the_widest_rows_limit(s):
    # rows [0, 1] and [0, 1e-15]: at s = -1e17 the narrow row's exponent is -100, so the rate is ln 2
    # less 2e-44.  A force held where only the wide row is at its limit (its exponent at 2^52) would
    # put the narrow row's at -4.5 and the rate 4 % low; past 2^1022 the force is held where every
    # letter above its row's start weighs 0, the limit of every row.
    p, ranges = [0.5, 0.5], [1.0, 1e-15]
    problem = RdProblem(p, [0.5, 0.5], [[0.0, 1.0], [0.0, 1e-15]])
    rate, distortion = two_letter_rows(p, ranges, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = distortion_at_force(problem, s)
        assert point.rate == pytest.approx(rate, rel=1e-13)
        assert point.distortion == pytest.approx(distortion, rel=1e-12, abs=0.0)
        curve = rd_curve(problem, [s, 0.0])
        assert (curve[-1].rate, curve[-1].distortion) == (point.rate, point.distortion)
        for integral in (lambda: rate_mmse_integral(problem, s), lambda: quasistatic_work(from_rd_problem(problem), s)):
            assert integral() == pytest.approx(rate, abs=1e-9)
        low, high = sandwich_bounds(problem, three(s))
        assert low <= rate <= high


def test_a_hold_that_is_not_exact_is_a_numerical_failure():
    # rows [0, 1e300] and [0, 1e-10]: at s = -1e9 the wide row's exponent passes the largest float,
    # and no one kernel force puts the narrow row's letter (exponent -0.1) and the wide row's at their
    # laws, so the route refuses; the parent warned of an overflow in multiply
    problem = RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1e300], [0.0, 1e-10]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="no kernel force holds"):
            distortion_at_force(problem, -1e9)
        assert distortion_at_force(problem, -1e-9).rate > 0.0


def test_a_positive_force_answers_its_law_and_refuses_only_a_rate_with_no_digit():
    # at s = 1e16 on {0, 1} the law is on the greatest letter: tilt, log_mgf, the mean's integral and
    # the chain's lengths answer, as at the parent; the rate, the difference of two terms near 1e16,
    # keeps no digit (the parent gave 0.0 for ln 2) and raises.  Past 2^1022 the log-partition is near
    # the largest float, and every route refuses the force.
    coin, system = FiniteDistribution([0.0, 1.0], [0.5, 0.5]), from_rd_problem(bss(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = tilt(coin, 1e16)
        assert (report.log_mgf, report.mean, report.variance) == (1e16, 1.0, 0.0)
        assert log_mgf(coin, 1e16) == 1e16
        assert mean_via_integral(coin, 1e16) == pytest.approx(1.0, abs=1e-9)
        assert expected_length(system, 1e16) == 1.0
        with pytest.raises(NumericalError, match="keeps no digit"):
            rate_at_force(coin, 1e16)
        for route in (lambda: tilt(coin, 1e308), lambda: expected_length(system, 1e308)):
            with pytest.raises(NumericalError, match="passes 2"):
                route()
