"""Fixed-force grids go through the kernel in one batched call per grid.

Each grid path must give, bit for bit, what a loop of one-force calls gives:
``rd_curve`` against ``distortion_at_force``, ``tilt`` and ``mmse`` on a grid
against themselves at each force, and ``riemann_sandwich``,
``sandwich_bounds`` and ``protocol_work_bounds`` against the kernel at one
force on the table at origin and in units, whose means they difference (the
row starts cancel in every difference).  The Riemann sums are formed as
``tilting._riemann_sums`` forms them, from the per-point means in units, each
taken at its kernel force (``tilting._Table.force``), times the table's unit.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tiltrate import (
    ChainSystem,
    ElementArray,
    FiniteDistribution,
    RdProblem,
    array_lengths,
    distortion_at_force,
    equilibrium_force,
    expected_length,
    from_rd_problem,
    gibbs_free_energy,
    length_variance,
    log_mgf,
    mmse,
    observable_sweep,
    protocol_work_bounds,
    quasistatic_work,
    rate_at_force,
    rd_curve,
    riemann_sandwich,
    sandwich_bounds,
    tilt,
)
from tiltrate import chain, ratedistortion
from tiltrate.ratedistortion import distortion_mmse_integral
from tiltrate.solvers import adaptive_simpson
from tiltrate.tilting import _BLOCK_ENTRIES, _at_origin

from conftest import full_table_observable, raw_table, recursive_simpson
from test_contract import einsum_moments
from test_symmetry import draw

# draws per alphabet size: the k = 512 grids cost a few ms per force
DRAWS = {2: 8, 64: 3, 512: 1}
CASES = [(k, draw) for k, n in DRAWS.items() for draw in range(n)]


def draw_problem(k: int, draw: int) -> tuple[np.random.Generator, RdProblem]:
    rng = np.random.default_rng([k, draw, 6])
    problem = RdProblem(rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)), rng.random((k, k)) * 3.0)
    return rng, problem


def sums_of(forces, means, unit: float = 1.0) -> tuple[float, float]:
    dm = np.diff(means)
    return (float(np.dot(forces[:-1], dm)) * unit, float(np.dot(forces[1:], dm)) * unit)


def origin_means(table, forces) -> list[float]:
    """The row-weighted mean at each force on a table at origin, in units, one kernel call per force
    at its kernel force (``tilting._Table.force``)."""
    return [np.dot(table.row_weights, table.grid(table.force(float(s)))[1]) for s in forces]


def points(k: int) -> int:
    return 6 if k == 512 else 41


@pytest.mark.parametrize("k,draw", CASES)
def test_rd_curve_matches_point_by_point(k, draw):
    rng, problem = draw_problem(k, draw)
    grid = -rng.uniform(0.0, 4.0, points(k))
    grid[:3] = [0.0, grid[4], -0.0]  # the zero force and a repeated force
    curve = rd_curve(problem, grid)
    reference = [distortion_at_force(problem, float(s)) for s in sorted(grid, reverse=True)]
    assert len(curve) == len(reference)
    for got, ref in zip(curve, reference):
        assert (got.s, got.distortion, got.rate, got.mmse, got.boundary) == (
            ref.s, ref.distortion, ref.rate, ref.mmse, ref.boundary)
        assert np.array_equal(got.per_symbol_mean, ref.per_symbol_mean)
        assert np.array_equal(got.per_symbol_var, ref.per_symbol_var)


def test_rd_curve_points_are_ordinary_records():
    # the grid's points skip the generated __init__; each must be the record it would have built
    problem = draw_problem(2, 0)[1]
    built = distortion_at_force(problem, -0.5)
    for point in rd_curve(problem, [-0.5, -1.0]):
        assert list(vars(point)) == list(vars(built))
        with pytest.raises(dataclasses.FrozenInstanceError):
            point.rate = 0.0
        moved = dataclasses.replace(point, boundary="above_zero_force")
        assert (moved.s, moved.rate, moved.boundary) == (point.s, point.rate, "above_zero_force")
        assert point.boundary is None


@pytest.mark.parametrize("k,draw", CASES)
def test_sandwich_bounds_match_point_by_point(k, draw):
    rng, problem = draw_problem(k, draw)
    part = np.linspace(0.0, -rng.uniform(0.5, 5.0), points(k))
    table = ratedistortion._table(problem)
    assert sandwich_bounds(problem, part) == sums_of(part, origin_means(table, part), table.unit)


@pytest.mark.parametrize("k,draw", CASES)
def test_riemann_sandwich_matches_point_by_point(k, draw):
    rng = np.random.default_rng([k, draw, 7])
    dist = FiniteDistribution(rng.random(k) * 2.0, rng.dirichlet(np.ones(k)))
    part = np.linspace(0.0, rng.uniform(-6.0, 6.0), 4 * points(k))
    assert riemann_sandwich(dist, part) == sums_of(part, origin_means(dist._table, part), dist._table.unit)


def with_repeats(rng, grid) -> np.ndarray:
    """``grid`` with its first, last and a few inner forces repeated in place."""
    picks = np.concatenate(([0, grid.size - 1], rng.integers(1, grid.size - 1, 3)))
    return np.sort(np.concatenate((grid, grid[picks])))[:: 1 if grid[-1] > 0.0 else -1]


@pytest.mark.parametrize("k,draw", CASES)
def test_repeated_forces_add_nothing_to_the_sums(k, draw):
    # a zero term anywhere but the tail would regroup np.dot's blocked sum: the grids are long
    rng, problem = draw_problem(k, draw)
    dist = FiniteDistribution(rng.random(k) * 2.0, rng.dirichlet(np.ones(k)))
    system = from_rd_problem(problem, beta=float(rng.uniform(0.5, 2.0)))
    for bounds, end in [(lambda g: sandwich_bounds(problem, g), -rng.uniform(0.5, 5.0)),
                        (lambda g: riemann_sandwich(dist, g), rng.uniform(-6.0, 6.0)),
                        (lambda g: protocol_work_bounds(system, g), -rng.uniform(0.5, 4.0))]:
        grid = np.linspace(0.0, end, points(k))
        repeated = with_repeats(rng, grid)
        assert repeated.size == grid.size + 5
        assert bounds(repeated) == bounds(grid)


@pytest.mark.parametrize("k,draw", CASES)
def test_protocol_work_bounds_match_point_by_point(k, draw):
    rng, problem = draw_problem(k, draw)
    system = from_rd_problem(problem, beta=float(rng.uniform(0.5, 2.0)))
    schedule = np.linspace(0.0, -rng.uniform(0.5, 4.0), points(k))
    assert protocol_work_bounds(system, schedule) == beta_sums(system, schedule)


def test_protocol_on_ragged_arrays_matches_point_by_point(rng):
    sizes, fractions = [2, 5, 3], rng.dirichlet(np.ones(3))
    system = ChainSystem(
        tuple(ElementArray(rng.random(m), rng.random(m), float(f)) for m, f in zip(sizes, fractions)),
        beta=0.7,
    )
    schedule = np.linspace(0.0, -2.5, 30)
    assert protocol_work_bounds(system, schedule) == beta_sums(system, schedule)


def beta_sums(system, schedule) -> tuple[float, float]:
    """The protocol's sums over the schedule, of the means at the forces beta * lam."""
    table = chain._table(system)
    return sums_of(schedule, origin_means(table, system.beta * schedule), table.unit)


def bits(values) -> bytes:
    """The float bits of ``values``, so that -0.0 and 0.0 differ and nan equals itself."""
    return np.asarray(values, dtype=float).tobytes()


def tilt_by_einsum(dist, s: float) -> tuple:
    """(s, log_mgf, mean, variance) of ``dist`` at one force by the kernel's formula written with the
    public ``np.einsum`` (``test_contract.einsum_moments``), at the kernel force ``table.forces`` gives
    that force, each moment moved out by the table's exits: ``tilt``'s one-force reference."""
    table = dist._table
    (log_z,), (mean,), (variance,) = einsum_moments(table.log_weights, table.values, table.force(s), 2)
    return (s, float(table.log_z_from_origin(s, log_z)[0]), float(table.means_from_origin(mean)[0]),
            float(table.variances(variance, "variance")))


def moments_by_dot(law: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """The mean and variance of ``values`` under ``law`` by ``np.dot``, the variance by the corrected
    two-pass formula, which takes off the square of the centred values' mean: a variance about a mean
    off by m is m^2 too large, which where a law sits on values close together far from origin passes
    its last place."""
    mean = float(np.dot(law, values))
    centered = values - mean
    return mean, float(np.dot(law, centered * centered)) - float(np.dot(law, centered)) ** 2


def tilt_by_dot(dist, s: float) -> tuple:
    """(s, log_mgf, mean, variance) of ``dist`` at one force, by ``moments_by_dot`` on its tilted law at
    origin and in units, each moment moved out as the table's exits move it (times the unit, or its
    square): an independent one-force formula, which sums in another order than the kernel's."""
    table = dist._table
    (law,), (log_z,) = table.law(s)
    values, start, unit = table.values[0], dist.min_value, table.unit
    mean, variance = moments_by_dot(law, values)
    return s, float(log_z) + s * start, mean * unit + start, variance * unit * unit


def within_ulps(a, b, ulps: int) -> bool:
    """Whether each entry of ``a`` is within ``ulps`` units in the last place of the larger of it and ``b``'s."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= ulps * np.spacing(np.maximum(np.abs(a), np.abs(b)))))


def mmse_by_dot(problem: RdProblem, s: float) -> float:
    """``mmse`` at one force by ``np.dot``: each row's variance on its tilted law at origin and in units
    (``moments_by_dot``), weighted by the source law and moved out of the units.  Each row of the table
    is its own, not its letter's law, whose tied values ``delta_dists`` merges."""
    table = ratedistortion._table(problem)
    laws, _ = table.law(s)
    rows = [moments_by_dot(law, values)[1] for law, values in zip(laws, table.values)]
    return float(np.dot(problem.source_probs, rows)) * table.unit * table.unit


def assert_grid_is_the_loop(problem: RdProblem, forces: np.ndarray, ulps: int = 8):
    """``tilt`` of each letter's distortion law and ``mmse`` on ``forces``, each field bit for bit as the
    same route at each force in turn.  ``tilt`` is also the kernel's formula at each force
    (``tilt_by_einsum``) and ``mmse`` is ``RdPoint.mmse``, bit for bit; each is within ``ulps`` units in
    the last place of ``np.dot`` at each force (``tilt_by_dot``, ``mmse_by_dot``).  Over 9,000 draws of
    up to 6 letters at forces within 40 of 0 the two formulas parted by 3 units in a mean, 7 in a
    letter's variance and 6 in ``mmse`` at most."""
    for dist in problem.delta_dists:
        report, each = tilt(dist, forces), [tilt(dist, s) for s in forces.tolist()]
        by_einsum = np.array([tilt_by_einsum(dist, s) for s in forces.tolist()]).T
        by_dot = np.array([tilt_by_dot(dist, s) for s in forces.tolist()]).T
        for name, reference, independent in zip(("s", "log_mgf", "mean", "variance"), by_einsum, by_dot):
            assert bits(getattr(report, name)) == bits([getattr(one, name) for one in each]) == bits(reference), name
            assert within_ulps(reference, independent, ulps), name
    points = [distortion_at_force(problem, s).mmse for s in forces.tolist()]
    assert bits(mmse(problem, forces)) == bits([mmse(problem, s) for s in forces.tolist()]) == bits(points)
    assert within_ulps(points, [mmse_by_dot(problem, s) for s in forces.tolist()], ulps)


signed_zeros_and_forces = st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-40.0, 40.0), min_size=1, max_size=12)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["draw", "ties", "point mass rows"]), signed_zeros_and_forces)
@settings(max_examples=80, deadline=None)
@example(0, "draw", [0.0, -0.0, -1.5, 2.0])
@example(5, "ties", [-0.0, -3.0, 0.0])
@example(7, "point mass rows", [0.0, -0.0, -40.0, 40.0])
@example(365, "ties", [39.9, 40.0])  # rows on their top two values: a variance near 1e-18 of a mean near 1
def test_tilt_and_mmse_on_a_grid_are_their_loop(seed, kind, forces):
    assert_grid_is_the_loop(grid_problem(seed, kind), np.array(forces))


def grid_problem(seed: int, kind: str) -> RdProblem:
    """A ``test_symmetry.draw`` problem; with "ties", its entries drawn from four values, the last
    two within the merge tolerance (``tilting._set_laws``); with "point mass rows", every other
    row one value."""
    p, q, d, _ = draw(seed)
    if kind == "ties":
        d = np.random.default_rng(seed).choice([0.0, 0.5, 1.0, 1.0 + 1e-14], size=d.shape)
    elif kind == "point mass rows":
        d[::2] = d[::2, :1]
    return RdProblem(p, q, d)


def test_the_grid_draws_reach_merged_rows_and_point_masses():
    merged = grid_problem(5, "ties")
    assert any(dist.size < merged.coding_probs.size for dist in merged.delta_dists)
    assert {dist.size for dist in grid_problem(7, "point mass rows").delta_dists[::2]} == {1}


AGREEMENT_FORCES = [0.0, -0.0, -1.5, 2.0, -7.0, 0.3, -40.0, 40.0]


@pytest.mark.parametrize("kind", ["draw", "ties", "point mass rows"])
def test_tilt_is_log_mgf_rate_at_force_and_variance_bit_for_bit(kind):
    # tilt takes its moments from the kernel, as log_mgf, rate_at_force and FiniteDistribution.variance
    # do: with its own law and np.vecdot formula its mean differed from rate_at_force's level in the
    # last bits in 2,724 of the 19,824 entries of seeds 0 to 199, and its variance at force 0 from the
    # variance in 829 of 2,478 letters
    forces = np.array(AGREEMENT_FORCES)
    for seed in range(200):
        for dist in grid_problem(seed, kind).delta_dists:
            report = tilt(dist, forces)
            assert bits(report.log_mgf) == bits([log_mgf(dist, s) for s in AGREEMENT_FORCES])
            assert bits(report.mean) == bits([rate_at_force(dist, s).level for s in AGREEMENT_FORCES])
            assert bits(tilt(dist, 0.0).variance) == bits(dist.variance)


def test_tilt_on_a_wide_support_holds_one_block_at_a_time():
    # 256 forces on 40,000 letters: the kernel's row blocks hold about 2^15 entries, where the laws of
    # the whole grid at once peaked at 245.8 MB
    dist = FiniteDistribution(np.arange(40000.0), np.full(40000, 1 / 40000))
    forces = np.linspace(0.0, -1e-3, 256)
    tracemalloc.start()
    try:
        report = tilt(dist, forces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    each = [tilt(dist, s) for s in forces.tolist()]
    for name in ("s", "log_mgf", "mean", "variance"):
        assert bits(getattr(report, name)) == bits([getattr(one, name) for one in each]), name


def test_tilt_and_mmse_on_a_grid_are_their_loop_at_k64():
    rng, problem = draw_problem(64, 0)
    forces = np.concatenate(([0.0, -0.0], -rng.uniform(0.0, 6.0, 29), [3.0]))
    # 64 letters summed in two orders part by up to 12 units in the last place of a variance here
    assert_grid_is_the_loop(problem, forces, ulps=16)


def test_a_thousand_forces_at_k512_cost_their_outputs_only():
    rng = np.random.default_rng(512)
    values = rng.random((512, 512))
    log_weights = np.log(rng.dirichlet(np.ones(512)))[None, :]
    forces, table = -rng.uniform(0.0, 3.0, 1001), raw_table(log_weights, values)
    tracemalloc.start()
    try:
        outputs = table.grid(forces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(out.nbytes for out in outputs)
    assert size == 3 * 1001 * 512 * 8
    assert peak < size + 2 * 2**20


# The batched reductions below take each force's row-weighted sum in one ``np.vecdot`` per
# kernel call; each must answer bit for bit as the same rule with one ``np.dot`` per node.  The
# 512-column tables straddle a row block of the kernel.
QUADRATURE_SHAPES = [(2, 2), (5, 3), (64, 64)] + [(_BLOCK_ENTRIES // 512 + n, 512) for n in (-1, 0, 1)]


def quadrature_problem(rows: int, cols: int) -> RdProblem:
    rng = np.random.default_rng([rows, cols, 17])
    return RdProblem(rng.dirichlet(np.ones(rows)), rng.dirichlet(np.ones(cols)), rng.random((rows, cols)) * 3.0)


def dot_per_node(weights, rows) -> np.ndarray:
    return np.array([np.dot(weights, row) for row in rows])


@pytest.mark.parametrize("rows, cols", QUADRATURE_SHAPES)
def test_observable_sweep_matches_a_dot_per_node(rows, cols):
    # the recursive rule on the covariance of whole-table temporaries, one node at a time
    problem = quadrature_problem(rows, cols)
    t = 2.0 * np.random.default_rng(rows).random((rows, cols)) - 1.0
    p = problem.source_probs
    observed = _at_origin(p, np.log(problem.coding_probs)[None, :], t)  # the observable at origin, in its own units
    base = float(np.dot(p, observed.means_from_origin(full_table_observable(problem, observed.values, 0.0)[2])))
    # the route integrates in the observable's units to tol, which is tol times its source-weighted span
    integral = recursive_simpson(lambda u: full_table_observable(problem, observed.values, u)[1], 0.0,
                                 ratedistortion._table(problem).force(-1.1), 1e-9)
    assert observable_sweep(problem, t, -1.1) == base + integral * observed.unit


@pytest.mark.parametrize("rows, cols", QUADRATURE_SHAPES)
def test_distortion_mmse_integral_matches_a_dot_per_node(rows, cols):
    problem = quadrature_problem(rows, cols)
    table = ratedistortion._table(problem)
    p = table.row_weights
    d0 = float(np.dot(p, table.means_from_origin(table.grid(0.0)[1])))
    # the route integrates in units to tol, which is tol times D's span
    integral = adaptive_simpson(lambda us: dot_per_node(p, table.grid(us)[2]), 0.0, table.force(-1.1), 1e-9)
    assert distortion_mmse_integral(problem, -1.1) == d0 + integral * table.unit


@pytest.mark.parametrize("rows, cols", QUADRATURE_SHAPES)
def test_quasistatic_work_matches_a_dot_per_node(rows, cols):
    system = from_rd_problem(quadrature_problem(rows, cols), beta=1.6)
    table, beta = chain._table(system), system.beta

    def power(u):
        return u * float(np.dot(table.row_weights, table.grid(u)[2]))

    # the rate's work integral at the kernel's force s = beta * lam (times the table's unit), to tol
    # in nats, over beta, by the recursive rule one node at a time
    assert quasistatic_work(system, -0.7) == recursive_simpson(power, 0.0, table.force(beta * -0.7), 1e-9) / beta


def padded_chain_table(system: ChainSystem):
    """The chain's table lowered one array at a time into padded rows."""
    width = max(a.state_lengths.size for a in system.arrays)
    log_w = np.full((len(system.arrays), width), -np.inf)
    lengths = np.zeros((len(system.arrays), width))
    for x, arr in enumerate(system.arrays):
        log_w[x, : arr.state_energies.size] = -system.beta * arr.state_energies
        lengths[x, : arr.state_lengths.size] = arr.state_lengths
    return _at_origin(np.array([a.fraction for a in system.arrays]), log_w, lengths)


def ragged_system(rng, arrays: int, max_states: int) -> ChainSystem:
    sizes = rng.integers(1, max_states + 1, size=arrays)
    fractions = rng.dirichlet(np.ones(arrays))
    return ChainSystem(tuple(ElementArray(rng.normal(size=m) * 2.0, rng.random(m) * 3.0 - 1.0, float(f))
                             for m, f in zip(sizes, fractions)), beta=1.3)


@pytest.mark.parametrize("system", [
    lambda rng: ragged_system(rng, 1, 4),
    lambda rng: ragged_system(rng, 3, 6),
    lambda rng: ragged_system(rng, 70, 9),
    lambda rng: ragged_system(rng, 512, 512),
    lambda rng: from_rd_problem(quadrature_problem(2, 2), beta=0.8),
    lambda rng: from_rd_problem(quadrature_problem(64, 64), beta=2.5),
    lambda rng: from_rd_problem(quadrature_problem(512, 512), beta=1.0),
    lambda rng: ChainSystem((ElementArray([0.5, 1.5, 2.0], [0.0, 1.0, 0.3], 1.0),), beta=0.4),
], ids=["ragged-1", "ragged-3", "ragged-70", "ragged-512", "equal-2", "equal-64", "equal-512", "one-array"])
def test_chain_table_matches_the_padded_loop(rng, system):
    system = system(rng)
    got, want = chain._table(system), padded_chain_table(system)
    assert all(np.shape(a) == np.shape(b) and np.array_equal(a, b)
               for field, a, b in zip(got._fields, got, want) if field != "log_weights")
    # the kept log-weights are the loop's table bit for bit once broadcast to every row: one row exactly
    # where every array's energies are the first's bytes, else one row per array
    assert bits(np.broadcast_to(got.log_weights, got.values.shape)) == bits(want.log_weights)
    shared = len({a.state_energies.tobytes() for a in system.arrays}) == 1
    assert got.log_weights.shape[0] == (1 if shared else len(system.arrays))


def signed_zero_twins(k: int) -> tuple[ChainSystem, ChainSystem]:
    """A k-array chain whose arrays share one row of energies, an entry of it 0.0, and its twin, where
    the last array writes that 0.0 as -0.0: equal in value, not in bytes, so the twin keeps k rows of
    log-weights where the chain keeps one."""
    rng = np.random.default_rng([k, 11])
    p, d, energies = rng.dirichlet(np.ones(k)), rng.random((k, k)) * 3.0, rng.random(k) * 2.0
    energies[0], signed = 0.0, energies.copy()
    signed[0] = -0.0
    rows = [(d[x], energies, p[x]) for x in range(k)]
    twin = rows[:-1] + [(d[-1], signed, p[-1])]
    return (ChainSystem(tuple(ElementArray(*row) for row in rows), beta=1.3),
            ChainSystem(tuple(ElementArray(*row) for row in twin), beta=1.3))


@pytest.mark.parametrize("k", [2, 64, 512])
def test_a_shared_row_and_the_full_table_answer_alike(k):
    # == counts -0.0 as 0.0, so the two forms of the kept log-weights must give equal answers
    system, twin = signed_zero_twins(k)
    assert (system._log_weights.shape[0], twin._log_weights.shape[0]) == (1, k)
    target = expected_length(system, -0.7)
    routes = [
        lambda c: gibbs_free_energy(c, -0.7),
        lambda c: expected_length(c, -0.7),
        lambda c: length_variance(c, -0.7),
        lambda c: equilibrium_force(c, target),
        lambda c: quasistatic_work(c, -0.7),
        lambda c: protocol_work_bounds(c, np.linspace(0.0, -0.7, 6)),
    ]
    for route in routes:
        assert route(system) == route(twin)
    assert (array_lengths(system, -0.7) == array_lengths(twin, -0.7)).all()
