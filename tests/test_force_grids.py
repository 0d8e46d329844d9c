"""Fixed-force grids go through the kernel in one batched call per grid.

Each grid path must give, bit for bit, what a loop of one-force calls gives:
``rd_curve`` against ``distortion_at_force``, ``riemann_sandwich`` against
``tilt``, and ``sandwich_bounds`` and ``protocol_work_bounds`` against the
kernel at one force on the table at origin, whose means they difference (the
row starts cancel in every difference).  The Riemann sums are formed as
``tilting._riemann_sums`` forms them, from the per-point means.
"""

import tracemalloc

import numpy as np
import pytest

from tiltrate import (
    ChainSystem,
    ElementArray,
    FiniteDistribution,
    RdProblem,
    distortion_at_force,
    from_rd_problem,
    protocol_work_bounds,
    rd_curve,
    riemann_sandwich,
    sandwich_bounds,
    tilt,
)
from tiltrate import chain, ratedistortion
from tiltrate.tilting import _tilted_moments

# draws per alphabet size: the k = 512 grids cost a few ms per force
DRAWS = {2: 8, 64: 3, 512: 1}
CASES = [(k, draw) for k, n in DRAWS.items() for draw in range(n)]


def draw_problem(k: int, draw: int) -> tuple[np.random.Generator, RdProblem]:
    rng = np.random.default_rng([k, draw, 6])
    problem = RdProblem(rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)), rng.random((k, k)) * 3.0)
    return rng, problem


def sums_of(forces, means) -> tuple[float, float]:
    dm = np.diff(means)
    return (float(np.dot(forces[:-1], dm)), float(np.dot(forces[1:], dm)))


def origin_means(table, forces) -> list[float]:
    """The row-weighted mean at each force on a table at origin, one kernel call per force."""
    return [np.dot(table.row_weights, _tilted_moments(table.log_weights, table.values, float(s))[1]) for s in forces]


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


@pytest.mark.parametrize("k,draw", CASES)
def test_sandwich_bounds_match_point_by_point(k, draw):
    rng, problem = draw_problem(k, draw)
    part = np.linspace(0.0, -rng.uniform(0.5, 5.0), points(k))
    means = origin_means(ratedistortion._table(problem), part)
    assert sandwich_bounds(problem, part) == sums_of(part, means)


@pytest.mark.parametrize("k,draw", CASES)
def test_riemann_sandwich_matches_point_by_point(k, draw):
    rng = np.random.default_rng([k, draw, 7])
    dist = FiniteDistribution(rng.random(k) * 2.0, rng.dirichlet(np.ones(k)))
    part = np.linspace(0.0, rng.uniform(-6.0, 6.0), 4 * points(k))
    means = [tilt(dist, float(s)).mean for s in part]
    assert riemann_sandwich(dist, part) == sums_of(part, means)


@pytest.mark.parametrize("k,draw", CASES)
def test_protocol_work_bounds_match_point_by_point(k, draw):
    rng, problem = draw_problem(k, draw)
    system = from_rd_problem(problem, beta=float(rng.uniform(0.5, 2.0)))
    schedule = np.linspace(0.0, -rng.uniform(0.5, 4.0), points(k))
    means = origin_means(chain._table(system), system.beta * schedule)
    assert protocol_work_bounds(system, schedule) == sums_of(schedule, means)


def test_protocol_on_ragged_arrays_matches_point_by_point(rng):
    sizes, fractions = [2, 5, 3], rng.dirichlet(np.ones(3))
    system = ChainSystem(
        tuple(ElementArray(rng.random(m), rng.random(m), float(f)) for m, f in zip(sizes, fractions)),
        beta=0.7,
    )
    schedule = np.linspace(0.0, -2.5, 30)
    means = origin_means(chain._table(system), system.beta * schedule)
    assert protocol_work_bounds(system, schedule) == sums_of(schedule, means)


def test_a_thousand_forces_at_k512_cost_their_outputs_only():
    rng = np.random.default_rng(512)
    values = rng.random((512, 512))
    log_weights = np.log(rng.dirichlet(np.ones(512)))[None, :]
    forces = -rng.uniform(0.0, 3.0, 1001)
    tracemalloc.start()
    try:
        outputs = _tilted_moments(log_weights, values, forces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = sum(out.nbytes for out in outputs)
    assert size == 3 * 1001 * 512 * 8
    assert peak < size + 2 * 2**20
