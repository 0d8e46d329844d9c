"""The per-letter laws: ``RdProblem.delta_dists`` is built for every row at once, and each row
equals the one-row constructor ``FiniteDistribution(distortion[x], coding_probs)`` bit for bit.
They are built on each read and not kept on the problem.

Both are also checked against the one-row cleanup written out on its own (a stable sort, one
``reduceat`` per row and ``ndarray.sum``), so a table's laws cannot drift from what the goldens
were recorded with.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tiltrate import (
    FiniteDistribution,
    RdProblem,
    brute_allocation_min,
    distortion_at_force,
    exact_ld_probability,
    legendre_grid_max,
    rate_mmse_integral,
)
from tiltrate.tilting import _BLOCK_ENTRIES, VALUE_MERGE_TOL

ROWS_PER_BLOCK = _BLOCK_ENTRIES // 512  # rows of 512 entries in one block of the sort-and-merge
KINDS = ("uniform", "ties", "near_ties", "constant", "signed_zeros")


def one_row_law(values, probs):
    """The one-row cleanup on its own: drop zero mass, sort stably, merge runs within the band
    and divide by the sum."""
    values, probs = np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
    keep = probs > 0.0
    values, probs = values[keep], probs[keep]
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    tol = VALUE_MERGE_TOL * (values[-1] - values[0])
    starts = np.concatenate(([0], np.flatnonzero(np.diff(values) > tol) + 1))
    probs = np.add.reduceat(probs, starts)
    return values[starts], probs / probs.sum()


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def table(rng, rows: int, cols: int, kind: str, scale: float) -> np.ndarray:
    """A distortion table of one kind, scaled by ``scale`` and moved by a multiple of it."""
    if kind == "ties":  # few distinct values, so most rows hold exact ties
        d = rng.integers(0, 3, (rows, cols)).astype(float)
    elif kind == "near_ties":  # copies of a row's own values, moved by a fraction of the merge band
        d = np.take_along_axis(rng.random((rows, cols)), rng.integers(0, cols, (rows, cols)), 1)
        d += rng.choice([0.0, 0.5, 0.999, 1.001, 2.0], (rows, cols)) * VALUE_MERGE_TOL
    elif kind == "constant":
        d = np.repeat(rng.random((rows, 1)), cols, axis=1)
    elif kind == "signed_zeros":  # +0.0 and -0.0 compare equal, and the order of the two is kept
        d = np.where(rng.random((rows, cols)) < 0.5, -0.0, 0.0)
        d[rng.random((rows, cols)) < 0.3] = 1.0
        return d * scale
    else:
        d = rng.random((rows, cols))
    return d * scale + rng.choice([0.0, 1.0, -1e6]) * scale


def law(rng, cols: int) -> np.ndarray:
    q = rng.dirichlet(np.full(cols, rng.choice([0.2, 1.0, 10.0])))
    q = np.maximum(q, 1e-6)
    return q / q.sum()


def assert_rows_match(p, q, d):
    """Every row of the problem's delta_dists equals its one-row constructor, on the caller's own
    arrays (so dropped letters are dropped by each constructor on its own), bit for bit."""
    problem = RdProblem(p, q, d)
    kept = np.flatnonzero(np.asarray(p) > 0.0)
    assert len(problem.delta_dists) == kept.size
    for x, dist in zip(kept, problem.delta_dists):
        one = FiniteDistribution(d[x], q)
        values, probs = one_row_law(d[x], q)
        for got in (dist, one):
            assert same_bits(got.values, values), (x, got.values, values)
            assert same_bits(got.probs, probs), (x, got.probs, probs)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_seeded_tables_match_the_one_row_constructor(kind, seed):
    rng = np.random.default_rng(1000 * seed + KINDS.index(kind))
    for _ in range(6):
        rows, cols = int(rng.integers(1, 9)), int(rng.choice([1, 2, 3, 7, 8, 9, 17, 64]))
        scale = 10.0 ** rng.uniform(-12.0, 12.0)
        assert_rows_match(np.full(rows, 1.0 / rows), law(rng, cols), table(rng, rows, cols, kind, scale))


@given(st.integers(0, 2**32 - 1), st.sampled_from(KINDS), st.integers(1, 12), st.integers(1, 70),
       st.floats(-12.0, 12.0))
@settings(max_examples=150, deadline=None)
def test_drawn_tables_match_the_one_row_constructor(seed, kind, rows, cols, log_scale):
    rng = np.random.default_rng(seed)
    assert_rows_match(np.full(rows, 1.0 / rows), law(rng, cols), table(rng, rows, cols, kind, 10.0**log_scale))


@pytest.mark.parametrize("rows", [ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1, 2 * ROWS_PER_BLOCK + 1])
def test_row_counts_about_a_block_edge(rows):
    # rows of 512 entries: the last row holds ties, so one block merges and the others do not
    rng = np.random.default_rng(rows)
    d = table(rng, rows, 512, "uniform", 1.0)
    d[-1, :4] = d[-1, 4]
    assert_rows_match(np.full(rows, 1.0 / rows), law(rng, 512), d)


def test_rows_wider_than_a_block():
    rng = np.random.default_rng(5)
    cols = _BLOCK_ENTRIES + 3
    d = table(rng, 2, cols, "ties", 1.0)
    assert_rows_match(np.array([0.5, 0.5]), law(rng, cols), d)


def test_dropped_letters():
    rng = np.random.default_rng(7)
    p = np.array([0.3, 0.0, 0.2, 0.5, 0.0])
    q = np.array([0.25, 0.0, 0.25, 0.1, 0.0, 0.4])
    for kind in KINDS:
        assert_rows_match(p, q, table(rng, 5, 6, kind, 1e-3))


def test_one_column():
    (dist,) = RdProblem([1.0], [1.0], [[2.5]]).delta_dists
    assert dist.values.tolist() == [2.5] and dist.probs.tolist() == [1.0]
    assert_rows_match(np.array([0.5, 0.5]), np.array([1.0]), np.array([[-3.0], [1e12]]))


@pytest.mark.parametrize("step, merged", [(0.9e-12, True), (1.1e-12, False)])
def test_near_ties_inside_and_outside_the_merge_band(step, merged):
    # a span of 1 puts the band at 1e-12: a step just inside merges, one just outside does not
    d = np.array([[0.0, 0.5, 0.5 + step, 1.0], [1.0, 0.5 + step, 0.0, 0.5]])
    q = np.array([0.1, 0.2, 0.3, 0.4])
    problem = RdProblem([0.5, 0.5], q, d)
    assert [dist.size for dist in problem.delta_dists] == ([3, 3] if merged else [4, 4])
    assert_rows_match(np.array([0.5, 0.5]), q, d)


def test_rows_are_read_only_and_their_own():
    d, q = np.array([[0.0, 1.0, 1.0], [2.0, 0.5, 3.0]]), np.array([0.2, 0.3, 0.5])
    problem = RdProblem([0.5, 0.5], q, d)
    before = [(dist.values.copy(), dist.probs.copy()) for dist in problem.delta_dists]
    for dist in problem.delta_dists:  # each row owns its arrays, shared with no other row or table
        assert dist.values.base is None and dist.probs.base is None
    for dist in problem.delta_dists:
        for stored in (dist.values, dist.probs):
            assert not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 7.0
    # writing into the caller's arrays changes neither the problem nor its laws
    d[:], q[:] = 9.0, [0.5, 0.25, 0.25]
    for dist, (values, probs) in zip(problem.delta_dists, before):
        assert same_bits(dist.values, values) and same_bits(dist.probs, probs)
    fresh = RdProblem([0.5, 0.5], [0.2, 0.3, 0.5], [[0.0, 1.0, 1.0], [2.0, 0.5, 3.0]])
    for dist, other in zip(problem.delta_dists, fresh.delta_dists):
        assert same_bits(dist.values, other.values) and same_bits(dist.probs, other.probs)


def test_each_read_is_a_fresh_tuple_of_the_same_laws():
    problem = RdProblem([0.5, 0.5], [0.2, 0.3, 0.5], [[0.0, 1.0, 1.0], [2.0, 0.5, 3.0]])
    first, second = problem.delta_dists, problem.delta_dists
    assert first is not second and not set(map(id, first)) & set(map(id, second))
    for a, b in zip(first, second, strict=True):
        assert same_bits(a.values, b.values) and same_bits(a.probs, b.probs)


# What the routes below may leave allocated across a call: the interpreter's and numpy's free lists
# keep a few hundred bytes.  A problem that kept its 64 letters' laws here held about 38 KB more.
RETAINED_SLACK = 4096


def zero_one_problem(rows: int, seed: int) -> RdProblem:
    """``rows`` letters over 64 reproduction letters, with distortions 0 and 1: each letter's law
    merges to two values, so the exact convolution of ``exact_ld_probability`` stays small."""
    rng = np.random.default_rng(seed)
    return RdProblem(np.full(rows, 1.0 / rows), rng.dirichlet(np.ones(64)), rng.integers(0, 2, (rows, 64)) * 1.0)


def read_every_letter(problem: RdProblem) -> None:
    """``delta_dists`` and every route that reads it or the table; the brute allocation takes three letters at most."""
    rows = problem.num_source_letters
    problem.delta_dists
    rate_mmse_integral(problem, -1.0)
    distortion_at_force(problem, -1.0)
    exact_ld_probability(problem, rows, 0.3)
    legendre_grid_max(problem, 0.3)
    if rows <= 3:
        brute_allocation_min(problem, 0.3, 20)


@pytest.mark.parametrize("rows", [64, 3])
def test_a_problem_keeps_its_three_arrays_alone(rows):
    read_every_letter(zero_one_problem(rows, 1))  # the first calls fill the interpreter's and numpy's own caches
    problem = zero_one_problem(rows, 2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        read_every_letter(problem)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert list(vars(problem)) == ["source_probs", "coding_probs", "distortion"]
    assert grown < RETAINED_SLACK
