"""How ``RdProblem`` and ``RdProblem2`` store their tables: each one C-contiguous, read-only copy.

A table that drops no letter and is C-contiguous already is copied once; any other is gathered into C
order first.  A table stored in its caller's Fortran order holds the same numbers, yet the kernel's
reductions then run along the other axis and round the answers' last bits differently.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from tiltrate import RdProblem, distortion_at_force
from tiltrate.multiconstraint import RdProblem2, rate_two_distortions

K = 64


def twin_laws_and_tables():
    """A 64-letter source law, coding law and two C-contiguous tables, all from one seed."""
    rng = np.random.default_rng(1)
    return rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K)), rng.random((K, K)), rng.random((K, K))


def column_sliced(d: np.ndarray) -> np.ndarray:
    """``d`` as every other column of a table twice as wide: a view that is in neither memory order."""
    wide = np.zeros((d.shape[0], 2 * d.shape[1]))
    wide[:, ::2] = d
    return wide[:, ::2]


LAYOUTS = {
    "fortran": np.asfortranarray,
    "transposed": lambda d: np.ascontiguousarray(d.T).T,
    "column_sliced": column_sliced,
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stored_as_twin(stored: np.ndarray, twin: np.ndarray) -> bool:
    return stored.flags.c_contiguous and not stored.flags.writeable and same_bits(stored, twin)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_an_rd_problem_stores_any_layout_as_its_c_twin(layout):
    p, q, d, _ = twin_laws_and_tables()
    given = LAYOUTS[layout](d)
    assert not given.flags.c_contiguous and np.array_equal(given, d)
    problem, twin = RdProblem(p, q, given), RdProblem(p, q, d)
    assert stored_as_twin(problem.distortion, twin.distortion)
    point, want = distortion_at_force(problem, -3.0), distortion_at_force(twin, -3.0)
    assert (point.rate, point.distortion) == (want.rate, want.distortion)
    assert same_bits(point.per_symbol_mean, want.per_symbol_mean)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_an_rd_problem2_stores_any_layout_as_its_c_twin(layout):
    p, q, d1, d2 = twin_laws_and_tables()
    problem, twin = RdProblem2(p, q, LAYOUTS[layout](d1), LAYOUTS[layout](d2)), RdProblem2(p, q, d1, d2)
    assert stored_as_twin(problem.distortion_1, twin.distortion_1)
    assert stored_as_twin(problem.distortion_2, twin.distortion_2)
    # each budget halfway from its table's floor to its mean at zero force
    deltas = [0.5 * (p @ d.min(axis=1) + p @ d @ q) for d in (d1, d2)]
    assert rate_two_distortions(problem, *deltas) == rate_two_distortions(twin, *deltas)


def test_a_dropped_letter_is_gathered_in_c_order():
    p, q, d, _ = twin_laws_and_tables()
    p = np.concatenate([p, [0.0]])
    given = np.asfortranarray(np.vstack([d, np.full(K, 9.0)]))
    assert stored_as_twin(RdProblem(p, q, given).distortion, d)


def construction_peak(build) -> int:
    """The most bytes tracemalloc saw allocated at once while ``build()`` ran, less those held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    del built
    return peak


def test_building_a_k512_problem_copies_each_table_once():
    # a table that drops no letter and is C-contiguous already is copied once, by the freeze; a gather
    # before it would double the peak, to twice the bytes the problem stores
    rng = np.random.default_rng(2)
    p, d1, d2 = np.full(512, 1.0 / 512), rng.random((512, 512)), rng.random((512, 512))
    RdProblem(p, p, d1)  # the first build fills the interpreter's and numpy's own caches
    assert construction_peak(lambda: RdProblem(p, p, d1)) < 1.5 * d1.nbytes
    assert construction_peak(lambda: RdProblem2(p, p, d1, d2)) < 1.5 * (d1.nbytes + d2.nbytes)
