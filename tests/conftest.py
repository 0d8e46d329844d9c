import math

import numpy as np
import pytest
from hypothesis import settings
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from tiltrate import FiniteDistribution, RdProblem, tilt
from tiltrate.multiconstraint import _evaluate
from tiltrate.tilting import _Table, _frozen, _kernel_calls

LN2 = math.log(2.0)
LN3 = math.log(3.0)

# tests/line_trace.py runs the suite under ``--hypothesis-profile=line_trace``: no deadline, since the
# tracer slows every test, and no example database, so that examples saved by earlier runs add no draws
settings.register_profile("line_trace", deadline=None, database=None)


def dispatch_level() -> str:
    """The highest SIMD level numpy dispatches its kernels to in this process: the last of its
    dispatch targets whose features are on, or "baseline" where none is.  A level disabled by
    ``NPY_DISABLE_CPU_FEATURES`` reads as off, so each level of a host can be taken in turn.  The
    tests that pin absolute float bits keep one set per level, since exp, log and the reductions
    round their last bits by the kernel numpy picks."""
    on = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return on[-1] if on else "baseline"


def kernel_calls(kind: str = "block"):
    """A reader of the kernel calls of ``kind`` (``tilting._kernel_calls``: row blocks, the "entries"
    they tilted, or "table" calls of ``grid``, ``pair`` or ``law``) made since this call: each read
    is the count so far."""
    start = _kernel_calls()[kind]
    return lambda: _kernel_calls()[kind] - start


@pytest.fixture
def exponentials():
    """``kernel_calls()`` from the test's start: its row blocks, each one exponential (``_tilted_weights``),
    the one behind every tilted quantity."""
    return kernel_calls()


def h2(x: float) -> float:
    """Binary entropy in nats."""
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def random_dist(rng, size=None) -> FiniteDistribution:
    n = int(size or rng.integers(2, 6))
    probs = rng.random(n) + 0.1
    probs /= probs.sum()
    values = rng.random(n) * 2.0
    # keep values apart so merging never kicks in
    values = np.sort(values) + np.arange(n) * 1e-3
    return FiniteDistribution(values, probs)


def raw_table(log_weights, values) -> _Table:
    """``values`` under ``log_weights`` as a ``tilting._Table`` taken as it is, not moved to origin:
    the kernel's methods (``grid``, ``pair``, ``law``) read the log-weights and values alone, and a
    force enters in unit 1, bounded by the largest |value|."""
    rows, ranges = values.shape[0], np.ptp(values, axis=1)
    return _Table(np.full(rows, 1.0 / rows), log_weights, values, np.zeros(rows), ranges, float(ranges.mean()), 1.0,
                  float(np.abs(values).max()), 0.0)


def rd2_stats(problem, s, delta1: float, delta2: float):
    """rd2's objective value, gradient and tilted covariance at force pair s on the problem's own
    tables (not moved to origin), by ``multiconstraint._evaluate``."""
    p, log_q = problem.source_probs, np.log(problem.coding_probs)[None, :]
    t1, t2 = (raw_table(log_q, d) for d in (problem.distortion_1, problem.distortion_2))
    value, g1, g2, c11, c22, c12 = _evaluate(p, t1, t2, s[0], s[1], delta1, delta2)
    return value, np.array([g1, g2]), np.array([[c11, c12], [c12, c22]])


def random_problem(rng, max_letters=5) -> RdProblem:
    k = int(rng.integers(2, max_letters + 1))
    j = int(rng.integers(2, max_letters + 1))
    source = rng.random(k) + 0.1
    source /= source.sum()
    coding = rng.random(j) + 0.1
    coding /= coding.sum()
    table = rng.random((k, j)) * 2.0
    return RdProblem(source, coding, table)


def feasible_delta(rng, problem) -> float:
    """A budget strictly between the floor and the zero-force distortion."""
    floor = float(np.dot(problem.source_probs,
                         problem.distortion.min(axis=1)))
    top = float(np.dot(problem.source_probs,
                       (problem.distortion * problem.coding_probs).sum(axis=1)))
    for _ in range(100):
        u = rng.uniform(0.15, 0.95)
        delta = floor + u * (top - floor)
        if delta > floor + 1e-9 * max(1.0, abs(floor)):
            return delta
    pytest.skip("degenerate random problem: no interior budget")


def letters_in_units(problem, table) -> list:
    """Each source letter's distortion law, read from ``delta_dists``, moved to its own least value
    and into ``table``'s units: an independent reference for ``rate_mmse_integral``'s letters, which
    it takes from the rows of its lowered table, already at origin and in units."""
    letters = []
    for dist in problem.delta_dists:
        letters.append(object.__new__(FiniteDistribution))
        _frozen(letters[-1], values=table.in_units(dist.values - dist.values[0]), probs=dist.probs)
    return letters


def letters_mmse(letters, p, s):
    """The source-weighted sum of the letters' ``tilt`` variances at one force s, reduced by
    ``np.vecdot`` as ``rate_mmse_integral`` reduces each level's."""
    return float(np.vecdot(np.stack([tilt(d, s).variance for d in letters], axis=-1), p))


def full_table_observable(problem, t, s):
    """The observable's tilted mean, its covariance with the distortion and its per-row means, from
    whole-table temporaries, on the distortion with each row shifted to start at 0 and put in units
    of its source-weighted span, at the kernel's force s."""
    d = problem.distortion - problem.distortion.min(axis=1)[:, None]
    d /= float(np.dot(problem.source_probs, np.ptp(d, axis=1)))
    p = problem.source_probs
    law = raw_table(np.log(problem.coding_probs)[None, :], d).law(s)[0]
    mean_t = np.einsum("ij,ij->i", law, t)
    mean_d = np.einsum("ij,ij->i", law, d)
    cov = np.einsum("ij,ij,ij->i", law, d - mean_d[:, None], t - mean_t[:, None])
    return float(np.dot(p, mean_t)), float(np.dot(p, cov)), mean_t


def recursive_simpson(f, a: float, b: float, tol: float) -> float:
    """``solvers.adaptive_simpson``'s rule as the plain recursion on a scalar integrand, one
    node at a time and without its budget or depth cap: the level-synchronous rule must give
    the same answer bit for bit when its nodes get the same values."""
    if a == b:
        return 0.0
    if b < a:
        return -recursive_simpson(f, b, a, tol)

    def simpson(a, fa, b, fb):
        m = 0.5 * (a + b)
        fm = f(m)
        return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def refine(a, fa, m, fm, b, fb, whole, tol, root=False):
        lm, flm, left = simpson(a, fa, m, fm)
        rm, frm, right = simpson(m, fm, b, fb)
        delta = left + right - whole
        if not root and abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        half = 0.5 * tol
        return refine(a, fa, lm, flm, m, fm, left, half) + refine(m, fm, rm, frm, b, fb, right, half)

    fa, fb = f(a), f(b)
    m, fm, whole = simpson(a, fa, b, fb)
    return refine(a, fa, m, fm, b, fb, whole, tol, root=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def bss() -> RdProblem:
    """Uniform bit, uniform coding law, error-counting penalty."""
    return RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def asym() -> RdProblem:
    """Skewed source with an asymmetric penalty table."""
    return RdProblem([0.7, 0.3], [0.5, 0.5], [[0.0, 1.0], [2.0, 0.0]])
