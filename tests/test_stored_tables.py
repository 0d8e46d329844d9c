"""Every array enters in C order, through ``tilting._floats``: no answer depends on the caller's layout.

A table or observable held in its caller's Fortran order holds the same numbers, yet the kernel's and
numpy's reductions then run along the other axis and round the answers' last bits differently.  So
``_floats`` reads every array argument in C order, and each constructor stores it by ``_frozen`` as
one C-contiguous, read-only copy: ``_frozen`` copies only an array that may share memory with the
caller's, so ``_floats``' conversion and ``np.ix_``'s gather of a table that drops a letter are kept.
Each route here answers a Fortran-ordered, transposed or column-sliced input with its C twin's bits,
and every public table route hands the kernel only C-ordered tables, whatever the input's layout.
"""

import gc
import importlib
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import tiltrate
from tiltrate import (
    Channel,
    RdProblem,
    RdProblem2,
    blahut_arimoto,
    capacity_point,
    distortion_at_force,
    distortion_mmse_integral,
    equal_force_allocation,
    equilibrium_force,
    expected_length,
    force_at_distortion,
    from_rd_problem,
    gibbs_free_energy,
    mmse,
    mutual_information,
    observable_expectation,
    observable_sweep,
    protocol_work_bounds,
    quasistatic_work,
    rate_legendre,
    rate_mmse_integral,
    rate_two_distortions,
    rd_curve,
    sandwich_bounds,
    tilted_conditional,
)
from tiltrate.tilting import _at_origin

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


def given_in(layout, a):
    given = LAYOUTS[layout](a)
    assert not given.flags.c_contiguous and np.array_equal(given, a)
    return given


@pytest.mark.parametrize("layout", LAYOUTS)
def test_an_rd_problem_stores_any_layout_as_its_c_twin(layout):
    p, q, d, _ = twin_laws_and_tables()
    problem, twin = RdProblem(p, q, given_in(layout, d)), RdProblem(p, q, d)
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


# each of capacity_point, mutual_information, observable_sweep and observable_expectation answers at
# least one of draws 0-5 in other last bits where its input is kept in a Fortran layout
SEEDS = range(6)


def channel_draw(seed):
    """A transition of k inputs and m outputs, k and m in 2-79, with Dirichlet rows, and a Dirichlet input law."""
    rng = np.random.default_rng(seed)
    k, m = rng.integers(2, 80, size=2)
    return rng.dirichlet(np.ones(m), size=k), rng.dirichlet(np.ones(k))


def observed_draw(seed):
    """A k x m problem, k and m in 2-79, with Dirichlet laws and U(0, 1) tables, and a U(0, 1) observable."""
    rng = np.random.default_rng(seed)
    k, m = rng.integers(2, 80, size=2)
    return RdProblem(rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(m)), rng.random((k, m))), rng.random((k, m))


CHANNEL_ROUTES = {
    "capacity_point": lambda channel: astuple(capacity_point(channel)),
    "mutual_information": mutual_information,
}


@pytest.mark.parametrize("route", CHANNEL_ROUTES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_a_channel_stores_any_layout_as_its_c_twin(route, layout):
    for seed in SEEDS:
        w, q = channel_draw(seed)
        channel, twin = Channel(given_in(layout, w), q), Channel(w, q)
        assert stored_as_twin(channel.transition, twin.transition)
        assert same_bits(CHANNEL_ROUTES[route](channel), CHANNEL_ROUTES[route](twin)), seed


@pytest.mark.parametrize("route", [observable_sweep, observable_expectation], ids=lambda f: f.__name__)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_an_observable_in_any_layout_answers_as_its_c_twin(route, layout):
    for seed in SEEDS:
        problem, t = observed_draw(seed)
        assert same_bits(route(problem, given_in(layout, t), -2.0), route(problem, t, -2.0)), seed


@pytest.mark.parametrize("layout", LAYOUTS)
def test_blahut_arimoto_answers_a_distortion_in_any_layout_as_its_c_twin(layout):
    for seed in SEEDS:
        problem, _ = observed_draw(seed)
        p, d = problem.source_probs, problem.distortion
        ba, twin = blahut_arimoto(p, given_in(layout, d), -2.0), blahut_arimoto(p, d, -2.0)
        assert same_bits(ba.coding_probs, twin.coding_probs), seed
        assert astuple(ba)[1:] == astuple(twin)[1:], seed


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


def k512_table_as_given(given: str):
    """A k = 512 problem's laws and its table as the caller hands it: C-ordered, Fortran-ordered, or
    C-ordered with a 513th source letter of probability 0, which the problem drops."""
    rng = np.random.default_rng(3)
    p, d = np.full(512, 1.0 / 512), rng.random((512, 512))
    if given == "fortran":
        return p, p, np.asfortranarray(d)
    if given == "dropped_letter":
        return np.append(p, 0.0), p, np.vstack([d, np.full(512, 9.0)])
    return p, p, d


@pytest.mark.parametrize("given", ["c", "fortran", "dropped_letter"])
def test_building_a_k512_problem_peaks_near_its_stored_table(given):
    # each table is stored with one copy: the C-ordering conversion, the gather, or, for a C-ordered
    # table that drops no letter, the freeze; a second copy would peak at twice the stored bytes
    p, q, d = k512_table_as_given(given)
    RdProblem(p, q, d)  # the first build fills the interpreter's and numpy's own caches
    assert construction_peak(lambda: RdProblem(p, q, d)) <= 1.2 * RdProblem(p, q, d).distortion.nbytes


def table_routes(layout):
    """Every public route that lowers a table, each on a 5 x 4 problem, observable and channel whose
    arrays are given in ``layout``, by name: the one-table solves, the curve, the quadratures, the
    observable routes, the chain, rd2 and the channel."""
    rng = np.random.default_rng(7)
    p, q = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(4))
    d1, d2, t = (rng.random((5, 4)) for _ in range(3))
    w, q_in = rng.dirichlet(np.ones(4), size=5), rng.dirichlet(np.ones(5))
    problem = RdProblem(p, q, layout(d1))
    system = from_rd_problem(problem, 1.3)
    delta1, delta2 = (0.5 * (p @ d.min(axis=1) + p @ d @ q) for d in (d1, d2))
    return {
        "distortion_at_force": lambda: distortion_at_force(problem, -1.5),
        "force_at_distortion": lambda: force_at_distortion(problem, delta1),
        "rate_legendre": lambda: rate_legendre(problem, delta1),
        "equal_force_allocation": lambda: equal_force_allocation(problem, delta1),
        "rd_curve": lambda: rd_curve(problem, [-2.0, -1.0, 0.0]),
        "mmse": lambda: mmse(problem, -1.5),
        "rate_mmse_integral": lambda: rate_mmse_integral(problem, -1.5),
        "distortion_mmse_integral": lambda: distortion_mmse_integral(problem, -1.5),
        "sandwich_bounds": lambda: sandwich_bounds(problem, np.linspace(0.0, -1.5, 5)),
        "tilted_conditional": lambda: tilted_conditional(problem, -1.5),
        "observable_expectation": lambda: observable_expectation(problem, layout(t), -1.5),
        "observable_sweep": lambda: observable_sweep(problem, layout(t), -1.5),
        "gibbs_free_energy": lambda: gibbs_free_energy(system, -0.7),
        "equilibrium_force": lambda: equilibrium_force(system, expected_length(system, -0.7)),
        "quasistatic_work": lambda: quasistatic_work(system, -0.7),
        "protocol_work_bounds": lambda: protocol_work_bounds(system, [0.0, -0.5, -1.0]),
        "rate_two_distortions": lambda: rate_two_distortions(RdProblem2(p, q, layout(d1), layout(d2)), delta1, delta2),
        "capacity_point": lambda: capacity_point(Channel(layout(w), q_in)),
    }


@pytest.fixture
def lowered(monkeypatch):
    """Every table that ``tilting._at_origin`` lowers while the test runs, from each module that calls it."""
    tables = []

    def spy(*args):
        tables.append(_at_origin(*args))
        return tables[-1]

    for path in Path(tiltrate.__file__).parent.glob("[!_]*.py"):
        module = importlib.import_module(f"tiltrate.{path.stem}")
        if getattr(module, "_at_origin", None) is _at_origin:
            monkeypatch.setattr(module, "_at_origin", spy)
    return tables


@pytest.mark.parametrize("route", table_routes(np.asarray))
@pytest.mark.parametrize("layout", ["c", *LAYOUTS])
def test_the_kernel_sees_only_c_ordered_tables(route, layout, lowered):
    # the kernel's reductions run along each row, so a table that reaches it in another order is read
    # across its memory and rounds its sums otherwise: every lowered table is C-ordered
    table_routes(LAYOUTS.get(layout, np.asarray))[route]()
    assert lowered
    for table in lowered:
        assert table.values.flags.c_contiguous and table.log_weights.flags.c_contiguous
