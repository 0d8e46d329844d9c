"""The in-process workloads: seeded inputs, program calls, and answer checks.

A workload is a fixed deck of operation slots.  The deck's composition
(which call, at which table size k and scale) never depends on the seed, so
percentiles fall at the same place in the mix from run to run; the seed only
draws the tables, laws and forces.  Every budget is the level of a force
drawn here, so the expected answer is known before the program runs.

Each pass over the deck gets fresh inputs: after the first pass, every
problem has its letters relabelled at random (``relabel``), which leaves every
checked answer and the work to reach it unchanged, and is built into new
program objects.  No timed call sees an input or an object it has seen before.

Generation and references use numpy alone (see ``reference.py``); tiltrate
is imported only to build the program objects and to call it.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

import reference as R

SCALES = (1e-12, 1e-6, 1e6, 1e12)
# Forces are drawn from fixed strata in turn, so each seed gets the same
# spread of easy and steep targets and the cost of a deck stays level.
FORCE_STRATA = ((-0.6, -0.2), (-1.2, -0.6), (-2.5, -1.2))

TOL_LEGENDRE = 1e-9        # relative to max(1, |rate|), ROADMAP item 1
TOL_FORCE = 1e-6           # relative to |force|
TOL_RESIDUAL = 2e-10       # times the level span: twice the solver's documented 1e-10
TOL_ROUTE_AGREEMENT = 1e-7  # tests/test_acceptance.py, criterion 2
TOL_CHAIN_WORK = 2e-8      # tests/test_acceptance.py, criterion 6
TOL_CAPACITY = 1e-9        # tests/test_acceptance.py, criterion 5
TOL_DIRECT = 1e-9          # fixed-force evaluations, relative to max(1, |x|)


@dataclass
class Op:
    """One operation slot: what is called, on which inputs, and what must come back."""

    family: str
    k: int
    scale: float
    inputs: dict
    expect: dict
    args: tuple = field(default=(), repr=False)

    @property
    def label(self) -> str:
        return f"{self.family}.k{self.k}" + ("" if self.scale == 1.0 else f"@{self.scale:g}")


def close(x, ref, tol, slack=0.0) -> bool:
    """|x - ref| <= tol * max(1, |ref|) + slack * |ref|, false for anything non-finite.

    ``slack`` covers the rounding of a printed value.
    """
    x = float(x)
    return math.isfinite(x) and abs(x - ref) <= tol * max(1.0, abs(ref)) + slack * abs(ref)


def _force(rng, stratum: int) -> float:
    lo, hi = FORCE_STRATA[stratum % len(FORCE_STRATA)]
    return float(rng.uniform(lo, hi))


def _table(rng, k: int):
    return rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)), rng.random((k, k))


# ---------------------------------------------------------------- generators
# Each returns (inputs, expect).  ``inputs`` holds only arrays and floats.

def gen_budget(rng, k, scale, stratum, n):
    p, q, d = _table(rng, k)
    s = _force(rng, stratum) / scale
    d = d * scale
    level, rate = R.level_rate(p, q, d, s)
    return dict(p=p, q=q, d=d, delta=level), dict(s=s, rate=rate, span=R.span(p, q, d))


def gen_channel(rng, k, scale, stratum, n):
    w = rng.dirichlet(np.ones(k), size=k)
    q = rng.dirichlet(np.ones(k))
    mi, cond = R.mutual_information(w, q)
    return dict(w=w, wq=q), dict(rate=mi, delta=cond)


def gen_chain(rng, k, scale, stratum, n):
    p, q, d = _table(rng, k)
    beta = float(rng.uniform(0.5, 2.0))
    lam = _force(rng, stratum) / (beta * scale)
    lengths = d * scale
    level, rate = R.level_rate(p, q, lengths, beta * lam)
    spread = float(p @ (lengths.max(axis=1) - lengths.min(axis=1)))
    inputs = dict(p=p, q=q, d=lengths, beta=beta, lam=lam, target=level)
    return inputs, dict(lam=lam, work=rate / beta, span=spread)


def gen_entropy(rng, k, scale, stratum, n):
    levels = rng.random(k) * scale
    weights = rng.dirichlet(np.ones(k))
    beta = -_force(rng, stratum) / scale
    energy, ent = R.entropy(levels, weights, beta)
    return dict(levels=levels, weights=weights, energy=energy), dict(entropy=ent)


def gen_pair(rng, k, scale, stratum, n):
    p, q, d1 = _table(rng, k)
    d2 = rng.random((k, k))
    s1 = _force(rng, stratum) / scale
    s2 = _force(rng, stratum + 1) / scale
    d1, d2 = d1 * scale, d2 * scale
    l1, l2, rate = R.pair_level_rate(p, q, d1, d2, s1, s2)
    return dict(p=p, q=q, d1=d1, d2=d2, delta1=l1, delta2=l2), dict(rate=rate, s1=s1, s2=s2)


def gen_curve(rng, k, scale, stratum, n):
    p, q, d = _table(rng, k)
    grid = np.linspace(_force(rng, stratum), 0.0, n)
    points = [R.level_rate(p, q, d, float(s)) for s in grid[::-1]]
    return dict(p=p, q=q, d=d, grid=grid), dict(s=grid[::-1].copy(), points=points)


def gen_partition(rng, k, scale, stratum, n):
    p, q, d = _table(rng, k)
    s = _force(rng, stratum)
    part = np.linspace(0.0, s, n)
    return dict(p=p, q=q, d=d, part=part), dict(
        sums=R.riemann_sums(p, q, d, part), rate=R.level_rate(p, q, d, s)[1]
    )


def gen_protocol(rng, k, scale, stratum, n):
    p, q, d = _table(rng, k)
    beta = float(rng.uniform(0.5, 2.0))
    lam = _force(rng, stratum) / beta
    schedule = np.linspace(0.0, lam, n)
    # lengths at force lam are levels at s = beta * lam, so the force sums rescale by beta
    sums = R.riemann_sums(p, q, d, beta * schedule)
    return dict(p=p, q=q, d=d, beta=beta, schedule=schedule), dict(
        sums=(sums[0] / beta, sums[1] / beta),
        work=R.level_rate(p, q, d, beta * lam)[1] / beta,
    )


def gen_force(rng, k, scale, stratum, n):
    p, q, d = _table(rng, k)
    s = _force(rng, stratum)
    level, rate = R.level_rate(p, q, d, s)
    return dict(p=p, q=q, d=d, s=s), dict(level=level, rate=rate)


def gen_work(rng, k, scale, stratum, n):
    inputs, expect = gen_chain(rng, k, 1.0, stratum, n)
    return inputs, dict(work=expect["work"])


def gen_observable(rng, k, scale, stratum, n):
    p, q, d = _table(rng, k)
    t = rng.random((k, k))
    s = _force(rng, stratum)
    return dict(p=p, q=q, d=d, t=t, s=s), dict(mean=R.observable_mean(p, q, d, t, s))


def gen_conditional(rng, k, scale, stratum, n):
    p, q, d = _table(rng, k)
    s = _force(rng, stratum)
    return dict(p=p, q=q, d=d, s=s), dict(law=R.tilted_rows(q, d, s)[1])


# ------------------------------------------------------------------ builders
# Turn inputs into program objects; this is the part of set-up the program pays.

def _problem(tr, i):
    problem = tr.ratedistortion.RdProblem(i["p"], i["q"], i["d"])
    problem.delta_dists  # fills the cached per-letter distributions
    return problem


def _system(tr, i):
    arrays = tuple(
        tr.chain.ElementArray(i["d"][x], -np.log(i["q"]) / i["beta"], float(i["p"][x]))
        for x in range(i["p"].size)
    )
    return tr.chain.ChainSystem(arrays, beta=i["beta"])


def build_budget(tr, i):
    return (_problem(tr, i), i["delta"])


def build_channel(tr, i):
    return (tr.capacity.Channel(i["w"], i["wq"]),)


def build_chain(tr, i):
    return (_system(tr, i), i["target"])


def build_entropy(tr, i):
    return (tr.tilting.FiniteDistribution(i["levels"], i["weights"]), i["energy"])


def build_pair(tr, i):
    problem = tr.multiconstraint.RdProblem2(i["p"], i["q"], i["d1"], i["d2"])
    return (problem, i["delta1"], i["delta2"])


def build_curve(tr, i):
    return (_problem(tr, i), i["grid"])


def build_partition(tr, i):
    return (_problem(tr, i), i["part"])


def build_protocol(tr, i):
    return (_system(tr, i), i["schedule"])


def build_force(tr, i):
    return (_problem(tr, i), i["s"])


def build_work(tr, i):
    return (_system(tr, i), i["lam"])


def build_observable(tr, i):
    return (_problem(tr, i), i["t"], i["s"])


# -------------------------------------------------------------------- checks
# Each takes (op, result) and returns True only for an answer inside tolerance.

def _residual_ok(op, s) -> bool:
    i, e = op.inputs, op.expect
    if not math.isfinite(s):
        return False
    with np.errstate(all="ignore"):
        level = R.level_rate(i["p"], i["q"], i["d"], s)[0]
    return abs(level - i["delta"]) <= TOL_RESIDUAL * e["span"]


def check_point(op, res) -> bool:
    e = op.expect
    return (
        close(res.rate, e["rate"], TOL_LEGENDRE)
        and abs(res.s - e["s"]) <= TOL_FORCE * abs(e["s"])
        and _residual_ok(op, res.s)
    )


def check_rate(op, res) -> bool:
    return close(res, op.expect["rate"], TOL_LEGENDRE)


def check_allocation(op, res) -> bool:
    allocation, rate = res
    total = float(op.inputs["p"] @ allocation.per_symbol_distortion)
    return close(rate, op.expect["rate"], TOL_LEGENDRE) and (
        abs(total - op.inputs["delta"]) <= TOL_RESIDUAL * op.expect["span"]
    )


def check_capacity(op, res) -> bool:
    e = op.expect
    return (
        close(res.rate, e["rate"], TOL_CAPACITY)
        and abs(res.s_star + 1.0) <= TOL_CAPACITY
        and close(res.delta, e["delta"], TOL_CAPACITY)
    )


def check_equilibrium(op, res) -> bool:
    i, e = op.inputs, op.expect
    lam = float(res)
    if not (math.isfinite(lam) and abs(lam - e["lam"]) <= TOL_FORCE * abs(e["lam"])):
        return False
    level = R.level_rate(i["p"], i["q"], i["d"], i["beta"] * lam)[0]
    return abs(level - i["target"]) <= TOL_RESIDUAL * e["span"]


def check_entropy(op, res) -> bool:
    return close(res, op.expect["entropy"], TOL_LEGENDRE)


def check_pair(op, res) -> bool:
    # Only the rate is pinned: the ascent stops on its projected gradient, and
    # an ill-conditioned pair leaves the forces loose while the rate is exact.
    rate, s1, s2 = res
    return close(rate, op.expect["rate"], TOL_LEGENDRE) and -math.inf < min(s1, s2) <= max(s1, s2) <= 0.0


def curve_matches(rows, grid, points, tol, slack=0.0) -> bool:
    """(force, distortion, rate) rows against the grid and its reference points."""
    rows = list(rows)
    return len(rows) == len(points) and all(
        close(s, s_ref, 0.0, slack) and close(level, level_ref, tol, slack) and close(rate, rate_ref, tol, slack)
        for (s, level, rate), s_ref, (level_ref, rate_ref) in zip(rows, grid, points)
    )


def check_curve(op, res) -> bool:
    return curve_matches(((pt.s, pt.distortion, pt.rate) for pt in res), op.expect["s"], op.expect["points"],
                         TOL_DIRECT)


def _bracket_ok(pair, sums, truth) -> bool:
    lo, hi = min(pair), max(pair)
    slack = 1e-12 * max(1.0, abs(truth))
    return (
        close(pair[0], sums[0], TOL_DIRECT)
        and close(pair[1], sums[1], TOL_DIRECT)
        and lo - slack <= truth <= hi + slack
    )


def check_sandwich(op, res) -> bool:
    return _bracket_ok(res, op.expect["sums"], op.expect["rate"])


def check_protocol(op, res) -> bool:
    return _bracket_ok(res, op.expect["sums"], op.expect["work"])


def check_rate_integral(op, res) -> bool:
    return abs(float(res) - op.expect["rate"]) <= TOL_ROUTE_AGREEMENT


def check_level_integral(op, res) -> bool:
    return abs(float(res) - op.expect["level"]) <= TOL_ROUTE_AGREEMENT


def check_work(op, res) -> bool:
    return abs(float(res) - op.expect["work"]) <= TOL_CHAIN_WORK


def check_observable(op, res) -> bool:
    return abs(float(res) - op.expect["mean"]) <= TOL_ROUTE_AGREEMENT


def check_conditional(op, res) -> bool:
    res = np.asarray(res)
    ref = op.expect["law"]
    return res.shape == ref.shape and float(np.abs(res - ref).max()) <= 1e-12


@dataclass(frozen=True)
class Family:
    module: str
    function: str
    gen: object
    build: object
    check: object


FAMILIES = {
    "force_at_distortion": Family("ratedistortion", "force_at_distortion", gen_budget, build_budget, check_point),
    "rate_legendre": Family("ratedistortion", "rate_legendre", gen_budget, build_budget, check_rate),
    "equal_force_allocation": Family("ratedistortion", "equal_force_allocation", gen_budget, build_budget, check_allocation),
    "capacity_point": Family("capacity", "capacity_point", gen_channel, build_channel, check_capacity),
    "equilibrium_force": Family("chain", "equilibrium_force", gen_chain, build_chain, check_equilibrium),
    "entropy_at_energy": Family("chain", "entropy_at_energy", gen_entropy, build_entropy, check_entropy),
    "rate_two_distortions": Family("multiconstraint", "rate_two_distortions", gen_pair, build_pair, check_pair),
    "rd_curve": Family("ratedistortion", "rd_curve", gen_curve, build_curve, check_curve),
    "sandwich_bounds": Family("ratedistortion", "sandwich_bounds", gen_partition, build_partition, check_sandwich),
    "protocol_work_bounds": Family("chain", "protocol_work_bounds", gen_protocol, build_protocol, check_protocol),
    "rate_mmse_integral": Family("ratedistortion", "rate_mmse_integral", gen_force, build_force, check_rate_integral),
    "distortion_mmse_integral": Family("ratedistortion", "distortion_mmse_integral", gen_force, build_force, check_level_integral),
    "quasistatic_work": Family("chain", "quasistatic_work", gen_work, build_work, check_work),
    "observable_sweep": Family("ratedistortion", "observable_sweep", gen_observable, build_observable, check_observable),
    "tilted_conditional": Family("ratedistortion", "tilted_conditional", gen_conditional, build_force, check_conditional),
}

# Deck rows: (family, k, count, size parameter, scaled).  A scaled row spends
# four of its slots on the table and budget scaled by each of SCALES.
DECKS = {
    "solve": [
        *[(f, 2, 16, 0, f != "capacity_point") for f in (
            "force_at_distortion", "rate_legendre", "equal_force_allocation", "capacity_point",
            "equilibrium_force", "entropy_at_energy", "rate_two_distortions")],
        ("force_at_distortion", 64, 2, 0, False),
        ("rate_legendre", 64, 2, 0, False),
        ("equal_force_allocation", 64, 2, 0, False),
        ("capacity_point", 64, 1, 0, False),
        # The nine calls above 30 ms, then these six: out of 132 operations
        # the p90 falls in the middle of the six rather than on one draw.
        ("equilibrium_force", 64, 6, 0, False),
        ("entropy_at_energy", 64, 2, 0, False),
        ("rate_two_distortions", 64, 2, 0, False),
        ("equilibrium_force", 512, 1, 0, False),
        ("entropy_at_energy", 512, 1, 0, False),
        ("rate_two_distortions", 512, 1, 0, False),
    ],
    "sweep": [
        # The 60 fixed-grid calls at k = 2 cost about the same whatever the
        # seed, and they straddle the median; the cheaper quadrature calls
        # below it depend on the drawn force.
        ("rd_curve", 2, 20, 60, False),
        ("sandwich_bounds", 2, 20, 61, False),
        ("protocol_work_bounds", 2, 20, 201, False),
        ("rate_mmse_integral", 2, 14, 0, False),
        ("distortion_mmse_integral", 2, 14, 0, False),
        ("quasistatic_work", 2, 14, 0, False),
        ("observable_sweep", 2, 14, 0, False),
        ("tilted_conditional", 2, 4, 0, False),
        ("rd_curve", 64, 3, 5, False),
        ("sandwich_bounds", 64, 3, 6, False),
        ("protocol_work_bounds", 64, 3, 26, False),
        ("rate_mmse_integral", 64, 2, 0, False),
        ("distortion_mmse_integral", 64, 2, 0, False),
        ("quasistatic_work", 64, 3, 0, False),
        ("observable_sweep", 64, 3, 0, False),
        ("tilted_conditional", 64, 3, 0, False),
        ("rd_curve", 512, 1, 2, False),
        ("sandwich_bounds", 512, 1, 2, False),
        ("protocol_work_bounds", 512, 1, 11, False),
        ("quasistatic_work", 512, 1, 0, False),
    ],
}


def _slots(workload: str):
    for family, k, count, size, scaled in DECKS[workload]:
        scales = [1.0] * (count - len(SCALES)) + list(SCALES) if scaled else [1.0] * count
        for index, scale in enumerate(scales):
            yield family, k, scale, index, size


def generate(workload: str, seed: int) -> list[Op]:
    """The deck for one seed: inputs drawn per slot from its own child stream."""
    slots = list(_slots(workload))
    streams = np.random.SeedSequence(seed).spawn(len(slots))
    deck = []
    for (family, k, scale, index, size), stream in zip(slots, streams):
        inputs, expect = FAMILIES[family].gen(np.random.default_rng(stream), k, scale, index, size)
        deck.append(Op(family, k, scale, inputs, expect))
    return deck


# The letter axes each input indexes: r (source), c (reproduction), and for
# a channel x (input) and y (output).  The keys of cli config documents are here too.
AXES = {
    "p": "r", "q": "c", "d": "rc", "d1": "rc", "d2": "rc", "t": "rc", "law": "rc",
    "w": "xy", "wq": "x", "levels": "c", "weights": "c",
    "source_probs": "r", "coding_probs": "c", "distortion": "rc", "distortion_2": "rc",
    "transition": "xy", "input_probs": "x",
}


def relabel(values: dict, rng, perms: dict) -> dict:
    """``values`` with each array's letter axes permuted, one permutation per axis name.

    Nested dicts are relabelled with the same permutations; anything not in
    AXES (forces, grids, scalars) is left as it is.
    """
    out = {}
    for key, value in values.items():
        if isinstance(value, dict):
            out[key] = relabel(value, rng, perms)
            continue
        for dim, axis in enumerate(AXES.get(key, "")):
            if axis not in perms:
                perms[axis] = rng.permutation(np.shape(value)[dim])
            value = np.take(value, perms[axis], axis=dim)
        out[key] = value
    return out


def pass_deck(deck: list[Op], seed: int, index: int) -> list[Op]:
    """The deck of pass ``index``: as generated for pass 0, relabelled after that."""
    if index == 0:
        return deck
    rng = np.random.default_rng([seed, 1, index])
    out = []
    for op in deck:
        perms: dict = {}
        out.append(replace(op, inputs=relabel(op.inputs, rng, perms), expect=relabel(op.expect, rng, perms), args=()))
    return out


def input_bytes(deck: list[Op]) -> bytes:
    """Canonical byte form of everything the program receives."""
    parts = []
    for op in deck:
        parts.append(f"{op.family}|{op.k}|{op.scale!r}".encode())
        for key in sorted(op.inputs):
            parts.append(key.encode() + np.ascontiguousarray(op.inputs[key], dtype=float).tobytes())
    return b"\0".join(parts)


MODULES = ("tilting", "ratedistortion", "capacity", "chain", "multiconstraint")


def load_package(modules=MODULES):
    """Import tiltrate and the submodules the operations call into."""
    tr = importlib.import_module("tiltrate")
    for name in modules:
        importlib.import_module(f"tiltrate.{name}")
    return tr


def build(tr, deck: list[Op]) -> None:
    for op in deck:
        op.args = FAMILIES[op.family].build(tr, op.inputs)


def call(tr, op: Op):
    """Look the function up at call time, so a traced run sees its wrapper."""
    family = FAMILIES[op.family]
    return getattr(getattr(tr, family.module), family.function)(*op.args)


def check(op: Op, result) -> bool:
    return bool(FAMILIES[op.family].check(op, result))
