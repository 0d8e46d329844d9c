"""The cli workload: seeded command lines for ``tiltrate.cli.main`` and their checks.

Each operation is one in-process call of ``tiltrate.cli.main(argv)``, the
function ``python -m tiltrate`` runs, with its output captured.  Outputs are
parsed and compared numerically against ``reference.py``, never byte by
byte, so a solver that lands on a slightly different last digit still
passes while a wrong answer fails.  The repository's sample configs are read
here with a parser of the benchmark's own, not with ``tiltrate.config``,
which is one of the layers under test.

The first pass reads the sample configs in ``configs/`` and two configs
written from the seed.  Every later pass reads copies of all of them with
their letters relabelled at random, written to a directory of its own, so no
call reads a file or a table it has read before and every answer stays the
same.
"""

from __future__ import annotations

import itertools
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path

import numpy as np

import reference as R
from workloads import (
    TOL_CAPACITY, TOL_CHAIN_WORK, TOL_FORCE, TOL_LEGENDRE, TOL_RESIDUAL, TOL_ROUTE_AGREEMENT,
    _force, close, curve_matches, relabel,
)

TOL_BA = 1e-6              # tests/test_acceptance.py, criterion 8 (TOL_BA_REEVAL)
TOL_GRID = 1e-6            # oracles.legendre_grid_max's stated agreement
TOL_BRUTE_LOWER = 1e-10    # tests/test_acceptance.py, criterion 4
PRINTED = 1e-11            # outputs carry 12 significant digits
WORK_DIR = ".perfbench"    # written configs, under the checkout root (the working directory)
SAMPLES = {
    "bss": "configs/bss.json", "bsc": "configs/bsc.json",
    "asym": "configs/asym.cfg", "two": "configs/two_budget.cfg",
}
# Blahut-Arimoto slopes sit this much below the drawn force.  Near a slope
# where a letter leaves the optimal coding law, the package's iteration stops
# at its 500-step cap and `rd curve` prints the unconverged point without a
# signal (errors up to 3e-4 at slopes around -0.5 and -2); that defect is
# recorded in CHANGES.md, and these slopes stay clear of it.
BA_SHIFT = -3.0
# 18 light commands drawn six times, and 7 that cost 30 to 300 ms each drawn
# once: 115 operations, so the p90 has ten beyond it and falls among the
# dozen light commands of 30 to 45 ms rather than in a gap between heavy ones.
ROUNDS = 6
HEAVY_ROUNDS = 1


@dataclass
class CliOp:
    label: str
    argv: list
    expect: dict
    check: object
    config: str                       # name of the config the command reads
    write: tuple | None = None        # (path, text) of that config, when the benchmark writes it
    scale: float = 1.0

    def passes(self, stdout: str) -> bool:
        try:
            return bool(self.check(parse_output(stdout, "--json" in self.argv), self.expect))
        except (KeyError, ValueError, TypeError, IndexError):
            return False


def build(tr, ops: list[CliOp]) -> None:
    """Write the configs the command lines read that are not in the repository."""
    for path, text in dict(op.write for op in ops if op.write).items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


def call(tr, op: CliOp):
    """(exit status, captured stdout) of one ``tiltrate.cli.main`` call."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = tr.cli.main(op.argv)
    return code, out.getvalue()


def check(op: CliOp, result) -> bool:
    code, stdout = result
    return code == 0 and op.passes(stdout)


def parse_output(text: str, as_json: bool):
    """CSV or JSON output as a dict of quantities, or a list of row dicts for tables."""
    if as_json:
        doc = json.loads(text)
        return doc["points"] if "points" in doc else doc
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if header == ["quantity", "value"]:
        return {row["quantity"]: row["value"] for row in rows}
    return rows


# ------------------------------------------------------------------ configs

def parse_config(text: str, suffix: str) -> dict:
    """A config document: JSON, or flat key = value with ';' between matrix rows."""
    if suffix == ".json":
        return json.loads(text)
    doc = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            rows = [[float(t) for t in row.replace(",", " ").split()] for row in value.split(";")]
            doc[key] = rows[0][0] if key == "beta" else (rows if ";" in value else rows[0])
    return doc


def render_config(doc: dict, suffix: str) -> str:
    """The inverse of ``parse_config``; floats keep every digit."""
    if suffix == ".json":
        def plain(v):
            if isinstance(v, dict):
                return {key: plain(val) for key, val in v.items()}
            return np.asarray(v).tolist() if isinstance(v, (list, np.ndarray)) else v
        return json.dumps(plain(doc), indent=1) + "\n"
    return "".join(
        f"{key} = " + "; ".join(", ".join(repr(float(x)) for x in row) for row in np.atleast_2d(value)) + "\n"
        for key, value in doc.items()
    )


def _fields(doc) -> dict:
    names = {"source_probs": "p", "coding_probs": "q", "distortion": "d", "distortion_2": "d2"}
    out = {names[k]: np.asarray(v, dtype=float) for k, v in doc.items() if k in names}
    if "beta" in doc:
        out["beta"] = float(doc["beta"])
    if "channel" in doc:
        out["w"] = np.asarray(doc["channel"]["transition"], dtype=float)
        out["wq"] = np.asarray(doc["channel"]["input_probs"], dtype=float)
    return out


def _random_configs(rng) -> dict:
    k = 64
    big = {
        "source_probs": rng.dirichlet(np.ones(k)),
        "coding_probs": rng.dirichlet(np.ones(k)),
        "distortion": rng.random((k, k)),
        "distortion_2": rng.random((k, k)),
        "beta": float(rng.uniform(0.5, 2.0)),
        "channel": {"transition": rng.dirichlet(np.ones(k), size=k), "input_probs": rng.dirichlet(np.ones(k))},
    }
    # A Hamming table plus noise; at the steep slopes the deck uses, the
    # optimal coding law keeps every letter (see BA_SHIFT).
    small = {"source_probs": rng.dirichlet(8.0 * np.ones(4)), "distortion": 1.0 - np.eye(4) + 0.1 * rng.random((4, 4))}
    return {"k64": big, "nocoding": small}


def sources(seed: int, root: Path) -> dict:
    """Every config the deck reads, as name -> (path, text): the samples in
    ``configs/`` and, written from the seed, one at k = 64 and one without
    coding_probs."""
    out = {name: (path, (root / path).read_text()) for name, path in SAMPLES.items()}
    for name, doc in _random_configs(np.random.default_rng([seed, 7])).items():
        out[name] = (f"{WORK_DIR}/gen_{name}.json", render_config(doc, ".json"))
    return out


def pass_deck(ops: list[CliOp], srcs: dict, seed: int, index: int) -> list[CliOp]:
    """The deck of pass ``index``: as generated for pass 0; after that, every
    config relabelled and written to a directory of the pass's own."""
    if index == 0:
        return ops
    rng = np.random.default_rng([seed, 9, index])
    files = {}
    for name, (path, text) in srcs.items():
        suffix = Path(path).suffix
        doc = relabel(parse_config(text, suffix), rng, {})
        files[name] = (f"{WORK_DIR}/p{index}/{name}{suffix}", render_config(doc, suffix))
    return [replace(op, argv=[*op.argv[:-1], files[op.config][0]], write=files[op.config]) for op in ops]


# ------------------------------------------------------------------ checks
# Each takes (parsed output, expect); printed values carry PRINTED slack.

def check_point_delta(out, e):
    ok = (
        abs(float(out["s"]) - e["s"]) <= TOL_FORCE * abs(e["s"])
        and close(out["rate_nats"], e["rate"], TOL_LEGENDRE, PRINTED)
        and abs(float(out["distortion"]) - e["delta"]) <= TOL_RESIDUAL * e["span"] + PRINTED * abs(e["delta"])
    )
    if "allocation_rate_nats" in e["extras"]:
        ok = ok and close(out["allocation_rate_nats"], e["rate"], TOL_LEGENDRE, PRINTED)
    if "sandwich" in e["extras"]:
        lo, hi = sorted((float(out["sandwich_sum_left"]), float(out["sandwich_sum_right"])))
        slack = PRINTED * max(1.0, e["rate"])
        ok = ok and lo - slack <= e["rate"] <= hi + slack
    if "integral" in e["extras"]:
        ok = ok and abs(float(out["rate_mmse_integral"]) - e["rate"]) <= TOL_ROUTE_AGREEMENT
    return ok


def check_point_force(out, e):
    return (close(out["distortion"], e["level"], TOL_LEGENDRE, PRINTED)
            and close(out["rate_nats"], e["rate"], TOL_LEGENDRE, PRINTED))


def check_curve(out, e):
    rows = ((row["s"], row["distortion"], row["rate_nats"]) for row in out)
    return curve_matches(rows, e["s"], e["points"], e["tol"], PRINTED)


def check_capacity(out, e):
    return (
        close(out["rate_nats"], e["rate"], TOL_CAPACITY, PRINTED)
        and close(out["mutual_information_nats"], e["rate"], TOL_CAPACITY, PRINTED)
        and abs(float(out["s_star"]) + 1.0) <= TOL_CAPACITY
    )


def check_rd2(out, e):
    return close(out["rate_nats"], e["rate"], TOL_LEGENDRE, PRINTED)


def check_work(out, e):
    return (
        abs(float(out["quasistatic_work"]) - e["work"]) <= TOL_CHAIN_WORK
        and close(out["rate_nats"], e["rate"], TOL_LEGENDRE, PRINTED)
    )


def check_equilibrium(out, e):
    return abs(float(out["lambda"]) - e["lam"]) <= TOL_FORCE * abs(e["lam"])


def check_protocol(out, e):
    left, right = float(out["protocol_work_left_sum"]), float(out["protocol_work"])
    slack = PRINTED * max(1.0, abs(e["work"]))
    return (
        close(left, e["sums"][0], TOL_LEGENDRE, PRINTED)
        and close(right, e["sums"][1], TOL_LEGENDRE, PRINTED)
        and min(left, right) - slack <= e["work"] <= max(left, right) + slack
        and abs(float(out["quasistatic_work"]) - e["work"]) <= TOL_CHAIN_WORK
    )


def check_exact(out, e):
    prob = float(out["probability"])
    return (
        abs(prob - e["prob"]) <= (TOL_LEGENDRE + PRINTED) * e["prob"]
        and close(out["rate_legendre"], e["rate"], TOL_LEGENDRE, PRINTED)
    )


def check_ba(out, e):
    return (
        out["converged"] in ("true", True)
        and close(out["rate_nats"], e["rate"], TOL_BA, PRINTED)
        and close(out["distortion"], e["level"], TOL_BA, PRINTED)
    )


def check_grid(out, e):
    return (close(out["grid_max"], e["rate"], TOL_GRID, PRINTED)
            and close(out["rate_legendre"], e["rate"], TOL_LEGENDRE, PRINTED))


def check_alloc(out, e):
    # Above the optimum, and at most one grid cell's convexity slack above it.
    brute, rate = float(out["brute_min"]), e["rate"]
    printed = PRINTED * max(1.0, rate)
    return (
        rate - TOL_BRUTE_LOWER - printed <= brute <= rate + e["slack"] + printed
        and close(out["rate_legendre"], rate, TOL_LEGENDRE, PRINTED)
    )


# ------------------------------------------------------------ generation

def commands(seed: int, srcs: dict) -> list[CliOp]:
    """The first pass's command lines, with their expected answers."""
    rng = np.random.default_rng([seed, 8])
    cfg = {name: _fields(parse_config(text, Path(path).suffix)) for name, (path, text) in srcs.items()}
    strata = itertools.count()

    def force():
        return _force(rng, next(strata))

    ops: list[CliOp] = []

    def add(label, name, argv, expect, check):
        path, text = srcs[name]
        ops.append(CliOp(f"{label}.{name}", [*argv, "--config", path], expect, check, name,
                         (path, text) if path.startswith(WORK_DIR + "/") else None))

    def point_delta(name, extras, flags):
        f = cfg[name]
        s = force()
        level, rate = R.level_rate(f["p"], f["q"], f["d"], s)
        add("rd_point_delta", name, ["rd", "point", f"--delta={level!r}", *flags],
            dict(s=s, rate=rate, delta=level, span=R.span(f["p"], f["q"], f["d"]), extras=extras),
            check_point_delta)

    def point_force(name, flags=()):
        f = cfg[name]
        s = force()
        level, rate = R.level_rate(f["p"], f["q"], f["d"], s)
        add("rd_point_force", name, ["rd", "point", f"--force={s!r}", *flags], dict(level=level, rate=rate),
            check_point_force)

    def curve(name, count, flags=(), hi=0.0):
        f = cfg[name]
        lo = force() - 1.0 + hi
        grid = np.linspace(lo, hi, count)[::-1]
        if "q" in f:
            points, tol = [R.level_rate(f["p"], f["q"], f["d"], float(s)) for s in grid], TOL_LEGENDRE
        else:
            points, tol = [R.blahut_arimoto(f["p"], f["d"], float(s)) for s in grid], TOL_BA
        add("rd_curve", name, ["rd", "curve", f"--grid={lo!r}:{hi!r}:{count}", *flags],
            dict(s=grid, points=points, tol=tol), check_curve)

    def capacity(name, flags=()):
        f = cfg[name]
        add("capacity", name, ["capacity", *flags], dict(rate=R.mutual_information(f["w"], f["wq"])[0]),
            check_capacity)

    def rd2(name):
        f = cfg[name]
        l1, l2, rate = R.pair_level_rate(f["p"], f["q"], f["d"], f["d2"], force(), force())
        add("rd2", name, ["rd2", f"--delta1={l1!r}", f"--delta2={l2!r}"], dict(rate=rate), check_rd2)

    def chain(name, kind, steps=0):
        f = cfg[name]
        beta = f["beta"]
        lam = force() / beta
        level, rate = R.level_rate(f["p"], f["q"], f["d"], beta * lam)
        if kind == "work":
            add("chain_work", name, ["chain", "work", f"--lambda-final={lam!r}"],
                dict(work=rate / beta, rate=rate), check_work)
        elif kind == "equilibrium":
            add("chain_equilibrium", name, ["chain", "equilibrium", f"--length={level!r}"], dict(lam=lam),
                check_equilibrium)
        else:
            sums = R.riemann_sums(f["p"], f["q"], f["d"], beta * np.linspace(0.0, lam, steps))
            add("chain_protocol", name, ["chain", "protocol", f"--schedule=0:{lam!r}:{steps}"],
                dict(sums=(sums[0] / beta, sums[1] / beta), work=rate / beta), check_protocol)

    def oracle(kind, name, flags=()):
        f = cfg[name]
        s = force()
        if kind == "ba":
            s += BA_SHIFT
            level, rate = R.blahut_arimoto(f["p"], f["d"], s)
            add("oracle_ba", name, ["oracle", "ba", f"--force={s!r}"], dict(level=level, rate=rate), check_ba)
            return
        level, rate = R.level_rate(f["p"], f["q"], f["d"], s)
        argv = ["oracle", kind, f"--delta={level!r}", *flags]
        if kind == "exact":
            prob = R.block_probability(f["p"], f["q"], f["d"], int(flags[1]), level)
            add("oracle_exact", name, argv, dict(prob=prob, rate=rate), check_exact)
        elif kind == "grid":
            add("oracle_grid", name, argv, dict(rate=rate), check_grid)
        else:
            slack = R.brute_slack(f["p"], f["q"], f["d"], s, int(flags[1]))
            add("oracle_alloc", name, argv, dict(rate=rate, slack=slack), check_alloc)

    every = ["allocation_rate_nats", "sandwich", "integral"]
    for round_ in range(ROUNDS):
        point_delta("bss", every, ["--allocation", "--bounds", "100", "--integral-route"])
        point_delta("asym", every, ["--allocation", "--bounds", "100", "--integral-route", "--json"])
        point_delta("two", [], [])
        point_force("bss")
        point_force("k64", ["--json"])
        curve("bss", 100)
        curve("asym", 100, ["--json"])
        curve("nocoding", 8, hi=BA_SHIFT)
        capacity("bsc")
        rd2("two")
        rd2("k64")
        chain("two", "work")
        chain("two", "equilibrium")
        chain("two", "protocol", 50)
        oracle("exact", "bss", ["--n", "16"])
        oracle("exact", "asym", ["--n", "10"])
        oracle("ba", "nocoding")
        oracle("grid", "asym")
        if round_ < HEAVY_ROUNDS:
            point_delta("k64", [], [])
            curve("k64", 5)
            capacity("k64", ["--json"])
            chain("k64", "work")
            chain("k64", "equilibrium")
            chain("k64", "protocol", 20)
            oracle("alloc", "asym", ["--grid-points", "30"])
    return ops
