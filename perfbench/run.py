"""Answer-checked benchmark for tiltrate: the solve, sweep and cli workloads.

    python3 perfbench/run.py --workload solve|sweep|cli|all --seed N --seconds S --trace 0|1

One caller, one process, closed loop: each operation is issued after the
previous one returns.  An operation is one call into a public function of
tiltrate: a solver or sweep function (solve, sweep) or ``tiltrate.cli.main``
on one command line (cli).  Every answer is checked outside the timed region
against references computed in numpy without tiltrate; an operation that
raises, exits non-zero, or answers outside tolerance counts as failed.
Each pass over the deck runs on fresh inputs built into fresh program
objects, and each operation is timed on its first and only call.  A run
makes a fixed number of passes for its ``--seconds``, and its timings are
given at the speed of a reference host, measured by a probe between operations.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` it carries the per-layer metrics of one deck pass run
under ``tracer.Tracer``, next to the same pass without it.  The line before
the result (``report {...}``) records the environment, sample counts and
the failed operations by label and scale.
"""

import os

# Before numpy loads: keep BLAS/OpenMP pools to one thread here and in children.
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import cliwork  # noqa: E402
import reference as R  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("solve", "sweep", "cli")
MIN_PASSES = 4         # an operation's latency is its median pass
# Seconds one pass takes, with its set-up sample and speed probes, on the
# reference host (2-core Intel Xeon, Python 3.11, numpy 2.4) under its
# usual load from other tenants.  ``--seconds`` buys a fixed number of
# passes at these rates, so a seed always makes the same operations and
# ``attempted`` and ``failed`` repeat exactly.
PASS_SECONDS = {"solve": 3.0, "sweep": 3.3, "cli": 3.8}
MAX_STRETCH = 2.0      # a run stops early only once it has taken this many times --seconds
# The speed probe's time on the quiet reference host.  Timings are reported
# at the reference speed: each is divided by the probe's time next to it
# over this.
PROBE_REF_S = 0.0027
SPEED_REPEATS = 3      # timings per speed probe; the fastest counts
PROBE_EVERY_S = 0.1    # the speed probe runs between operations once this much time has passed
PROBE_REPEATS = 5      # child launches per start-up probe, and RdProblem builds per k
CHILD_TIMEOUT = 60.0


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# ------------------------------------------------------------ environment

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(args) -> dict:
    try:
        scipy = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy = "absent"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy,
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _commit(),
        "blas_threads": int(THREADS["OMP_NUM_THREADS"]),
    }


# ------------------------------------------------------------ operations

def run_op(api, tr, op):
    """(seconds, passed, error name) of one call."""
    start = perf_counter()
    try:
        result = api.call(tr, op)
    except Exception as exc:  # a raised error is a failed operation, not a crash
        return perf_counter() - start, False, type(exc).__name__
    elapsed = perf_counter() - start
    return elapsed, api.check(op, result), None


class Tally:
    """Latencies and failures of the operations run so far."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: Counter = Counter()
        self.errors: Counter = Counter()
        self.failed_scales: Counter = Counter()
        self.passes = 0
        self.speeds: list[float] = []   # the probe's speed next to each latency
        self.loop_s = 0.0

    def record(self, label, scale, outcome) -> None:
        elapsed, passed, error = outcome
        self.latencies.append(elapsed)
        if not passed:
            self.failures[label] += 1
            self.failed_scales[repr(scale)] += 1
            if error:
                self.errors[error] += 1

    def run_pass(self, deck, run_one) -> float:
        self.passes += 1
        start = len(self.latencies)
        for op in deck:
            self.record(op.label, getattr(op, "scale", 1.0), run_one(op))
        return sum(self.latencies[start:])

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def typical(self) -> list[float]:
        """Each operation slot's median pass, each latency at the reference host's speed."""
        lat = np.asarray(self.latencies) / np.asarray(self.speeds)
        return np.median(lat.reshape(self.passes, -1), axis=0).tolist()

    def report(self, lat) -> dict:
        p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
        return {
            "attempted": len(self.latencies), "failed": self.failed,
            "failed_frac": self.failed / len(self.latencies), "passes": self.passes,
            "samples": len(lat), "beyond_p50": sum(x > statistics.median(lat) for x in lat),
            "beyond_p90": sum(x > p90 for x in lat),
            "failed_by_label": dict(sorted(self.failures.items())),
            "failed_by_scale": dict(sorted(self.failed_scales.items())),
            "errors": dict(sorted(self.errors.items())),
            "speed_quartiles": statistics.quantiles(self.speeds, n=4) if len(self.speeds) > 1 else self.speeds,
            "loop_s": self.loop_s,
        }


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


_PROBE_RNG = np.random.default_rng(0)
PROBE_TABLES = [(_PROBE_RNG.dirichlet(np.ones(k)), _PROBE_RNG.dirichlet(np.ones(k)), _PROBE_RNG.random((k, k)))
                for k in (2, 2, 8, 64)]
PROBE_FORCES = np.linspace(-2.5, 0.0, 30).tolist()


def speed_probe() -> float:
    """Fastest of SPEED_REPEATS timings of a fixed numpy loop that never
    touches tiltrate, over PROBE_REF_S: how much slower than the reference
    host this core runs right now."""
    times = []
    for _ in range(SPEED_REPEATS):
        start = perf_counter()
        for p, q, d in PROBE_TABLES:
            for s in PROBE_FORCES:
                R.level_rate(p, q, d, s)
        times.append(perf_counter() - start)
    return min(times) / PROBE_REF_S


def probed_pass(tally, deck, run_one, speed: float) -> None:
    """One pass with the speed probe between operations every PROBE_EVERY_S.
    ``speed`` is the probe's reading before the pass; each operation's speed
    is the mean of the readings either side of it."""
    tally.passes += 1
    pending, mark = 0, perf_counter()
    for index, op in enumerate(deck, 1):
        tally.record(op.label, getattr(op, "scale", 1.0), run_one(op))
        pending += 1
        if index == len(deck) or perf_counter() - mark >= PROBE_EVERY_S:
            after = speed_probe()
            tally.speeds += [(speed + after) / 2.0] * pending
            speed, pending, mark = after, 0, perf_counter()


def closed_loop(api, tr, next_deck, import_probe, passes: int, seconds: float):
    """``passes`` whole passes over fresh decks, or fewer if MAX_STRETCH
    times ``seconds`` run out.  Before each pass, untimed by the operations,
    one set-up sample is taken: a cold import in a child plus building the
    pass's deck, over the mean of the speed probes either side of it.

    The passes take the allowed CPUs in turn, so an operation's median pass
    is not the speed of one core.
    """
    tally, setups = Tally(), []
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    for index in range(passes):
        if perf_counter() - start > MAX_STRETCH * seconds:
            break
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        before = speed_probe()
        deck = next_deck(index)
        built = perf_counter()
        api.build(tr, deck)
        built = perf_counter() - built + child_float(import_probe)
        speed = speed_probe()
        setups.append(2.0 * built / (before + speed))
        probed_pass(tally, deck, lambda op: run_op(api, tr, op), speed)
    os.sched_setaffinity(0, cpus)
    tally.loop_s = perf_counter() - start
    return tally, setups


def end_to_end(lat, setup_s: float, peak_rss_kb: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[-1], "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


# ------------------------------------------------------------ probes

def launch_seconds(argv) -> float:
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, capture_output=True, timeout=CHILD_TIMEOUT)
    return perf_counter() - start


def child_float(argv) -> float:
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    return float(proc.stdout.strip().splitlines()[-1])


def startup_probes() -> dict:
    """A bare interpreter's launch and the cold import of tiltrate.cli, each in fresh children."""
    bare = [launch_seconds([sys.executable, "-c", "pass"]) for _ in range(PROBE_REPEATS)]
    code = "import time; t = time.perf_counter(); import tiltrate.cli; print(time.perf_counter() - t)"
    imports = [child_float([sys.executable, "-c", code]) for _ in range(PROBE_REPEATS)]
    return {"python.startup_s": (statistics.median(bare), "s"), "cli.import_s": (statistics.median(imports), "s")}


def build_probe(tr, seed: int) -> dict:
    """Median time to build an RdProblem and fill its delta_dists, at each k."""
    rng = np.random.default_rng([seed, 11])
    out = {}
    for k in tracer.KS:
        times = []
        for _ in range(PROBE_REPEATS):
            p, q, d = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)), rng.random((k, k))
            start = perf_counter()
            tr.ratedistortion.RdProblem(p, q, d).delta_dists
            times.append(perf_counter() - start)
        out[f"ratedistortion.problem_build_s.k{k}"] = (statistics.median(times), "s")
    return out


# ------------------------------------------------------------ workloads

def decks(workload: str, seed: int):
    """(api module, modules to import, pass index -> deck) for one workload and seed."""
    if workload == "cli":
        srcs = cliwork.sources(seed, ROOT)
        first = cliwork.commands(seed, srcs)
        return cliwork, ("cli",), lambda index: cliwork.pass_deck(first, srcs, seed, index)
    first = workloads.generate(workload, seed)
    return workloads, workloads.MODULES, lambda index: workloads.pass_deck(first, seed, index)


def run(args):
    api, modules, next_deck = decks(args.workload, args.seed)
    tr = workloads.load_package(modules)
    if not Path(tr.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported tiltrate from {tr.__file__}, not from {SRC}")
    if not args.trace:
        # The program pays the import and the build before its first call.
        probe = [sys.executable, "-c", "import time; t = time.perf_counter(); "
                 + "; ".join(f"import tiltrate.{name}" for name in modules) + "; print(time.perf_counter() - t)"]
        tally, setups = closed_loop(api, tr, next_deck, probe, pass_count(args.workload, args.seconds),
                                    args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        lat = tally.typical()
        return tally, lat, end_to_end(lat, statistics.median(setups), peak)

    # Each operation runs once plain and once traced, back to back and each on
    # a freshly built object, so both see the same machine speed and the gap
    # is the tracing overhead.
    deck = next_deck(0)
    api.build(tr, deck)
    run_one = lambda op: run_op(api, tr, op)  # noqa: E731
    tally = Tally()
    tally.run_pass(deck, run_one)  # warms every path once
    spans = tracer.Tracer()
    plain_s = traced_s = 0.0
    for index, op in enumerate(deck):
        api.build(tr, [op])
        plain_s += tally.run_pass([op], run_one)
        api.build(tr, [op])
        spans.op = index
        spans.install()
        try:
            traced_s += tally.run_pass([op], run_one)
        finally:
            spans.uninstall()
    metrics = tracer.layer_metrics(tracer.aggregate(spans.spans))
    metrics.update(build_probe(tr, args.seed))
    metrics.update(startup_probes())
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    return tally, tally.latencies, metrics


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            rows.append(f"{workload:6s} {name:58s} {metric['value']:>16.6g} {metric['unit']}")
        rows.append(f"{workload:6s} {'failed/attempted':58s} {result['failed']:>8d}/{result['attempted']:<7d}")
    print("\n".join(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tiltrate" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no tiltrate source tree (src/tiltrate, configs) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # the cli command lines name their configs relative to the checkout
    if args.workload == "all":
        return run_all(args)
    try:
        tally, samples, metrics = run(args)
    finally:
        shutil.rmtree(ROOT / cliwork.WORK_DIR, ignore_errors=True)

    report = environment(args) | tally.report(samples)
    # The scaled solve slots hold the known scale defects: they are counted in
    # ``failed`` and listed by scale, and only a unit-scale failure marks the
    # run incorrect.
    nominal_failed = sum(n for scale, n in tally.failed_scales.items() if scale == "1.0")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": nominal_failed == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
