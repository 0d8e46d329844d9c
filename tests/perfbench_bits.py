"""perfbench's solve and sweep answers as one hash: a bit-for-bit check across a change.

    PYTHONPATH=src python tests/perfbench_bits.py

Runs every operation of the solve and sweep decks (``perfbench/workloads.py``) at seeds 201 and 202,
passes 0 and 1, and prints one line: the number of results, a sha256 over each result's floats as
``float.hex`` and its arrays' bytes (or the name of the error it raised), and the number of kernel
block calls (``tilting._moments`` plus ``tilting._pair``).  Run it before and after a change that
should keep every answer: the two lines are equal when it does.  After it, one line per operation
family gives the same three numbers for that family's operations alone, its sha256 cut to 16
digits, so a change that moves some answers names the families it moved.  pytest does not collect
this file: its name does not start with ``test_``.

    PYTHONPATH=src python tests/perfbench_bits.py --against REV

also exports REV's ``src`` by ``git archive`` into a temporary directory, runs the same decks on it in
a child process, and after its own lines prints ``same as REV`` or the families whose lines differ.
It exits 0 either way.
"""

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from tiltrate import tilting  # noqa: E402

SEEDS = (201, 202)
PASSES = (0, 1)


def canonical(result) -> bytes:
    """``result``'s bits: floats as ``float.hex``, arrays as their dtype, shape and bytes, recursing
    into tuples, lists and dataclasses."""
    if isinstance(result, np.ndarray):
        return f"{result.dtype}{result.shape}".encode() + np.ascontiguousarray(result).tobytes()
    if isinstance(result, (float, np.floating)):
        return float(result).hex().encode()
    if isinstance(result, (tuple, list)):
        return b"(" + b",".join(canonical(x) for x in result) + b")"
    if dataclasses.is_dataclass(result):
        return type(result).__name__.encode() + canonical([getattr(result, f.name) for f in dataclasses.fields(result)])
    return repr(result).encode()


def answer_lines() -> list[str]:
    """The total line and one line per family, over both workloads, seeds and passes."""
    calls = 0

    def counted(body):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return body(*args)
        return wrapper

    tilting._moments, tilting._pair = counted(tilting._moments), counted(tilting._pair)
    tr = workloads.load_package()
    digest, results, families = hashlib.sha256(), 0, {}
    for workload in ("solve", "sweep"):
        for seed in SEEDS:
            first = workloads.generate(workload, seed)
            for index in PASSES:
                deck = workloads.pass_deck(first, seed, index)
                workloads.build(tr, deck)
                for op in deck:
                    before = calls
                    try:
                        bits = canonical(workloads.call(tr, op))
                    except Exception as error:  # a raised error is an answer too
                        bits = type(error).__name__.encode()
                    line = op.label.encode() + b"=" + bits + b"\n"
                    digest.update(line)
                    results += 1
                    family = families.setdefault(op.family, [0, hashlib.sha256(), 0])
                    family[0] += 1
                    family[1].update(line)
                    family[2] += calls - before
    return [f"{results} results sha256 {digest.hexdigest()} {calls} kernel block calls"] + [
        f"  {name}: {count} results sha256 {family_digest.hexdigest()[:16]} {family_calls} kernel block calls"
        for name, (count, family_digest, family_calls) in sorted(families.items())]


def lines_at(rev: str) -> list[str]:
    """``answer_lines`` on the ``src`` of git revision ``rev``, exported into a temporary directory and
    imported first in a child process, whatever the environment's path holds."""
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(root), "archive", rev, "src"], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        child = (f"import runpy, sys; sys.path.insert(0, {str(Path(tmp) / 'src')!r}); "
                 f"runpy.run_path({str(Path(__file__).resolve())!r}, run_name='__main__')")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, check=True, env=env)
    return run.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Hash perfbench's solve and sweep answers bit for bit.")
    parser.add_argument("--against", metavar="REV", help="compare with the answers of git revision REV's src")
    args = parser.parse_args(argv)
    ours = answer_lines()
    print("\n".join(ours), flush=True)
    if args.against:
        theirs = lines_at(args.against)
        families = dict(line.split(":", 1) for line in ours[1:]), dict(line.split(":", 1) for line in theirs[1:])
        moved = sorted(name.strip() for name in families[0].keys() | families[1].keys()
                       if families[0].get(name) != families[1].get(name))
        if ours == theirs:
            print(f"same as {args.against}")
        else:
            print(f"differs from {args.against} in: {', '.join(moved) or 'the total line'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
