"""perfbench's solve and sweep answers as one hash: a bit-for-bit check across a change.

    PYTHONPATH=src python tests/perfbench_bits.py

Runs every operation of the solve and sweep decks (``perfbench/workloads.py``) at seeds 201 and 202,
passes 0 and 1, and prints one line: the number of results, a sha256 over each result's floats as
``float.hex`` and its arrays' bytes (or the name of the error it raised), and the kernel's calls as
its own tally counts them (``tilting._kernel_calls()``): its row blocks, each one exponential, the
entries they tilted (forces x rows x columns), and its table calls (``_Table.grid``, ``.pair`` and
``.law``).  Run it before and after a change that
should keep every answer: the two lines are equal when it does.  After it, one line per operation
family gives the same numbers for that family's operations alone, its sha256 cut to 16 digits, so a
change that moves some answers names the families it moved.  pytest does not collect this file: its
name does not start with ``test_``.

    PYTHONPATH=src python tests/perfbench_bits.py --against REV

also exports REV's ``src`` by ``git archive`` into a temporary directory, runs the same decks on it in
a child process, and after its own lines prints ``same as REV`` where every line is equal.
Otherwise it tells answers from kernel calls apart: ``same answers as REV`` where every sha256 is
equal, or the families whose answers differ, and then the families whose kernel calls differ, with
both counts, e.g. ``kernel calls differ in: quasistatic_work (488 blocks, 456 at REV)``.  Where REV's
tally counts no entries, the lines are compared without them.  It exits 0 either way, unless REV
cannot be exported or the decks cannot run on its ``src`` (one with no ``_kernel_calls``, say): then
it stops with a message that names REV.
"""

import argparse
import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
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
    tr = workloads.load_package()
    digest, results, families = hashlib.sha256(), 0, {}
    start = tilting._kernel_calls()
    for workload in ("solve", "sweep"):
        for seed in SEEDS:
            first = workloads.generate(workload, seed)
            for index in PASSES:
                deck = workloads.pass_deck(first, seed, index)
                workloads.build(tr, deck)
                for op in deck:
                    before = tilting._kernel_calls()
                    try:
                        bits = canonical(workloads.call(tr, op))
                    except Exception as error:  # a raised error is an answer too
                        bits = type(error).__name__.encode()
                    line = op.label.encode() + b"=" + bits + b"\n"
                    digest.update(line)
                    results += 1
                    family = families.setdefault(op.family, [0, hashlib.sha256(), Counter()])
                    family[0] += 1
                    family[1].update(line)
                    family[2].update(since(before))
    return [f"{results} results sha256 {digest.hexdigest()} {counts(since(start))}"] + [
        f"  {name}: {count} results sha256 {family_digest.hexdigest()[:16]} {counts(calls)}"
        for name, (count, family_digest, calls) in sorted(families.items())]


def since(start: dict) -> dict:
    """The kernel's calls of each kind that its tally counts, made since the tally read ``start``."""
    now = tilting._kernel_calls()
    return {kind: now[kind] - start[kind] for kind in now}


def counts(calls: dict) -> str:
    """A tally difference as ``5626 kernel block calls 38404352 entries 4628 table calls``, with no
    entries where the tally has no such key (a revision older than it)."""
    entries = f" {calls['entries']} entries" if "entries" in calls else ""
    return f"{calls['block']} kernel block calls{entries} {calls['table']} table calls"


# a family's line of ``answer_lines``: its name, its answers, its kernel calls (entries where counted)
LINE = re.compile(r"\s*(\S+): (\d+ results sha256 \w+) (\d+) kernel block calls (?:(\d+) entries )?(\d+) "
                  r"table calls$")
ENTRIES = re.compile(r" \d+ entries")


def by_family(lines: list[str]) -> dict:
    """Each family's line of ``answer_lines`` (the total line left out: it moves only where some
    family's does) by its name, as its answers (the count and sha256) and its kernel calls (blocks,
    entries or None, table calls)."""
    out = {}
    for line in lines[1:]:
        name, answers, *calls = LINE.match(line).groups()
        out[name] = answers, tuple(None if n is None else int(n) for n in calls)
    return out


def calls_moved(ours: tuple, theirs: tuple, rev: str) -> str:
    """The kernel counts that differ, as ``488 blocks, 456 at REV``."""
    kinds = ("blocks", "entries", "table calls")
    return "; ".join(f"{a} {what}, {b} at {rev}" for a, b, what in zip(ours, theirs, kinds) if a != b)


def verdict(ours: list[str], theirs: list[str], rev: str) -> list[str]:
    """``same as REV`` where every line is equal.  Else ``same answers as REV`` or the families whose
    answers differ, then the families whose kernel calls differ, each with both counts.  Where one
    side counts no entries (a revision older than that key), both are compared without them."""
    if not (ENTRIES.search(ours[0]) and ENTRIES.search(theirs[0])):
        ours, theirs = [ENTRIES.sub("", line) for line in ours], [ENTRIES.sub("", line) for line in theirs]
    if ours == theirs:
        return [f"same as {rev}"]
    mine, other = by_family(ours), by_family(theirs)
    names = sorted(mine.keys() | other.keys())
    moved = [name for name in names if mine.get(name, ("",))[0] != other.get(name, ("",))[0]]
    calls = [f"{name} ({calls_moved(mine[name][1], other[name][1], rev)})" for name in names
             if name in mine and name in other and mine[name][1] != other[name][1]]
    lines = [f"answers differ from {rev} in: {', '.join(moved)}" if moved else f"same answers as {rev}"]
    if calls:
        lines.append(f"kernel calls differ in: {', '.join(calls)}")
    return lines


def lines_at(rev: str) -> list[str]:
    """``answer_lines`` on the ``src`` of git revision ``rev``, exported into a temporary directory and
    imported first in a child process, whatever the environment's path holds.  Where the export or
    the child fails, it stops with the last line of that error, naming ``rev``."""
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run(["git", "-C", str(root), "archive", rev, "src"], capture_output=True)
        if not run.returncode:
            subprocess.run(["tar", "-x", "-C", tmp], input=run.stdout, check=True)
            child = (f"import runpy, sys; sys.path.insert(0, {str(Path(tmp) / 'src')!r}); "
                     f"runpy.run_path({str(Path(__file__).resolve())!r}, run_name='__main__')")
            env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
            run = subprocess.run([sys.executable, "-c", child], capture_output=True, env=env)
    if run.returncode:
        sys.exit(f"the decks did not run on {rev}'s src: {(run.stderr.decode().strip().splitlines() or ['?'])[-1]}")
    return run.stdout.decode().splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Hash perfbench's solve and sweep answers bit for bit.")
    parser.add_argument("--against", metavar="REV", help="compare with the answers of git revision REV's src")
    args = parser.parse_args(argv)
    ours = answer_lines()
    print("\n".join(ours), flush=True)
    if args.against:
        print("\n".join(verdict(ours, lines_at(args.against), args.against)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
