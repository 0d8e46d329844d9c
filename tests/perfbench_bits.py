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
"""

import dataclasses
import hashlib
import sys
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


def main() -> int:
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
    print(f"{results} results sha256 {digest.hexdigest()} {calls} kernel block calls")
    for name, (count, family_digest, family_calls) in sorted(families.items()):
        print(f"  {name}: {count} results sha256 {family_digest.hexdigest()[:16]} {family_calls} kernel block calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
