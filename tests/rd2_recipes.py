"""rd2's four seeded recipes, counted: a gate on the two-force ascent's outcomes.

    PYTHONPATH=src python tests/rd2_recipes.py

Runs ``rate_two_distortions`` on the generators of ``tests/test_multiconstraint.py``: 3,000 stiff
draws, 300 frontier draws, 200 unsatisfiable draws and 3,000 family draws (600 per family).  It
prints each recipe's outcome counts and exits 1 if an answer is low (``is_low`` against the draw's
truth), an unsatisfiable draw is answered, a family's counts differ from ``FAMILY_COUNTS``, or more
stiff or frontier draws stall than ``MAX_STALLS`` allows.  pytest does not collect this file: its
name does not start with ``test_``.
"""

import itertools
import sys
from collections import Counter

from tiltrate import rate_two_distortions
from tiltrate.errors import InfeasiblePairError, NumericalError

from test_multiconstraint import family_draws, frontier_draws, is_low, stiff_draws, unsatisfiable_draws

# Outcomes per family over the 3,000 family draws, and stalls allowed per recipe: stiff draws 578,
# 2147 and 2386 and frontier draw 108 stall today (ROADMAP items 12 and 14).
FAMILY_COUNTS = {
    "complement": {"refused": 569, "answered": 31},
    "duplicate": {"answered": 600},
    "noisy": {"answered": 600},
    "scaled": {"answered": 600},
    "random": {"refused": 169, "answered": 431},
}
MAX_STALLS = {"stiff": 3, "frontier": 1}


def outcome(problem, budgets):
    """("answered", rate), ("refused", None) or ("stalled", None)."""
    try:
        return "answered", rate_two_distortions(problem, *budgets)[0]
    except InfeasiblePairError:
        return "refused", None
    except NumericalError:
        return "stalled", None


def main() -> int:
    faults = []
    recipes = {
        "stiff": ((draw, problem, budgets, truth)
                  for draw, problem, _, budgets, truth in itertools.islice(stiff_draws(), 3000)),
        "frontier": itertools.islice(frontier_draws(), 300),
    }
    for name, draws in recipes.items():
        counts, stalled = Counter(), []
        for draw, problem, budgets, truth in draws:
            kind, rate = outcome(problem, budgets)
            counts[kind] += 1
            if kind == "stalled":
                stalled.append(draw)
            elif kind == "answered" and is_low(rate, truth):
                counts["low"] += 1
                faults.append(f"{name} draw {draw} answered {rate!r}, low against {truth!r}")
            elif kind == "refused":
                faults.append(f"{name} draw {draw} refused")
        print(f"{name}: {dict(sorted(counts.items()))}, stalled on {stalled}")
        if len(stalled) > MAX_STALLS[name]:
            faults.append(f"{name}: {len(stalled)} stalls, more than {MAX_STALLS[name]}")
    counts = Counter()
    for draw, problem, budgets in itertools.islice(unsatisfiable_draws(), 200):
        kind, rate = outcome(problem, budgets)
        counts[kind] += 1
        if kind == "answered":
            faults.append(f"unsatisfiable draw {draw} answered {rate!r}")
    print(f"unsatisfiable: {dict(sorted(counts.items()))}")
    families = {family: Counter() for family in FAMILY_COUNTS}
    for _, family, problem, budgets in itertools.islice(family_draws(), 3000):
        families[family][outcome(problem, budgets)[0]] += 1
    for family, counts in families.items():
        print(f"family {family}: {dict(sorted(counts.items()))}")
        if counts != FAMILY_COUNTS[family]:
            faults.append(f"family {family}: {dict(counts)}, where {FAMILY_COUNTS[family]} is expected")
    for fault in faults:
        print("FAIL:", fault)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
