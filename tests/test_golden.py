"""Every subcommand on every sample config prints what ``tests/golden/`` holds, byte for byte.

Each command line runs in process through ``tiltrate.cli.main``, as CSV and
as ``--json``; its exit status, stdout and stderr are compared with the
checked-in record of its config.  A change that moves a printed digit fails
here, and its golden file is then regenerated and the move named in
CHANGES.md.  The records were taken under numpy 2.4.6 on x86-64 at the SIMD
level ``RECORDED_AT``; ``golden/levels.json`` holds, for each other level numpy
dispatches to (``conftest.dispatch_level``), the lines that print otherwise
there, and a level it does not name fails, named.  Below X86_V4 one line moves:
``three.cfg``'s ``oracle ba --force=-1.3`` ``recheck_rate_abs_diff``, a
difference of two routes that keeps their last bits.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py

once at ``RECORDED_AT`` and once more at each level below it, disabled by
``NPY_DISABLE_CPU_FEATURES`` (``"AVX512_SPR"``, ``"AVX512_ICL AVX512_SPR"``, and
so on down to ``"X86_V3 X86_V4 AVX512_ICL AVX512_SPR"`` for the baseline).
It prints each command line whose record moved, and nothing when none did.
"""

import json
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from tiltrate import cli

from conftest import dispatch_level

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
LEVELS = GOLDEN / "levels.json"  # level -> config -> command line -> its record where it differs
RECORDED_AT = "AVX512_SPR"
CONFIGS = sorted(p.name for p in (ROOT / "configs").iterdir() if p.suffix in (".json", ".cfg"))

# One line per leaf command and its option groups; configs that lack a field exit 1 with its name.
COMMANDS = [
    ["rd", "curve", "--grid=-3:0:7"],
    ["rd", "point", "--delta=0.25"],
    ["rd", "point", "--delta=0.25", "--allocation", "--bounds=8", "--integral-route"],
    ["rd", "point", "--delta=0", "--allocation"],
    ["rd", "point", "--delta=5"],
    ["rd", "point", "--delta=-1"],
    ["rd", "point", "--force=-1.3", "--allocation", "--bounds=8", "--integral-route"],
    ["rd", "point", "--force=-1.3", "--observable"],
    ["capacity"],
    ["rd2", "--delta1=0.3", "--delta2=0.4"],
    ["rd2", "--delta1=0", "--delta2=0.4"],
    ["chain", "work", "--lambda-final=-0.7"],
    ["chain", "equilibrium", "--length=0.25"],
    ["chain", "equilibrium", "--length=0"],
    ["chain", "protocol", "--schedule=0:-2:9"],
    ["oracle", "exact", "--n=10", "--delta=0.25"],
    ["oracle", "ba", "--force=-1.3"],
    ["oracle", "alloc", "--delta=0.25", "--grid-points=50"],
    ["oracle", "grid", "--delta=0.25", "--points=201"],
]


def run(argv):
    """(exit status, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def record(config):
    """Every command line of ``COMMANDS`` on one config, CSV then JSON, keyed by its argv."""
    path = f"configs/{config}"
    return {
        " ".join(argv): run(argv)
        for command in COMMANDS
        for argv in ([*command, "--config", path], [*command, "--config", path, "--json"])
    }


def golden_path(config):
    return GOLDEN / f"{config}.golden.json"


def golden(config, level):
    """The record of ``config`` at SIMD level ``level``: the recorded lines, each that prints otherwise
    at that level replaced by its own (``LEVELS``), or None for a level ``LEVELS`` does not name."""
    levels = json.loads(LEVELS.read_text())
    if level not in levels:
        return None
    return {**json.loads(golden_path(config).read_text()), **levels[level].get(config, {})}


@pytest.mark.parametrize("config", CONFIGS)
def test_cli_output_matches_the_golden_record(config, monkeypatch):
    monkeypatch.chdir(ROOT)
    level = dispatch_level()
    want = golden(config, level)
    if want is None:
        pytest.fail(f"no golden records for numpy's SIMD dispatch level {level}: take them on that level")
    got = record(config)
    assert list(got) == list(want)
    for line, result in got.items():
        assert result == want[line], line


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    level = dispatch_level()
    levels = json.loads(LEVELS.read_text()) if LEVELS.exists() else {RECORDED_AT: {}}
    for config in CONFIGS:
        path = golden_path(config)
        recorded = json.loads(path.read_text()) if path.exists() else {}
        old, new = {**recorded, **levels.get(level, {}).get(config, {})}, record(config)
        for line in dict.fromkeys([*old, *new]):
            if old.get(line) != new.get(line):
                print(line)
        if level == RECORDED_AT:
            path.write_text(json.dumps(new, indent=1) + "\n")
        else:  # only the lines that print otherwise than at RECORDED_AT
            levels.setdefault(level, {})[config] = {line: r for line, r in new.items() if r != recorded.get(line)}
    levels = {name: {config: lines for config, lines in by_config.items() if lines} for name, by_config in levels.items()}
    LEVELS.write_text(json.dumps(levels, indent=1) + "\n")
