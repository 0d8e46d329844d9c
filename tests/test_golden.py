"""Every subcommand on every sample config prints what ``tests/golden/`` holds, byte for byte.

Each command line runs in process through ``tiltrate.cli.main``, as CSV and
as ``--json``; its exit status, stdout and stderr are compared with the
checked-in record of its config.  A change that moves a printed digit fails
here, and its golden file is then regenerated and the move named in
CHANGES.md.  The records were taken under numpy 2.4.6's AVX-512 dispatch on
x86-64 (AVX512_SPR); under AVX2-only dispatch
(``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``) one line moves,
``three.cfg``'s ``oracle ba --force=-1.3`` ``recheck_rate_abs_diff``, a
difference of two routes that keeps their last bits.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py

which prints each command line whose record moved, and nothing when none did.
"""

import json
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from tiltrate import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
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


@pytest.mark.parametrize("config", CONFIGS)
def test_cli_output_matches_the_golden_record(config, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(golden_path(config).read_text())
    got = record(config)
    assert list(got) == list(want)
    for line, result in got.items():
        assert result == want[line], line


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for config in CONFIGS:
        path = golden_path(config)
        old, new = json.loads(path.read_text()) if path.exists() else {}, record(config)
        for line in dict.fromkeys([*old, *new]):
            if old.get(line) != new.get(line):
                print(line)
        path.write_text(json.dumps(new, indent=1) + "\n")
