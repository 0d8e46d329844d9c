"""``tests/perfbench_bits.py --against``'s verdict on two runs' lines: answers apart from kernel calls."""

import pytest

from perfbench_bits import verdict


def lines(work_blocks: int = 488, work_sha: str = "b" * 16, families: bool = True, entries: bool = True) -> list[str]:
    counted = (lambda n: f" {n} entries") if entries else (lambda n: "")
    total = f"3 results sha256 {'a' * 64} {work_blocks + 10} kernel block calls{counted(9000)} 9 table calls"
    return [total] + [
        f"  observable_sweep: 1 results sha256 cccccccccccccccc 10 kernel block calls{counted(1000)} 5 table calls",
        f"  quasistatic_work: 2 results sha256 {work_sha} {work_blocks} kernel block calls{counted(8000)} 4 table calls",
    ][:2 if families else 1]


@pytest.mark.parametrize("theirs, expected", [
    (lines(), ["same as REV"]),
    (lines(work_blocks=456),
     ["same answers as REV", "kernel calls differ in: quasistatic_work (488 blocks, 456 at REV)"]),
    (lines(work_sha="d" * 16), ["answers differ from REV in: quasistatic_work"]),
    (lines(work_blocks=456, work_sha="d" * 16),
     ["answers differ from REV in: quasistatic_work",
      "kernel calls differ in: quasistatic_work (488 blocks, 456 at REV)"]),
    (lines(families=False), ["answers differ from REV in: quasistatic_work"]),
    # a revision whose tally counts no entries: the rest of each line is compared
    (lines(entries=False), ["same as REV"]),
    (lines(work_blocks=456, entries=False),
     ["same answers as REV", "kernel calls differ in: quasistatic_work (488 blocks, 456 at REV)"]),
])
def test_verdict(theirs, expected):
    assert verdict(lines(), theirs, "REV") == expected


def test_verdict_names_moved_entries():
    theirs = [line.replace("8000 entries", "7000 entries") for line in lines()]
    assert verdict(lines(), theirs, "REV") == [
        "same answers as REV", "kernel calls differ in: quasistatic_work (8000 entries, 7000 at REV)"]
