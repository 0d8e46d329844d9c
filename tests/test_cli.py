import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from tiltrate import blahut_arimoto, cli
from tiltrate import ratedistortion as rd
from tiltrate.solvers import BracketError

BSS = """
source_probs = 0.5, 0.5
coding_probs = 0.5, 0.5
distortion = 0, 1; 1, 0
"""

BSS_JSON = json.dumps(
    {
        "source_probs": [0.5, 0.5],
        "coding_probs": [0.5, 0.5],
        "distortion": [[0.0, 1.0], [1.0, 0.0]],
    }
)


def run_cli(*args):
    """One ``python -m tiltrate`` run in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "tiltrate", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


class Run(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def main_of(capsys, *args) -> Run:
    """Exit status and captured output of one in-process cli.main call."""
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return Run(code, captured.out, captured.err)


def pairs_of(stdout):
    lines = stdout.strip().splitlines()
    assert lines[0] == "quantity,value"
    out = {}
    for line in lines[1:]:
        key, value = line.split(",", 1)
        out[key] = value
    return out


@pytest.fixture
def bss_cfg(tmp_path):
    f = tmp_path / "bss.cfg"
    f.write_text(BSS)
    return str(f)


@pytest.fixture
def bss_json(tmp_path):
    f = tmp_path / "bss.json"
    f.write_text(BSS_JSON)
    return str(f)


class TestRdPoint:
    def test_by_budget(self, bss_cfg):
        res = run_cli("rd", "point", "--config", bss_cfg, "--delta", "0.25")
        assert res.returncode == 0
        vals = pairs_of(res.stdout)
        assert float(vals["rate_nats"]) == pytest.approx(0.13081203594113698, abs=1e-8)
        assert float(vals["s"]) == pytest.approx(math.log(1 / 3), abs=1e-8)

    def test_by_force(self, capsys, bss_cfg):
        res = main_of(capsys, "rd", "point", "--config", bss_cfg, "--force=-1.0986122886681098")
        assert res.returncode == 0
        vals = pairs_of(res.stdout)
        assert float(vals["distortion"]) == pytest.approx(0.25, abs=1e-12)

    def test_extras(self, capsys, bss_cfg):
        res = main_of(
            capsys, "rd", "point", "--config", bss_cfg, "--delta", "0.25",
            "--allocation", "--integral-route", "--bounds", "200",
        )
        vals = pairs_of(res.stdout)
        assert float(vals["allocation_x0"]) == pytest.approx(0.25, abs=1e-6)
        assert float(vals["rate_route_difference"]) < 1e-8
        assert float(vals["sandwich_sum_left"]) <= float(vals["rate_nats"])
        assert float(vals["rate_nats"]) <= float(vals["sandwich_sum_right"])

    @pytest.mark.parametrize("delta", ["0.25", "0.6", "0"])
    def test_allocation_at_a_budget_takes_one_solve(self, capsys, bss_cfg, monkeypatch, delta):
        # the point and its equal-force split come from one Legendre solve, interior or at an end
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return legendre(*args, **kwargs)

        legendre = rd._legendre
        monkeypatch.setattr(rd, "_legendre", counted)
        res = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", delta, "--allocation")
        assert res.returncode == 0
        assert calls == [float(delta)]
        assert "allocation_rate_nats" in pairs_of(res.stdout)

    @pytest.mark.parametrize("config", ["configs/asym.cfg", "configs/three.cfg"])
    @pytest.mark.parametrize("force", ["-0.5", "-1e-9", "-40", "-0"])
    def test_allocation_at_a_force_takes_no_solve(self, capsys, monkeypatch, config, force):
        # the equal-force split at a force is the per-letter means there, priced from the same moments
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return legendre(*args, **kwargs)

        legendre = rd._legendre
        monkeypatch.setattr(rd, "_legendre", counted)
        res = main_of(capsys, "rd", "point", "--config", config, f"--force={force}", "--allocation")
        assert res.returncode == 0
        assert calls == []
        vals = pairs_of(res.stdout)
        letters = [key[len("mean_"):] for key in vals if key.startswith("mean_")]
        assert [vals[f"allocation_{x}"] for x in letters] == [vals[f"mean_{x}"] for x in letters]
        assert float(vals["allocation_rate_nats"]) == pytest.approx(float(vals["rate_nats"]), abs=1e-15)

    @pytest.mark.parametrize("offset", [1e3, 1e6, 1e8])
    def test_integral_route_exact_under_far_row_shifts(self, capsys, bss_cfg, tmp_path, offset):
        # bss's rows start at 0, so a whole-number shift leaves every route's tilted law as it was
        f = tmp_path / "far.cfg"
        f.write_text(BSS.replace("0, 1; 1, 0", f"{offset!r}, {offset + 1!r}; {offset + 1!r}, {offset!r}"))
        argv = ["rd", "point", "--force=-1.3", "--integral-route", "--config"]
        plain, far = (pairs_of(main_of(capsys, *argv, cfg).stdout) for cfg in (bss_cfg, str(f)))
        for key in ("rate_nats", "mmse", "rate_mmse_integral", "rate_route_difference"):
            assert far[key] == plain[key]

    @pytest.mark.parametrize("target", ["--delta=5", "--force=0"])
    def test_bounds_at_force_zero_are_zero(self, capsys, bss_cfg, target):
        # the partition 0, 0, ..., 0 is monotone, and its repeated forces add nothing
        res = main_of(capsys, "rd", "point", "--config", bss_cfg, target, "--bounds=8")
        assert res.returncode == 0
        vals = pairs_of(res.stdout)
        assert (vals["s"], vals["sandwich_sum_left"], vals["sandwich_sum_right"]) == ("0", "0", "0")

    def test_json_output(self, capsys, bss_cfg):
        res = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", "0.25", "--json")
        doc = json.loads(res.stdout)
        assert doc["rate_nats"] == pytest.approx(0.13081203594113698, abs=1e-8)

    def test_requires_exactly_one_target(self, capsys, bss_cfg):
        assert main_of(capsys, "rd", "point", "--config", bss_cfg).returncode == 1
        res = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", "0.2", "--force=-1")
        assert res.returncode == 1

    def test_config_forms_agree_byte_for_byte(self, capsys, bss_cfg, bss_json):
        a = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", "0.25")
        b = main_of(capsys, "rd", "point", "--config", bss_json, "--delta", "0.25")
        assert a.stdout == b.stdout

    def test_deterministic(self, capsys, bss_cfg):
        runs = {main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", "0.3").stdout for _ in range(3)}
        assert len(runs) == 1

    def test_output_file(self, capsys, bss_cfg, tmp_path):
        target = tmp_path / "out.csv"
        res = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", "0.25", "--output", str(target))
        assert res.returncode == 0
        assert res.stdout == ""
        assert "rate_nats" in target.read_text()

    @pytest.mark.parametrize("where", ["missing/out.csv", "."])
    def test_unwritable_output_file_is_refused(self, capsys, bss_cfg, tmp_path, where):
        # a missing directory, or a directory given as the file: exit 1 with the path, as an unreadable config
        target = tmp_path / where
        res = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", "0.25", "--output", str(target))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith(f"tiltrate: error: cannot write output file {target}: ")


class TestRdCurve:
    def test_table_shape(self, capsys, bss_cfg):
        res = main_of(capsys, "rd", "curve", "--config", bss_cfg, "--grid=-2:-0.5:4")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0].startswith("s,distortion,rate_nats,mmse")
        assert len(lines) == 5
        first = [float(t) for t in lines[1].split(",")]
        assert first[0] == -0.5  # forces reported weakest first

    def test_comma_list_grid(self, capsys, bss_cfg):
        res = main_of(capsys, "rd", "curve", "--config", bss_cfg, "--grid=-1.0986122886681098")
        line = res.stdout.strip().splitlines()[1].split(",")
        assert float(line[1]) == pytest.approx(0.25, abs=1e-12)

    def test_positive_force_rejected(self, capsys, bss_cfg):
        assert main_of(capsys, "rd", "curve", "--config", bss_cfg, "--grid=0.5:1:2").returncode == 1

    def test_one_batched_call_on_a_configured_coding_law(self, capsys, monkeypatch, bss_cfg):
        calls = []
        batched = rd.rd_curve
        monkeypatch.setattr(rd, "rd_curve", lambda *args: calls.append(args) or batched(*args))
        res = main_of(capsys, "rd", "curve", "--config", bss_cfg, "--grid=-2:0:9")
        assert res.returncode == 0
        assert len(calls) == 1
        assert len(res.stdout.strip().splitlines()) == 10


class TestOptimizedCodingLaw:
    def test_point_needs_force_without_coding_probs(self, capsys, tmp_path):
        f = tmp_path / "noq.cfg"
        f.write_text("source_probs = 0.5, 0.5\ndistortion = 0, 1; 1, 0\n")
        res = main_of(capsys, "rd", "point", "--config", str(f), "--delta", "0.25")
        assert res.returncode == 1
        assert "coding_probs" in res.stderr
        res = main_of(capsys, "rd", "point", "--config", str(f), "--force=-1.0986122886681098")
        assert res.returncode == 0
        vals = pairs_of(res.stdout)
        # optimizing the coding law for the uniform bit returns the uniform law
        assert float(vals["rate_nats"]) == pytest.approx(0.13081203594113698, abs=1e-7)

    def test_curve_points_use_the_law_optimized_at_each_slope(self, capsys, tmp_path):
        source, table = [0.3, 0.7], [[0.0, 1.0, 0.4], [1.0, 0.0, 0.6]]
        f = tmp_path / "noq.cfg"
        f.write_text("source_probs = 0.3, 0.7\ndistortion = 0, 1, 0.4; 1, 0, 0.6\n")
        res = main_of(capsys, "rd", "curve", "--config", str(f), "--grid=-0.5,-3,-1,-2")
        assert res.returncode == 0
        rows = res.stdout.strip().splitlines()[1:]
        assert len(rows) == 4
        for row, s in zip(rows, [-0.5, -1.0, -2.0, -3.0]):
            law = blahut_arimoto(source, table, s, tol=1e-10).coding_probs
            pt = rd.distortion_at_force(rd.RdProblem(source, law, table), s)
            assert row == ",".join(cli._fmt(v) for v in (pt.s, pt.distortion, pt.rate, pt.mmse, *pt.per_symbol_mean))


    def test_capped_coding_law_exits_2(self, capsys, tmp_path):
        # draw 8 of a seed-0 sequence of random problems: plain Blahut-Arimoto stops at its cap there
        rng = np.random.default_rng(0)
        for _ in range(9):
            k, m = (int(n) for n in rng.integers(2, 6, size=2))
            source, table, s = rng.dirichlet(np.ones(k)), rng.random((k, m)), -rng.uniform(0.1, 10.0)
        assert not blahut_arimoto(source, table, s, tol=1e-10).converged
        f = tmp_path / "capped.cfg"

        def numbers(row):
            return ", ".join(repr(float(v)) for v in row)

        f.write_text(f"source_probs = {numbers(source)}\ndistortion = {'; '.join(map(numbers, table))}\n")
        for argv in (["rd", "point", f"--force={s!r}"], ["rd", "curve", f"--grid={s!r}"]):
            res = main_of(capsys, *argv, "--config", str(f))
            assert res.returncode == 2
            assert res.stdout == ""
            assert f"Blahut-Arimoto did not converge at slope s = {s!r}" in res.stderr
        res = main_of(capsys, "oracle", "ba", "--config", str(f), f"--force={s!r}")
        assert res.returncode == 0
        assert pairs_of(res.stdout)["converged"] == "false"

    def test_rows_far_from_zero_get_the_law_of_the_rows_at_zero(self, capsys, tmp_path):
        # rows 1e5 and more from 0 once left the law 2e-12 off summing to 1, so RdProblem refused it
        source, table, s = [0.5, 0.5], np.array([[0.0, 1.5], [2.0, 0.25]]), -1.3
        offset = table + np.array([[1e5], [3e7]])
        f = tmp_path / "offset.cfg"
        rows = "; ".join(", ".join(map(repr, row)) for row in offset.tolist())
        f.write_text(f"source_probs = 0.5, 0.5\ndistortion = {rows}\n")
        for argv in (["oracle", "ba", f"--force={s!r}"], ["rd", "point", f"--force={s!r}"],
                     ["rd", "curve", f"--grid={s!r}"]):
            res = main_of(capsys, *argv, "--config", str(f))
            assert (res.returncode, res.stderr) == (0, "")
        want = blahut_arimoto(source, table, s).coding_probs
        assert np.max(np.abs(blahut_arimoto(source, offset, s).coding_probs - want)) <= 1e-12


class TestObservableSweep:
    @pytest.fixture
    def obs_cfg(self, tmp_path):
        f = tmp_path / "obs.cfg"
        f.write_text("source_probs = 0.7, 0.3\ncoding_probs = 0.5, 0.5\n"
                     "distortion = 0, 1; 2, 0\nobservable = 1, -2; 0.5, 3\n")
        return str(f)

    def test_csv(self, capsys, obs_cfg):
        res = main_of(capsys, "rd", "point", "--config", obs_cfg, "--delta", "0.3", "--observable")
        assert res.returncode == 0
        vals = pairs_of(res.stdout)
        assert float(vals["observable_route_difference"]) <= 1e-8
        assert float(vals["observable_integral"]) == pytest.approx(float(vals["observable_direct"]), abs=1e-8)

    def test_json(self, capsys, obs_cfg):
        res = main_of(capsys, "rd", "point", "--config", obs_cfg, "--force=-1", "--observable", "--json")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["observable_route_difference"] <= 1e-8
        assert doc["s"] == -1.0

    def test_min_distortion_boundary_exits_1(self, capsys, obs_cfg):
        res = main_of(capsys, "rd", "point", "--config", obs_cfg, "--delta", "0", "--observable")
        assert res.returncode == 1
        assert res.stdout == ""
        assert "the observable sweep needs a finite force" in res.stderr


class TestCapacity:
    def test_bsc(self, capsys, tmp_path):
        f = tmp_path / "bsc.json"
        f.write_text(json.dumps({"channel": {"transition": [[0.9, 0.1], [0.1, 0.9]],
                                             "input_probs": [0.5, 0.5]}}))
        res = main_of(capsys, "capacity", "--config", str(f))
        assert res.returncode == 0
        vals = pairs_of(res.stdout)
        assert float(vals["rate_nats"]) == pytest.approx(0.36806420716849706, abs=1e-9)
        assert abs(float(vals["s_star"])) == pytest.approx(1.0, abs=1e-9)
        assert float(vals["cross_check_abs_diff"]) < 1e-9


class TestRd2:
    def test_slack_budget_reported_inactive(self, capsys, tmp_path):
        f = tmp_path / "two.json"
        f.write_text(json.dumps({
            "source_probs": [0.5, 0.5],
            "coding_probs": [0.5, 0.5],
            "distortion": [[0.0, 1.0], [1.0, 0.0]],
            "distortion_2": [[0.0, 2.0], [2.0, 0.0]],
        }))
        res = main_of(capsys, "rd2", "--config", str(f), "--delta1", "0.25", "--delta2", "0.6")
        vals = pairs_of(res.stdout)
        assert vals["constraint1_active"] == "true"
        assert vals["constraint2_active"] == "false"
        assert float(vals["rate_nats"]) == pytest.approx(0.13081203594113698, abs=1e-8)

    def test_infeasible_pair_exits_1(self, capsys, tmp_path):
        f = tmp_path / "two.json"
        f.write_text(json.dumps({
            "source_probs": [0.5, 0.5],
            "coding_probs": [0.5, 0.5],
            "distortion": [[0.0, 1.0], [1.0, 0.0]],
            "distortion_2": [[1.0, 0.0], [0.0, 1.0]],
        }))
        res = main_of(capsys, "rd2", "--config", str(f), "--delta1", "0.1", "--delta2", "0.1")
        assert res.returncode == 1

    @pytest.mark.parametrize("q, budgets", [([0.5, 0.5], ("0.45", "0.5")), ([0.5, 0.5], ("0.48", "0.48")),
                                            ([0.2, 0.8], ("0.48", "0.48"))])
    def test_complement_pairs_below_one_exit_1(self, capsys, tmp_path, q, budgets):
        # d1 + d2 = 1 in every cell: these pairs once printed ~1e13 nats, or exited 2
        f = tmp_path / "two.json"
        f.write_text(json.dumps({
            "source_probs": [0.5, 0.5],
            "coding_probs": q,
            "distortion": [[0.0, 1.0], [1.0, 0.0]],
            "distortion_2": [[1.0, 0.0], [0.0, 1.0]],
        }))
        res = main_of(capsys, "rd2", "--config", str(f), "--delta1", budgets[0], "--delta2", budgets[1])
        assert res.returncode == 1
        assert "jointly unsatisfiable" in res.stderr

    def test_an_infinite_budget_answers_as_a_huge_one(self, capsys):
        cfg = str(Path(__file__).resolve().parent.parent / "configs" / "two_budget.cfg")
        slack = main_of(capsys, "rd2", "--config", cfg, "--delta1=inf", "--delta2=0.4")
        assert slack.returncode == 0
        assert slack == main_of(capsys, "rd2", "--config", cfg, "--delta1=1e9", "--delta2=0.4")
        vals = pairs_of(slack.stdout)
        assert (vals["rate_nats"], vals["s1"], vals["s2"]) == ("0.102841922111", "0", "-0.618543140079")

    def test_missing_second_table(self, capsys, bss_cfg):
        res = main_of(capsys, "rd2", "--config", bss_cfg, "--delta1", "0.25", "--delta2", "0.25")
        assert res.returncode == 1
        assert "distortion_2" in res.stderr

    def test_tiny_active_force_at_scale(self, capsys, tmp_path):
        # on tables scaled by 1e12 the first force is about -1e-12, and still active
        f = tmp_path / "huge.cfg"
        f.write_text(
            "source_probs = 0.5, 0.5\ncoding_probs = 0.5, 0.5\n"
            "distortion = 0, 1e12; 1e12, 0\ndistortion_2 = 0, 2e12; 1e12, 0\n"
        )
        res = main_of(capsys, "rd2", "--config", str(f), "--delta1", "0.3e12", "--delta2", "0.45e12")
        assert res.returncode == 0
        vals = pairs_of(res.stdout)
        assert -1e-11 < float(vals["s1"]) < 0.0 and float(vals["s2"]) == 0.0
        assert vals["constraint1_active"] == "true"
        assert vals["constraint2_active"] == "false"


class TestChain:
    def test_work_matches_rate(self, capsys, bss_cfg):
        res = main_of(capsys, "chain", "work", "--config", bss_cfg, "--lambda-final=-1.0986122886681098")
        vals = pairs_of(res.stdout)
        assert float(vals["abs_difference"]) < 1e-8

    @pytest.mark.parametrize("lam", ["-300", "-1000", "-1e6"])
    def test_work_matches_rate_far_out(self, capsys, lam):
        # bss's force scale is 1: one interval past about 250 of them puts no node near 0, where
        # the integrand's mass lies
        res = main_of(capsys, "chain", "work", "--config", "configs/bss.json", f"--lambda-final={lam}")
        vals = pairs_of(res.stdout)
        assert float(vals["rate_times_kT"]) == pytest.approx(math.log(2.0), rel=1e-10)
        assert float(vals["abs_difference"]) < 1e-8

    def test_integral_route_far_out(self, capsys):
        res = main_of(capsys, "rd", "point", "--config", "configs/bss.json", "--force=-1000", "--integral-route")
        assert float(pairs_of(res.stdout)["rate_route_difference"]) < 1e-8

    def test_work_refuses_a_force_whose_product_with_beta_overflows(self, capsys):
        # beta = 2: lam = -1e308 is finite, and beta * lam is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = main_of(capsys, "chain", "work", "--config", "configs/two_budget.cfg", "--lambda-final=-1e308")
        assert res.returncode == 1 and res.stdout == ""
        assert "lam_final times beta must be finite" in res.stderr

    @pytest.mark.parametrize("tol", ["1e-20", "1e-300", "5e-324"])
    def test_work_refuses_a_tolerance_below_rounding_at_once(self, capsys, tol):
        # the work, about 0.11, rounds to about 7e-18: the quadrature stops after its root level,
        # where it once evaluated a million nodes for 1.2 to 1.7 s before giving up
        start = time.perf_counter()
        res = main_of(capsys, "chain", "work", "--config", "configs/bss.json", "--lambda-final=-1", "--tol", tol)
        assert time.perf_counter() - start < 0.5
        assert res.returncode == 2 and res.stdout == ""
        assert f"tolerance {tol} is below the rounding of the integral's size" in res.stderr

    def test_work_at_a_tolerance_rounding_can_meet_prints_as_before(self, capsys):
        res = main_of(capsys, "chain", "work", "--config", "configs/bss.json", "--lambda-final=-1", "--tol", "1e-16")
        assert res.returncode == 0
        assert res.stdout == (
            "quantity,value\nlambda_final,-1\ns,-1\nquasistatic_work,0.110944071672\nrate_nats,0.110944071672\n"
            "rate_times_kT,0.110944071672\nabs_difference,4.16333634234e-17\nlength_final,0.26894142137\n")

    def test_equilibrium(self, capsys, bss_cfg):
        res = main_of(capsys, "chain", "equilibrium", "--config", bss_cfg, "--length", "0.25")
        vals = pairs_of(res.stdout)
        assert float(vals["lambda"]) == pytest.approx(math.log(1 / 3), abs=1e-7)

    def test_protocol_brackets(self, capsys, bss_cfg):
        res = main_of(capsys, "chain", "protocol", "--config", bss_cfg, "--schedule=0:-1:11")
        vals = pairs_of(res.stdout)
        quasi = float(vals["quasistatic_work"])
        assert float(vals["protocol_work_left_sum"]) <= quasi <= float(vals["protocol_work"])
        assert float(vals["excess_over_quasistatic"]) >= 0.0

    def test_beta_scaling(self, capsys, tmp_path):
        f = tmp_path / "warm.cfg"
        f.write_text(BSS + "beta = 2.0\n")
        res = main_of(capsys, "chain", "work", "--config", str(f), "--lambda-final=-0.54930614433405489")
        vals = pairs_of(res.stdout)
        # s = beta * lambda = ln(1/3); work = rate / beta
        assert float(vals["s"]) == pytest.approx(math.log(1 / 3), abs=1e-9)
        assert float(vals["quasistatic_work"]) == pytest.approx(0.13081203594113698 / 2, abs=1e-8)

    def test_work_answers_at_a_small_beta(self, capsys, tmp_path):
        # the work, rate / beta = 1.3e8, is integrated to tol in nats at s = beta * lambda: a tol in
        # the work's own units was below its rounding, and this exited 2
        f = tmp_path / "cold.cfg"
        f.write_text(BSS + "beta = 1e-9\n")
        res = main_of(capsys, "chain", "work", "--config", str(f), "--lambda-final=-1.0986122886681098e9")
        assert res.returncode == 0
        vals = pairs_of(res.stdout)
        assert float(vals["quasistatic_work"]) == pytest.approx(0.13081203594113698 / 1e-9, rel=1e-9)


class TestOracleCommands:
    def test_exact(self, capsys, bss_cfg):
        res = main_of(capsys, "oracle", "exact", "--config", bss_cfg, "--n", "8", "--delta", "0.25")
        vals = pairs_of(res.stdout)
        assert float(vals["probability"]) == pytest.approx(37 / 256, abs=1e-15)
        assert float(vals["exponent_minus_rate"]) > 0.0

    def test_ba(self, capsys, bss_cfg):
        res = main_of(capsys, "oracle", "ba", "--config", bss_cfg, "--force=-1.0")
        vals = pairs_of(res.stdout)
        assert vals["converged"] == "true"
        assert float(vals["recheck_rate_abs_diff"]) < 1e-9

    def test_alloc(self, capsys, bss_cfg):
        res = main_of(capsys, "oracle", "alloc", "--config", bss_cfg, "--delta", "0.25", "--grid-points", "200")
        vals = pairs_of(res.stdout)
        assert float(vals["difference"]) >= -1e-10

    def test_grid(self, capsys, bss_cfg):
        res = main_of(capsys, "oracle", "grid", "--config", bss_cfg, "--delta", "0.25")
        vals = pairs_of(res.stdout)
        assert float(vals["abs_difference"]) < 1e-6

    def test_grid_refuses_an_infinite_lower_end(self, capsys, bss_cfg):
        res = main_of(capsys, "oracle", "grid", "--config", bss_cfg, "--delta", "0.3", "--s-min=-inf")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "tiltrate: error: s_min must be finite (got -inf)\n"

    @pytest.mark.parametrize("delta, code", [("inf", 0), ("-inf", 1)])
    def test_grid_infinite_budget_writes_no_warning(self, capsys, bss_cfg, delta, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = main_of(capsys, "oracle", "grid", "--config", bss_cfg, f"--delta={delta}")
        assert res.returncode == code
        if code == 0:
            assert pairs_of(res.stdout)["grid_max"] == "0"
            assert res.stderr == ""

    def test_ba_drops_zero_probability_letters_without_warning(self, capsys, tmp_path):
        outputs = []
        for name, text in (("three", "source_probs = 0.5, 0.5, 0\ndistortion = 0, 1; 1, 0; 3, 2\n"),
                           ("two", "source_probs = 0.5, 0.5\ndistortion = 0, 1; 1, 0\n")):
            f = tmp_path / f"{name}.cfg"
            f.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = main_of(capsys, "oracle", "ba", "--config", str(f), "--force=0")
            assert (res.returncode, res.stderr) == (0, "")
            outputs.append(res.stdout)
        assert outputs[0] == outputs[1]

    def test_exact_certain_event_prints_zero(self, capsys, bss_cfg):
        res = main_of(capsys, "oracle", "exact", "--config", bss_cfg, "--n", "6", "--delta=inf")
        assert res.returncode == 0
        vals = pairs_of(res.stdout)
        assert (vals["probability"], vals["exponent"], vals["exponent_minus_rate"]) == ("1", "0", "0")


class TestFailureModes:
    def test_malformed_probs(self, capsys, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("source_probs = 0.5, 0.6\ncoding_probs = 0.5, 0.5\ndistortion = 0, 1; 1, 0\n")
        res = main_of(capsys, "rd", "point", "--config", str(f), "--delta", "0.25")
        assert res.returncode == 1
        assert "source_probs" in res.stderr

    def test_budget_below_floor(self, capsys, bss_cfg):
        res = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta=-0.5")
        assert res.returncode == 1

    def test_unknown_command(self):
        assert run_cli("frobnicate").returncode == 1

    def test_numerical_failure_exits_2(self, tmp_path):
        # on a table scaled by 1e-200 the root solve answers in the table's units, but the point's
        # mmse, 1.9e-401, cannot be represented, where it printed mmse,0 with exit 0; at 1e-320 the
        # force itself, about -1.1e320, overflows as it leaves the table's units
        f = tmp_path / "tiny.cfg"
        f.write_text("source_probs = 0.5, 0.5\ncoding_probs = 0.5, 0.5\ndistortion = 0, 1e-200; 1e-200, 0\n")
        res = run_cli("rd", "point", "--config", str(f), "--delta", "0.25e-200")
        assert res.returncode == 2 and res.stdout == ""
        assert "numerical failure: mmse is not representable" in res.stderr
        tiny = rd.RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1e-200], [1e-200, 0.0]])
        assert rd.force_at_distortion(tiny, 0.25e-200).rate == pytest.approx(0.130812035941, rel=0.0, abs=1e-9)
        f.write_text("source_probs = 0.5, 0.5\ncoding_probs = 0.5, 0.5\ndistortion = 0, 1e-320; 1e-320, 0\n")
        res = run_cli("rd", "point", "--config", str(f), "--delta", "0.25e-320")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "numerical failure" in res.stderr

    @pytest.mark.parametrize("argv", [["rd", "point", "--delta", "0.25e-200", "--integral-route"],
                                      ["chain", "work", "--lambda-final=-1.0986122886681098e200"]])
    def test_variance_integrals_far_below_scale_1_answer(self, capsys, tmp_path, argv):
        # Tilted raw, the variance underflowed to 0 at 1e-200: rate_mmse_integral and quasistatic_work
        # printed 0 and exited 0, where the truth is 0.1308, and then were refused.  In the table's
        # units both answer; rd point still exits 2, on its mmse, 1.9e-401, which cannot be represented
        f = tmp_path / "tiny.cfg"
        f.write_text("source_probs = 0.5, 0.5\ncoding_probs = 0.5, 0.5\ndistortion = 0, 1e-200; 1e-200, 0\n")
        res = main_of(capsys, *argv, "--config", str(f))
        tiny = rd.RdProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 1e-200], [1e-200, 0.0]])
        if argv[0] == "chain":
            assert (res.returncode, res.stderr) == (0, "")
            assert float(pairs_of(res.stdout)["quasistatic_work"]) == pytest.approx(0.130812035941, rel=0.0, abs=1e-9)
        else:
            assert res.returncode == 2 and res.stdout == ""
            assert "numerical failure: mmse is not representable" in res.stderr
            rate = rd.rate_mmse_integral(tiny, -math.log(3.0) / 1e-200)
            assert rate == pytest.approx(0.130812035941, rel=0.0, abs=1e-9)

    @pytest.mark.parametrize("extra", [["--force=-1", "--integral-route", "--tol=-1"], ["--delta", "0.25", "--tol", "0"]])
    def test_tolerance_must_be_positive(self, capsys, bss_cfg, extra):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["rd", "point", "--config", bss_cfg, *extra])
        assert exit_.value.code == 1
        assert "--tol: must be finite and > 0" in capsys.readouterr().err

    def test_import_leaves_scipy_out(self):
        code = "import sys, tiltrate.cli; assert 'scipy' not in sys.modules"
        assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0

    def test_missing_config_file(self, capsys):
        res = main_of(capsys, "rd", "point", "--config", "/nonexistent.cfg", "--delta", "0.25")
        assert res.returncode == 1


class TestParserReuse:
    """``main`` builds its parser on first use and reuses it; a reused parser
    answers every command line as a fresh one does."""

    def test_import_builds_no_parser(self):
        code = "import tiltrate.cli as c; assert c._parser.cache_info().currsize == 0"
        assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0

    def test_reused_parser_answers_as_a_fresh_one(self, capsys, monkeypatch, bss_cfg):
        lines = [
            ["rd", "point", "--config", bss_cfg, "--delta", "0.25", "--tol", "0"],  # parser.error: exit 1
            ["rd", "point", "--config", bss_cfg, "--delta", "0.25", "--allocation", "--bounds", "4"],
            ["rd", "point", "--bogus"],  # argparse's own error: exit 1
            ["rd", "curve", "--config", bss_cfg, "--grid=-2:0:5", "--json"],
            ["rd", "point", "--config", bss_cfg, "--delta", "0.25", "--tol", "nan"],
            ["chain", "protocol", "--config", bss_cfg, "--schedule=0:-1:4"],
            ["rd", "point", "--config", bss_cfg, "--delta", "0.25"],
        ]

        def run(argv):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        reused = [run(argv) for argv in lines + lines]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser on every call
        fresh = [run(argv) for argv in lines + lines]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [1, 0, 1, 0, 1, 0, 0] * 2


class TestBoundaryRows:
    @pytest.mark.parametrize("delta, boundary, s", [("0", "min_distortion", "-inf"), ("0.9", "above_zero_force", "0")])
    def test_csv(self, bss_cfg, capsys, delta, boundary, s):
        code, out, _ = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", delta)
        assert code == 0
        vals = pairs_of(out)
        assert vals["boundary"] == boundary
        assert vals["s"] == s

    @pytest.mark.parametrize("delta, boundary, s", [("0", "min_distortion", "-inf"), ("0.9", "above_zero_force", 0.0)])
    def test_json(self, bss_cfg, capsys, delta, boundary, s):
        code, out, _ = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", delta, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["boundary"] == boundary
        assert doc["s"] == s


RD_CONFIGS = ["configs/asym.cfg", "configs/bss.json", "configs/three.cfg", "configs/two_budget.cfg"]


def positive_zero(value) -> bool:
    return value == 0.0 and math.copysign(1.0, value) == 1.0


class TestSignedZero:
    """A force of -0 costs a rate of +0: printed 0 in CSV and 0.0 in JSON, never -0."""

    @pytest.mark.parametrize("config", RD_CONFIGS)
    @pytest.mark.parametrize("argv, keys", [
        (["rd", "point", "--force=-0"], ["rate_nats"]),
        (["chain", "work", "--lambda-final=-0"], ["rate_nats", "rate_times_kT"]),
    ])
    def test_pairs(self, capsys, config, argv, keys):
        csv = pairs_of(main_of(capsys, *argv, "--config", config).stdout)
        doc = json.loads(main_of(capsys, *argv, "--config", config, "--json").stdout)
        for key in keys:
            assert csv[key] == "0"
            assert positive_zero(doc[key])

    @pytest.mark.parametrize("config", RD_CONFIGS)
    def test_curve(self, capsys, config):
        lines = main_of(capsys, "rd", "curve", "--config", config, "--grid=-0,-1").stdout.splitlines()
        s, _, rate = lines[1].split(",")[:3]
        assert (s, rate) == ("-0", "0")
        doc = json.loads(main_of(capsys, "rd", "curve", "--config", config, "--grid=-0,-1", "--json").stdout)
        assert positive_zero(doc["points"][0]["rate_nats"])
        assert doc["points"][1]["rate_nats"] > 0.0

    # Works, Riemann bounds, I and H(X | Xhat) share the rate's floor: each line printed -0 or a
    # negative information before it.
    CONSTANT_ROWS = "source_probs = 0.5, 0.5\ncoding_probs = 0.5, 0.5\ndistortion = 1, 1; 2, 2\n"
    USELESS = "channel_transition = 0.52, 0.11, 0.37; 0.52, 0.11, 0.37\nchannel_input_probs = 0.81, 0.19\n"
    NOISELESS = "channel_transition = 1, 0; 0, 1\nchannel_input_probs = 0.5, 0.5\n"

    @pytest.mark.parametrize("config, argv, key", [
        ("configs/bss.json", ["rd", "point", "--delta=0.25", "--bounds=1"], "sandwich_sum_left"),
        ("configs/bss.json", ["chain", "protocol", "--schedule=0,-1"], "protocol_work_left_sum"),
        (CONSTANT_ROWS, ["rd", "point", "--force=-1", "--integral-route"], "rate_mmse_integral"),
        (CONSTANT_ROWS, ["chain", "work", "--lambda-final=-1"], "quasistatic_work"),
        (CONSTANT_ROWS, ["chain", "protocol", "--schedule=0:-2:5"], "quasistatic_work"),
        (USELESS, ["capacity"], "mutual_information_nats"),
        (NOISELESS, ["capacity"], "delta"),
    ], ids=["bss-sandwich", "bss-protocol", "constant-rd-point", "constant-chain-work", "constant-chain-protocol",
            "useless-capacity", "noiseless-capacity"])
    def test_nonnegative_results(self, capsys, tmp_path, config, argv, key):
        if not config.startswith("configs/"):
            (tmp_path / "p.cfg").write_text(config)
            config = str(tmp_path / "p.cfg")
        assert pairs_of(main_of(capsys, *argv, "--config", config).stdout)[key] == "0"
        assert positive_zero(json.loads(main_of(capsys, *argv, "--config", config, "--json").stdout)[key])


class TestNumericalFailure:
    def test_bracket_failure_exits_2(self, bss_cfg, capsys, monkeypatch):
        def no_bracket(*args, **kwargs):
            raise BracketError("could not bracket target")

        monkeypatch.setattr(rd, "_legendre", no_bracket)  # the solve behind every budget route
        code, out, err = main_of(capsys, "rd", "point", "--config", bss_cfg, "--delta", "0.25")
        assert code == 2
        assert out == ""
        assert "numerical failure" in err


class TestNonFiniteInputs:
    """NaN in any float flag, and a non-finite force or final force, exit 1."""

    @staticmethod
    def exit_code(argv, capsys):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["rd", "point", "--delta=nan"],
        ["rd", "point", "--force=nan"],
        ["rd2", "--delta1=nan", "--delta2=0.4"],
        ["rd2", "--delta1=0.3", "--delta2=nan"],
        ["chain", "work", "--lambda-final=nan"],
        ["chain", "equilibrium", "--length=nan"],
        ["oracle", "exact", "--n", "6", "--delta=nan"],
        ["oracle", "ba", "--force=nan"],
        ["oracle", "alloc", "--delta=nan"],
        ["oracle", "grid", "--delta=nan"],
        ["oracle", "grid", "--delta=0.3", "--s-min=nan"],
    ])
    def test_nan_flag_exits_1(self, capsys, argv):
        code, captured = self.exit_code([*argv, "--config", "configs/two_budget.cfg"], capsys)
        assert code == 1
        assert captured.out == ""
        flag = next(a for a in argv if a.endswith("=nan")).split("=")[0]
        assert f"argument {flag}: must be a number, not nan" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["rd", "point", "--force=-inf"], "force s must be finite"),
        (["rd", "point", "--force=-inf", "--allocation", "--bounds", "4"], "force s must be finite"),
        (["chain", "work", "--lambda-final=-inf"], "lam_final must be finite"),
    ])
    def test_infinite_force_exits_1(self, capsys, bss_cfg, argv, message):
        code, captured = self.exit_code([*argv, "--config", bss_cfg], capsys)
        assert code == 1
        assert captured.out == ""
        assert message in captured.err

    def test_infinite_budget_keeps_its_zero_force_row(self, capsys, bss_cfg):
        code, captured = self.exit_code(["rd", "point", "--delta=inf", "--config", bss_cfg], capsys)
        assert code == 0
        vals = pairs_of(captured.out)
        assert vals["boundary"] == "above_zero_force"
        assert vals["s"] == "0"
