import json

import numpy as np
import pytest

from ergolab.cli import _build_parser, _parse_policies, main
from ergolab.gheat import GHeatParams
from ergolab.scenario import default_policy_suite


def run(args):
    return main(args)


def write_spec(tmp_path, payload, name="sys.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


THREE_CYCLE = {"n": 3, "theta": [1, 2, 0], "priors": [[1 / 3, 1 / 3, 1 / 3]]}
IDENTITY2 = {"n": 2, "theta": [0, 1], "priors": [[0.5, 0.5]]}


class TestLabAudit:
    def test_three_cycle_passes(self, tmp_path):
        spec = write_spec(tmp_path, THREE_CYCLE)
        out = tmp_path / "report.json"
        assert run(["lab-audit", "--spec", spec, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["ergodic"] is True
        assert report["four_statements"] == [True, True, True, True]
        assert report["ok"] is True

    def test_identity_map_reports_not_ergodic_but_consistent(self, tmp_path):
        spec = write_spec(tmp_path, IDENTITY2)
        out = tmp_path / "report.json"
        assert run(["lab-audit", "--spec", spec, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["ergodic"] is False
        assert report["four_statements"] == [False, False, False, False]
        assert report["four_statements_consistent"] is True

    def test_bad_weights_exit_2(self, tmp_path):
        spec = write_spec(tmp_path, {"n": 2, "theta": [0, 1], "priors": [[0.5, 0.4]]})
        assert run(["lab-audit", "--spec", spec]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["lab-audit", "--spec", str(tmp_path / "nope.json")]) == 2

    def test_non_preserving_map_exit_2(self, tmp_path):
        spec = write_spec(tmp_path, {"n": 2, "theta": [1, 0], "priors": [[0.3, 0.7]]})
        assert run(["lab-audit", "--spec", spec]) == 2

    def test_nan_weight_exit_2_with_its_own_message(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 2, "theta": [0, 1], "priors": [[float("nan"), 1.0]]})
        assert run(["lab-audit", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert "non-finite weight" in err
        assert "does not preserve" not in err

    @pytest.mark.parametrize("option", ["--trials", "--payoffs"])
    def test_negative_count_exit_2(self, tmp_path, capsys, option):
        spec = write_spec(tmp_path, THREE_CYCLE)
        out = tmp_path / "report.json"
        assert run(["lab-audit", "--spec", spec, option, "-1", "--out", str(out)]) == 2
        assert f"{option} must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "n, theta",
        [(2, [1.7, 0]), (2, [True, 0]), (2, ["1", 0]), (2.0, [1, 0]), (True, [0])],
        ids=["float-entry", "bool-entry", "string-entry", "float-n", "bool-n"],
    )
    def test_non_integer_map_exit_2(self, tmp_path, capsys, n, theta):
        # int() would truncate 1.7 to 1 and read true as 1 while the report echoes the raw spec
        spec = write_spec(tmp_path, {"n": n, "theta": theta, "priors": [[0.5, 0.5]]})
        out = tmp_path / "report.json"
        assert run(["lab-audit", "--spec", spec, "--out", str(out)]) == 2
        assert "n and theta entries must be integers" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials_reports_null(self, tmp_path):
        spec = write_spec(tmp_path, THREE_CYCLE)
        out = tmp_path / "report.json"
        assert run(["lab-audit", "--spec", spec, "--trials", "0", "--out", str(out)]) == 0
        text = out.read_text()
        assert "Infinity" not in text
        report = json.loads(text)
        assert report["maximal_ergodic_min"] is None
        assert report["maximal_ergodic_ok"] is True

    def test_report_echoes_defaults(self, tmp_path):
        spec = write_spec(tmp_path, THREE_CYCLE)
        out = tmp_path / "report.json"
        run(["lab-audit", "--spec", spec, "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["config"]["defaults"]["grid"] == 256
        assert report["config"]["defaults"]["seeds"] == [11, 23, 37, 41, 53, 67, 79, 97]


class TestLabEnumerate:
    def test_n2_sweep_clean(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["lab-enumerate", "--n", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["systems_checked"] > 0
        assert report["counterexamples"] == []

    def test_n3_sweep_clean(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["lab-enumerate", "--n", "3", "--out", str(out)]) == 0

    def test_negative_payoffs_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert run(["lab-enumerate", "--n", "2", "--payoffs", "-1", "--out", str(out)]) == 2
        assert "--payoffs must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_n5_budget_exit_2(self):
        assert run(["lab-enumerate", "--n", "5"]) == 2


class TestGheatCli:
    def test_solve_writes_csv(self, tmp_path):
        out = tmp_path / "u.csv"
        code = run(
            ["gheat", "solve", "--phi", "cos", "--t", "1", "--sigma-lo2", "0.25",
             "--sigma-hi2", "1", "--grid", "256", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,u"
        assert len(lines) == 257

    def test_solve_rejects_unknown_phi(self, tmp_path):
        assert run(["gheat", "solve", "--phi", "sinh", "--t", "1"]) == 2

    def test_xcheck_linear_passes(self, tmp_path):
        out = tmp_path / "x.json"
        code = run(["gheat", "xcheck", "--case", "linear", "--sigma-hi2", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["linear"]["sup_err_vs_closed_form"] <= 2e-3

    def test_xcheck_nonlinear_passes(self, tmp_path):
        out = tmp_path / "x.json"
        code = run(["gheat", "xcheck", "--case", "nonlinear", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["nonlinear"]["sup_err_pde_vs_dp"] <= 5e-3

    def test_xcheck_convex_reports_seam_finding_and_fails(self, tmp_path):
        # the seam-kinked convex sample genuinely exceeds the high-volatility
        # kernel flow, so this case exits 1 and carries the measured finding
        out = tmp_path / "x.json"
        code = run(["gheat", "xcheck", "--case", "convex", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        convex = report["results"]["convex"]
        assert convex["sup_err_pde_vs_dp"] <= 5e-3  # the two nonlinear routes agree
        assert convex["sup_err_pde_vs_high_kernel"] > 1.0  # the kernel claim fails
        assert convex["finding"]

    def test_invariant_degenerate_band_passes(self, tmp_path):
        out = tmp_path / "inv.json"
        code = run(
            ["gheat", "invariant", "--phi", "cos", "--deltas", "0.1,1,5",
             "--sigma-lo2", "0.5", "--sigma-hi2", "0.5", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["spread"] <= 2e-3

    def test_invariant_strict_band_reports_drift(self, tmp_path):
        out = tmp_path / "inv.json"
        code = run(["gheat", "invariant", "--phi", "cos", "--deltas", "0.1,1,5", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["spread"] > 0.2  # measured mean drift across the delays

    def test_converge_degenerate_band_passes(self, tmp_path):
        # linear flow: sup|T_t cos - 0| = exp(-t/2), ~3e-7 at t=30
        out = tmp_path / "conv.json"
        code = run(
            ["gheat", "converge", "--phi", "cos", "--times", "1,2,5,10,20,30",
             "--sigma-lo2", "1", "--sigma-hi2", "1", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["non_increasing"] is True
        assert report["final"] <= 1e-3

    def test_converge_strict_band_reports_offset_limit(self, tmp_path):
        out = tmp_path / "conv.json"
        code = run(["gheat", "converge", "--phi", "cos", "--times", "1,5,30", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["non_increasing"] is True
        assert report["final"] > 0.4  # flat limit sits above the initial mean

    def test_steady_passes(self, tmp_path):
        out = tmp_path / "steady.json"
        code = run(["gheat", "steady", "--phi", "random:7", "--t", "100", "--grid", "128",
                    "--out", str(out)])
        assert code == 0

    def test_bad_deltas_exit_2(self):
        assert run(["gheat", "invariant", "--deltas", "0,-1"]) == 2

    def test_empty_times_exit_2(self):
        assert run(["gheat", "converge", "--times", ","]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gheat", "solve", "--t", "1", "--tol", "1e-3"],
            ["gheat", "steady", "--tol", "1e-3"],
            ["gheat", "xcheck", "--phi", "quad"],
            ["mc-slln", "--cfl", "0.3"],
        ],
        ids=["solve-tol", "steady-tol", "xcheck-phi", "mc-slln-cfl"],
    )
    def test_unread_option_exit_2(self, argv):
        # the subcommand never reads the option, so argparse rejects it
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gheat", "solve", "--t", "nan"],
            ["gheat", "solve", "--t", "inf"],
            ["gheat", "steady", "--t", "nan"],
            ["gheat", "converge", "--times", "1,nan"],
            ["gheat", "invariant", "--deltas", "inf"],
            ["gheat", "xcheck", "--case", "nonlinear", "--t", "nan"],
            ["mc-slln", "--t", "nan"],
            ["mc-slln", "--dt", "nan"],
            ["gheat", "solve", "--phi", "indicator:nan,1", "--t", "0.01"],
        ],
        ids=["solve-t-nan", "solve-t-inf", "steady-t-nan", "converge-times-nan", "invariant-deltas-inf",
             "xcheck-t-nan", "mc-slln-t-nan", "mc-slln-dt-nan", "indicator-nan"],
    )
    def test_non_finite_time_or_arc_exit_2(self, capsys, argv):
        assert run(argv) == 2
        assert "input error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lab-enumerate", "--n", "2", "--seed", "-1"],
            ["mc-slln", "--seeds", "-5"],
            ["gheat", "solve", "--phi", "random:-3", "--t", "0.01"],
            ["mc-slln", "--policies", "random-switching:1:-2"],
        ],
        ids=["lab-enumerate", "mc-slln-seeds", "random-phi", "switching-seed"],
    )
    def test_negative_seed_exit_2(self, capsys, argv):
        assert run(argv) == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_lab_audit_negative_seed_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, THREE_CYCLE)
        assert run(["lab-audit", "--spec", spec, "--seed", "-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "policies",
        ["constant:abc", "random-switching:1:x", "random-switching:nan", "threshold-feedback:nan", "constant:"],
    )
    def test_malformed_policy_number_exit_2(self, capsys, policies):
        # rejected while parsing, before the default 10^4-horizon experiment runs
        assert run(["mc-slln", "--policies", policies]) == 2
        assert "input error:" in capsys.readouterr().err

    def test_policy_fields_take_factory_defaults(self):
        params = GHeatParams(0.25, 1.0)
        parsed = _parse_policies("constant,random-switching,threshold-feedback,greedy-bang-bang", params)
        assert [p.label for p in parsed] == [p.label for p in default_policy_suite(params)]


class TestMcSllnCli:
    def test_state_blind_policies_exit_0(self, tmp_path):
        out = tmp_path / "mc.json"
        code = run(
            ["mc-slln", "--phi", "cos", "--t", "1e4", "--dt", "0.01",
             "--policies", "constant:1.0,random-switching:1.0:0",
             "--seeds", "11,23", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_deviation"] <= 0.05

    def test_default_suite_flags_feedback_policies(self, tmp_path):
        # the two feedback kinds tilt their occupation density by 1/sigma^2(x)
        # and settle near |6/(5 pi)| ~ 0.382, so the default suite exits 1
        out = tmp_path / "mc.json"
        code = run(["mc-slln", "--phi", "cos", "--t", "2e3", "--seeds", "11", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        flagged_kinds = {e["policy"].split("(")[0] for e in report["flagged"]}
        assert flagged_kinds == {"threshold-feedback", "greedy-bang-bang"}

    def test_constant_observable_exit_0(self, tmp_path):
        code = run(
            ["mc-slln", "--phi", "indicator:0,6.2831853071795862", "--t", "10", "--seeds", "11"]
        )
        assert code == 0

    def test_shared_options_keep_their_defaults(self):
        args = _build_parser().parse_args(["mc-slln"])
        expect = {"phi": "cos", "grid": 256, "sigma_lo2": 0.25, "sigma_hi2": 1.0,
                  "tol": 0.05, "out": None}
        assert {k: getattr(args, k) for k in expect} == expect

    def test_bad_policy_exit_2(self):
        assert run(["mc-slln", "--policies", "oracle", "--t", "1"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tol_exit_2(self, tol):
        # a NaN tolerance would flag nothing and -1 everything
        assert run(["mc-slln", "--t", "10", "--seeds", "1", "--tol", tol]) == 2

    def test_empty_seeds_exit_2(self):
        assert run(["mc-slln", "--seeds", ","]) == 2

    @pytest.mark.parametrize("arc", ["0.5", "1,0.5,2", "2,1", "1,1"])
    def test_bad_capacity_arc_exit_2(self, arc):
        # rejected before the default 10^4-horizon experiment runs
        assert run(["mc-slln", "--capacity-arc", arc]) == 2

    def test_capacity_block_and_path_dump(self, tmp_path):
        out = tmp_path / "mc.json"
        dump = tmp_path / "paths"
        code = run(
            ["mc-slln", "--phi", "cos", "--t", "10", "--seeds", "11,23",
             "--policies", "constant:1.0", "--tol", "1.0",
             "--dump-paths", str(dump), "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        cap = report["capacity_estimate"]
        assert 0.0 <= cap["lower"] <= cap["upper"] <= 1.0
        files = sorted(dump.iterdir())
        assert len(files) == 2
        first = files[0].read_text().splitlines()
        assert first[0] == "t,x"
        assert len(first) == 1002  # header + 1001 positions at dt=0.01, t=10
