import argparse
import json

import numpy as np
import pytest

from ergolab import finite, gheat, scenario
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

    def test_union_of_polar_points_exit_0(self, tmp_path):
        # points 0 and 1 weigh 6e-13 each: each is polar, and so is their union
        spec = write_spec(tmp_path, {"n": 3, "theta": [0, 1, 2], "priors": [[6e-13, 6e-13, 1 - 1.2e-12]]})
        out = tmp_path / "report.json"
        assert run(["lab-audit", "--spec", spec, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["ergodic"] is True
        assert report["four_statements"] == [True, True, True, True]
        assert report["fixed_space_simple"] is True and report["slln_ok"] is True
        assert report["ok"] is True

    def test_bad_weights_exit_2(self, tmp_path):
        spec = write_spec(tmp_path, {"n": 2, "theta": [0, 1], "priors": [[0.5, 0.4]]})
        assert run(["lab-audit", "--spec", spec]) == 2
        # an integer weight too large for a float
        spec = write_spec(tmp_path, {"n": 2, "theta": [0, 1], "priors": [[10**400, 0]]})
        assert run(["lab-audit", "--spec", spec]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["lab-audit", "--spec", str(tmp_path / "nope.json")]) == 2

    def test_non_preserving_map_exit_2(self, tmp_path):
        spec = write_spec(tmp_path, {"n": 2, "theta": [1, 0], "priors": [[0.3, 0.7]]})
        assert run(["lab-audit", "--spec", spec]) == 2

    def test_transient_support_point_exit_2(self, tmp_path, capsys):
        # theta leaves point 0, weighed 1e-11 > TOL_SIMPLEX, and maps nothing onto it
        spec = write_spec(tmp_path, {"n": 2, "theta": [1, 1], "priors": [[1e-11, 0.99999999999]]})
        assert run(["lab-audit", "--spec", spec]) == 2
        assert capsys.readouterr().err == "input error: system map does not preserve the upper expectation\n"

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
        "n, theta, message",
        [
            (2, [1.7, 0], "map entries must be integers"),
            (2, [True, 0], "map entries must be integers"),
            (2, ["1", 0], "map entries must be integers"),
            (2.0, [1, 0], "n must be an integer"),
            (True, [0], "n must be an integer"),
        ],
        ids=["float-entry", "bool-entry", "string-entry", "float-n", "bool-n"],
    )
    def test_non_integer_map_exit_2(self, tmp_path, capsys, n, theta, message):
        # int() would truncate 1.7 to 1 and read true as 1 while the report echoes the raw spec
        spec = write_spec(tmp_path, {"n": n, "theta": theta, "priors": [[0.5, 0.5]]})
        out = tmp_path / "report.json"
        assert run(["lab-audit", "--spec", spec, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: malformed system spec: ") and message in err
        assert not out.exists()

    def test_dimension_mismatch_exit_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"n": 3, "theta": [1, 0], "priors": [[0.5, 0.5]]})
        out = tmp_path / "report.json"
        assert run(["lab-audit", "--spec", spec, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "input error: malformed system spec: dimension mismatch: n=3, priors n=2, map n=2\n"
        assert not out.exists()

    @pytest.mark.parametrize("priors", [[[True, False]], [["0.5", "0.5"]]], ids=["bool", "string"])
    def test_non_number_weight_exit_2(self, tmp_path, capsys, priors):
        # float() would read true as 1.0 and "0.5" as 0.5 while the report echoes the raw spec
        spec = write_spec(tmp_path, {"n": 2, "theta": [0, 1], "priors": priors})
        out = tmp_path / "report.json"
        assert run(["lab-audit", "--spec", spec, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "prior weights must be numbers" in err
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

    def test_one_preservation_decision_per_spec(self, tmp_path, monkeypatch):
        # the audits read the verdict the preservation check recorded on the system
        calls = []
        decide = finite.is_expectation_preserving

        def counting(sys_):
            calls.append(sys_)
            return decide(sys_)

        monkeypatch.setattr(finite, "is_expectation_preserving", counting)
        assert run(["lab-audit", "--spec", write_spec(tmp_path, THREE_CYCLE), "--trials", "5"]) == 0
        assert len(calls) == 1


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


class TestExitStatus:
    """The exit status is 0 exactly when the report on stdout says ok."""

    @pytest.mark.parametrize(
        "argv, ok",
        [
            (["gheat", "invariant", "--grid", "64", "--deltas", "0.1,1", "--sigma-lo2", "0.5", "--sigma-hi2", "0.5"],
             True),
            (["gheat", "invariant", "--grid", "64", "--deltas", "0.1,1"], False),
            (["gheat", "converge", "--grid", "64", "--times", "1,30", "--sigma-lo2", "1", "--sigma-hi2", "1"], True),
            (["gheat", "converge", "--grid", "64", "--times", "1,5"], False),
            (["gheat", "steady", "--grid", "64", "--phi", "random:7", "--t", "100"], True),
            (["gheat", "steady", "--grid", "64", "--phi", "random:7", "--t", "1"], False),
            (["gheat", "xcheck", "--grid", "64", "--case", "linear"], True),
            (["gheat", "xcheck", "--grid", "128", "--case", "convex", "--steps", "16"], False),
            (["mc-slln", "--t", "10", "--seeds", "11", "--policies", "constant:1.0", "--tol", "1"], True),
            (["mc-slln", "--t", "10", "--seeds", "11", "--policies", "constant:1.0", "--tol", "0"], False),
            (["lab-audit", "--spec", "SPEC", "--trials", "5"], True),
            (["lab-enumerate", "--n", "2"], True),
        ],
        ids=["invariant-pass", "invariant-fail", "converge-pass", "converge-fail", "steady-pass", "steady-fail",
             "xcheck-pass", "xcheck-fail", "mc-slln-pass", "mc-slln-fail", "lab-audit-pass", "lab-enumerate-pass"],
    )
    def test_exit_status_reads_ok(self, tmp_path, capsys, argv, ok):
        spec = write_spec(tmp_path, THREE_CYCLE)
        code = run([spec if a == "SPEC" else a for a in argv])
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is ok
        assert code == (0 if ok else 1)


def json_subcommand_options():
    """Each JSON subcommand's option names, read off the parser itself."""

    def choices(parser):
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    top = choices(_build_parser())
    subs = {name: p for name, p in top.items() if name != "gheat"}
    subs.update({f"gheat {name}": p for name, p in choices(top["gheat"]).items() if name != "solve"})
    return {name: {a.dest for a in p._actions if a.dest != "help"} for name, p in subs.items()}


class TestConfigEcho:
    """A report's config holds every option of its subcommand but --out, plus the fixed defaults."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lab-audit", "--spec", "SPEC", "--trials", "5"],
            ["lab-enumerate", "--n", "2"],
            ["gheat", "invariant", "--grid", "64", "--deltas", "0.1,1"],
            ["gheat", "converge", "--grid", "64", "--times", "1,5"],
            ["gheat", "steady", "--grid", "64", "--t", "1"],
            ["gheat", "xcheck", "--grid", "64", "--case", "linear"],
            ["mc-slln", "--t", "10", "--seeds", "11", "--policies", "constant:1.0", "--tol", "1"],
        ],
        ids=["lab-audit", "lab-enumerate", "invariant", "converge", "steady", "xcheck", "mc-slln"],
    )
    def test_config_keys_are_the_options(self, tmp_path, capsys, argv):
        spec = write_spec(tmp_path, THREE_CYCLE)
        run([spec if a == "SPEC" else a for a in argv])
        config = json.loads(capsys.readouterr().out)["config"]
        name = " ".join(argv[:2]) if argv[0] == "gheat" else argv[0]
        assert set(config) == json_subcommand_options()[name] - {"out"} | {"defaults"}

    def test_lists_echo_as_parsed(self, capsys):
        run(["mc-slln", "--t", "10", "--seeds", " 11", "--policies", "constant:1.0", "--tol", "1",
             "--capacity-arc=0, 0.5"])
        config = json.loads(capsys.readouterr().out)["config"]
        assert (config["seeds"], config["policies"], config["capacity_arc"]) == ([11], ["constant(1)"], [0.0, 0.5])


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
            ["gheat", "solve", "--t", "0.01", "--sigma-hi2", "inf"],
            ["gheat", "steady", "--sigma-hi2", "inf"],
            ["gheat", "xcheck", "--case", "nonlinear", "--sigma-hi2", "inf"],
            ["mc-slln", "--t", "1", "--sigma-hi2", "inf"],
            ["gheat", "solve", "--t", "1e300"],
            ["gheat", "solve", "--t", "0.01", "--sigma-hi2", "1e308"],
            ["mc-slln", "--t", "1e300"],
            ["mc-slln", "--t", "1e300", "--dt", "1e-300"],
            ["mc-slln", "--t", "1e14", "--dt", "1e-3", "--seeds", "1", "--policies", "constant"],
        ],
        ids=["solve-t-nan", "solve-t-inf", "steady-t-nan", "converge-times-nan", "invariant-deltas-inf",
             "xcheck-t-nan", "mc-slln-t-nan", "mc-slln-dt-nan", "indicator-nan", "solve-hi2-inf",
             "steady-hi2-inf", "xcheck-hi2-inf", "mc-slln-hi2-inf", "solve-t-1e300", "solve-hi2-1e308",
             "mc-slln-t-1e300", "mc-slln-dt-1e-300", "mc-slln-t-1e14"],
    )
    def test_non_finite_time_or_arc_exit_2(self, capsys, argv):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("input error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gheat", "solve", "--phi", "cos", "--t", "1"],
            ["gheat", "steady"],
            ["gheat", "xcheck", "--case", "linear"],
            ["mc-slln"],
        ],
        ids=["solve", "steady", "xcheck", "mc-slln"],
    )
    def test_grid_beyond_the_address_space_exit_2(self, capsys, argv):
        assert run([*argv, "--grid", "100000000000000000000"]) == 2
        assert capsys.readouterr().err.startswith("input error: grid size m must be <=")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gheat", "solve", "--phi", "cos", "--t", "0"],
            ["gheat", "steady"],
            ["gheat", "xcheck", "--case", "linear"],
            ["mc-slln"],
        ],
        ids=["solve", "steady", "xcheck", "mc-slln"],
    )
    def test_grid_beyond_memory_exit_2(self, monkeypatch, capsys, argv):
        # np.arange raises MemoryError for 10^11 nodes; here the allocation is made to raise it at 64
        def no_memory(self):
            raise MemoryError(f"Unable to allocate the {self.m} grid nodes")

        monkeypatch.setattr(gheat.CircleGrid, "nodes", no_memory)
        assert run([*argv, "--grid", "64"]) == 2
        assert capsys.readouterr().err == "input error: Unable to allocate the 64 grid nodes\n"

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["gheat", "converge", "--times", "0.1,0.2"],
            ["gheat", "invariant", "--deltas", "0.1,0.2"],
            ["gheat", "xcheck", "--case", "linear"],
        ],
        ids=["converge", "invariant", "xcheck"],
    )
    def test_bad_tol_exit_2(self, monkeypatch, capsys, argv, tol):
        # no error is <= a NaN or negative tolerance and every one is <= inf
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting --tol")

        monkeypatch.setattr(gheat, "solve", no_solve)
        assert run([*argv, "--tol", tol]) == 2
        assert "--tol must be finite and >= 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "policies", ["constant:1.0:junk", "greedy-bang-bang:5", "random-switching:1:0:9", "threshold-feedback:0:0"]
    )
    def test_extra_policy_fields_exit_2(self, capsys, policies):
        assert run(["mc-slln", "--policies", policies]) == 2
        assert capsys.readouterr().err.startswith(f"input error: bad policy {policies!r}")

    @pytest.mark.parametrize("spec", ["indicator:5,7", "indicator:-1,1", "indicator:2,1"])
    @pytest.mark.parametrize(
        "argv", [["gheat", "solve", "--t", "1"], ["mc-slln", "--seeds", "1"]], ids=["solve", "mc-slln"]
    )
    def test_bad_indicator_arc_exit_2(self, monkeypatch, capsys, argv, spec):
        # an arc must lie in [0, 2*pi) with a < b; rejected before any solve or path
        def no_run(*args, **kwargs):
            raise AssertionError("ran before rejecting the arc")

        monkeypatch.setattr(gheat, "solve", no_run)
        monkeypatch.setattr(scenario, "simulate_path", no_run)
        assert run([*argv, "--phi", spec]) == 2
        assert capsys.readouterr().err.startswith("input error: indicator arc")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gheat", "invariant", "--deltas", "0.1,,1"],
            ["gheat", "converge", "--times", "1,5,"],
            ["mc-slln", "--seeds", "11,,23"],
            ["mc-slln", "--policies", "constant,,greedy-bang-bang"],
        ],
        ids=["deltas", "times", "seeds", "policies"],
    )
    def test_empty_list_field_exit_2(self, monkeypatch, capsys, argv):
        # every comma list is strict: an empty field is rejected before any solve or path
        def no_run(*args, **kwargs):
            raise AssertionError("ran before rejecting the list")

        for module, name in [(gheat, "solve"), (gheat, "invariant_expectation"), (gheat, "convergence_profile"),
                             (scenario, "simulate_path"), (scenario, "slln_experiment")]:
            monkeypatch.setattr(module, name, no_run)
        assert run(argv) == 2
        assert "has an empty field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gheat", "steady", "--grid", "64", "--t", "1", "--out", "MISSING/x.json"],
            ["gheat", "solve", "--grid", "64", "--t", "0.01", "--out", "MISSING/u.csv"],
            ["mc-slln", "--t", "1", "--seeds", "1", "--policies", "constant", "--dump-paths", "FILE"],
        ],
        ids=["steady-out", "solve-out", "dump-paths-file"],
    )
    def test_file_error_exit_2(self, tmp_path, capsys, argv):
        # an unwritable --out or --dump-paths is an input error, not a traceback with the tolerance code
        existing = tmp_path / "file.txt"
        existing.write_text("")
        paths = {"MISSING/x.json": tmp_path / "missing" / "x.json", "MISSING/u.csv": tmp_path / "missing" / "u.csv",
                 "FILE": existing}
        assert run([str(paths.get(a, a)) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("input error:")

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

    @pytest.mark.parametrize("arc", ["0.5", "1,0.5,2", "2,1", "1,1", "0,inf", "-inf,1", "-1,1", "5,7"])
    def test_bad_capacity_arc_exit_2(self, arc, monkeypatch):
        # rejected before the default 10^4-horizon experiment simulates a path;
        # the "=" form hands argparse "-inf,1" as a value, not as an option
        def no_path(*args, **kwargs):
            raise AssertionError("a path was simulated")

        monkeypatch.setattr(scenario, "simulate_path", no_path)
        assert run(["mc-slln", f"--capacity-arc={arc}"]) == 2

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
