"""Run every engine end to end through the CLI and collect the reports.

Writes JSON/CSV reports into the given directory (default ./reports) and
prints a one-line verdict per run.  Two runs go without --out; their stdout
is captured into a file in the same directory, so a byte comparison of two
trees' outputs covers both output paths.  Exit code 0 means every run matched
its expected status; runs that are expected to breach a tolerance (the seam
cross-check, the strict-band delay spread and offset limit, the
feedback-policy time averages) count as matching when they exit 1, and the
lab-audit of a map that does not preserve its upper expectation when it
exits 2.  One mc-slln run dumps its paths into the paths/ subdirectory.

Usage: python scripts/run_full_audit.py [--outdir reports]
"""

import argparse
import contextlib
import json
import pathlib
import sys

from ergolab.cli import main as cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="reports")
    args = parser.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    spec_path = outdir / "three_cycle.json"
    spec_path.write_text(
        json.dumps({"n": 3, "theta": [1, 2, 0], "priors": [[1 / 3, 1 / 3, 1 / 3]]})
    )
    # two swaps under the uniform prior: not ergodic, so every statement is false
    swaps_path = outdir / "two_swaps.json"
    swaps_path.write_text(json.dumps({"n": 4, "theta": [1, 0, 3, 2], "priors": [[0.25] * 4]}))
    # the largest system the four-statement audit accepts: statement (2) walks all 2^12 events
    cycle12_path = outdir / "twelve_cycle.json"
    cycle12_path.write_text(
        json.dumps({"n": 12, "theta": [(i + 1) % 12 for i in range(12)], "priors": [[1 / 12] * 12]})
    )

    # two points of weight 6e-13 each: each is polar, and so is their union
    polar_pair_path = outdir / "polar_pair.json"
    polar_pair_path.write_text(json.dumps({"n": 3, "theta": [0, 1, 2], "priors": [[6e-13, 6e-13, 1 - 1.2e-12]]}))

    # theta leaves point 0, weighed 1e-11, and maps nothing onto it: not preserving, so exit 2
    transient_path = outdir / "transient_support_point.json"
    transient_path.write_text(json.dumps({"n": 2, "theta": [1, 1], "priors": [[1e-11, 0.99999999999]]}))

    runs = [
        ("lab-audit three-cycle", 0,
         ["lab-audit", "--spec", str(spec_path), "--out", str(outdir / "lab_audit.json")]),
        ("lab-audit two swaps (not ergodic)", 0,
         ["lab-audit", "--spec", str(swaps_path), "--out", str(outdir / "lab_audit_swaps.json")]),
        ("lab-audit uniform 12-cycle", 0,
         ["lab-audit", "--spec", str(cycle12_path), "--out", str(outdir / "lab_audit_cycle12.json")]),
        ("lab-audit union of polar points", 0,
         ["lab-audit", "--spec", str(polar_pair_path), "--out", str(outdir / "lab_audit_polar_pair.json")]),
        ("lab-audit transient support point (rejected)", 2,
         ["lab-audit", "--spec", str(transient_path), "--out", str(outdir / "lab_audit_transient.json")]),
        ("lab-enumerate n=3", 0,
         ["lab-enumerate", "--n", "3", "--out", str(outdir / "lab_enumerate_n3.json")]),
        ("gheat solve cos t=1", 0,
         ["gheat", "solve", "--phi", "cos", "--t", "1", "--out", str(outdir / "solve_cos_t1.csv")]),
        ("gheat xcheck linear", 0,
         ["gheat", "xcheck", "--case", "linear", "--out", str(outdir / "xcheck_linear.json")]),
        ("gheat xcheck nonlinear", 0,
         ["gheat", "xcheck", "--case", "nonlinear", "--out", str(outdir / "xcheck_nonlinear.json")]),
        ("gheat xcheck convex (seam finding expected)", 1,
         ["gheat", "xcheck", "--case", "convex", "--out", str(outdir / "xcheck_convex.json")]),
        ("gheat invariant strict band (drift expected)", 1,
         ["gheat", "invariant", "--phi", "cos", "--out", str(outdir / "invariant_cos.json")]),
        ("gheat converge strict band (offset expected)", 1,
         ["gheat", "converge", "--phi", "cos", "--out", str(outdir / "converge_cos.json")]),
        ("gheat solve indicator [1, 2) t=1", 0,
         ["gheat", "solve", "--phi", "indicator:1,2", "--t", "1", "--out", str(outdir / "solve_indicator_t1.csv")]),
        ("gheat steady", 0,
         ["gheat", "steady", "--phi", "random:42", "--out", str(outdir / "steady.json")]),
        ("mc-slln state-blind policies", 0,
         ["mc-slln", "--policies", "constant:1.0,random-switching:1.0:0",
          "--out", str(outdir / "mc_blind.json")]),
        ("mc-slln full suite (feedback flags expected)", 1,
         ["mc-slln", "--out", str(outdir / "mc_full.json")]),
        ("mc-slln random switching with path dump", 0,
         ["mc-slln", "--t", "10", "--seeds", "11", "--policies", "random-switching:1:3", "--tol", "1",
          "--dump-paths", str(outdir / "paths"), "--out", str(outdir / "mc_dump.json")]),
        # no --out: the last field names the file that receives stdout
        ("gheat solve cos t=1 to stdout", 0,
         ["gheat", "solve", "--phi", "cos", "--t", "1"], outdir / "solve_cos_t1_stdout.csv"),
        ("lab-audit three-cycle to stdout", 0,
         ["lab-audit", "--spec", str(spec_path)], outdir / "lab_audit_stdout.json"),
    ]

    failures = 0
    for label, expected, argv_, *stdout_path in runs:
        if stdout_path:
            with open(stdout_path[0], "w", newline="") as fh, contextlib.redirect_stdout(fh):
                code = cli(argv_)
        else:
            code = cli(argv_)
        status = "ok" if code == expected else f"UNEXPECTED exit {code} (wanted {expected})"
        if code != expected:
            failures += 1
        print(f"{label:48s} exit {code}  {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
