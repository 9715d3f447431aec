"""Command-line interface: finite-system audits, circle heat runs, Monte Carlo laws.

Exit-code contract: 0 = all checks passed, 1 = a mathematical tolerance or
audit failed, 2 = malformed input or configuration, or a file that cannot be
read or written.  main checks the options, each command returns its JSON
report (gheat solve its CSV), and main writes it once, to --out or stdout, and
reads the exit status from the report's "ok".  Every comma list is read by
_parse_list.  Every JSON report echoes the configuration that produced it:
each option but --out, each list as parsed, and the fixed defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import finite, gheat, scenario, wrapped
from .credal import ContractError, InputError, PriorSet, ProbVector, Rv

#: fixed seed list used by the Monte Carlo suites
DEFAULT_SEEDS = (11, 23, 37, 41, 53, 67, 79, 97)

DEFAULTS = {
    "grid": 256,
    "cfl": 0.8,
    "sigma_lo2": 0.25,
    "sigma_hi2": 1.0,
    "tail_tol": wrapped.TAIL_TOL,
    "seeds": list(DEFAULT_SEEDS),
}

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_INPUT = 2


def _parse_list(text: str, what: str, convert) -> list:
    """Split a comma list, strip each field and convert it; an empty field, or an empty list, is an InputError."""
    out = []
    for field in text.split(","):
        field = field.strip()
        if not field:
            raise InputError(f"{what} has an empty field; got {text!r}")
        try:
            out.append(convert(field))
        except InputError:  # convert's own message, already about this field
            raise
        except ValueError as exc:
            raise InputError(f"{what} has a bad field {field!r}: {exc}") from exc
    return out


def _parse_arc(text: str, what: str) -> tuple[float, float]:
    """Read 'a,b' as the half-open arc [a, b) of the circle [0, 2*pi): 0 <= a < b <= 2*pi."""
    ends = _parse_list(text, what, float)
    if len(ends) != 2:
        raise InputError(f"{what} must be two numbers a,b; got {text!r}")
    a, b = ends
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError(f"{what} ends must be finite; got {text!r}")
    if not 0.0 <= a < b <= 2 * math.pi:
        raise InputError(f"{what} [a, b) needs 0 <= a < b <= 2*pi; got {text!r}")
    return a, b


def _parse_phi(spec: str, grid: gheat.CircleGrid) -> gheat.GridFn:
    if spec == "cos":
        return gheat.cos_fn(grid)
    if spec == "quad":
        return gheat.quad_fn(grid)
    if spec.startswith("indicator:"):
        return gheat.indicator_fn(grid, *_parse_arc(spec.split(":", 1)[1], "indicator arc"))
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise InputError(f"bad random spec {spec!r}") from exc
        return gheat.random_fn(grid, seed)
    raise InputError(f"unknown initial data {spec!r}; use cos, quad, indicator:a,b, random:seed")


def _parse_seeds(text: str | None) -> list[int]:
    if text is None:
        return list(DEFAULT_SEEDS)
    seeds = _parse_list(text, "seeds", int)
    if any(s < 0 for s in seeds):
        raise InputError(f"seeds must be >= 0; got {text!r}")
    return seeds


#: --policies grammar kind[:field...]: each kind's factory and its optional
#: positional fields; a field left out takes the factory's default
_POLICY_FIELDS = {
    "constant": (scenario.constant_policy, (("sigma", float),)),
    "random-switching": (scenario.random_switching_policy, (("rate", float), ("seed", int))),
    "threshold-feedback": (scenario.threshold_policy, (("level", float),)),
    "greedy-bang-bang": (scenario.greedy_policy, ()),
}


def _parse_policies(text: str | None, params: gheat.GHeatParams) -> list[scenario.VolPolicy]:
    if text is None:
        return scenario.default_policy_suite(params)

    def policy(chunk: str) -> scenario.VolPolicy:
        kind, *values = chunk.split(":")
        if kind not in _POLICY_FIELDS:
            raise InputError(f"unknown policy {chunk!r}")
        factory, fields = _POLICY_FIELDS[kind]
        if len(values) > len(fields):
            raise InputError(f"bad policy {chunk!r}: {kind} takes at most {len(fields)} fields")
        return factory(params, **{name: parse(v) for (name, parse), v in zip(fields, values)})

    return _parse_list(text, "policies", policy)


def _load_system(path: str) -> tuple[finite.FiniteSystem, dict]:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read system spec {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("system spec must be a JSON object")
    try:
        n, theta = raw["n"], finite.FiniteMap(tuple(raw["theta"]))
        rows = [tuple(p) for p in raw["priors"]]
        # float() would read true as 1.0 and "0.5" as 0.5
        if any(isinstance(w, bool) or not isinstance(w, (int, float)) for row in rows for w in row):
            raise InputError(f"prior weights must be numbers; got priors={raw['priors']!r}")
        priors = PriorSet(tuple(ProbVector(tuple(float(w) for w in row)) for row in rows))
        return finite.FiniteSystem(n, priors, theta), raw
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed system spec: {exc}") from exc


def _check_options(args) -> None:
    """Before any command: counts and seeds are >= 0; no error is <= a NaN or negative --tol, and all are <= inf."""
    for name in ("payoffs", "trials", "seed"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise InputError(f"--{name} must be >= 0; got {value}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"--tol must be finite and >= 0; got {tol}")


def _gheat_params(args) -> gheat.GHeatParams:
    return gheat.GHeatParams(args.sigma_lo2, args.sigma_hi2, args.cfl)


#: parsed-namespace entries that are not part of a report's configuration
_NOT_ECHOED = ("out", "func", "command", "subcommand")


def _config_block(args, **parsed) -> dict:
    """Every option of the subcommand, each list option as parsed, and the fixed defaults."""
    cfg = {key: value for key, value in vars(args).items() if key not in _NOT_ECHOED}
    cfg.update(parsed, defaults=DEFAULTS)
    return cfg


# ---------------------------------------------------------------------------
# lab commands
# ---------------------------------------------------------------------------


def cmd_lab_audit(args) -> dict:
    sys_, raw = _load_system(args.spec)
    if not sys_.preserving:
        raise InputError("system map does not preserve the upper expectation")
    thm = finite.indecomposability_audit(sys_)
    fixed = finite.fixed_space_audit(sys_)
    rng = np.random.default_rng(args.seed)
    slln_rows = []
    slln_ok = True
    for _ in range(args.payoffs):
        x = Rv(tuple(rng.uniform(-1.0, 1.0, sys_.n)))
        rep = finite.slln_audit(sys_, x)
        slln_ok &= rep.ok
        slln_rows.append(
            {
                "bad_capacity": rep.bad_capacity,
                "bad_members": list(rep.bad_members),
                "bounds_hold_qs": rep.bounds_hold_qs,
                "theta_fixed_qs": rep.theta_fixed_qs,
            }
        )
    max_min = None  # reported as null when no trial ran
    for _ in range(args.trials):
        xi = Rv(tuple(rng.uniform(-1.0, 1.0, sys_.n)))
        k = int(rng.integers(1, 9))
        value = finite.maximal_ergodic_check(sys_, xi, k)
        max_min = value if max_min is None else min(max_min, value)
    maximal_ok = max_min is None or max_min >= -1e-12
    ok = thm.consistent and fixed.consistent and slln_ok and maximal_ok
    return {
        "config": _config_block(args),
        "system": raw,
        "ergodic": fixed.ergodic,
        "four_statements": list(thm.statements),
        "four_statements_consistent": thm.consistent,
        "fixed_space_dimension": fixed.dimension,
        "fixed_space_simple": fixed.simple,
        "fixed_space_matches_ergodicity": fixed.consistent,
        "slln": slln_rows,
        "slln_ok": slln_ok,
        "maximal_ergodic_min": max_min,
        "maximal_ergodic_ok": maximal_ok,
        "ok": ok,
    }


def cmd_lab_enumerate(args) -> dict:
    if args.n > 4:
        raise InputError("exhaustive mode is limited to n <= 4")
    rng = np.random.default_rng(args.seed)
    checked = 0
    counterexamples = []
    for sys_ in finite.enumerate_preserving_systems(args.n):
        checked += 1
        thm = finite.indecomposability_audit(sys_)
        fixed = finite.fixed_space_audit(sys_)
        bad = []
        if not thm.consistent:
            bad.append(f"four statements diverge: {thm.statements}")
        if not fixed.consistent:
            bad.append("fixed-space verdict disagrees with ergodicity")
        for _ in range(args.payoffs):
            x = Rv(tuple(rng.uniform(-1.0, 1.0, sys_.n)))
            if not finite.slln_audit(sys_, x).ok:
                bad.append("orbit average escaped the expectation envelope")
                break
        if bad:
            counterexamples.append(
                {
                    "theta": list(sys_.theta.image),
                    "priors": [list(p.weights) for p in sys_.priors.priors],
                    "problems": bad,
                }
            )
    return {
        "config": _config_block(args),
        "systems_checked": checked,
        "counterexamples": counterexamples,
        "ok": not counterexamples,
    }


# ---------------------------------------------------------------------------
# gheat commands
# ---------------------------------------------------------------------------


def cmd_gheat_solve(args) -> str:
    grid = gheat.CircleGrid(args.grid)
    phi = _parse_phi(args.phi, grid)
    return gheat.to_csv_text(gheat.solve(phi, args.t, _gheat_params(args)))


def cmd_gheat_invariant(args) -> dict:
    grid = gheat.CircleGrid(args.grid)
    phi = _parse_phi(args.phi, grid)
    params = _gheat_params(args)
    deltas = _parse_list(args.deltas, "deltas", float)
    if any(d <= 0 for d in deltas):
        raise InputError("deltas must be positive")
    values = [gheat.invariant_expectation(phi, d, params) for d in deltas]
    spread = max(values) - min(values)
    ok = spread <= args.tol
    return {
        "config": _config_block(args, deltas=deltas),
        "values": dict(zip(map(str, deltas), values)),
        "spread": spread,
        "phi_mean": gheat.mean(phi),
        "ok": ok,
    }


def cmd_gheat_converge(args) -> dict:
    grid = gheat.CircleGrid(args.grid)
    phi = _parse_phi(args.phi, grid)
    times = _parse_list(args.times, "times", float)
    profile = gheat.convergence_profile(phi, times, _gheat_params(args))
    non_increasing = all(b <= a + 1e-6 for a, b in zip(profile, profile[1:]))
    ok = non_increasing and profile[-1] <= args.tol
    return {
        "config": _config_block(args, times=times),
        "profile": dict(zip(map(str, times), profile)),
        "non_increasing": non_increasing,
        "final": profile[-1],
        "ok": ok,
    }


def cmd_gheat_steady(args) -> dict:
    grid = gheat.CircleGrid(args.grid)
    phi = _parse_phi(args.phi, grid)
    rep = gheat.steady_state_audit(phi, _gheat_params(args), horizon=args.t)
    return {
        "config": _config_block(args),
        "oscillation": rep.oscillation,
        "generator_norm": rep.generator_norm,
        "ok": rep.ok,
    }


def cmd_gheat_xcheck(args) -> dict:
    grid = gheat.CircleGrid(args.grid)
    cases = ("linear", "nonlinear", "convex") if args.case == "all" else (args.case,)
    results = {}
    ok = True
    for case in cases:
        if case == "linear":
            sigma2 = args.sigma_hi2
            params = gheat.GHeatParams(sigma2, sigma2, args.cfl)
            phi = gheat.cos_fn(grid)
            u = gheat.solve(phi, args.t, params)
            closed = math.exp(-sigma2 * args.t / 2.0) * np.cos(grid.nodes())
            ker = wrapped.linear_semigroup(phi, wrapped.WrappedKernelSpec(sigma2, args.t))
            err_closed = float(np.max(np.abs(u.values - closed)))
            err_kernel = float(np.max(np.abs(u.values - ker.values)))
            tol = args.tol if args.tol is not None else 2e-3
            passed = err_closed <= tol and err_kernel <= tol
            results[case] = {
                "sup_err_vs_closed_form": err_closed,
                "sup_err_vs_kernel": err_kernel,
                "tol": tol,
                "ok": passed,
            }
        elif case == "nonlinear":
            params = _gheat_params(args)
            phi = gheat.cos_fn(grid)
            u = gheat.solve(phi, args.t, params)
            dp = scenario.dp_upper_expectation(phi, args.t, params, args.steps)
            err = float(np.max(np.abs(u.values - dp.values)))
            tol = args.tol if args.tol is not None else 5e-3
            passed = err <= tol
            results[case] = {"sup_err_pde_vs_dp": err, "steps": args.steps, "tol": tol, "ok": passed}
        else:  # convex; argparse's choices admit no other case
            params = _gheat_params(args)
            phi = gheat.quad_fn(grid)
            t = 0.25
            u = gheat.solve(phi, t, params)
            ker = wrapped.linear_semigroup(phi, wrapped.WrappedKernelSpec(params.sigma_hi2, t))
            dp = scenario.dp_upper_expectation(phi, t, params, args.steps)
            err_ker = float(np.max(np.abs(u.values - ker.values)))
            err_dp = float(np.max(np.abs(u.values - dp.values)))
            err_dk = float(np.max(np.abs(dp.values - ker.values)))
            tol = args.tol if args.tol is not None else 5e-3
            passed = err_ker <= tol and err_dp <= tol and err_dk <= tol
            results[case] = {
                "t": t,
                "sup_err_pde_vs_high_kernel": err_ker,
                "sup_err_pde_vs_dp": err_dp,
                "sup_err_dp_vs_high_kernel": err_dk,
                "tol": tol,
                "ok": passed,
                "finding": None
                if passed
                else (
                    "the nonlinear flow of the seam-kinked convex sample exceeds the "
                    "high-volatility kernel flow; the two nonlinear routes agree, so the "
                    "discrepancy is a property of the flow, not of either solver"
                ),
            }
        ok &= results[case]["ok"]
    return {"config": _config_block(args), "results": results, "ok": ok}


def cmd_mc_slln(args) -> dict:
    grid = gheat.CircleGrid(args.grid)
    phi = _parse_phi(args.phi, grid)
    params = gheat.GHeatParams(args.sigma_lo2, args.sigma_hi2)
    policies = _parse_policies(args.policies, params)
    seeds = _parse_seeds(args.seeds)
    arc = _parse_arc(args.capacity_arc, "capacity arc") if args.capacity_arc else None
    rep = scenario.slln_experiment(phi, policies, args.t, seeds, dt=args.dt, tol=args.tol)
    capacity_block = None
    if arc is not None:
        a, b = arc
        horizon = min(10.0, args.t)

        def visits_arc(path):
            return bool(np.any((path.positions >= a) & (path.positions < b)))

        upper, lower = scenario.capacity_estimate(visits_arc, policies, horizon, args.dt, seeds)
        capacity_block = {
            "event": f"path visits [{a}, {b}) before t={horizon}",
            "upper": upper,
            "lower": lower,
        }
    if args.dump_paths:
        os.makedirs(args.dump_paths, exist_ok=True)
        for k, policy in enumerate(policies):
            for seed in seeds:
                path = scenario.simulate_path(policy, scenario.SLLN_X0, min(10.0, args.t), args.dt, seed)
                fname = f"{args.dump_paths}/path_p{k}_s{seed}.csv"
                with open(fname, "w") as fh:
                    fh.write("t,x\n")
                    for i, x in enumerate(path.positions):
                        fh.write(f"{i * args.dt:.17g},{x:.17g}\n")
    return {
        "config": _config_block(args, seeds=seeds, policies=[p.label for p in policies], capacity_arc=arc),
        "target": rep.target,
        "max_deviation": rep.max_deviation,
        "entries": [dataclasses.asdict(e) for e in rep.entries],
        "flagged": [dataclasses.asdict(e) for e in rep.flagged],
        "capacity_estimate": capacity_block,
        "ok": rep.ok,
    }


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ergolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    lab_audit = sub.add_parser("lab-audit", help="audit one finite system from a JSON spec")
    lab_audit.add_argument("--spec", required=True)
    lab_audit.add_argument("--out", default=None)
    lab_audit.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    lab_audit.add_argument("--payoffs", type=int, default=20)
    lab_audit.add_argument("--trials", type=int, default=200)
    lab_audit.set_defaults(func=cmd_lab_audit)

    lab_enum = sub.add_parser("lab-enumerate", help="exhaustive sweep over all maps for small n")
    lab_enum.add_argument("--n", type=int, required=True)
    lab_enum.add_argument("--out", default=None)
    lab_enum.add_argument("--seed", type=int, default=DEFAULT_SEEDS[0])
    lab_enum.add_argument("--payoffs", type=int, default=10)
    lab_enum.set_defaults(func=cmd_lab_enumerate)

    gheat_parser = sub.add_parser("gheat", help="circle heat-flow runs and cross-checks")
    gsub = gheat_parser.add_subparsers(dest="subcommand", required=True)

    # --phi, --cfl and --tol go only to the subcommands that read them
    def add_common(sp, phi: bool, cfl: bool = True):
        if phi:
            sp.add_argument("--phi", default="cos")
        sp.add_argument("--grid", type=int, default=DEFAULTS["grid"])
        if cfl:
            sp.add_argument("--cfl", type=float, default=DEFAULTS["cfl"])
        sp.add_argument("--sigma-lo2", dest="sigma_lo2", type=float, default=DEFAULTS["sigma_lo2"])
        sp.add_argument("--sigma-hi2", dest="sigma_hi2", type=float, default=DEFAULTS["sigma_hi2"])
        sp.add_argument("--out", default=None)

    g_solve = gsub.add_parser("solve", help="evolve initial data and emit CSV")
    add_common(g_solve, phi=True)
    g_solve.add_argument("--t", type=float, required=True)
    g_solve.set_defaults(func=cmd_gheat_solve)

    g_inv = gsub.add_parser("invariant", help="space mean of the flow at several delays")
    add_common(g_inv, phi=True)
    g_inv.add_argument("--tol", type=float, default=2e-3)
    g_inv.add_argument("--deltas", default="0.1,1,5")
    g_inv.set_defaults(func=cmd_gheat_invariant)

    g_conv = gsub.add_parser("converge", help="sup distance to the initial mean over time")
    add_common(g_conv, phi=True)
    g_conv.add_argument("--tol", type=float, default=1e-3)
    g_conv.add_argument("--times", default="1,2,5,10,20,30")
    g_conv.set_defaults(func=cmd_gheat_converge)

    g_steady = gsub.add_parser("steady", help="long-horizon flatness audit")
    add_common(g_steady, phi=True)
    g_steady.add_argument("--t", type=float, default=100.0)
    g_steady.set_defaults(func=cmd_gheat_steady)

    g_x = gsub.add_parser("xcheck", help="cross-validate solver, kernels and DP oracle")
    add_common(g_x, phi=False)
    g_x.add_argument("--tol", type=float, default=None)
    g_x.add_argument("--case", choices=("linear", "nonlinear", "convex", "all"), default="all")
    g_x.add_argument("--t", type=float, default=1.0)
    g_x.add_argument("--steps", type=int, default=64)
    g_x.set_defaults(func=cmd_gheat_xcheck)

    mc = sub.add_parser("mc-slln", help="Monte Carlo time-average experiment")
    add_common(mc, phi=True, cfl=False)
    mc.add_argument("--tol", type=float, default=0.05)
    mc.add_argument("--t", type=float, default=1e4)
    mc.add_argument("--dt", type=float, default=0.01)
    mc.add_argument("--seeds", default=None)
    mc.add_argument("--policies", default=None)
    mc.add_argument("--capacity-arc", dest="capacity_arc", default="0,0.1",
                    help="arc a,b for the visit-event capacity estimate; empty to skip")
    mc.add_argument("--dump-paths", dest="dump_paths", default=None,
                    help="directory for per-(policy, seed) path CSVs (t,x)")
    mc.set_defaults(func=cmd_mc_slln)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Check the options, run one command, write its output once, to --out or stdout, and return the exit status.

    An OSError from the command (--dump-paths) or from writing --out is an input error, and so is
    a MemoryError: what a command allocates is sized by its input, as a grid too large to hold.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        output = args.func(args)
        if isinstance(output, str):  # gheat solve's CSV carries no verdict
            text, status = output, EXIT_OK
        else:
            text = json.dumps(output, indent=2, sort_keys=True, default=str) + "\n"
            status = EXIT_OK if output["ok"] else EXIT_TOLERANCE
        if args.out:
            # newline="": the CSV's \r\n row ends are csv's own and are written as they are
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
    except (InputError, OSError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not args.out:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
