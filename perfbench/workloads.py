"""The benchmark workloads: inputs from a seed, the timed work, and its checks.

Each workload is three functions:

* ``inputs(seed)`` builds everything the timed section reads (counted in
  ``setup_s``);
* ``run(inp)`` is the timed section; it calls the library entry points that
  the CLI and the acceptance criteria call, and catches failures per unit so a
  raising unit is counted, not fatal;
* ``check(inp, out, refs)`` compares every unit with the recorded references
  and returns ``(attempted, failures, values)``.  ``values`` holds reported
  quantities, including the designed-red seam gap of criterion 6, which is
  never counted as a failure.

Sizes are chosen so one repeat takes a few seconds and a run can take the
median of several fresh-process repeats; README.md gives the reasons.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ergolab import finite, gheat, scenario, wrapped
from ergolab.credal import Rv

BAND = gheat.GHeatParams(0.25, 1.0)
TWO_PI = 2.0 * math.pi

#: tolerance between the FD and DP routes: that of acceptance criterion 5
FLOW_TOL = 5e-3
#: maximal-inequality values must be nonnegative up to rounding (criterion 3)
MAXIMAL_TOL = -1e-12

#: references recorded by record_refs.py
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def _unit(fn, *args, **kwargs):
    """Result of one unit of work, or the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # a raising unit is a failed unit, not a crashed run
        return exc


def _bad(value) -> bool:
    return isinstance(value, Exception)


# ---------------------------------------------------------------------------
# lab-sweep: finite pipeline of acceptance criteria 1-3
# ---------------------------------------------------------------------------

#: n = 4 uses the vertex-set entry of the catalog: its many-generator hulls make
#: the two-sided LP decisions; n <= 3 covers every catalog entry (singletons,
#: pairs) in full
LAB_N4_CATALOG = (0,)
LAB_PAYOFFS = 50
LAB_RANDOM_TRIALS = 1000


def pair_key(n: int, theta, priors, catalog) -> str:
    """'n:image:j' with j the prior set's index in the full catalog for n."""
    return f"{n}:{''.join(map(str, theta.image))}:{catalog.index(priors)}"


def lab_catalogs() -> dict[int, list]:
    cats = {n: finite.prior_catalog(n) for n in (1, 2, 3, 4)}
    cats[4] = [cats[4][j] for j in LAB_N4_CATALOG]
    return cats


def lab_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    cats = lab_catalogs()
    payoffs = {n: rng.uniform(-1.0, 1.0, (n**n * len(cats[n]), LAB_PAYOFFS, n)) for n in cats}
    return {"catalogs": cats, "payoffs": payoffs, "rng": np.random.default_rng([seed, 1])}


def lab_run(inp: dict) -> dict:
    cats = inp["catalogs"]
    systems, enum_error = [], None
    try:
        for n, cat in cats.items():
            systems.extend(finite.enumerate_preserving_systems(n, cat))
    except Exception as exc:
        enum_error = exc
    audits = [
        (_unit(finite.indecomposability_audit, s), _unit(finite.fixed_space_audit, s)) for s in systems
    ]
    slln = []
    used = {n: 0 for n in cats}
    for s, (_, fixed) in zip(systems, audits):
        if _bad(fixed) or not fixed.ergodic:
            continue
        rows = inp["payoffs"][s.n][used[s.n]]
        used[s.n] += 1
        slln.extend(_unit(finite.slln_audit, s, Rv(tuple(x))) for x in rows)
    rng = inp["rng"]
    trials = []
    for _ in range(LAB_RANDOM_TRIALS):
        n = int(rng.integers(2, 7))
        s = _unit(finite.random_preserving_system, n, rng)
        xi = Rv(tuple(rng.uniform(-1.0, 1.0, n)))
        k = int(rng.integers(1, 9))
        if _bad(s):
            trials.append((s, s))
            continue
        trials.append((_unit(finite.is_expectation_preserving, s), _unit(finite.maximal_ergodic_check, s, xi, k)))
    return {"systems": systems, "enum_error": enum_error, "audits": audits, "slln": slln, "trials": trials}


def statements_code(ind, fixed) -> str:
    flags = list(ind.statements) + [fixed.simple, fixed.ergodic]
    return "".join("T" if f else "F" for f in flags)


def lab_check(inp: dict, out: dict, refs: dict) -> tuple[int, list[str], dict]:
    ref = refs["lab-sweep"]
    cats = inp["catalogs"]
    full = {n: finite.prior_catalog(n) for n in cats}
    failures: list[str] = []
    pairs = [pair_key(n, th, ps, full[n]) for n, cat in cats.items() for th in finite.all_maps(n) for ps in cat]
    accepted = {pair_key(s.n, s.theta, s.priors, full[s.n]) for s in out["systems"]}
    if out["enum_error"] is not None:
        failures += [f"enumeration raised {out['enum_error']!r}"] * len(pairs)
    else:
        failures += [f"pair {p}: verdict differs" for p in pairs if (p in accepted) != (p in ref["statements"])]
    for s, (ind, fixed) in zip(out["systems"], out["audits"]):
        key = pair_key(s.n, s.theta, s.priors, full[s.n])
        if _bad(ind) or _bad(fixed):
            failures.append(f"system {key}: audit raised")
        elif not (ind.consistent and fixed.consistent) or statements_code(ind, fixed) != ref["statements"].get(key):
            failures.append(f"system {key}: statements {statements_code(ind, fixed)}")
    failures += [f"slln: {r!r}" for r in out["slln"] if _bad(r) or not r.ok or r.bad_capacity > 1e-12]
    worst = math.inf
    for preserving, value in out["trials"]:
        if _bad(preserving) or _bad(value) or preserving is not True or value < MAXIMAL_TOL:
            failures.append(f"maximal trial: preserving={preserving!r} value={value!r}")
        else:
            worst = min(worst, value)
    attempted = len(pairs) + len(out["systems"]) + len(out["slln"]) + len(out["trials"])
    values = {
        "preserving_systems": len(out["systems"]),
        "ergodic_systems": sum(1 for _, f in out["audits"] if not _bad(f) and f.ergodic),
        "slln_audits": len(out["slln"]),
        "maximal_min": worst,
    }
    return attempted, failures, values


# ---------------------------------------------------------------------------
# oracle-refine: DP refinement on a seeded rotation of cos at t = 1
# ---------------------------------------------------------------------------

ORACLE_MS = (256, 512, 1024, 2048)
ORACLE_NS = (64, 128)
ORACLE_FD_MS = (256, 512)
ORACLE_T = 1.0


def phase(seed: int) -> float:
    return float(np.random.default_rng(seed).uniform(0.0, TWO_PI))


def rotated_cos(m: int, a: float) -> gheat.GridFn:
    grid = gheat.CircleGrid(m)
    return gheat.GridFn(grid, np.cos(grid.nodes() - a))


def oracle_inputs(seed: int) -> dict:
    a = phase(seed)
    return {
        "phi": {m: rotated_cos(m, a) for m in ORACLE_MS},
        "quad": gheat.quad_fn(gheat.CircleGrid(ORACLE_FD_MS[0])),
    }


def oracle_run(inp: dict) -> dict:
    phi = inp["phi"]
    dp = {(m, n): _unit(scenario.dp_upper_expectation, phi[m], ORACLE_T, BAND, n)
          for m in ORACLE_MS for n in ORACLE_NS}
    fd = {m: _unit(gheat.solve, phi[m], ORACLE_T, BAND) for m in ORACLE_FD_MS}
    lin = {(m, s2): _unit(wrapped.linear_semigroup, phi[m], wrapped.WrappedKernelSpec(s2, ORACLE_T))
           for m in ORACLE_FD_MS for s2 in (BAND.sigma_lo2, BAND.sigma_hi2)}
    quad = inp["quad"]
    seam = (_unit(gheat.solve, quad, 0.25, BAND),
            _unit(wrapped.linear_semigroup, quad, wrapped.WrappedKernelSpec(BAND.sigma_hi2, 0.25)))
    return {"dp": dp, "fd": fd, "lin": lin, "seam": seam}


def sup_diff(u, v) -> float:
    return float(np.max(np.abs(u.values - v.values)))


def oracle_check(inp: dict, out: dict, refs: dict) -> tuple[int, list[str], dict]:
    failures: list[str] = []
    values: dict = {}
    # the DP lattice validates its kernels' row sums on construction, so a
    # returned value means the row-sum check passed
    for (m, n), u in out["dp"].items():
        if _bad(u) or not (-1.0 - 1e-12 <= u.values.min() and u.values.max() <= 1.0 + 1e-12):
            failures.append(f"dp M={m} N={n}: {u!r}")
    finest_n = ORACLE_NS[-1]
    for m, u in out["fd"].items():
        dp = out["dp"][(m, finest_n)]
        err = math.inf if _bad(u) or _bad(dp) else sup_diff(u, dp)
        values[f"fd_dp_sup_err.M{m}"] = err
        if not err <= FLOW_TOL:
            failures.append(f"fd M={m}: sup|FD - DP(N={finest_n})| = {err}")
    values["fd_dp_sup_err"] = values[f"fd_dp_sup_err.M{ORACLE_FD_MS[-1]}"]
    for m in ORACLE_MS:
        a, b = (out["dp"][(m, n)] for n in ORACLE_NS)
        if not (_bad(a) or _bad(b)):
            values[f"dp_refinement.M{m}"] = sup_diff(a, b)
    for (m, s2), u in out["lin"].items():
        exact = math.exp(-s2 * ORACLE_T / 2.0) * inp["phi"][m].values
        if _bad(u) or not float(np.max(np.abs(u.values - exact))) <= 1e-10:
            failures.append(f"linear semigroup M={m} sigma2={s2}: {u!r}")
    fd_quad, ker_quad = out["seam"]
    if _bad(fd_quad) or _bad(ker_quad):
        failures.append(f"seam: {fd_quad!r} {ker_quad!r}")
    else:
        values["seam_gap"] = sup_diff(fd_quad, ker_quad)
    attempted = len(out["dp"]) + len(out["fd"]) + len(out["lin"]) + 1
    return attempted, failures, values


def fd_dp_sup_err(seed: int) -> float:
    """The oracle-refine accuracy figure alone: sup|FD - DP| at the finest shared grid."""
    phi = rotated_cos(ORACLE_FD_MS[-1], phase(seed))
    fd = gheat.solve(phi, ORACLE_T, BAND)
    return sup_diff(fd, scenario.dp_upper_expectation(phi, ORACLE_T, BAND, ORACLE_NS[-1]))


WORKLOADS = {
    "lab-sweep": (lab_inputs, lab_run, lab_check),
    "oracle-refine": (oracle_inputs, oracle_run, oracle_check),
}
