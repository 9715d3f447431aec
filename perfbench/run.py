"""ergolab benchmark: one command, two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload lab-sweep --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Every timed repeat is a fresh interpreter
(worker.py) with ``src`` on PYTHONPATH and one BLAS thread, so the program's
``lru_cache``s and its dense kernel cache start cold, as they do for each CLI
invocation.  Repeats run one after another until ``--seconds`` is used up
(at least three), and the report gives their median.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced repeats, adds the unit probes, and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
above it are the run record and a readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracing import COUNT_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("lab-sweep", "oracle-refine")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150
#: time kept back from the repeats for the untimed fd_dp_sup_err process
ACCURACY_RESERVE_S = 2.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    return env


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker to completion; setup_s counts from the spawn to inputs ready."""
    args = [sys.executable, WORKER, workload, str(seed), mode]
    if mode == "traced":
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        args.append(os.path.join(out_dir, f"spans-{workload}.json"))
    start = time.monotonic()
    try:
        proc = subprocess.run(args, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} repeat exceeded {CHILD_TIMEOUT_S} s", "elapsed_s": time.monotonic() - start}
    elapsed = time.monotonic() - start
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"{mode} repeat exited {proc.returncode}: {tail[0]}", "elapsed_s": elapsed}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["elapsed_s"] = elapsed
    return result


def repeat_until(deadline: float, modes: tuple[str, ...], workload: str, seed: int) -> dict[str, list]:
    """Cycle through ``modes`` until the next cycle, as long as the slowest so
    far, would pass the deadline."""
    runs: dict[str, list] = {m: [] for m in modes}
    cycles: list[float] = []
    while True:
        begin = time.monotonic()
        for mode in modes:
            runs[mode].append(spawn(workload, seed, mode))
        cycles.append(time.monotonic() - begin)
        if any("error" in r for rs in runs.values() for r in rs):
            break
        enough = len(cycles) >= (MIN_REPEATS if len(modes) == 1 else 1)
        if enough and time.monotonic() + max(cycles) > deadline:
            break
    return runs


def spread(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})"


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def tally(repeats: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed units over all repeats; a crashed repeat fails all its units."""
    per_repeat = max((r["attempted"] for r in repeats if "attempted" in r), default=1)
    attempted = failed = 0
    messages: list[str] = []
    for r in repeats:
        if "error" in r:
            attempted += per_repeat
            failed += per_repeat
            messages.append(r["error"])
        else:
            attempted += r["attempted"]
            failed += r["failed"]
            messages += r["failures"]
    return attempted, failed, messages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ergolab", "__init__.py")):
        print(f"error: {ROOT} holds no ergolab source tree (src/ergolab)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    section = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    names = [m["name"] for m in section]
    units = {m["name"]: m["unit"] for m in section}
    started = time.monotonic()
    deadline = started + args.seconds

    metrics: dict[str, float] = {}
    report: list[str] = []
    if args.trace == 0:
        reserve = 0.0 if args.workload == "oracle-refine" else ACCURACY_RESERVE_S
        repeats = repeat_until(deadline - reserve, ("plain",), args.workload, args.seed)["plain"]
        good = [r for r in repeats if "error" not in r]
        for key in ("setup_s", "wall_s", "peak_rss_mb"):
            samples = [r[key] for r in good]
            if samples:
                metrics[key] = statistics.median(samples)
                report.append(f"{key} [{units[key]}]: {spread(samples)}")
        if args.workload == "oracle-refine":
            errs = [r["values"]["fd_dp_sup_err"] for r in good]
        else:
            accuracy = spawn(args.workload, args.seed, "accuracy")
            errs = [] if "error" in accuracy else [accuracy["fd_dp_sup_err"]]
            if not errs:
                repeats.append(accuracy)
        errs = [e for e in errs if math.isfinite(e)]
        if errs:
            metrics["fd_dp_sup_err"] = statistics.median(errs)
            report.append(f"fd_dp_sup_err [{units['fd_dp_sup_err']}]: {spread(errs)}")
    else:
        probe = spawn(args.workload, args.seed, "probe")
        runs = repeat_until(deadline, ("plain", "traced"), args.workload, args.seed)
        repeats = runs["plain"] + runs["traced"]
        traced = [r for r in runs["traced"] if "error" not in r]
        plain_walls = [r["wall_s"] for r in runs["plain"] if "error" not in r]
        if traced and plain_walls:
            # the layer figures of one repeat, the median one, so they add up
            # to its wall time exactly
            traced_walls = sorted(r["wall_s"] for r in traced)
            middle = next(r for r in traced if r["wall_s"] == traced_walls[(len(traced) - 1) // 2])
            metrics.update(middle["layers"])
            metrics["trace.count_mismatches"] = sum(
                len({r["layers"][key] for r in traced}) - 1 for key in COUNT_METRICS
            )
            metrics["trace.wall_s"] = middle["wall_s"]
            metrics["trace.overhead_s"] = middle["wall_s"] - statistics.median(plain_walls)
            report.append(f"untraced wall_s [s]: {spread(plain_walls)}")
            report.append(f"traced wall_s [s]: {spread(traced_walls)}")
        if "error" in probe:
            repeats.append(probe)
        else:
            metrics.update(probe["probes"])
        good = [r for r in repeats if "error" not in r]

    attempted, failed, messages = tally(repeats)
    missing = [n for n in names if n not in metrics]
    record = dict(good[0]["record"]) if good else {}
    record.update(
        nproc=os.cpu_count(),
        blas_threads={var: BLAS_THREADS for var in BLAS_VARS},
        pythonhashseed="0",
        git_commit=git_commit(),
        argv=sys.argv,
        workload=args.workload,
        seed=args.seed,
        repeats=len(repeats),
        run_s=round(time.monotonic() - started, 3),
        rerun_on_held_out_seed=(
            f"python3 perfbench/run.py --workload {args.workload} --seed <a seed not used so far> "
            f"--seconds {args.seconds:g} --trace {args.trace}"
        ),
    )
    print("run record: " + json.dumps(record, sort_keys=True))
    for line in report:
        print(line)
    print(f"fail_frac [ratio]: {failed / attempted:.6g} ({failed} of {attempted} units)")
    for key, value in sorted((good[0].get("values") or {}).items()) if good else []:
        print(f"value {key}: {value}")
    for message in list(dict.fromkeys(messages))[:10]:
        print(f"failure: {message}")
    for name in missing:
        print(f"failure: metric {name} was not measured")
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
