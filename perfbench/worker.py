"""One fresh-interpreter repeat of a workload; prints one JSON object on stdout.

    python3 perfbench/worker.py <workload> <seed> plain|traced|probe|accuracy [spans.json]

``plain`` times the workload with tracing off; ``traced`` times it with the
span recorder installed and writes the spans to the given file; ``probe``
times the smallest units of work; ``accuracy`` computes only the FD-vs-DP
accuracy figure.  run.py starts this script with ``src`` on PYTHONPATH and
the BLAS thread count fixed, so every repeat starts with cold program caches.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import ergolab
import tracing
import workloads
from ergolab import finite, gheat, scenario, wrapped
from workloads import BAND, rotated_cos

#: the mc-slln default path: horizon 1e4 at dt 0.01, 10^6 Euler steps
PATH_HORIZON, PATH_DT = 1e4, 0.01


def _record() -> dict:
    return {
        "ergolab": ergolab.__version__,
        "ergolab_path": ergolab.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _timed(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probes() -> dict[str, float]:
    """Median times of the smallest units of work named in the ROADMAP."""
    out = {}
    grid = gheat.CircleGrid(256)
    u0, dt = gheat.cos_fn(grid), BAND.dt(grid)

    def steps():
        u = u0
        for _ in range(1000):
            u = gheat.step_explicit(u, BAND, dt)

    out["probe.step_explicit_us.M256"] = _timed(steps, 5) / 1000 * 1e6

    clear = getattr(wrapped.kernel_matrix, "cache_clear", lambda: None)
    for m in (256, 2048):

        def build():
            clear()
            wrapped.kernel_matrix(m, BAND.sigma_hi2, 1.0 / 64)

        out[f"probe.kernel_build_s.M{m}"] = _timed(build, 3)
        phi = rotated_cos(m, 0.0)
        scenario.dp_upper_expectation(phi, 1.0, BAND, 64)  # warm both kernels
        out[f"probe.dp_step_us.M{m}"] = _timed(lambda: scenario.dp_upper_expectation(phi, 1.0, BAND, 64), 3) / 64 * 1e6
    clear()

    # vertex set of n = 4 under theta = (0, 0, 1, 2): the pushforward drops e3,
    # so the generator sets differ and the decision needs this LP
    vertices = np.eye(4)
    out["probe.hull_distance_us"] = _timed(lambda: finite.hull_distance(vertices[:3], vertices[3]), 50) * 1e6

    for policy in scenario.default_policy_suite(BAND):
        start = time.perf_counter()
        path = scenario.simulate_path(policy, 0.0, PATH_HORIZON, PATH_DT, 11)
        out[f"probe.simulate_path_s_per_Msteps.{policy.kind}"] = (time.perf_counter() - start) / (
            (len(path.positions) - 1) / 1e6
        )
    return out


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    result: dict = {"record": _record()}
    if mode == "probe":
        result["ready"] = time.monotonic()
        result["probes"] = probes()
    elif mode == "accuracy":
        result["ready"] = time.monotonic()
        result["fd_dp_sup_err"] = workloads.fd_dp_sup_err(seed)
    else:
        make_inputs, run, check = workloads.WORKLOADS[name]
        inp = make_inputs(seed)
        result["ready"] = time.monotonic()
        recorder = None
        if mode == "traced":
            recorder = tracing.Recorder()
            recorder.install()
        gc.collect()
        if recorder:
            recorder.active = True
        start, cpu = time.perf_counter(), time.process_time()
        out = run(inp)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        if recorder:
            recorder.active = False
        result["wall_s"] = wall
        result["cpu_s"] = cpu
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with open(workloads.REFS_PATH) as fh:
            refs = json.load(fh)
        attempted, failures, values = check(inp, out, refs)
        result.update(attempted=attempted, failed=len(failures), failures=failures[:5], values=values)
        if recorder:
            result["layers"] = tracing.layer_metrics(recorder.spans, wall)
            with open(argv[3], "w") as fh:
                run_id = f"{name}-{seed}-{os.getpid()}"
                json.dump({"run_id": run_id, "wall_s": wall, "spans": recorder.spans}, fh)
    json.dump(result, sys.stdout, default=str)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
