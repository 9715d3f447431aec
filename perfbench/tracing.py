"""Span recorder for the traced benchmark run, and per-layer aggregation.

The recorder wraps public ergolab functions at every ``ergolab.*`` module
attribute bound to them (``kernel_matrix`` is bound in both ``wrapped`` and
``scenario``), so calls made inside the package go through the wrapper too.
Nothing under ``src/`` changes.  A name missing from its module is skipped and
simply reports zero calls.

A span is the tuple ``(span_id, parent_id, name, start_ns, end_ns, tag)``;
parent 0 is the timed section itself.  Spans stay in memory until the timed
section ends, and self time is computed from them afterwards.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

#: (home module, function name) of every traced layer boundary
TRACED = (
    ("credal", "upper_exp"),
    ("finite", "enumerate_preserving_systems"),
    ("finite", "is_expectation_preserving"),
    ("finite", "hull_distance"),
    ("finite", "indecomposability_audit"),
    ("finite", "fixed_space_audit"),
    ("finite", "slln_audit"),
    ("finite", "maximal_ergodic_check"),
    ("finite", "random_preserving_system"),
    ("gheat", "solve"),
    ("gheat", "step_explicit"),
    ("wrapped", "kernel_matrix"),
    ("wrapped", "linear_semigroup"),
    ("scenario", "dp_upper_expectation"),
)

LAYERS = ("credal", "finite", "gheat", "wrapped", "scenario")


def _tag_dp(args, kwargs, result):
    phi = args[0] if args else kwargs["phi"]
    n_steps = args[3] if len(args) > 3 else kwargs["n_steps"]
    return {"m": phi.grid.m, "n": int(n_steps)}


#: functions whose spans carry arguments or results the aggregation needs
TAGGERS = {
    "scenario.dp_upper_expectation": _tag_dp,
}


class Recorder:
    """In-memory span store; records only while ``active`` is set."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 0
        self.active = False

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        cache_info = getattr(fn, "cache_info", None)
        tagger = TAGGERS.get(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec.next_id += 1
            sid = rec.next_id
            parent = rec.stack[-1]
            rec.stack.append(sid)
            misses = cache_info().misses if cache_info else None
            tag = {}
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tag["raised"] = True
                raise
            else:
                if isinstance(result, bool):
                    tag["result"] = result
                if tagger is not None:
                    tag.update(tagger(args, kwargs, result))
                return result
            finally:
                end = time.perf_counter_ns()
                rec.stack.pop()
                if misses is not None:
                    tag["hit"] = cache_info().misses == misses
                rec.spans.append((sid, parent, name, start, end, tag or None))

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """One span per resumption, so the caller's loop body is not charged here."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not rec.active:
                yield from gen
                return
            while True:
                rec.next_id += 1
                sid = rec.next_id
                parent = rec.stack[-1]
                rec.stack.append(sid)
                start = time.perf_counter_ns()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec.spans.append((sid, parent, name, start, time.perf_counter_ns(), None))
                    rec.stack.pop()
                yield item

        return wrapper

    def install(self) -> None:
        """Replace every ergolab module attribute bound to a traced function."""
        modules = [m for k, m in sys.modules.items() if k == "ergolab" or k.startswith("ergolab.")]
        for home, fname in TRACED:
            fn = getattr(sys.modules.get(f"ergolab.{home}"), fname, None)
            if fn is None:
                continue
            wrapper = self.wrap(f"{home}.{fname}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans: list, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repeat, from its spans and traced wall time."""
    child_ns: dict[int, int] = {}
    for sid, parent, _name, start, end, _tag in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    by_name: dict[str, list] = {f"{h}.{f}": [] for h, f in TRACED}
    for span in spans:
        sid, _parent, name, start, end, tag = span
        by_name[name].append(((end - start - child_ns.get(sid, 0)) * 1e-9, (end - start) * 1e-9, tag or {}))

    out: dict[str, float] = {}
    for name, rows in by_name.items():
        out[f"{name}.calls"] = len(rows)
        out[f"{name}.s"] = sum(r[0] for r in rows)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, rows in by_name.items():
        layer_self[name.split(".")[0]] += out[f"{name}.s"]
    for layer, s in layer_self.items():
        out[f"{layer}.self_s"] = s
    out["trace.unattributed_s"] = wall_s - (child_ns.get(0, 0) * 1e-9)

    # finite: decisions (calls the cache did not answer), the LPs they needed,
    # and the LP latency distribution
    decisions = [s for s in spans if s[2] == "finite.is_expectation_preserving" and not (s[5] or {}).get("hit")]
    needed_lp = {s[1] for s in spans if s[2] == "finite.hull_distance"}
    accepts = sum(1 for s in decisions if (s[5] or {}).get("result"))
    out["finite.is_expectation_preserving.decisions"] = len(decisions)
    out["finite.is_expectation_preserving.accepts"] = accepts
    sweep = {s[0] for s in spans if s[2] == "finite.enumerate_preserving_systems"}
    swept = [s for s in decisions if s[1] in sweep]
    out["finite.enumerate_preserving_systems.decisions"] = len(swept)
    out["finite.enumerate_preserving_systems.accepts"] = sum(1 for s in swept if s[5].get("result"))
    out["finite.is_expectation_preserving.accept_ratio"] = accepts / len(decisions) if decisions else 0.0
    out["finite.is_expectation_preserving.lp_free_ratio"] = (
        sum(1 for s in decisions if s[0] not in needed_lp) / len(decisions) if decisions else 0.0
    )
    lp_us = [r[1] * 1e6 for r in by_name["finite.hull_distance"]]
    out["finite.hull_distance.p50_us"] = _quantile(lp_us, 0.50)
    out["finite.hull_distance.p99_us"] = _quantile(lp_us, 0.99)
    out["finite.hull_distance.failed"] = sum(1 for r in by_name["finite.hull_distance"] if r[2].get("raised"))

    steps = out["gheat.step_explicit.calls"]
    out["gheat.step_explicit.mean_us"] = out["gheat.step_explicit.s"] / steps * 1e6 if steps else 0.0

    kernels = by_name["wrapped.kernel_matrix"]
    builds = [r for r in kernels if not r[2].get("hit", False)]
    out["wrapped.kernel_matrix.builds"] = len(builds)
    out["wrapped.kernel_matrix.build_s"] = sum(r[0] for r in builds)
    out["wrapped.kernel_matrix.hit_ratio"] = (len(kernels) - len(builds)) / len(kernels) if kernels else 0.0

    dp = by_name["scenario.dp_upper_expectation"]
    out["scenario.dp_upper_expectation.steps"] = sum(r[2]["n"] for r in dp)
    out["scenario.dp_upper_expectation.bytes_computed"] = sum(2 * r[2]["m"] ** 2 * 8 * r[2]["n"] for r in dp)
    for m in (256, 2048):
        per_step = [r[0] / r[2]["n"] * 1e6 for r in dp if r[2]["m"] == m]
        out[f"scenario.dp_upper_expectation.step_us.M{m}"] = statistics.median(per_step) if per_step else 0.0
    return out


#: per-layer metrics that are exact counts: they must repeat across traced
#: repeats of one seed; all but the is_expectation_preserving ones, which
#: include the seeded random draws, are the same for every seed
COUNT_METRICS = (
    "finite.hull_distance.calls",
    "finite.enumerate_preserving_systems.decisions",
    "finite.enumerate_preserving_systems.accepts",
    "finite.is_expectation_preserving.calls",
    "finite.is_expectation_preserving.decisions",
    "finite.is_expectation_preserving.accepts",
    "gheat.step_explicit.calls",
    "wrapped.kernel_matrix.builds",
    "scenario.dp_upper_expectation.steps",
)
