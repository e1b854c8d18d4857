#!/usr/bin/env python3
"""polyaurn benchmark: run one workload from a seed and print its metrics.

    python3 bench/run.py --workload exact_laws --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
A run is a closed loop with one client: requests of the seeded mix run one
after another, in passes of a fixed composition; the number of passes fills
about --seconds on the reference machine.  Every request's latency includes
the check of its result against an exact route.  End-to-end timings are
divided by a speed correction from a reference computation timed between
requests (speed.py), and printed raw next to it.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics:
alternate passes run with spans recorded around calls into each module's
public functions, and the ROADMAP calibration probes run at the end.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)
MIN_BEYOND = 10
SETUP_SAMPLES = 3
# Duration of one pass on the reference machine (2 vCPUs, Python 3.11); the
# number of passes follows from --seconds and this, so every run of a
# workload at the same --seconds makes the same requests.
PASS_SECONDS = {"exact_laws": 3.3, "limit_density": 5.7, "montecarlo": 6.6}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

MODULES = ("urns", "moments", "specialfn", "laws", "martingale", "rng", "trees", "stirling",
           "crp", "cli")

# ROADMAP direction 1 single-call figures, with exactly the inputs quoted
# there; `m` carries the polyaurn modules and the STD spec.
PROBES = {
    "probe.exact_pmf_dp.exact_N200_s": lambda m: m.urns.exact_pmf_dp(m.STD, 200, "exact"),
    "probe.exact_pmf_dp.float_N2000_s": lambda m: m.urns.exact_pmf_dp(m.STD, 2000, "float"),
    "probe.product_ratio.exact_N1e4_s":
        lambda m: m.moments.product_ratio(m.STD, 10_000, 1, "exact"),
    "probe.pmf_via_moments.N60_s": lambda m: m.moments.pmf_via_moments(m.STD, 60),
    "probe.tilted_density_moment.STD_s0_s": lambda m: m.moments.tilted_density_moment(m.STD, 0),
    "probe.simulate_white_batch.8192x64000_s":
        lambda m: m.urns.simulate_white_batch(m.STD, [64_000], 8192, 1),
    "probe.simulate_statistic_batch.N200x1e4_s":
        lambda m: m.trees.simulate_statistic_batch(m.trees.recursive_family(1), 2, 200, 10_000,
                                                   1, ("descendants", 1)),
    "probe.simulate_block_counts.N30x1e5_s":
        lambda m: m.stirling.simulate_block_counts(2, 2, 1, 30, 100_000, 1),
    "probe.simulate_table_count_batch.N50x1e5_s":
        lambda m: m.crp.simulate_table_count_batch(m.crp.CrpParams(m.F(1, 2), m.F(1, 2), 2),
                                                   50, 100_000, 1),
}

# unit of every per-layer metric, in the order printed
PER_LAYER = {
    "urns.exact_pmf_dp.exact_s": "s",
    "urns.exact_pmf_dp.float_s": "s",
    "urns.exact_pmf_dp.cells": "count",
    "urns.exact_pmf_dp.max_bits": "bits",
    "urns.enumerate_histories_s": "s",
    "moments.product_ratio_s": "s",
    "moments.product_ratio.bits": "bits",
    "moments.pmf_via_moments_s": "s",
    "moments.log_product_ratio_s": "s",
    "moments.limit_density_s": "s",
    "moments.limit_density.points": "count",
    "moments.limit_density.point_ms.low": "ms",
    "moments.limit_density.point_ms.mid": "ms",
    "moments.limit_density.point_ms.tail": "ms",
    "moments.density_cutoff_s": "s",
    "moments.tilted_density_moment.self_s": "s",
    "moments.quadrature_residual": "1",
    "moments.quadrature_residual.singular": "1",
    "laws.verify_decomposition_s": "s",
    "laws.max_rel_error": "1",
    "specialfn.log_gamma.calls": "count",
    "specialfn.log_gamma_s": "s",
    "martingale.tail_sum_experiment.self_s": "s",
    "martingale.z_mean_se": "se",
    "martingale.z_var_se": "se",
    "martingale.skewness": "1",
    "martingale.excess_kurtosis": "1",
    "rng.run_blocks.t1_s": "s",
    "rng.run_blocks.t2_s": "s",
    "rng.run_blocks.blocks": "count",
    "rng.parallel_efficiency": "1",
    "urns.simulate_white_batch_s": "s",
    "urns.simulate_counts_batch_s": "s",
    "urns.sim_draws": "count",
    "trees.simulate_statistic_batch_s": "s",
    "trees.slot_steps": "count",
    "stirling.simulate_block_counts_s": "s",
    "crp.simulate_table_count_batch_s": "s",
    "trees.tv": "1",
    "trees.tv_floor": "1",
    "stirling.tv": "1",
    "stirling.tv_floor": "1",
    "crp.tv": "1",
    "crp.tv_floor": "1",
    "cli.run_s": "s",
    "cli.output_bytes": "bytes",
    "cli.exit_nonzero": "count",
    **{f"{m}.self_share": "1" for m in (*MODULES, "bench")},
    "trace.overhead_s": "s",
    "error_ratio": "1",
    "speed.factor": "1",
    **{name: "s" for name in PROBES},
}

# quality values a request may return, and how a run combines them
AVERAGED = ("martingale.skewness", "martingale.excess_kurtosis")
PER_PASS = ("cli.output_bytes",)


@dataclass
class Record:
    kind: str
    latency: float
    outcome: str  # "ok", "mismatch" (wrong result) or "error" (raised, non-zero exit)
    quality: dict = field(default_factory=dict)
    detail: str = ""


@dataclass
class Pass:
    wall: float
    cpu: float
    traced: bool


# ---------------------------------------------------------------------------
# statistics


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """(percentile, latency, samples beyond it) for the highest of PERCENTILES
    whose nearest-rank value still has MIN_BEYOND samples above its rank;
    the lowest of them when there are too few samples for any."""
    xs = sorted(values)
    n = len(xs)
    for p in reversed(PERCENTILES):
        rank = max(math.ceil(p / 100.0 * n), 1)
        if n - rank >= MIN_BEYOND or p == PERCENTILES[0]:
            return p, xs[rank - 1], n - rank


def error_ratio(records: list[Record]) -> float:
    return sum(r.outcome != "ok" for r in records) / len(records)


def combine_quality(records: list[Record], passes: int) -> dict:
    seen: dict[str, list[float]] = {}
    for r in records:
        for key, value in r.quality.items():
            seen.setdefault(key, []).append(float(value))
    out = {}
    for key, vals in seen.items():
        if key in AVERAGED:
            out[key] = statistics.fmean(vals)
        elif key in PER_PASS:
            out[key] = math.fsum(vals) / passes
        else:
            out[key] = max(vals)
    return out


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass busy times, self times and work counts from traced passes."""
    from spans import busy_time, self_times

    selfs = self_times(spans)

    def busy(name, where=None):
        return busy_time(spans, name, where) / passes

    def attr_sum(name, key):
        return math.fsum(s.attrs.get(key, 0) for s in spans if s.name == name) / passes

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in spans if s.name == name), default=0)

    def self_sum(name):
        return math.fsum(selfs[s.id] for s in spans if s.name == name) / passes

    def point_ms(lo, hi):
        ms = [1e3 * s.duration for s in spans
              if s.name == "moments.limit_density" and lo <= s.attrs.get("x", -1.0) < hi]
        return statistics.median(ms) if ms else 0.0

    t1 = busy("rng.run_blocks", lambda s: s.attrs.get("threads", 1) <= 1)
    t2 = busy("rng.run_blocks", lambda s: s.attrs.get("threads", 1) == 2)
    total_self = math.fsum(selfs.values())
    shares = {}
    for m in MODULES:
        own = math.fsum(selfs[s.id] for s in spans if s.name.startswith(m + "."))
        shares[f"{m}.self_share"] = own / total_self if total_self else 0.0
    bench_self = math.fsum(selfs[s.id] for s in spans if s.name.startswith("request."))
    shares["bench.self_share"] = bench_self / total_self if total_self else 0.0
    return {
        "urns.exact_pmf_dp.exact_s":
            busy("urns.exact_pmf_dp", lambda s: s.attrs.get("mode") == "exact"),
        "urns.exact_pmf_dp.float_s":
            busy("urns.exact_pmf_dp", lambda s: s.attrs.get("mode") == "float"),
        "urns.exact_pmf_dp.cells": attr_sum("urns.exact_pmf_dp", "cells"),
        "urns.exact_pmf_dp.max_bits": attr_max("urns.exact_pmf_dp", "max_bits"),
        "urns.enumerate_histories_s": busy("urns.enumerate_histories"),
        "moments.product_ratio_s": busy("moments.product_ratio"),
        "moments.product_ratio.bits": attr_max("moments.product_ratio", "bits"),
        "moments.pmf_via_moments_s": busy("moments.pmf_via_moments"),
        "moments.log_product_ratio_s": busy("moments.log_product_ratio"),
        "moments.limit_density_s": busy("moments.limit_density"),
        "moments.limit_density.points": attr_sum("moments.limit_density", "points"),
        "moments.limit_density.point_ms.low": point_ms(0.0, 2.0),
        "moments.limit_density.point_ms.mid": point_ms(2.0, 6.0),
        "moments.limit_density.point_ms.tail": point_ms(6.0, math.inf),
        "moments.density_cutoff_s": busy("moments.density_cutoff"),
        "moments.tilted_density_moment.self_s": self_sum("moments.tilted_density_moment"),
        "laws.verify_decomposition_s": busy("laws.verify_decomposition"),
        "specialfn.log_gamma.calls":
            sum(s.name == "specialfn.log_gamma" for s in spans) / passes,
        "specialfn.log_gamma_s": busy("specialfn.log_gamma"),
        "martingale.tail_sum_experiment.self_s": self_sum("martingale.tail_sum_experiment"),
        "rng.run_blocks.t1_s": t1,
        "rng.run_blocks.t2_s": t2,
        "rng.run_blocks.blocks": attr_sum("rng.run_blocks", "blocks"),
        "rng.parallel_efficiency": t1 / (2.0 * t2) if t2 else 0.0,
        "urns.simulate_white_batch_s": busy("urns.simulate_white_batch"),
        "urns.simulate_counts_batch_s": busy("urns.simulate_counts_batch"),
        "urns.sim_draws": attr_sum("urns.simulate_white_batch", "draws")
        + attr_sum("urns.simulate_counts_batch", "draws"),
        "trees.simulate_statistic_batch_s": busy("trees.simulate_statistic_batch"),
        "trees.slot_steps": attr_sum("trees.simulate_statistic_batch", "slot_steps"),
        "stirling.simulate_block_counts_s": busy("stirling.simulate_block_counts"),
        "crp.simulate_table_count_batch_s": busy("crp.simulate_table_count_batch"),
        "cli.run_s": busy("cli.run"),
        "cli.exit_nonzero": sum(s.name == "cli.run" and (s.attrs.get("exit", 0) != 0
                                                         or "error" in s.attrs)
                                for s in spans) / passes,
        **shares,
    }


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def cpu_seconds() -> float:
    return math.fsum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)))


# ---------------------------------------------------------------------------
# phases


def setup(workload: str, seed: int):
    """Imports, the first pass of the request mix, and one warm-up call per
    module: everything before the first request is ready."""
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import workloads

    mix = workloads.Mix(workload, seed)
    mix.pass_requests(0)
    workloads.warm_up()
    return mix


def setup_samples(workload: str, seed: int, count: int) -> list[float]:
    """Wall time from starting a fresh interpreter until its set-up is done."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code})")
        out.append(elapsed)
    return out


def execute(requests, tracer, first_id: int, check_failed, gauge=None) -> list[Record]:
    out = []
    for i, req in enumerate(requests):
        if gauge is not None:
            gauge.sample()
        quality, outcome, detail = {}, "ok", ""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                quality = req.run()
            else:
                with tracer.request(first_id + i, f"request.{req.kind}"):
                    quality = req.run()
        except check_failed as exc:
            outcome, detail = "mismatch", str(exc)
        except Exception as exc:  # a failed request is counted, and the run goes on
            outcome, detail = "error", f"{type(exc).__name__}: {exc}"
        out.append(Record(req.kind, time.perf_counter() - t0, outcome, quality, detail))
    return out


def pass_count(workload: str, seconds: float, traced: bool) -> int:
    """Passes in a run: an even number filling about `seconds` at the
    reference pass duration, at least four in a traced run."""
    count = max(2, 2 * round(seconds / (2 * PASS_SECONDS[workload])))
    return max(4, count) if traced else count


def run_passes(mix, count: int, tracer, check_failed, gauge):
    """Untraced run: every pass untraced.  Traced run: passes 2, 3, 6, 7, ...
    are traced, so traced and untraced passes have the same composition.
    Pass times leave out the time spent in the speed gauge."""
    records: list[Record] = []
    passes: list[Pass] = []
    gauge.sample(force=True)
    for k in range(count):
        requests = mix.pass_requests(k)
        traced = tracer is not None and (k // 2) % 2 == 1
        if traced:
            tracer.install()
        g_wall, g_cpu = gauge.wall_spent, gauge.cpu_spent
        c0, t0 = cpu_seconds(), time.perf_counter()
        records += execute(requests, tracer if traced else None, len(records), check_failed,
                           gauge)
        wall = time.perf_counter() - t0 - (gauge.wall_spent - g_wall)
        passes.append(Pass(wall, cpu_seconds() - c0 - (gauge.cpu_spent - g_cpu), traced))
        if traced:
            tracer.uninstall()
    return records, passes


def run_probes() -> dict:
    from fractions import Fraction
    from types import SimpleNamespace

    import workloads

    m = SimpleNamespace(F=Fraction, STD=workloads.build_spec(workloads.STD), crp=workloads.crp,
                        moments=workloads.moments, stirling=workloads.stirling,
                        trees=workloads.trees, urns=workloads.urns)
    out = {}
    for name, call in PROBES.items():
        t0 = time.perf_counter()
        call(m)
        out[name] = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------------------


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name:<44} {value:>14.6g} {unit}{'  ' + note if note else ''}")


def end_to_end_metrics(args, records, passes, rss, gauge) -> dict:
    """Timings are divided by the run's speed correction (see speed.py) and
    printed raw next to it."""
    latencies = [r.latency for r in records]
    pct, tail, beyond = tail_latency(latencies)
    setups = setup_samples(args.workload, args.seed, SETUP_SAMPLES)
    gauge.sample(force=True)
    correction = gauge.correction()
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": math.fsum(p.wall for p in passes),
        "req_p50_s": statistics.median(latencies),
        "req_tail_s": tail,
        "cpu_s": math.fsum(p.cpu for p in passes),
    }
    metrics = {name: value / correction for name, value in raw.items()}
    metrics["peak_rss_mb"] = rss
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"the whole mix, {len(passes)} passes",
        "req_tail_s": f"p{pct:g} of {len(latencies)} requests, {beyond} beyond it",
        "cpu_s": "the whole mix, process and pool children",
    }
    report("speed.factor", gauge.factor(), "1",
           f"(median of {len(gauge.samples)} reference timings; timings below are divided "
           f"by its power {speed.GAMMA}, {correction:.4g})")
    for name, unit in END_TO_END.items():
        note = f"raw {raw[name]:.6g} {unit}" if name in raw else ""
        note = "; ".join(n for n in (note, notes.get(name, "")) if n)
        report(name, metrics[name], unit, f"({note})" if note else "")
    return metrics


def per_layer_metrics(args, records, passes, tracer, gauge) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(layer_metrics(tracer.spans, len(traced)))
    metrics.update(combine_quality(records, len(passes)))
    # traced and untraced passes come in pairs of the same composition
    metrics["trace.overhead_s"] = len(passes) * (statistics.fmean(p.wall for p in traced)
                                                 - statistics.fmean(p.wall for p in plain))
    metrics["error_ratio"] = error_ratio(records)
    metrics["speed.factor"] = gauge.factor()
    metrics.update(run_probes())
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    for name, unit in PER_LAYER.items():
        report(name, metrics[name], unit)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "polyaurn" / "__init__.py").is_file():
        print(f"error: no polyaurn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import polyaurn

    if Path(polyaurn.__file__).resolve().parent != (SRC / "polyaurn").resolve():
        print(f"error: polyaurn was imported from {polyaurn.__file__}", file=sys.stderr)
        return 2

    mix = setup(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import workloads
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    gauge = speed.SpeedGauge(args.workload)
    count = pass_count(args.workload, args.seconds, tracer is not None)
    records, passes = run_passes(mix, count, tracer, workloads.CheckFailed, gauge)
    rss = peak_rss_mb()

    failures: dict[str, int] = {}
    for r in records:
        if r.outcome != "ok":
            key = f"{r.kind}: {r.detail}"
            failures[key] = failures.get(key, 0) + 1
    for text, n in sorted(failures.items(), key=lambda kv: -kv[1])[:8]:
        print(f"failed x{n}: {text[:200]}")
    print(f"workload {args.workload}, seed {args.seed}: {len(records)} requests in "
          f"{len(passes)} passes, closed loop, one client; pass wall times "
          + ", ".join(f"{p.wall:.3f}{' (traced)' if p.traced else ''}" for p in passes))
    report("error_ratio", error_ratio(records), "1",
           f"({sum(failures.values())} of {len(records)} requests)")

    if tracer is None:
        metrics, units = end_to_end_metrics(args, records, passes, rss, gauge), END_TO_END
    else:
        metrics, units = per_layer_metrics(args, records, passes, tracer, gauge), PER_LAYER
    result = {
        "correct": not any(r.outcome == "mismatch" for r in records),
        "attempted": len(records),
        "failed": sum(r.outcome != "ok" for r in records),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
