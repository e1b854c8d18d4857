"""Tests of the benchmark's own logic: python3 -m pytest bench/test_bench.py"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, busy_time, self_times  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_mix_is_a_pure_function_of_the_seed(workload):
    a, b = workloads.Mix(workload, 11), workloads.Mix(workload, 11)
    for k in (0, 1):
        assert a.pass_requests(k) == b.pass_requests(k)
    assert workloads.Mix(workload, 12).pass_requests(0) != a.pass_requests(0)
    assert a.pass_requests(0) != a.pass_requests(1)


@pytest.mark.parametrize("workload", ["exact_laws", "limit_density"])
def test_fresh_specs_are_never_reused(workload):
    mix = workloads.Mix(workload, 3)
    specs = [r.params[0] for k in range(3) for r in mix.pass_requests(k)
             if r.kind in ("tiny", "medium", "large", "product_ratio", "cli.urn-exact",
                           "one_off", "cli.urn-limit")]
    assert len(specs) == len(set(specs))


def _tiny_request():
    desc = ("py", 2, 1, 1, 3, 2)
    return workloads.Request("tiny", (desc, 5), lambda: workloads._tiny(desc, 5))


def test_correct_results_pass():
    (record,) = run.execute([_tiny_request()], None, 0, workloads.CheckFailed)
    assert record.outcome == "ok"
    assert run.error_ratio([record]) == 0.0


def test_nudged_probability_is_counted_as_a_failure(monkeypatch):
    original = workloads.urns.exact_pmf_dp

    def nudged(spec, N, mode="auto"):
        pmf = original(spec, N, mode)
        probs = list(pmf.probs)
        probs[0] += Fraction(1, 10**30)
        return workloads.urns.Pmf(pmf.support, tuple(probs))

    monkeypatch.setattr(workloads.urns, "exact_pmf_dp", nudged)
    records = run.execute([_tiny_request(), _tiny_request()], None, 0, workloads.CheckFailed)
    assert [r.outcome for r in records] == ["mismatch", "mismatch"]
    assert run.error_ratio(records) == 1.0


@pytest.mark.parametrize("exit_with", [1, SystemExit(2)])
def test_wrong_exit_code_is_counted_as_a_failure(monkeypatch, exit_with):
    def fake_run(argv):
        if isinstance(exit_with, BaseException):
            raise exit_with
        return exit_with

    monkeypatch.setattr(workloads.cli, "run", fake_run)
    desc = ("py", 1, 1, 1, 2, 3)
    req = workloads.Request("cli.urn-exact", (desc, 4), lambda: workloads._cli_exact(desc, 4))
    records = run.execute([req, _tiny_request()], None, 0, workloads.CheckFailed)
    assert [r.outcome for r in records] == ["error", "ok"]
    assert run.error_ratio(records) == 0.5


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span(0, None, 7, "request.x", 0.0, 10.0),
        Span(1, 0, 7, "moments.a", 1.0, 4.0),
        Span(2, 1, 7, "specialfn.b", 2.0, 3.0),
        Span(3, 0, 7, "moments.a", 5.0, 9.0),
        Span(4, 3, 7, "moments.a", 6.0, 8.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 2.0}
    assert busy_time(spans, "moments.a") == 7.0  # the nested call counts once
    assert busy_time(spans, "moments.a", lambda s: s.start > 4) == 4.0


@pytest.mark.parametrize("n", [20, 21, 39, 40, 99, 100, 101, 199, 200, 234, 999, 1000, 5000])
def test_tail_percentile_has_ten_samples_beyond_it(n):
    values = [float(i) for i in range(n)]
    pct, value, beyond = run.tail_latency(values)
    assert beyond >= run.MIN_BEYOND
    assert sum(v > value for v in values) == beyond
    for higher in (p for p in run.PERCENTILES if p > pct):
        assert n - math.ceil(higher / 100 * n) < run.MIN_BEYOND


def test_tracer_wraps_calls_between_modules_and_restores_them():
    import polyaurn.cli
    import polyaurn.urns

    originals = (polyaurn.urns.exact_pmf_dp, polyaurn.cli.exact_pmf_dp)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.request(1, "request.cli"):
            code, _ = workloads._run_cli(["urn-exact", "--family", "py", "--N", "3", "--pmf"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (polyaurn.urns.exact_pmf_dp, polyaurn.cli.exact_pmf_dp) == originals
    by_name = {s.name: s for s in tracer.spans}
    dp, cli_run = by_name["urns.exact_pmf_dp"], by_name["cli.run"]
    assert dp.parent == cli_run.id and cli_run.parent == by_name["request.cli"].id
    assert {s.request for s in tracer.spans} == {1}
    assert dp.attrs["cells"] == 6 and dp.attrs["mode"] == "exact"


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_speed_factor_is_the_median_reference_time_over_its_quiet_time(monkeypatch):
    import speed
    from speed import SpeedGauge

    gauge = SpeedGauge("exact_laws", every=0.0)
    times = iter([0.0, 1.0, 1.0, 4.0, 4.0, 6.0])  # three samples of 1, 3 and 2 seconds
    monkeypatch.setattr("speed.time.perf_counter", lambda: next(times))
    gauge.kernel = lambda: None
    gauge.quiet_s = 0.5
    for _ in range(3):
        gauge.sample()
    assert gauge.samples == [1.0, 3.0, 2.0]
    assert gauge.wall_spent == 6.0
    assert gauge.factor() == 4.0
    assert gauge.correction() == 4.0 ** speed.GAMMA
