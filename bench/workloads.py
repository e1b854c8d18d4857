"""Seeded request mixes for the benchmark workloads.

A request is one call into polyaurn's public API, or one in-process
`polyaurn.cli.run([...])`, together with the check of its result against an
exact or closed-form route.  `Mix(workload, seed).pass_requests(k)` is a pure
function of (workload, seed, k): the library only ever sees the generated
inputs, and every simulation seed is drawn from the same seeded stream.

The composition of pass k (how many requests of each kind, which fixed
settings they rotate through, and the bands their sizes are stratified over)
depends on k alone, so the cost of a run barely depends on the seed; the seed
picks the concrete specs, sizes within each stratum, points and streams.

The library is called through module attributes (`urns.exact_pmf_dp`, ...)
so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable

import numpy as np
from scipy import integrate, special

import polyaurn.cli as cli
import polyaurn.crp as crp
import polyaurn.laws as laws
import polyaurn.martingale as martingale
import polyaurn.moments as moments
import polyaurn.specialfn as specialfn
import polyaurn.stirling as stirling
import polyaurn.trees as trees
import polyaurn.urns as urns

WORKLOADS = ("exact_laws", "limit_density", "montecarlo")

# Gates of the acceptance suite; no check here is looser.
TV_GATE = 0.01
SE_GATE = 4.0
QUADRATURE_GATE = 1e-6
DECOMPOSITION_GATE = 1e-9
# Relative agreement demanded of two float routes to the same exact value.
FLOAT_GATE = 1e-9


class CheckFailed(AssertionError):
    """A request produced a result that disagrees with its exact route."""


class ExitNonZero(RuntimeError):
    """An in-process CLI call exited with a non-zero code."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Request:
    kind: str
    params: tuple
    run: Callable[[], dict] = field(compare=False, repr=False)


# ---------------------------------------------------------------------------
# specs from hashable descriptors

PRODUCT_FORM = ("py", "tri", "seq")


def build_spec(desc: tuple):
    family, *a = desc
    if family == "py":
        return urns.polya_young(*a)
    if family == "tri":
        return urns.triangular(*a)
    if family == "seq":
        sigma, ell_a, ell_b, w0, b0 = a
        return urns.sequence_urn("thue_morse", sigma, (ell_a, ell_b), w0, b0)
    if family == "blocks":
        return stirling.block_count_urn(*a)
    if family == "tables":
        return crp.table_count_urn(crp.CrpParams(*a, None))
    raise ValueError(f"unknown spec family {family!r}")


STD = ("py", 2, 1, 1, 1, 1)
PY312 = ("py", 3, 1, 2, 1, 1)
TRI = ("tri", 2, 1, 1, 2, 1, 1)


def _rational(rng: random.Random, top: int = 9, den: int = 4) -> F:
    return F(rng.randint(1, top), rng.randint(1, den))


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One value per equal-width stratum of [lo, hi], in a seeded order."""
    vals = [lo + int((hi - lo) * (k + rng.random()) / count) for k in range(count)]
    rng.shuffle(vals)
    return vals


# ---------------------------------------------------------------------------
# exact-route helpers


def _rising(x, s: int):
    out = x * 0 + 1
    for i in range(s):
        out = out * (x + i)
    return out


def _nonzero(pmf) -> dict:
    return {w: q for w, q in zip(pmf.support, pmf.probs) if q != 0}


def exact_mean(spec, N: int) -> F:
    """E[W_N] by the one-step recurrence E[W_i] = E[W_{i-1}](1 + sigma/T_{i-1})
    + immigration_i, in exact arithmetic."""
    mean = F(spec.initial[0])
    for i, total in enumerate(urns.totals_list(spec, N), start=1):
        mean = mean * (1 + spec.sigma / total) + urns.immigration_at(spec, i)
    return mean


def tv_distance(emp: dict, law: dict) -> float:
    keys = set(emp) | set(law)
    return 0.5 * math.fsum(abs(float(emp.get(k, 0)) - float(law.get(k, 0))) for k in keys)


def tv_to_law(values: np.ndarray, law: dict) -> float:
    support, counts = np.unique(values, return_counts=True)
    return tv_distance({int(v): c / len(values) for v, c in zip(support, counts)}, law)


def tv_floor(law: dict, n: int) -> float:
    """Expected TV distance between the exact law and an n-sample empirical
    law drawn from it (normal approximation to E|p_hat - p| per atom)."""
    return 0.5 * math.fsum(
        math.sqrt(2.0 * float(p) * (1.0 - float(p)) / (math.pi * n)) for p in law.values()
    )


def tree_urn_law(family, p: int, N: int, statistic: tuple) -> dict:
    """Exact law of a forest statistic through its urn (as in criterion 9)."""
    kind, arg = statistic
    if kind == "descendants":
        urn, steps = trees.descendants_urn(family, p, arg), N - arg
        conv = lambda w: (w - family.kappa) / family.sigma
    elif kind == "root_descendants":
        urn, steps = trees.root_descendants_urn(family, p, arg), N - arg * p
        conv = lambda w: (w - family.ell) / family.sigma
    else:
        urn, steps = trees.outdegree_urn(family, p, arg), N - arg
        conv = lambda w: w - family.alpha
    pmf = urns.exact_pmf_dp(urn, steps)
    law: dict = {}
    for w, q in zip(pmf.support, pmf.probs):
        key = int(conv(w))
        law[key] = law.get(key, 0) + q
    return law


def product_density(spec, x: float) -> float:
    """Limit density at x from the factorization scale * Beta * GenGamma,
    by one-dimensional quadrature over the Beta factor."""
    dec = laws.decomposition_for(spec)
    check(dec.label == "beta_gengamma" and len(dec.law.children) == 2,
          f"no single Beta x GenGamma factorization for {dec.label}")
    beta, gg = dec.law.children
    a, b = beta.params
    ga, gb = gg.params
    c = dec.scale
    log_norm = math.log(gb) - special.gammaln(ga / gb) - special.betaln(a, b)

    def gen_gamma_part(u):
        if u == 0.0:
            return 0.0  # the GenGamma tail at y = infinity
        y = x / (c * u)
        return math.exp(log_norm + (ga - 1) * math.log(y) - y**gb) / (c * u)

    # QAWS quadrature takes the Beta factor u^(a-1) (1-u)^(b-1) as its weight,
    # so endpoint singularities of the Beta density are integrated exactly
    with warnings.catch_warnings():
        # a round-off warning only says 1e-11 was not certified; the check
        # compares the value itself
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(gen_gamma_part, 0.0, 1.0, weight="alg", wvar=(a - 1, b - 1),
                                epsabs=0.0, epsrel=1e-11, limit=200)
    return val


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """In-process CLI call; argparse exits and non-zero codes both count as
    a failed request."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _cli_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _cli_ok(code: int, text: str, what: str) -> dict:
    if code != 0:
        raise ExitNonZero(f"{what}: exit code {code}")
    return {"cli.output_bytes": len(text.encode())}


# ---------------------------------------------------------------------------
# exact_laws: fresh specs, no reuse between requests

EXACT_FAMILIES = ("py_grid", "py_rational", "tri_grid", "tri_rational", "seq", "blocks",
                  "tables")
CRITERION1_GRID = [(p, s, e) for p in (1, 2, 3) for s, e in ((1, 1), (1, F(1, 2)), (2, 1))]


def _draw_exact_spec(rng: random.Random, family: str) -> tuple:
    if family == "py_grid":
        p, sigma, ell = rng.choice(CRITERION1_GRID)
        return ("py", p, sigma, ell, rng.randint(1, 12), rng.randint(1, 12))
    if family == "py_rational":
        return ("py", rng.randint(1, 4), _rational(rng), _rational(rng), _rational(rng),
                _rational(rng))
    if family == "tri_grid":
        return ("tri", rng.randint(1, 3), rng.randint(1, 2), rng.randint(0, 2),
                rng.randint(1, 3), rng.randint(1, 12), rng.randint(1, 12))
    if family == "tri_rational":
        return ("tri", rng.randint(1, 4), _rational(rng), _rational(rng), _rational(rng),
                _rational(rng), _rational(rng))
    if family == "seq":
        return ("seq", _rational(rng), _rational(rng), _rational(rng), _rational(rng),
                _rational(rng))
    if family == "blocks":
        return ("blocks", rng.randint(1, 40), rng.randint(1, 6), rng.randint(1, 6))
    den = rng.randint(2, 12)
    return ("tables", F(rng.randint(1, den - 1), den), _rational(rng), rng.randint(1, 4))


def _tiny(desc: tuple, N: int) -> dict:
    spec = build_spec(desc)
    dp = urns.exact_pmf_dp(spec, N, "exact")
    en = urns.marginal_pmf(urns.enumerate_histories(spec, N), 0)
    check(_nonzero(dp) == _nonzero(en), f"DP != enumeration for {desc} at N={N}")
    if desc[0] in PRODUCT_FORM:
        mv = moments.pmf_via_moments(spec, N)
        check(_nonzero(mv) == _nonzero(en), f"moment inversion != enumeration for {desc}")
        for s in (1, 2, 3):
            direct = moments.rising_factorial_moment(spec, N, s, "exact")
            from_law = sum(q * _rising(w / spec.sigma, s) for w, q in _nonzero(en).items())
            check(direct == from_law, f"rising moment s={s} mismatch for {desc}")
    return {}


def _medium(desc: tuple, N: int) -> dict:
    spec = build_spec(desc)
    dp = urns.exact_pmf_dp(spec, N, "exact")
    mean = dp.mean()
    if desc[0] in PRODUCT_FORM:
        check(moments.g_factor(spec, N, "exact") * mean == spec.initial[0],
              f"g_N E[W_N] != w0 for {desc} at N={N}")
        if N <= 60:
            check(_nonzero(moments.pmf_via_moments(spec, N)) == _nonzero(dp),
                  f"moment inversion != DP for {desc} at N={N}")
    else:
        check(mean == exact_mean(spec, N), f"DP mean != recurrence for {desc} at N={N}")
    return {}


def _large(desc: tuple, N: int) -> dict:
    spec = build_spec(desc)
    mean = urns.exact_pmf_dp(spec, N, "float").mean()
    if desc[0] in PRODUCT_FORM:
        exact = spec.sigma * moments.rising_factorial_moment(spec, N, 1, "exact")
    else:
        exact = exact_mean(spec, N)
    check(abs(mean / float(exact) - 1.0) < FLOAT_GATE,
          f"float DP mean off the exact mean for {desc} at N={N}")
    return {}


def _ratio(desc: tuple, N: int) -> dict:
    spec = build_spec(desc)
    for s in (1, 2):
        exact = moments.product_ratio(spec, N, s, "exact")
        via_logs = math.exp(moments.log_product_ratio(spec, N, s))
        check(abs(float(exact) / via_logs - 1.0) < FLOAT_GATE,
              f"exact P_{s}({N}) disagrees with the log-space route for {desc}")
    return {}


def _cli_family_args(desc: tuple) -> list[str]:
    family, *a = desc
    if family == "py":
        names = ("--p", "--sigma", "--ell", "--w0", "--b0")
    elif family == "tri":
        names = ("--p", "--sigma", "--ell1", "--ell2", "--w0", "--b0")
    else:  # seq, with the CLI's default --sequence
        sigma, ell_a, ell_b, w0, b0 = a
        return ["--family", "seq", "--sigma", str(sigma), "--ells", f"{ell_a},{ell_b}",
                "--w0", str(w0), "--b0", str(b0)]
    out = ["--family", family]
    for name, value in zip(names, a):
        out += [name, str(value)]
    return out


def _cli_exact(desc: tuple, N: int) -> dict:
    argv = ["urn-exact", *_cli_family_args(desc), "--N", str(N), "--pmf", "--mode", "exact"]
    code, text = _run_cli(argv)
    quality = _cli_ok(code, text, " ".join(argv))
    printed = {F(v): F(q) for v, q in _cli_rows(text)}
    expected = _nonzero(urns.exact_pmf_dp(build_spec(desc), N, "exact"))
    check(printed == expected, f"CLI pmf != exact DP for {desc} at N={N}")
    return quality


def _fresh(seen: set, draw: Callable[[], tuple]) -> tuple:
    """A spec descriptor not drawn before in this run."""
    for _ in range(1000):
        desc = draw()
        if desc not in seen:
            seen.add(desc)
            return desc
    raise RuntimeError("the spec space of this workload is exhausted")


def _exact_laws_pass(rng: random.Random, seen: set, index: int) -> list[Request]:
    def fresh(families: tuple, k: int) -> tuple:
        family = families[(index + k) % len(families)]
        return _fresh(seen, lambda: _draw_exact_spec(rng, family))

    reqs = []
    # N of 9 and 10 only: enumeration cost doubles with N, and the run's median
    # request should sit inside one cluster of similar requests, not between two
    for k, N in enumerate(_stratified(rng, 9, 11, 16)):
        d = fresh(EXACT_FAMILIES, k)
        reqs.append(Request("tiny", (d, N), lambda d=d, N=N: _tiny(d, N)))
    for k, N in enumerate(_stratified(rng, 40, 201, 6)):
        d = fresh(EXACT_FAMILIES, k)
        reqs.append(Request("medium", (d, N), lambda d=d, N=N: _medium(d, N)))
    for k, N in enumerate(_stratified(rng, 500, 2001, 3)):
        d = fresh(EXACT_FAMILIES, 2 * k)
        reqs.append(Request("large", (d, N), lambda d=d, N=N: _large(d, N)))
    d, N = fresh(EXACT_FAMILIES[:5], 0), rng.randint(2000, 10_000)
    reqs.append(Request("product_ratio", (d, N), lambda d=d, N=N: _ratio(d, N)))
    # one request per pass with --family seq and the CLI's default --sequence
    for family in (("py_rational", "tri_rational")[index % 2], "seq"):
        d, N = fresh((family,), 0), rng.randint(3, 10)
        reqs.append(Request("cli.urn-exact", (d, N), lambda d=d, N=N: _cli_exact(d, N)))
    return reqs


# ---------------------------------------------------------------------------
# limit_density: shared specs next to one-off points on fresh specs

QUAD_POINTS = 20
# Grid specs whose density needs at most a few thousand series terms up to
# its cutoff (Lambda <= 2/3) and is bounded at 0 (w0/sigma >= 1).
DENSITY_GRID = (("py", 1, 1, 1, 1, 1), ("py", 1, 1, F(1, 2), 1, 1))
# w0/sigma < 1 makes the density unbounded at 0; the Gauss-Legendre helper
# then misses the mass by far more than the gate.  Reported, not gated.
SINGULAR = ("py", 1, 2, 1, 1, 1)


def _moment_residual(spec, s: int, value: float) -> float:
    if s == 0:
        return abs(value - 1.0)
    return abs(value / moments.limit_moments(spec, s, "per_period")[s - 1] - 1.0)


def _tilted(desc: tuple, s: int) -> dict:
    spec = build_spec(desc)
    value = moments.tilted_density_moment(spec, s, points=QUAD_POINTS)
    r = _moment_residual(spec, s, value)
    check(r < QUADRATURE_GATE, f"quadrature residual {r:.2e} for s={s} on {desc}")
    return {"moments.quadrature_residual": r}


def _density_grid(desc: tuple) -> dict:
    spec = build_spec(desc)
    upper = moments.density_cutoff(spec)
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_POINTS)
    xs = 0.5 * upper * (nodes + 1.0)
    fs = moments.limit_density(spec, xs)
    check(bool(np.all(fs >= 0)), f"negative density on {desc}")
    worst = max(_moment_residual(spec, s, float(np.sum(0.5 * upper * weights * fs * xs**s)))
                for s in (0, 1, 2))
    check(worst < QUADRATURE_GATE, f"grid quadrature residual {worst:.2e} on {desc}")
    return {"moments.quadrature_residual": worst}


def _decomposition(desc: tuple) -> dict:
    report = laws.verify_decomposition(build_spec(desc), smax=6)
    check(report.max_rel_error < DECOMPOSITION_GATE,
          f"decomposition error {report.max_rel_error:.2e} on {desc}")
    return {"laws.max_rel_error": report.max_rel_error}


def _singular(desc: tuple) -> dict:
    spec = build_spec(desc)
    value = moments.tilted_density_moment(spec, 0, points=QUAD_POINTS)
    return {"moments.quadrature_residual.singular": abs(value - 1.0)}


def _one_off(desc: tuple, x: float) -> dict:
    spec = build_spec(desc)
    value = moments.limit_density(spec, x)
    ref = product_density(spec, x)
    check(abs(value / ref - 1.0) < FLOAT_GATE,
          f"density {value!r} at x={x} vs factorization {ref!r} on {desc}")
    return {}


def _cli_limit(desc: tuple, xs: tuple) -> dict:
    argv = ["urn-limit", *_cli_family_args(desc), "--normalization", "per_period",
            "--density-grid", ",".join(repr(x) for x in xs)]
    code, text = _run_cli(argv)
    quality = _cli_ok(code, text, " ".join(argv))
    spec = build_spec(desc)
    rows = _cli_rows(text)
    mus = moments.limit_moments(spec, 3, "per_period")
    got = [float(v) for kind, _, v in rows if kind == "moment"]
    check(len(got) == 3 and all(abs(g / m - 1.0) < FLOAT_GATE for g, m in zip(got, mus)),
          f"CLI limit moments {got} vs {mus} on {desc}")
    dens = [(float(x), float(v)) for kind, x, v in rows if kind == "density"]
    check(len(dens) == len(xs), "CLI printed the wrong number of density rows")
    for x, v in dens:
        ref = product_density(spec, x)
        check(abs(v / ref - 1.0) < FLOAT_GATE, f"CLI density at x={x} on {desc}")
    return quality


def _fresh_factorable(rng: random.Random, k: int) -> tuple:
    """A py spec with ell = sigma (a single Beta x GenGamma factor) and period
    1 or 2 (Lambda <= 2/3)."""
    sigma = _rational(rng, 5, 2)
    return ("py", 1 + k % 2, sigma, sigma, _rational(rng, 4, 3), _rational(rng, 6, 3))


# The shared specs split into two groups of about equal cost; passes
# alternate between them, so every two passes cover all of them.
SHARED_GROUPS = ((STD, TRI, DENSITY_GRID[0]), (PY312, DENSITY_GRID[1]))


def _limit_density_pass(rng: random.Random, seen: set, index: int) -> list[Request]:
    def fresh(k: int) -> tuple:
        return _fresh(seen, lambda: _fresh_factorable(rng, k))

    reqs = []
    for d in SHARED_GROUPS[index % 2]:
        for s in (0, 1, 2):
            reqs.append(Request("tilted", (d, s), lambda d=d, s=s: _tilted(d, s)))
        reqs.append(Request("density_grid", (d,), lambda d=d: _density_grid(d)))
        reqs.append(Request("decomposition", (d,), lambda d=d: _decomposition(d)))
    if index % 2 == 1:
        reqs.append(Request("singular", (SINGULAR,), lambda: _singular(SINGULAR)))
    bands = ((0.05, 2.0, 40), (2.0, 6.0, 5), (6.0, 8.0, 3))
    for lo, hi, count in bands:
        for k in range(count):
            x = lo + (hi - lo) * (k + rng.random()) / count
            d = fresh(k)
            reqs.append(Request("one_off", (d, x), lambda d=d, x=x: _one_off(d, x)))
    d = fresh(index)
    xs = tuple(lo + (hi - lo) * rng.random() for lo, hi, _ in bands)
    reqs.append(Request("cli.urn-limit", (d, xs), lambda d=d, xs=xs: _cli_limit(d, xs)))
    return reqs


# ---------------------------------------------------------------------------
# montecarlo: long-horizon tail sums next to many-replicate companions

TREE_N, TREE_REPS = 10, 100_000
TREE_SETTINGS = (
    ("recursive", 1, 2, ("descendants", 1)),
    ("recursive", 2, 3, ("descendants", 2)),
    ("dary", (3, 2), 2, ("descendants", 1)),
    ("recursive", 1, 2, ("root_descendants", 1)),
    ("recursive", 2, 3, ("root_descendants", 1)),
    ("dary", (3, 2), 2, ("root_descendants", 2)),
    ("gport", (1, 1), 2, ("outdegree", 1)),
    ("gport", (F(1, 2), 2), 2, ("outdegree", 3)),
    ("gport", (2, 1), 3, ("outdegree", 1)),
)
TAIL_N, TAIL_REPS, TAIL_BLOCK = 1_000, 16_384, 8_192
CRP_PARAMS = ((F(1, 2), F(1, 2), 2), (F(1, 3), 1, 2), (F(1, 4), F(3, 2), 1), (F(2, 3), 2, 3))
CRP_N, CRP_REPS = 20, 200_000
BLOCK_PARAMS = (2, 2, 1)  # the criterion-10 word model
BLOCK_N, BLOCK_REPS = 8, 100_000
MULTI_REPS = 20_000


def _family(name: str, arg):
    if name == "recursive":
        return trees.recursive_family(arg)
    if name == "dary":
        return trees.dary_family(*arg)
    return trees.gport_family(*arg)


def _tail_pair(N_far: int, seed: int) -> dict:
    spec = build_spec(STD)
    reports = [martingale.tail_sum_experiment(spec, TAIL_N, N_far, TAIL_REPS, seed,
                                              threads=t, block_size=TAIL_BLOCK)
               for t in (1, 2)]
    check(reports[0] == reports[1], "threads=1 and threads=2 reports differ")
    c = reports[0].conditional
    n = TAIL_REPS
    mean_gap = abs(c.mean) / math.sqrt(c.variance / n)
    var_gap = abs(c.variance - 1.0) / math.sqrt((c.excess_kurtosis + 2.0) * c.variance**2 / n)
    check(mean_gap < SE_GATE and var_gap < SE_GATE,
          f"conditional z: mean {mean_gap:.2f} s.e., variance {var_gap:.2f} s.e.")
    return {"martingale.z_mean_se": mean_gap, "martingale.z_var_se": var_gap,
            "martingale.skewness": c.skewness, "martingale.excess_kurtosis": c.excess_kurtosis}


def _multicolor(desc: tuple, N: int, seed: int) -> dict:
    p, ell, initial = desc
    spec = urns.multicolor_polya_young(p, 1, ell, initial)
    counts = urns.simulate_counts_batch(spec, N, MULTI_REPS, seed)
    m = [moments.limit_mixed_moment(spec, (1, 0, 0)), moments.limit_mixed_moment(spec, (0, 1, 0))]
    plain = counts[:, 0] + counts[:, 1]
    for i in (0, 1):
        ratio = counts[:, i] / plain
        se = ratio.std(ddof=1) / math.sqrt(len(ratio))
        gap = abs(ratio.mean() - m[i] / sum(m)) / se
        check(gap < SE_GATE, f"Dirichlet mean of colour {i}: {gap:.2f} s.e. on {desc}")
    return {}


def _tv_check(layer: str, values, law: dict, what: str) -> dict:
    tv, floor = tv_to_law(values, law), tv_floor(law, len(values))
    check(tv < TV_GATE, f"{what}: TV {tv:.4f} (noise floor {floor:.4f})")
    return {f"{layer}.tv": tv, f"{layer}.tv_floor": floor}


def _tree(setting: tuple, seed: int) -> dict:
    name, arg, p, statistic = setting
    family = _family(name, arg)
    vals = trees.simulate_statistic_batch(family, p, TREE_N, TREE_REPS, seed, statistic)
    return _tv_check("trees", vals, tree_urn_law(family, p, TREE_N, statistic), str(setting))


def _crp_tree(params: tuple, seed: int) -> dict:
    cp = crp.CrpParams(*params, None)
    alpha, ell, _ = crp.tree_equivalents(cp)
    vals = trees.simulate_statistic_batch(trees.gport_family(alpha, ell), cp.period, CRP_N,
                                          CRP_REPS, seed, ("table_count",), mode="crp")
    return _tv_check("trees", vals, crp.table_count_pmf(cp, CRP_N).as_dict(),
                     f"crp-mode forest {params}")


def _blocks(seed: int) -> dict:
    vals = stirling.simulate_block_counts(*BLOCK_PARAMS, BLOCK_N, BLOCK_REPS, seed)
    law = stirling.block_count_pmf_from_urn(stirling.block_count_urn(*BLOCK_PARAMS), BLOCK_N)
    return _tv_check("stirling", vals, law.as_dict(), f"block counts {BLOCK_PARAMS}")


def _tables(params: tuple, seed: int) -> dict:
    cp = crp.CrpParams(*params, None)
    vals = crp.simulate_table_count_batch(cp, CRP_N, CRP_REPS, seed)
    return _tv_check("crp", vals, crp.table_count_pmf(cp, CRP_N).as_dict(),
                     f"table counts {params}")


def _cli_tree(setting: tuple, seed: int) -> dict:
    name, arg, p, (stat, index) = setting
    argv = ["tree-sim", "--tree-family", name, "--p", str(p), "--N", str(TREE_N),
            "--replicates", str(TREE_REPS), "--statistic", stat.replace("_", "-"),
            "--index", str(index), "--seed", str(seed), "--compare"]
    if name == "recursive":
        argv += ["--ell", str(arg)]
    elif name == "dary":
        argv += ["--d", str(arg[0]), "--ell", str(arg[1])]
    else:
        argv += ["--alpha", str(arg[0]), "--ell", str(arg[1])]
    code, text = _run_cli(argv)
    quality = _cli_ok(code, text, " ".join(argv))
    rows = _cli_rows(text)
    check(rows[-1][0] == "tv_vs_urn", "tree-sim --compare printed no tv_vs_urn row")
    printed_tv = float(rows[-1][1])
    law = tree_urn_law(_family(name, arg), p, TREE_N, (stat, index))
    tv = tv_distance({int(v): F(q) for v, q in rows[:-1]}, law)
    check(tv < TV_GATE and printed_tv < TV_GATE,
          f"tree-sim {setting}: TV {tv:.4f}, printed {printed_tv:.4f}")
    return {**quality, "trees.tv": tv, "trees.tv_floor": tv_floor(law, TREE_REPS)}


def _montecarlo_pass(rng: random.Random, index: int) -> list[Request]:
    def seed() -> int:
        return rng.getrandbits(32)

    reqs = []
    N_far, s = rng.randint(8_000, 10_000), seed()
    reqs.append(Request("tail_sum", (N_far, s), lambda n=N_far, s=s: _tail_pair(n, s)))
    for N in _stratified(rng, 80, 161, 2):
        d = (rng.randint(1, 3), rng.randint(1, 2), tuple(rng.randint(1, 4) for _ in range(3)))
        s = seed()
        reqs.append(Request("multicolor", (d, N, s), lambda d=d, N=N, s=s: _multicolor(d, N, s)))
    # three of the nine criterion-9 settings, all nine every three passes
    for j in range(3):
        setting, s = TREE_SETTINGS[(3 * index + j) % len(TREE_SETTINGS)], seed()
        reqs.append(Request("tree", (setting, s), lambda t=setting, s=s: _tree(t, s)))
    params, s = CRP_PARAMS[index % len(CRP_PARAMS)], seed()
    reqs.append(Request("crp_tree", (params, s), lambda c=params, s=s: _crp_tree(c, s)))
    s = seed()
    reqs.append(Request("blocks", (s,), lambda s=s: _blocks(s)))
    for j in range(20):
        params, s = CRP_PARAMS[j % len(CRP_PARAMS)], seed()
        reqs.append(Request("tables", (params, s), lambda c=params, s=s: _tables(c, s)))
    setting, s = TREE_SETTINGS[(3 * index + 1) % len(TREE_SETTINGS)], seed()
    reqs.append(Request("cli.tree-sim", (setting, s), lambda t=setting, s=s: _cli_tree(t, s)))
    return reqs


# ---------------------------------------------------------------------------


class Mix:
    """The seeded request stream of one workload: pass after pass."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
        self.workload = workload
        self.seed = seed
        self._passes: list[list[Request]] = []
        self._seen: set = set()

    def pass_requests(self, k: int) -> list[Request]:
        while len(self._passes) <= k:
            index = len(self._passes)
            rng = random.Random(f"{self.workload}:{self.seed}:{index}")
            if self.workload == "exact_laws":
                reqs = _exact_laws_pass(rng, self._seen, index)
            elif self.workload == "limit_density":
                reqs = _limit_density_pass(rng, self._seen, index)
            else:
                reqs = _montecarlo_pass(rng, index)
            rng.shuffle(reqs)
            self._passes.append(reqs)
        return self._passes[k]


def warm_up() -> None:
    """One small call into each module, including mpmath's lazy import
    inside limit_density and the CLI's parser."""
    spec = build_spec(STD)
    urns.exact_pmf_dp(spec, 4)
    moments.product_ratio(spec, 8, 1)
    moments.limit_density(spec, 1.0)
    laws.verify_decomposition(spec, smax=2)
    specialfn.log_gamma(1.5)
    martingale.tail_sum_experiment(spec, 4, 16, 64, 0, threads=1, block_size=32)
    trees.simulate_statistic_batch(trees.recursive_family(1), 2, 4, 16, 0, ("descendants", 1))
    stirling.simulate_block_counts(2, 2, 1, 4, 16, 0)
    crp.simulate_table_count_batch(crp.CrpParams(F(1, 2), F(1, 2), 2, None), 4, 16, 0)
    _run_cli(["constants", "--family", "py", "--p", "2"])
