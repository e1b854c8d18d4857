"""Command-line surface: simulate the processes, print exact moments and
limit constants, and run the closed-form verifiers.

Every run echoes its fully resolved configuration in the output: the
settings it read (including the master seed) and, for the urn subcommands,
the model spec its flags resolved to, so a result file is reproducible from
its own header.
Exact quantities print as "num/den"; float mode prints 15 significant
digits.  Exit codes: 0 success, 1 domain or verification failure, 2 usage.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from itertools import product

from . import __version__
from .crp import CrpParams, seating_probabilities, simulate_table_count_batch, tree_equivalents
from .laws import verify_decomposition, verify_multicolor_decomposition
from .martingale import tail_sum_experiment, tail_variance
from .moments import (
    asymptotic_constants,
    g_factor,
    limit_density,
    limit_moments,
    raw_moments,
    tilted_density_moment,
)
from .rng import resolve_master_seed
from .stirling import (
    block_count_law,
    block_count_pmf_from_urn,
    block_count_urn,
    simulate_block_counts,
    stirling_count,
)
from .trees import (
    dary_family,
    gport_family,
    recursive_family,
    simulate_statistic_batch,
    statistic_pmf,
)
from .urns import (
    _SEQUENCES,
    Pmf,
    _check_sizes,
    empirical_pmf,
    exact_pmf_dp,
    multicolor_polya_young,
    polya_young,
    sequence_urn,
    simulate_white_batch,
    spec_to_json,
    triangular,
)

CSV_SCHEMA_VERSION = 3


@contextlib.contextmanager
def _all_digits():
    """Lift the cap on the digits of an int printed in decimal (4,300 from
    Python 3.11 and 3.10.7 on), then restore it for the rest of the process."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_cap = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_cap(0)
    try:
        yield
    finally:
        set_cap(cap)


@_all_digits()
def _fmt(x, mode: str) -> str:
    if isinstance(x, Fraction) and mode != "exact":
        x = float(x)
    return format(x, ".15g") if isinstance(x, float) else str(x)


def _positive_int(text: str) -> int:
    """argparse type of the count flags (--moments, --smax): an integer >= 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _positive_float(text: str) -> float:
    """argparse type of verify --tol: a number > 0, since a check passes when
    its residual, never negative, lies below the tolerance."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _fraction_list(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",") if part.strip()]


def _add_urn_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=["py", "tri", "multi", "seq"], default="py")
    parser.add_argument("--p", type=int, default=1, help="period")
    parser.add_argument("--sigma", default="1")
    parser.add_argument("--ell", default="1")
    parser.add_argument("--ell1", default="0")
    parser.add_argument("--ell2", default="1", help="refresh-step reinforcement (tri)")
    parser.add_argument("--w0", default="1")
    parser.add_argument("--b0", default="1")
    parser.add_argument("--offset", type=int, default=0)
    parser.add_argument("--initial", default="1,1", help="multi: comma counts per color")
    parser.add_argument("--sequence", choices=sorted(_SEQUENCES), default="thue_morse",
                        help="seq: driving sequence name")
    parser.add_argument("--ells", default="1,2", help="seq: reinforcement per sequence value")


# the dests of the model flags, which the echo replaces with `model`
_URN_PARSER = argparse.ArgumentParser(add_help=False)
_add_urn_args(_URN_PARSER)
_URN_KEYS = frozenset(vars(_URN_PARSER.parse_args([])))


def _add_common_args(parser: argparse.ArgumentParser, reads: tuple) -> None:
    """Output options for every subcommand; --seed, --mode and --threads only
    where the subcommand `reads` them."""
    if "seed" in reads:
        parser.add_argument("--seed", type=int, default=None,
                            help="master seed (default: POLYA_SEED or 0)")
    if "mode" in reads:
        parser.add_argument("--mode", choices=["exact", "float"], default="exact")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--output", default=None, help="path (default: stdout)")
    if "threads" in reads:
        parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--config", default=None, help="JSON file of flag values")


def _spec_from_args(args) -> "UrnSpec":
    if args.family == "py":
        return polya_young(args.p, Fraction(args.sigma), Fraction(args.ell),
                           Fraction(args.w0), Fraction(args.b0), args.offset)
    if args.family == "tri":
        return triangular(args.p, Fraction(args.sigma), Fraction(args.ell1),
                          Fraction(args.ell2), Fraction(args.w0), Fraction(args.b0),
                          args.offset)
    if args.family == "multi":
        return multicolor_polya_young(args.p, Fraction(args.sigma), Fraction(args.ell),
                                      _fraction_list(args.initial))
    return sequence_urn(args.sequence, Fraction(args.sigma),
                        _fraction_list(args.ells), Fraction(args.w0), Fraction(args.b0))


def _resolved_config(args) -> dict:
    """The settings the run read.  Once a spec is built, the model flags give
    way to `model`, the spec as `spec_to_json` writes it."""
    skip = {"func", "config", "output"}
    if hasattr(args, "model"):
        skip |= _URN_KEYS
    out = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        if key == "model":
            value = json.loads(spec_to_json(value))
        out[key] = value if isinstance(value, (int, float, str, bool, dict)) else str(value)
    return out


@_all_digits()
def _emit(args, rows=None, header=None, payload=None) -> None:
    """Rows under a header, or a payload dict; CSV by default for rows, JSON
    for a payload.  Both formats carry the version, schema and config."""
    fmt = args.format = args.format or ("json" if rows is None else "csv")
    config = _resolved_config(args)
    if fmt == "json":
        body = payload if rows is None else [dict(zip(header, row)) for row in rows]
        text = json.dumps(
            {"version": __version__, "schema": CSV_SCHEMA_VERSION,
             "config": config, "results": body},
            indent=2, default=str,
        ) + "\n"
    else:
        lines = [
            f"# version={__version__} schema={CSV_SCHEMA_VERSION}",
            f"# config={json.dumps(config, default=str)}",
        ]
        if rows is None:
            header = ["key", "value"]
            rows = sorted(payload.items())
        lines.append(",".join(header))
        lines += [",".join(str(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pmf_rows(pmf: Pmf, mode: str):
    return [(_fmt(v, mode), _fmt(pr, mode)) for v, pr in zip(pmf.support, pmf.probs)]


# ---------------------------------------------------------------------------
# subcommands


def cmd_constants(args) -> int:
    spec = args.model
    c = asymptotic_constants(spec)
    payload = {
        "psi": float(c.psi),
        "lambda": float(c.Lambda),
        "delta": float(c.delta),
        "sigma_unit": float(c.sigma_unit),
        "z": float(c.z),
        "kappa": float(c.kappa),
    }
    _emit(args, payload={k: format(v, ".15g") for k, v in payload.items()})
    return 0


def cmd_urn_exact(args) -> int:
    spec = args.model
    if args.pmf:
        pmf = exact_pmf_dp(spec, args.N, mode=args.mode)
        _emit(args, rows=_pmf_rows(pmf, args.mode), header=["value", "probability"])
        return 0
    moments = raw_moments(spec, args.N, args.moments, mode=args.mode)
    rows = [(s, _fmt(m, args.mode)) for s, m in enumerate(moments, start=1)]
    _emit(args, rows=rows, header=["s", "moment"])
    return 0


def cmd_urn_sim(args) -> int:
    _check_sizes(args.N, args.replicates)  # before the kernel's checkpoint message
    seed = args.seed = resolve_master_seed(args.seed)
    pmf = empirical_pmf(simulate_white_batch(args.model, [args.N], args.replicates, seed)[0])
    _emit(args, rows=_pmf_rows(pmf, args.mode), header=["value", "probability"])
    return 0


def cmd_urn_limit(args) -> int:
    spec = args.model
    rows = []
    mom = limit_moments(spec, args.smax, normalization=args.normalization)
    for s in range(1, args.smax + 1):
        rows.append(("moment", s, format(mom[s - 1], ".15g")))
    if args.density_grid:
        xs = [float(v) for v in args.density_grid.split(",") if v.strip()]
        for x, f in zip(xs, limit_density(spec, xs).tolist()):
            rows.append(("density", format(x, ".15g"), format(f, ".15g")))
    _emit(args, rows=rows, header=["quantity", "arg", "value"])
    return 0


def cmd_tail_sum(args) -> int:
    spec = args.model
    seed = args.seed = resolve_master_seed(args.seed)
    report = tail_sum_experiment(spec, args.N, args.far, args.replicates, seed,
                                 threads=args.threads)
    payload = {
        "N": report.N,
        "N_far": report.N_far,
        "n_reps": report.n_reps,
        "conditional": asdict(report.conditional),
        "plugin": asdict(report.plugin),
        "plugin_expected_attenuation": report.plugin_expected_attenuation,
        "plugin_expected_variance_factor": report.plugin_expected_variance_factor,
        "tail_sd": report.tail_sd,
        "tail_variance_at_N": tail_variance(spec, args.N),
    }
    _emit(args, payload=payload)
    return 0


def _tree_family_from_args(args):
    if args.tree_family == "recursive":
        return recursive_family(Fraction(args.ell))
    if args.tree_family == "dary":
        return dary_family(args.d, Fraction(args.ell))
    return gport_family(Fraction(args.alpha), Fraction(args.ell))


def cmd_tree_sim(args) -> int:
    family = _tree_family_from_args(args)
    seed = args.seed = resolve_master_seed(args.seed)
    stat_name = args.statistic.replace("-", "_")
    statistic = (stat_name,) if stat_name == "table_count" else (stat_name, args.index)
    bar_beta = Fraction(args.bar_beta) if args.bar_beta is not None else None
    # resolve the exact law first: a pair without one exits 1 before simulating
    exact = (statistic_pmf(family, args.p, args.N, statistic, args.tree_mode, bar_beta)
             if args.compare else None)
    values = simulate_statistic_batch(family, args.p, args.N, args.replicates, seed,
                                      statistic, mode=args.tree_mode, bar_beta=bar_beta)
    pmf = empirical_pmf(values)
    rows = _pmf_rows(pmf, args.mode)
    if exact is not None:
        rows.append(("tv_vs_urn", format(float(pmf.tv_distance(exact)), ".15g")))
    _emit(args, rows=rows, header=["value", "probability"])
    return 0


def cmd_stirling(args) -> int:
    if args.what != "simulate":
        args.seed = None  # only the simulation draws; the echo names no seed
    if args.what == "count":
        _emit(args, payload={"count": stirling_count(args.d, args.p, args.t, args.N)})
        return 0
    if args.what == "enumerate-law":
        pmf = block_count_law(args.d, args.p, args.t, args.N)
    elif args.what == "urn-law":
        pmf = block_count_pmf_from_urn(block_count_urn(args.d, args.p, args.t), args.N)
    else:
        seed = args.seed = resolve_master_seed(args.seed)
        counts = simulate_block_counts(args.d, args.p, args.t, args.N,
                                       args.replicates, seed)
        pmf = empirical_pmf(counts)
    _emit(args, rows=_pmf_rows(pmf, args.mode), header=["blocks", "probability"])
    return 0


def cmd_crp(args) -> int:
    params = CrpParams(Fraction(args.a), Fraction(args.theta), args.p,
                       Fraction(args.theta_bar) if args.theta_bar else None)
    if args.tables is not None:
        args.seed = None  # seating probabilities are exact; the echo names no seed
        sizes = [int(s) for s in args.tables.split(",") if s.strip()]
        probs, fresh, bar = seating_probabilities(params, sizes, args.bar_count)
        alpha, ell, beta = tree_equivalents(params)
        payload = {
            "join": [_fmt(q, args.mode) for q in probs],
            "new_table": _fmt(fresh, args.mode),
            "bar": None if bar is None else _fmt(bar, args.mode),
            "tree_alpha": _fmt(alpha, args.mode),
            "tree_ell": _fmt(ell, args.mode),
            "tree_beta": None if beta is None else _fmt(beta, args.mode),
        }
        _emit(args, payload=payload)
        return 0
    seed = args.seed = resolve_master_seed(args.seed)
    counts = simulate_table_count_batch(params, args.N, args.replicates, seed)
    pmf = empirical_pmf(counts)
    _emit(args, rows=_pmf_rows(pmf, args.mode), header=["tables", "probability"])
    return 0


def cmd_verify(args) -> int:
    spec = args.model
    if args.tol is None:
        args.tol = 1e-6 if args.what == "density" else 1e-9
    if args.what == "decomposition" and spec.colors != 2:
        # every order vector of total 1..smax; the refreshed last colour
        # carries order 0
        svecs = [(*head, 0) for head in product(range(args.smax + 1), repeat=spec.colors - 1)
                 if 0 < sum(head) <= args.smax]
        rows = verify_multicolor_decomposition(spec, svecs)
        worst = max(rel for *_, rel in rows)
        payload = {"order_vectors": len(rows), "max_rel_error": worst}
    elif args.what == "decomposition":
        report = verify_decomposition(spec, smax=args.smax)
        worst = report.max_rel_error
        payload = {
            "label": report.label,
            "expected_scale": report.expected_scale,
            "fitted_scale": report.fitted_scale,
            "scale_rel_error": report.scale_rel_error,
            "moment_rel_errors": report.moment_rel_errors,
            "max_rel_error": worst,
        }
    elif args.what == "martingale":
        # E[g_N * W_N] = w0, with g_N from the moment products and the mean of
        # W_N (color 0 on a multicolor spec) from the DP law, a second route
        w0 = float(spec.initial[0])
        worst = max(abs(g_factor(spec, N, "float") * exact_pmf_dp(spec, N, "float").mean() / w0
                        - 1.0) for N in (1, 2, 5, 10, 100, 1000))
        payload = {"max_rel_error": worst}
    else:  # density: integrate the limit density against 1, x, x^2 and compare
        mom = limit_moments(spec, 2, normalization="per_period")
        q0, q1, q2 = tilted_density_moment(spec, (0, 1, 2))
        errs = {"mass": abs(q0 - 1.0), "mean": abs(q1 / mom[0] - 1.0),
                "second": abs(q2 / mom[1] - 1.0)}
        worst = max(errs.values())
        payload = {k: format(v, ".6g") for k, v in errs.items()}
    status = "ok" if worst < args.tol else "fail"
    _emit(args, payload={**payload, "tolerance": args.tol, "status": status})
    return 0 if status == "ok" else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyaurn",
        description="Periodic urn models, growing forests, Stirling-type words, "
                    "and restaurant seating, with exact cross-checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.command_parsers = {}

    def add(name, fn, urn=True, reads=()):
        sp = sub.add_parser(name)
        if urn:
            _add_urn_args(sp)
        _add_common_args(sp, reads)
        sp.set_defaults(func=fn)
        parser.command_parsers[name] = sp
        return sp

    add("constants", cmd_constants)

    sp = add("urn-exact", cmd_urn_exact, reads=("mode",))
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--moments", type=_positive_int, default=2)
    sp.add_argument("--pmf", action="store_true", help="emit the distribution instead")

    sp = add("urn-sim", cmd_urn_sim, reads=("seed", "mode"))
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--replicates", type=int, default=10_000)

    sp = add("urn-limit", cmd_urn_limit)
    sp.add_argument("--smax", type=_positive_int, default=3)
    sp.add_argument("--normalization", choices=["family", "per_period", "per_step"],
                    default="family")
    sp.add_argument("--density-grid", default=None, help="comma list of x values")

    sp = add("tail-sum", cmd_tail_sum, reads=("seed", "threads"))
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--far", type=int, required=True)
    sp.add_argument("--replicates", type=int, default=10_000)

    sp = add("tree-sim", cmd_tree_sim, urn=False, reads=("seed", "mode"))
    sp.add_argument("--tree-family", choices=["recursive", "dary", "gport"],
                    default="recursive")
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--ell", default="1")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--alpha", default="1")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--replicates", type=int, default=10_000)
    sp.add_argument("--statistic",
                    choices=["descendants", "root-descendants", "outdegree", "table-count"],
                    default="descendants")
    sp.add_argument("--index", type=int, default=1,
                    help="node birth step, or root number for root-descendants")
    sp.add_argument("--tree-mode", choices=["standard", "crp"], default="standard")
    sp.add_argument("--bar-beta", default=None)
    sp.add_argument("--compare", action="store_true",
                    help="append the total-variation distance to the exact law "
                         "(standard-mode node statistics, crp-mode table count)")

    sp = add("stirling", cmd_stirling, urn=False, reads=("seed", "mode"))
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--what", choices=["count", "enumerate-law", "urn-law", "simulate"],
                    default="urn-law")
    sp.add_argument("--replicates", type=int, default=10_000)

    sp = add("crp", cmd_crp, urn=False, reads=("seed", "mode"))
    sp.add_argument("--a", default="1/2")
    sp.add_argument("--theta", default="1/2")
    sp.add_argument("--theta-bar", default=None)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--N", type=int, default=50)
    sp.add_argument("--replicates", type=int, default=10_000)
    sp.add_argument("--tables", default=None,
                    help="comma sizes: print exact seating probabilities and stop")
    sp.add_argument("--bar-count", type=int, default=0)

    sp = add("verify", cmd_verify)
    sp.add_argument("--what", choices=["decomposition", "martingale", "density"],
                    required=True)
    sp.add_argument("--smax", type=_positive_int, default=6)
    sp.add_argument("--tol", type=_positive_float, default=None,
                    help="default 1e-9 (decomposition, martingale) or 1e-6 (density)")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every run, built once per process: parsing leaves a
    parser as it found it."""
    return build_parser()


# reads --config first, so that a required flag may come from the file
_CONFIG_PARSER = argparse.ArgumentParser(prog="polyaurn", add_help=False)
_CONFIG_PARSER.add_argument("--config")


def run(argv=None) -> int:
    parser = _shared_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    path = _CONFIG_PARSER.parse_known_args(argv)[0].config
    at = next((i for i, token in enumerate(argv) if token in parser.command_parsers), None)
    if path and at is not None:  # without a subcommand, parsing exits 2
        try:
            with open(path, encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            parser.error(f"cannot read config {path}: {exc.strerror}")
        except ValueError as exc:
            parser.error(f"config {path} is not JSON: {exc}")
        if not isinstance(config, dict):
            parser.error(f"config {path} must hold a JSON object")
        sub = parser.command_parsers[argv[at]]
        flags = {a.dest: a.option_strings[0] for a in sub._actions if a.dest != "help"}
        unknown = sorted(set(config) - set(flags))
        if unknown:
            parser.error(f"unknown config keys: {', '.join(unknown)}")
        # each setting becomes a `--flag=value` token after the subcommand name:
        # argparse checks it as typed, and the command line's flags follow and win
        tokens = []
        for key, value in config.items():
            if isinstance(value, list):
                value = ",".join(map(str, value))
            if value is True:
                tokens.append(flags[key])
            elif value is not False and value is not None:
                tokens.append(f"{flags[key]}={value}")
        argv = argv[:at + 1] + tokens + argv[at + 1:]
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "family"):  # an urn subcommand: resolve its model once
            args.model = _spec_from_args(args)
        return args.func(args)
    except (ValueError, TypeError, ZeroDivisionError, NotImplementedError,
            RuntimeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
