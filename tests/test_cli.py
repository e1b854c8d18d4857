"""End-to-end checks of the command-line surface."""

import contextlib
import io
import json
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import polyaurn
import polyaurn.cli as cli
from kernel_reference import tv_floor
from polyaurn.cli import run
from polyaurn.moments import limit_density
from polyaurn.trees import gport_family, statistic_pmf
from polyaurn.urns import (
    exact_pmf_dp,
    multicolor_polya_young,
    polya_young,
    sequence_urn,
    spec_to_json,
    triangular,
)


def run_to_file(tmp_path, argv, name="out.txt"):
    path = tmp_path / name
    code = run(argv + ["--output", str(path)])
    return code, path.read_text()


def run_captured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return code, out.getvalue()


def read_json(text):
    doc = json.loads(text)
    assert set(doc) >= {"version", "schema", "config", "results"}
    return doc


def test_constants_json(tmp_path):
    code, text = run_to_file(
        tmp_path, ["constants", "--family", "py", "--p", "2", "--format", "json"]
    )
    assert code == 0
    doc = read_json(text)
    res = doc["results"]
    assert float(res["psi"]) == 3.0
    assert float(res["lambda"]) == pytest.approx(2 / 3, rel=1e-12)
    assert float(res["kappa"]) == pytest.approx(1.0468191689798676, rel=1e-12)
    assert doc["config"]["model"]["period"] == 2


def test_urn_exact_moments_exact_strings(tmp_path):
    code, text = run_to_file(tmp_path, ["urn-exact", "--family", "py", "--p", "2", "--N", "2"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1].startswith("# config=")
    assert lines[2] == "s,moment"
    assert lines[3] == "1,2"
    assert lines[4] == "2,14/3"


def test_urn_exact_pmf_fractions(tmp_path):
    code, text = run_to_file(
        tmp_path, ["urn-exact", "--family", "py", "--p", "2", "--N", "3", "--pmf"]
    )
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[3:]]
    probs = [Fraction(row[1]) for row in rows]
    assert sum(probs) == 1
    assert all(q > 0 for q in probs)


def test_urn_exact_sequence_family_defaults(tmp_path):
    code, text = run_to_file(
        tmp_path, ["urn-exact", "--family", "seq", "--N", "3", "--pmf", "--mode", "exact"]
    )
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[3:]]
    law = exact_pmf_dp(sequence_urn("thue_morse", 1, (1, 2), 1, 1), 3)
    assert {Fraction(w): Fraction(q) for w, q in rows} == law.as_dict()


def test_config_echo_includes_resolved_seed(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["urn-sim", "--family", "py", "--p", "2", "--N", "4", "--replicates", "60"],
    )
    assert code == 0
    config = json.loads(text.splitlines()[1].split("=", 1)[1])
    assert config["seed"] == 0
    assert config["N"] == 4 and config["replicates"] == 60


def test_env_seed_and_determinism(tmp_path, monkeypatch):
    argv = ["urn-sim", "--family", "py", "--p", "2", "--N", "6", "--replicates", "80"]
    monkeypatch.setenv("POLYA_SEED", "77")
    _, first = run_to_file(tmp_path, argv, "a.txt")
    _, second = run_to_file(tmp_path, argv, "b.txt")
    assert first == second
    config = json.loads(first.splitlines()[1].split("=", 1)[1])
    assert config["seed"] == 77
    monkeypatch.delenv("POLYA_SEED")
    _, explicit = run_to_file(tmp_path, argv + ["--seed", "77"], "c.txt")
    assert explicit == first


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"moments": 3, "p": 2}))
    code, text = run_to_file(
        tmp_path, ["urn-exact", "--family", "py", "--N", "2", "--config", str(cfg)]
    )
    assert code == 0
    rows = text.strip().splitlines()
    assert rows[-1].startswith("3,")
    assert json.loads(rows[1].split("=", 1)[1])["model"]["period"] == 2


def test_config_does_not_override_explicit_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2, "moments": 3}))
    code, text = run_to_file(
        tmp_path,
        ["urn-exact", "--family", "py", "--N", "2", "--p", "3", "--config", str(cfg)],
    )
    assert code == 0
    assert json.loads(text.splitlines()[1].split("=", 1)[1])["model"]["period"] == 3


def test_a_config_run_leaves_later_plain_runs_as_they_were(capsys, tmp_path):
    # every run parses with one shared parser; a config run only adds the
    # file's settings to its own argv
    cli._shared_parser.cache_clear()
    plain = ["urn-exact", "--family", "py", "--N", "3"]
    assert run(plain) == 0
    alone = capsys.readouterr().out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"moments": 3, "p": 2, "format": "json"}))
    assert run(plain + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out != alone
    assert run(plain) == 0
    assert capsys.readouterr().out == alone


def test_plain_runs_build_the_parser_once(capsys, monkeypatch, tmp_path):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._shared_parser.cache_clear()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 2, "p": 2}))
    for argv in (["urn-exact", "--N", "2"], ["constants", "--p", "2"],
                 ["urn-exact", "--config", str(cfg)], ["urn-exact", "--N", "3"]):
        assert run(argv) == 0
    assert len(built) == 1
    capsys.readouterr()


def test_config_rejects_unknown_keys(capsys, tmp_path):
    # `help` is the dest of -h, not a setting
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1, "help": True}))
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--family", "py", "--N", "2", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unknown config keys: help, no_such_option" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "must hold a JSON object"),
    ("3", "must hold a JSON object"),
    ("{bad", "is not JSON"),
    (None, "cannot read config"),
], ids=["list", "number", "malformed", "missing"])
def test_config_that_is_no_json_object_exits_2(capsys, tmp_path, text, message):
    # each once ended in a traceback
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--family", "py", "--N", "2", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(cfg) in err and message in err


@pytest.mark.parametrize("fields,message", [
    ({"family": "bogus"}, "argument --family: invalid choice: 'bogus' "
                          "(choose from 'py', 'tri', 'multi', 'seq')"),
    ({"format": "xml"}, "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    ({"sigma": True}, "argument --sigma: expected one argument"),
    ({"pmf": "no"}, "argument --pmf: ignored explicit argument 'no'"),
], ids=["family", "format", "sigma_true", "pmf_no"])
def test_config_value_outside_its_choices_exits_2(capsys, tmp_path, fields, message):
    # these once exited 0: they ran the Thue-Morse urn, printed CSV, ran
    # sigma = 1 and printed the pmf
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--N", "2", "--config", str(cfg)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,config,flags", [
    (["urn-exact", "--family", "multi", "--N", "3"], {"initial": [2, 1, 1]},
     ["--initial", "2,1,1"]),
    (["urn-exact", "--family", "seq", "--N", "4"], {"ells": [1, 3]}, ["--ells", "1,3"]),
    (["urn-limit", "--p", "2", "--smax", "1"], {"density_grid": [0.5, 1]},
     ["--density-grid", "0.5,1"]),
    (["crp"], {"tables": [3, 2]}, ["--tables", "3,2"]),
    (["urn-exact"], {"N": 3}, ["--N", "3"]),
    (["tail-sum", "--replicates", "40"], {"N": 4, "far": 16}, ["--N", "4", "--far", "16"]),
    (["verify"], {"what": "martingale"}, ["--what", "martingale"]),
    (["urn-exact", "--N", "2"], {"sigma": 0.1}, ["--sigma", "0.1"]),
    (["verify", "--what", "martingale"], {"tol": 1e-3}, ["--tol=0.001"]),
], ids=["initial", "ells", "density_grid", "tables", "N", "N_far", "what", "sigma_decimal",
        "tol"])
def test_config_run_prints_what_its_flags_print(tmp_path, argv, config, flags):
    # arrays once ended in an AttributeError, a required flag from the file
    # exited 2, and "sigma": 0.1 ran the double nearest 1/10
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out = run_captured(argv + ["--config", str(cfg)])
    assert code == 0 and out
    assert (code, out) == run_captured(argv + flags)


def test_unwritable_output_exits_1(capsys, tmp_path):
    path = tmp_path / "no_such_dir" / "x.csv"
    assert run(["urn-exact", "--family", "py", "--N", "2", "--output", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and str(path) in captured.err


def test_urn_limit_moments_and_density(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["urn-limit", "--family", "py", "--p", "2", "--smax", "2",
         "--density-grid", "0.5"],
    )
    assert code == 0
    rows = [line.split(",") for line in text.strip().splitlines()[3:]]
    assert [r[0] for r in rows] == ["moment", "moment", "density"]
    assert float(rows[0][2]) == pytest.approx(1.5164042644682665, rel=1e-10)
    assert float(rows[1][2]) == pytest.approx(3.3595395651665476, rel=1e-10)
    assert float(rows[2][2]) == pytest.approx(0.37155800989482735, rel=1e-8)


def test_usage_errors_exit_2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--family", "py"])  # missing required --N
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--N", "2", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--family", "seq", "--sequence", "thue-morse", "--N", "2"])
    assert exc.value.code == 2
    # the count flags take positive integers: verify died on an IndexError
    # for --smax 0, and the other two printed an empty table, also when the
    # value came from a config file
    cfg = tmp_path / "cfg.json"
    for argv, flag, value in ((["verify", "--what", "decomposition"], "--smax", 0),
                              (["urn-limit", "--p", "2"], "--smax", -2),
                              (["urn-exact", "--N", "2"], "--moments", -1),
                              (["urn-exact", "--N", "2"], "--moments", "two")):
        cfg.write_text(json.dumps({flag[2:]: value}))
        for extra in ([flag, str(value)], ["--config", str(cfg)]):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                run(argv + extra)
            assert exc.value.code == 2, argv + extra
            assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_verify_tolerance_that_no_residual_passes_exits_2(capsys, tmp_path, tol):
    # these once ran the whole check, printed "status": "fail" and exited 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": tol}))
    for extra in (["--tol", tol], ["--config", str(cfg)]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--what", "martingale", *extra])
        assert exc.value.code == 2, extra
        assert f"argument --tol: must be a positive number, got {tol!r}" in capsys.readouterr().err


def test_domain_errors_exit_1(capsys):
    code = run(["constants", "--family", "py", "--p", "2", "--offset", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # both urn-exact routes name the bad N
    for flags in ([], ["--pmf"]):
        assert run(["urn-exact", "--N", "-1"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: N must be >= 0" in captured.err, flags


@pytest.mark.parametrize("flags,message", [
    (["--N", "-3"], "N must be >= 0"),
    (["--replicates", "0"], "n_reps must be >= 1"),
    (["--replicates", "-1"], "n_reps must be >= 1"),
])
def test_crp_bad_sizes_exit_1(capsys, flags, message):
    assert run(["crp", "--N", "5", "--replicates", "10"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err


@pytest.mark.parametrize("flags,message", [
    (["--N", "-3"], "N must be >= 0"),
    (["--replicates", "0"], "n_reps must be >= 1"),
    (["--replicates", "-1"], "n_reps must be >= 1"),
])
def test_tree_sim_bad_sizes_exit_1(capsys, flags, message):
    # the same sizes as crp's; the forest kernel printed a sample for the first two
    assert run(["tree-sim", "--tree-family", "gport", "--tree-mode", "crp", "--statistic",
                "table-count", "--N", "5", "--replicates", "10"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err


@pytest.mark.parametrize("replicates", ["0", "-2"])
@pytest.mark.parametrize("argv", [
    ["urn-sim", "--N", "5"],
    ["urn-sim", "--family", "multi", "--initial", "1,1,1", "--N", "5"],
    ["stirling", "--what", "simulate", "--N", "5"],
    ["tail-sum", "--N", "5", "--far", "10"],
], ids=["urn-sim", "urn-sim-multi", "stirling", "tail-sum"])
def test_batch_kernels_bad_replicates_exit_1(capsys, argv, replicates):
    # the two-colour, multicolour and word kernels printed an empty table for
    # 0 and numpy's message for -2; tail-sum failed on an unpack
    assert run(argv + ["--replicates", replicates]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: n_reps must be >= 1" in captured.err


@pytest.mark.parametrize("family", [[], ["--family", "multi", "--initial", "1,1,1"]],
                         ids=["two-colour", "multi"])
def test_urn_sim_negative_N_exit_1(capsys, family):
    # two-colour specs exited 1 on the kernel's checkpoint message
    assert run(["urn-sim", "--N", "-3"] + family) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: N must be >= 0" in captured.err


def test_stirling_routes_agree_on_N(tmp_path, capsys):
    # the empty word has no blocks on every law route; count and
    # enumerate-law printed a law for N = -2, and urn-law rejected N = 0
    args = ["--d", "2", "--p", "2", "--t", "1", "--replicates", "50"]
    for N in ("0", "1"):
        laws = [run_to_file(tmp_path, ["stirling", "--what", what, "--N", N] + args)[1]
                .splitlines()[2:] for what in ("enumerate-law", "urn-law", "simulate")]
        assert laws[0] == laws[1] == laws[2] == ["blocks,probability", f"{N},1"]
    for what in ("count", "enumerate-law", "urn-law", "simulate"):
        assert run(["stirling", "--what", what, "--N", "-1"] + args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error: N must be >= 0" in captured.err


def test_verify_subcommands_pass(tmp_path):
    for what in ("decomposition", "martingale", "density"):
        code, text = run_to_file(
            tmp_path, ["verify", "--family", "py", "--p", "2", "--what", what], f"{what}.json"
        )
        assert code == 0, what
        assert read_json(text)["results"]["status"] == "ok"


@pytest.mark.parametrize("model,label", [
    (["--p", "2"], "beta_gengamma"),
    (["--family", "tri", "--ell1", "1", "--ell2", "2"], "ml_local_time"),
], ids=["py", "tri"])
def test_verify_decomposition_with_an_empty_black_side(tmp_path, model, label):
    # b0 = 0 once exited 1 naming a factor parameter (b, gamma) and no flag:
    # the Beta factor is the point mass at 1 there, and ML3 has gamma = 0
    code, text = run_to_file(tmp_path, ["verify", *model, "--b0", "0",
                                        "--what", "decomposition"])
    assert code == 0
    res = read_json(text)["results"]
    assert res["label"] == label and res["status"] == "ok"


def test_verify_density_on_singular_spec(tmp_path):
    # w0/sigma = 1/2: the density is unbounded at 0
    code, text = run_to_file(
        tmp_path, ["verify", "--family", "py", "--sigma", "2", "--what", "density"]
    )
    assert code == 0
    assert read_json(text)["results"]["status"] == "ok"


def test_verify_density_at_a_large_start(tmp_path):
    # w0/sigma = 300 once exited 1 with "error: (34, 'Numerical result out of range')"
    code, text = run_to_file(tmp_path, ["verify", "--p", "1", "--w0", "300", "--what", "density"])
    assert code == 0
    assert read_json(text)["results"]["status"] == "ok"


MULTI_2_1_1 = ["--family", "multi", "--p", "2", "--initial", "2,1,1"]


@pytest.mark.parametrize("argv", [
    ["urn-exact", "--N", "9", "--pmf"],
    ["tail-sum", "--N", "20", "--far", "80", "--replicates", "64"],
    ["verify", "--what", "martingale"],
], ids=["urn-exact-pmf", "tail-sum", "verify-martingale"])
def test_colour_0_routes_run_on_a_multicolour_spec(tmp_path, argv):
    # colour 0 is a two-colour urn at every colour count; each of these once
    # exited 1 with a two-colour refusal
    code, text = run_to_file(tmp_path, argv + MULTI_2_1_1)
    assert code == 0
    if argv[0] == "urn-exact":
        spec = multicolor_polya_young(2, 1, 1, (2, 1, 1))
        assert text.splitlines()[3:] == [f"{w},{q}" for w, q in
                                         exact_pmf_dp(spec, 9, "exact").as_dict().items()]
    if argv[0] == "verify":
        assert read_json(text)["results"]["status"] == "ok"


@pytest.mark.parametrize("model", [["--p", "2"], MULTI_2_1_1], ids=["std", "multi_2_1_1"])
def test_verify_martingale_reads_the_law_at_every_N(tmp_path, monkeypatch, model):
    # products that drop every total past step 50: E[W_N] from the moment
    # products agreed with g_N from the same products, so the check passed
    products = polyaurn.moments._products

    def short(spec, N, orders, mode, start=0):
        return products(spec, min(N, 50), orders, mode, min(start, 50))

    monkeypatch.setattr(polyaurn.moments, "_products", short)
    code, text = run_to_file(tmp_path, ["verify", "--what", "martingale", *model])
    res = read_json(text)["results"]
    assert code == 1 and res["status"] == "fail" and res["max_rel_error"] > 1


@pytest.mark.parametrize("initial", ["1,0,0", "1,0,1", "2,0,1,1", "1,2,0", "3,1,0,0"])
def test_verify_decomposition_with_an_empty_colour(tmp_path, initial):
    # a colour that starts empty is 0 surely, a Dirichlet coordinate of alpha
    # 0; this once exited 1 with "alpha must be positive, got 0.0"
    code, text = run_to_file(tmp_path, ["verify", "--family", "multi", "--p", "2",
                                        "--initial", initial, "--what", "decomposition",
                                        "--format", "json"])
    res = read_json(text)["results"]
    assert code == 0 and res["status"] == "ok" and res["max_rel_error"] < 1e-13


@pytest.mark.parametrize("command", ["urn-exact", "urn-sim", "tail-sum", "verify"])
def test_a_one_colour_spec_exits_1(capsys, command):
    assert run([command, "--family", "multi", "--initial", "1", *URN_RUNS[command]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a spec needs at least two colors: the last takes the refresh\n"


def test_verify_decomposition_on_a_multicolour_spec(tmp_path):
    # every order vector (s0, s1, 0) of total 1..6: 27 of them
    code, text = run_to_file(tmp_path, ["verify", "--family", "multi", "--p", "2",
                                        "--initial", "1,2,1", "--what", "decomposition",
                                        "--format", "json"])
    assert code == 0
    res = read_json(text)["results"]
    assert res["order_vectors"] == 27 and res["status"] == "ok"
    assert res["max_rel_error"] < 1e-9
    code, text = run_to_file(tmp_path, ["verify", "--family", "multi", "--p", "2",
                                        "--initial", "1,2,1", "--what", "decomposition",
                                        "--smax", "2", "--tol", "1e-300", "--format", "json"])
    res = read_json(text)["results"]
    assert code == 1 and res["order_vectors"] == 5 and res["status"] == "fail"


def test_verify_decomposition_without_a_factorization_exits_1(capsys):
    # ell/sigma = 1/2: multicolor_polya_young(2, 2, 1, (1, 1, 1)) has none
    assert run(["verify", "--family", "multi", "--p", "2", "--sigma", "2",
                "--initial", "1,1,1", "--what", "decomposition"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: multicolor factorization needs ell/sigma integral\n"


def test_urn_limit_density_beyond_the_series_reach(tmp_path):
    # Lambda = 4/5: the reciprocal-Gamma series would need about 8^5 terms here
    code, text = run_to_file(tmp_path, ["urn-limit", "--family", "py", "--p", "2",
                                        "--ell", "1/2", "--density-grid", "8"])
    assert code == 0
    row = text.strip().splitlines()[-1].split(",")
    spec = polya_young(2, 1, Fraction(1, 2), 1, 1)
    assert row[:2] == ["density", "8"]
    assert row[2] == format(limit_density(spec, 8.0), ".15g")


@pytest.mark.parametrize("model", [
    ["--family", "multi", "--p", "2", "--initial", "1,1,1"],
    ["--p", "2", "--b0", "0"],
    ["--family", "multi", "--p", "2", "--initial", "1,0,0"],
], ids=["multi_1_1_1", "py_b0_0", "multi_1_0_0"])
def test_verify_density_rest_mass(tmp_path, model):
    # the rest mass is every color but color 0, not the last color; when it
    # is 0 the first pole of the density's Mellin transform cancels
    code, text = run_to_file(tmp_path, ["verify", *model, "--what", "density"])
    assert code == 0
    assert read_json(text)["results"]["status"] == "ok"


def test_tail_sum_payload_fields(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["tail-sum", "--family", "py", "--p", "2", "--N", "40", "--far", "320",
         "--replicates", "400", "--seed", "3"],
    )
    assert code == 0
    res = read_json(text)["results"]
    assert res["N"] == 40 and res["N_far"] == 320
    assert float(res["plugin_expected_variance_factor"]) == pytest.approx(2 / 3)
    assert set(res["conditional"]) == {"mean", "variance", "skewness", "excess_kurtosis"}


def test_tree_sim_compare_appends_tv(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["tree-sim", "--tree-family", "recursive", "--p", "2", "--N", "10",
         "--replicates", "4000", "--statistic", "descendants", "--index", "1",
         "--seed", "1", "--compare"],
    )
    assert code == 0
    last = text.strip().splitlines()[-1].split(",")
    assert last[0] == "tv_vs_urn"
    assert float(last[1]) < 0.05


def test_stirling_count_payload(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["stirling", "--what", "count", "--d", "1", "--p", "2", "--t", "1", "--N", "5"],
    )
    assert code == 0
    assert read_json(text)["results"]["count"] == 280


def test_seed_is_echoed_only_where_it_is_used(tmp_path):
    args = ["--d", "1", "--p", "2", "--t", "1", "--N", "5", "--seed", "5"]
    _, text = run_to_file(tmp_path, ["stirling", "--what", "count"] + args, "c.json")
    assert "seed" not in read_json(text)["config"]
    _, text = run_to_file(tmp_path, ["stirling", "--what", "simulate", "--replicates", "50"]
                          + args, "s.csv")
    assert json.loads(text.splitlines()[1].split("=", 1)[1])["seed"] == 5
    _, text = run_to_file(tmp_path, ["crp", "--a", "1/2", "--theta", "1/2", "--p", "2",
                                     "--tables", "3,2", "--seed", "5"], "t.json")
    assert "seed" not in read_json(text)["config"]


def test_stirling_urn_law_matches_enumeration(tmp_path):
    args = ["--d", "2", "--p", "2", "--t", "1", "--N", "4"]
    _, urn_text = run_to_file(tmp_path, ["stirling", "--what", "urn-law"] + args, "u.csv")
    _, enum_text = run_to_file(tmp_path, ["stirling", "--what", "enumerate-law"] + args, "e.csv")
    assert urn_text.splitlines()[2:] == enum_text.splitlines()[2:]


def test_crp_seating_payload(tmp_path):
    code, text = run_to_file(
        tmp_path,
        ["crp", "--a", "1/2", "--theta", "1/2", "--p", "2", "--tables", "3,2"],
    )
    assert code == 0
    res = read_json(text)["results"]
    assert res["join"] == ["5/13", "3/13"]
    assert res["new_table"] == "5/13"
    assert res["bar"] is None
    assert res["tree_alpha"] == "1" and res["tree_ell"] == "1"


@pytest.mark.parametrize("flags,message", [
    (["--tables", "3,0"], "table sizes must be >= 1"),
    (["--tables", "3,-1"], "table sizes must be >= 1"),
    (["--tables", "3,2", "--bar-count", "2"], "bar_count > 0 needs a bar"),
    (["--tables", "3,2", "--theta-bar", "1", "--bar-count", "-1"], "bar_count must be >= 0"),
], ids=["empty-table", "negative-table", "bar-count-without-bar", "negative-bar-count"])
def test_crp_impossible_seating_state_exits_1(capsys, flags, message):
    # each state once printed probabilities (join -1/10, or a total of 9/11)
    assert run(["crp", "--a", "1/2", "--theta", "1/2", "--p", "2"] + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_tail_sum_fewer_than_one_thread_exits_1(capsys, threads):
    assert run(["tail-sum", "--N", "5", "--far", "10", "--replicates", "16",
                "--threads", threads]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: threads must be >= 1" in captured.err


# the model flags of the urn subcommands; the echo replaces them with `model`
URN_FLAGS = {"family", "p", "sigma", "ell", "ell1", "ell2", "w0", "b0", "offset", "initial",
             "sequence", "ells"}
URN_RUNS = {
    "constants": [],
    "urn-exact": ["--N", "3"],
    "urn-sim": ["--N", "3", "--replicates", "20"],
    "urn-limit": ["--smax", "2"],
    "tail-sum": ["--N", "2", "--far", "4", "--replicates", "16"],
    "verify": ["--what", "martingale"],
}
RATIOS = st.sampled_from(["1", "2", "1/2", "3/2"])


@st.composite
def model_flags(draw):
    """Model flags of one urn family, and the spec they describe."""
    family = draw(st.sampled_from(["py", "tri", "multi", "seq"]))
    p = draw(st.integers(1, 3))
    sigma, ell, ell2, w0, b0 = (draw(RATIOS) for _ in range(5))
    F = Fraction
    if family == "py":
        flags = ["--p", str(p), "--ell", ell, "--w0", w0, "--b0", b0]
        spec = polya_young(p, F(sigma), F(ell), F(w0), F(b0))
    elif family == "tri":
        flags = ["--p", str(p), "--ell1", ell, "--ell2", ell2, "--w0", w0, "--b0", b0]
        spec = triangular(p, F(sigma), F(ell), F(ell2), F(w0), F(b0))
    elif family == "multi":
        initial = draw(st.lists(RATIOS, min_size=2, max_size=4))
        flags = ["--p", str(p), "--ell", ell, "--initial", ",".join(initial)]
        spec = multicolor_polya_young(p, F(sigma), F(ell), [F(v) for v in initial])
    else:
        flags = ["--sequence", "thue_morse", "--ells", f"{ell},{ell2}", "--w0", w0, "--b0", b0]
        spec = sequence_urn("thue_morse", F(sigma), (F(ell), F(ell2)), F(w0), F(b0))
    return ["--family", family, "--sigma", sigma, *flags], spec


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(URN_RUNS)), model=model_flags())
# a multicolour model must echo none of the two-colour flags
@example(command="urn-sim", model=(["--family", "multi", "--initial", "2,1,1"],
                                   multicolor_polya_young(1, 1, 1, (2, 1, 1))))
def test_sweep_urn_subcommands_echo_the_model_that_ran(command, model):
    flags, spec = model
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command, *flags, *URN_RUNS[command]])
    # colour 0 is a two-colour urn at every colour count, so no multicolour
    # run may fail; others may exit 1 on a documented domain error, e.g. no
    # limit constants for seq
    if code == 1 and spec.family != "multicolor":
        assert err.getvalue().startswith("error: ")
        return
    assert code == 0
    text = out.getvalue()
    config = (json.loads(text) if text.startswith("{")
              else {"config": json.loads(text.splitlines()[1].split("=", 1)[1])})["config"]
    assert config["model"] == json.loads(spec_to_json(spec))
    assert not URN_FLAGS & set(config)


# flags a subcommand does not read, and so does not register
REMOVED_FLAGS = [
    *((command, flag) for command in ("constants", "urn-limit", "verify")
      for flag in ("--seed", "--mode", "--threads")),
    ("urn-exact", "--seed"), ("urn-exact", "--threads"), ("urn-sim", "--threads"),
    ("tail-sum", "--mode"), ("tree-sim", "--threads"), ("stirling", "--threads"),
    ("crp", "--threads"),
]
REQUIRED = {"urn-exact": ["--N", "2"], "urn-sim": ["--N", "2"],
            "tail-sum": ["--N", "2", "--far", "4"], "tree-sim": ["--N", "3"],
            "stirling": ["--N", "3"], "verify": ["--what", "martingale"]}


def test_flags_a_subcommand_does_not_read_exit_2(tmp_path):
    assert len(REMOVED_FLAGS) == 16
    cfg = tmp_path / "cfg.json"
    for command, flag in REMOVED_FLAGS:
        value = "float" if flag == "--mode" else "2"
        argv = [command, *REQUIRED.get(command, [])]
        with pytest.raises(SystemExit) as exc:
            run(argv + [flag, value])
        assert exc.value.code == 2, (command, flag)
        cfg.write_text(json.dumps({flag[2:]: value}))
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--config", str(cfg)])
        assert exc.value.code == 2, (command, flag, "config")


def _rows(text):
    return [line.split(",") for line in text.strip().splitlines()[3:]]


@pytest.mark.parametrize("compare", [[], ["--compare"]])
def test_tree_sim_bar_in_standard_mode_exits_1(capsys, compare):
    assert run(["tree-sim", "--tree-family", "recursive", "--bar-beta", "1", "--N", "5",
                "--replicates", "10"] + compare) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: the bar is a crp-mode feature" in captured.err


@pytest.mark.parametrize("compare", [[], ["--compare"]])
def test_tree_sim_index_never_born_exits_1(capsys, compare):
    assert run(["tree-sim", "--N", "3", "--index", "5", "--replicates", "10"] + compare) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: node 5 never appears by N = 3" in captured.err


@pytest.mark.parametrize("compare", [[], ["--compare"]])
@pytest.mark.parametrize("beta", ["0", "-1"])
def test_tree_sim_bar_that_is_not_positive_exits_1(capsys, beta, compare):
    assert run(["tree-sim", "--tree-family", "gport", "--tree-mode", "crp", "--statistic",
                "table-count", "--bar-beta", beta, "--N", "5", "--replicates", "10"]
               + compare) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: bar_beta must be positive" in captured.err


@pytest.mark.parametrize("compare", [[], ["--compare"]])
def test_tree_sim_period_0_exits_1(capsys, compare):
    # with --compare the exact law divided by the period first
    assert run(["tree-sim", "--p", "0", "--N", "5", "--replicates", "10"] + compare) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: period must be >= 1" in captured.err


def test_stirling_enumeration_past_its_guard_exits_1(capsys):
    # 124,540,416 words: the enumeration ran out of memory instead of exiting
    start = time.perf_counter()
    assert run(["stirling", "--what", "enumerate-law", "--d", "2", "--p", "2", "--t", "1",
                "--N", "9"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: enumeration of 124540416 words exceeds guard" in captured.err


def test_urn_limit_nan_density_point_exits_1(capsys):
    # the saddle search failed first, with a message about the contour
    assert run(["urn-limit", "--p", "2", "--density-grid", "1,nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error: density needs a number x, got x = nan" in captured.err


def test_tree_sim_compare_without_an_exact_law_exits_1(capsys):
    # the standard-mode urns do not describe crp-mode node statistics
    assert run(["tree-sim", "--tree-family", "gport", "--tree-mode", "crp", "--N", "12",
                "--replicates", "20000", "--statistic", "descendants", "--compare"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: no exact law for ('descendants', 1) in crp mode" in captured.err


@pytest.mark.parametrize("bar", [[], ["--bar-beta", "2"]], ids=["no_bar", "bar"])
def test_tree_sim_crp_table_count_compare_sits_at_the_noise_floor(tmp_path, bar):
    reps = 20_000
    code, text = run_to_file(tmp_path, ["tree-sim", "--tree-family", "gport", "--alpha", "1",
                                        "--ell", "1", "--p", "2", "--tree-mode", "crp",
                                        "--statistic", "table-count", "--N", "12",
                                        "--replicates", str(reps), "--seed", "4", "--compare",
                                        *bar])
    assert code == 0
    rows = _rows(text)
    assert rows[-1][0] == "tv_vs_urn"
    beta = Fraction(2) if bar else None
    law = statistic_pmf(gport_family(1, 1), 2, 12, ("table_count",), "crp", beta).as_dict()
    emp = {int(v): Fraction(q) for v, q in rows[:-1]}
    tv = 0.5 * sum(abs(float(emp.get(k, 0) - law.get(k, 0))) for k in set(emp) | set(law))
    assert float(rows[-1][1]) == pytest.approx(tv, abs=1e-12)
    assert tv < 1.5 * tv_floor(law, reps), (tv, tv_floor(law, reps))


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_examples():
    block = _readme().split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("polyaurn ")]


def _json_or_text(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _as_config(flags):
    """The config object that stands for command-line flags: a bare flag is
    true, a comma list an array, and a value JSON reads is a number."""
    config = {}
    for flag, value in zip(flags, flags[1:] + ["--"]):
        if flag.startswith("--"):
            parts = [_json_or_text(part) for part in value.split(",")]
            config[flag[2:].replace("-", "_")] = (True if value.startswith("--") else
                                                   parts if len(parts) > 1 else parts[0])
    return config


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[0])
def test_readme_examples_run(argv, tmp_path):
    # and print the same from a config file that holds their flags
    code, out = run_captured(argv)
    assert code == 0 and out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_as_config(argv[1:])))
    assert run_captured([argv[0], "--config", str(cfg)]) == (code, out)


def test_readme_config_example_prints_what_its_flags_print(tmp_path):
    section = _readme().split("### Config files", 1)[1]
    text = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    flags = [token for key, value in json.loads(text).items()
             for token in (f"--{key.replace('_', '-')}", str(value))]
    code, out = run_captured(["urn-exact", *flags])
    assert code == 0 and out
    assert run_captured(["urn-exact", "--config", str(cfg)]) == (code, out)


def test_readme_quick_start_runs_and_its_names_resolve():
    # the library section: its Python block runs, and every `name(` it
    # mentions is a name the package exports
    section = _readme().split("## Quick start", 1)[1].split("## CLI", 1)[0]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    names = re.findall(r"`(\w+)\(", section)
    assert names
    assert [name for name in names if not hasattr(polyaurn, name)] == []
