"""End-to-end checks of the command-line surface."""

import json
from fractions import Fraction

import pytest

from polyaurn.cli import run
from polyaurn.urns import exact_pmf_dp, sequence_urn


def run_to_file(tmp_path, argv, name="out.txt"):
    path = tmp_path / name
    code = run(argv + ["--output", str(path)])
    return code, path.read_text()


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
    assert doc["config"]["p"] == 2


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
    assert json.loads(rows[1].split("=", 1)[1])["p"] == 2


def test_config_does_not_override_explicit_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2, "moments": 3}))
    code, text = run_to_file(
        tmp_path,
        ["urn-exact", "--family", "py", "--N", "2", "--p", "3", "--config", str(cfg)],
    )
    assert code == 0
    assert json.loads(text.splitlines()[1].split("=", 1)[1])["p"] == 3


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--family", "py", "--N", "2", "--config", str(cfg)])
    assert exc.value.code == 2


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


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--family", "py"])  # missing required --N
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--N", "2", "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["urn-exact", "--family", "seq", "--sequence", "thue-morse", "--N", "2"])
    assert exc.value.code == 2


def test_domain_errors_exit_1(capsys):
    code = run(["constants", "--family", "py", "--p", "2", "--offset", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_verify_subcommands_pass(tmp_path):
    for what in ("decomposition", "martingale", "density"):
        code, text = run_to_file(
            tmp_path, ["verify", "--family", "py", "--p", "2", "--what", what], f"{what}.json"
        )
        assert code == 0, what
        assert read_json(text)["results"]["status"] == "ok"


def test_verify_density_on_singular_spec(tmp_path):
    # w0/sigma = 1/2: the density is unbounded at 0
    code, text = run_to_file(
        tmp_path, ["verify", "--family", "py", "--sigma", "2", "--what", "density"]
    )
    assert code == 0
    assert read_json(text)["results"]["status"] == "ok"


def test_urn_limit_unsettled_density_exits_1(capsys):
    code = run(["urn-limit", "--family", "py", "--p", "2", "--ell", "1/2",
                "--density-grid", "8"])
    assert code == 1
    err = capsys.readouterr().err
    assert "x=8.0 with Lambda=0.8 needs about 32790 terms" in err


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
