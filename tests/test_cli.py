"""CLI tests: flags, exit codes, output parity, determinism."""

import json

from weiltate import cli
from weiltate.classifier import classify_orbits, doc_to_end_report, doc_to_report
from weiltate.forge import scenario_main, serialize_scenario


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_forge_text_and_exit_zero(capsys):
    code, out, err = run_cli(capsys, ["forge", "--g", "4", "--p", "5", "--l", "7",
                                      "--lp", "11", "--seed", "0"])
    assert code == 0
    assert "galois S_g certificate: True" in out


def test_forge_rejects_odd_degree(capsys):
    code, out, err = run_cli(capsys, ["forge", "--g", "3", "--p", "5", "--l", "7", "--lp", "11"])
    assert code == cli.EXIT_HYPOTHESIS
    assert "hypothesis violation" in err


def test_forge_rejects_equal_primes(capsys):
    code, out, err = run_cli(capsys, ["forge", "--g", "4", "--p", "5", "--l", "5", "--lp", "7"])
    assert code == cli.EXIT_HYPOTHESIS


def test_forge_budget_maps_to_cap_exit(capsys):
    code, out, err = run_cli(capsys, ["forge", "--g", "4", "--p", "5", "--l", "7",
                                      "--lp", "11", "--budget", "0"])
    assert code == cli.EXIT_CAP


def test_forge_json_deterministic(capsys):
    argv = ["forge", "--g", "4", "--p", "5", "--l", "7", "--lp", "11", "--seed", "2",
            "--format", "json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["certificates"]["galois_is_sg"] is True


def test_classify_main_preset_text(capsys):
    code, out, err = run_cli(capsys, ["classify", "--preset", "main", "--g", "4", "--p", "5"])
    assert code == 0
    assert "APPLICABLE_MILDLY_EXOTIC" in out
    assert "predicted signature: (5, 3)" in out


def test_classify_json_round_trips_to_report_objects(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--preset", "ramified", "--gp", "3",
                                    "--p", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    from weiltate.forge import scenario_ramified

    scn = scenario_ramified(3, 5)
    direct = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    assert doc_to_report(doc["report"], scn.model) == direct
    from weiltate.classifier import honda_tate_endomorphism

    assert doc_to_end_report(doc["endomorphism"]) == honda_tate_endomorphism(scn.model, scn.slopes)


def test_classify_worker_count_is_invisible(capsys):
    base = ["classify", "--preset", "split", "--gp", "3", "--p", "5", "--format", "json"]
    _, out1, _ = run_cli(capsys, base + ["--workers", "1"])
    _, out3, _ = run_cli(capsys, base + ["--workers", "3"])
    assert out1 == out3


def test_classify_requires_scenario_source(capsys):
    code, out, err = run_cli(capsys, ["classify"])
    assert code == cli.EXIT_USAGE
    code, out, err = run_cli(capsys, ["classify", "--preset", "main"])
    assert code == cli.EXIT_USAGE


def test_classify_rejects_two_scenario_sources(tmp_path, capsys):
    path = tmp_path / "s.scn"
    path.write_text(serialize_scenario(scenario_main(4, 5)), encoding="utf-8")
    code, out, err = run_cli(
        capsys, ["classify", "--preset", "main", "--g", "4", "--file", str(path)]
    )
    assert code == cli.EXIT_USAGE
    assert "mutually exclusive" in err


def test_classify_cap_exceeded(capsys):
    code, out, err = run_cli(capsys, ["classify", "--preset", "ramified", "--gp", "3",
                                      "--p", "5", "--cap", "8"])
    assert code == cli.EXIT_CAP
    assert "cap exceeded" in err


def test_classify_scenario_file(tmp_path, capsys):
    path = tmp_path / "main4.scn"
    path.write_text(serialize_scenario(scenario_main(4, 5)), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["classify", "--file", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["mildly_exotic"] is True


def test_classify_malformed_file_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("points = 8\nbogus = 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["classify", "--file", str(path)])
    assert code == cli.EXIT_USAGE
    assert "line 2" in err and "bogus" in err


def test_classify_missing_file(capsys):
    code, out, err = run_cli(capsys, ["classify", "--file", "/nonexistent/x.scn"])
    assert code == cli.EXIT_USAGE


def test_verify_presets_all_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--presets", "all", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    statuses = {row["status"] for row in doc["lemmas"]}
    assert "FAIL" not in statuses
    assert "PASS" in statuses


def test_verify_random_oracles(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--random", "5", "--g", "3", "--seed", "1",
                                    "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["oracles"]) == 5
    assert all(row["all_pass"] for row in doc["oracles"])


def test_verify_random_zero_is_empty_success(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--random", "0"])
    assert code == 0
    assert "nothing to verify" in out


def test_verify_lemma_fail_exit_code(capsys, monkeypatch):
    from weiltate.classifier import LemmaResult

    monkeypatch.setattr(
        cli, "verify_lemma_suite",
        lambda instances: (LemmaResult("synthetic", "exotic_partition", "FAIL", "forced"),),
    )
    code, out, err = run_cli(capsys, ["verify", "--presets", "main4"])
    assert code == cli.EXIT_LEMMA_FAIL


def test_usage_error_exit_code(capsys):
    assert cli.main(["classify", "--format", "yaml"]) == cli.EXIT_USAGE
    assert cli.main(["nonsense"]) == cli.EXIT_USAGE


def test_verify_unknown_preset(capsys):
    code, out, err = run_cli(capsys, ["verify", "--presets", "main5"])
    assert code == cli.EXIT_USAGE
    assert "unknown preset" in err


def test_classify_restricted_weights(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--preset", "main", "--g", "4", "--p", "5",
                                    "--weights", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["weights"] == [4]
    assert doc["report"]["tate_dims"] is None
    assert doc["report"]["scht_verdict"] == "NOT_DECIDED"
    assert doc["predicted_signature"] is None
    assert {o["weight"] for o in doc["report"]["orbits"]} == {4}


def test_text_and_json_carry_same_summary(capsys):
    _, text_out, _ = run_cli(capsys, ["classify", "--preset", "main", "--g", "4", "--p", "5"])
    _, json_out, _ = run_cli(capsys, ["classify", "--preset", "main", "--g", "4", "--p", "5",
                                      "--format", "json"])
    doc = json.loads(json_out)
    assert str(doc["frobenius_rank"]) in text_out
    assert doc["report"]["scht_verdict"] in text_out
    assert f"({doc['predicted_signature'][0]}, {doc['predicted_signature'][1]})" in text_out


def test_classify_rejects_worker_counts_below_one(capsys):
    for workers in ("0", "-3"):
        code, out, err = run_cli(capsys, ["classify", "--preset", "main", "--g", "4",
                                          "--workers", workers])
        assert code == cli.EXIT_USAGE
        assert "workers must be at least 1" in err
        assert out == ""


def test_non_integer_env_caps_are_input_errors(capsys, monkeypatch):
    classify = ["classify", "--preset", "main", "--g", "4"]
    forge_argv = ["forge", "--g", "4", "--p", "5", "--l", "7", "--lp", "11"]
    for name, argv in (("WEILTATE_GROUP_CAP", classify), ("WEILTATE_SUBSET_CAP", classify),
                       ("WEILTATE_RETRY_BUDGET", forge_argv)):
        monkeypatch.setenv(name, "ten")
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_USAGE, name
        assert f"{name} must be an integer" in err
        monkeypatch.delenv(name)


G2_SCENARIO = """\
name = g2-ordinary-pair
points = 4
generators = (1 3)(2 4), (1 2)(3 4)
tau = (1 3)(2 4)
decomposition_generators = (1 2)(3 4)
phi = 1 2
"""


def test_classify_g2_scenario_signature(tmp_path, capsys):
    path = tmp_path / "g2.scn"
    path.write_text(G2_SCENARIO, encoding="utf-8")
    code, out, _ = run_cli(capsys, ["classify", "--file", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["tate_dims"] == [1, 4, 1]
    assert doc["predicted_signature"] == [1, 3]


def test_group_cap_env_applies_to_every_preset_family(capsys, monkeypatch):
    monkeypatch.setenv("WEILTATE_GROUP_CAP", "10")
    for preset in (["main", "--g", "6"], ["ramified", "--gp", "3"], ["split", "--gp", "3"]):
        code, out, err = run_cli(capsys, ["classify", "--preset", *preset])
        assert code == cli.EXIT_CAP, preset
        assert "cap exceeded" in err
        assert out == ""


def test_group_cap_env_admits_a_group_at_the_cap(capsys, monkeypatch):
    monkeypatch.setenv("WEILTATE_GROUP_CAP", "48")  # |G| of main g=4
    code, _, _ = run_cli(capsys, ["classify", "--preset", "main", "--g", "4"])
    assert code == 0
    monkeypatch.setenv("WEILTATE_GROUP_CAP", "47")
    code, _, err = run_cli(capsys, ["classify", "--preset", "main", "--g", "4"])
    assert code == cli.EXIT_CAP
    assert "cap exceeded" in err


def test_group_cap_env_applies_to_verify(capsys, monkeypatch):
    monkeypatch.setenv("WEILTATE_GROUP_CAP", "10")
    for argv in (["verify", "--presets", "ramified3"], ["verify", "--random", "1", "--g", "3"]):
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_CAP, argv
        assert "cap exceeded" in err
