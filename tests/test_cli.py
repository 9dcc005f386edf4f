"""CLI tests: flags, exit codes, output parity, determinism."""

import importlib.util
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from oracles import (
    assert_document_invariants,
    ben_or_by_pow_mod,
    classify_orbits_by_walk,
    cm_product_model,
    cm_types_by_listing,
    doc_to_end_report,
    doc_to_report,
    emitted_text,
    main_family_by_formula,
    plain_document,
)

from weiltate import algebra, classifier, cli, forge, galois, slopes
from weiltate.cmtypes import enumerate_cm_types, least_cm_type, measure_cm_type
from weiltate.classifier import classify_orbits
from weiltate.cli import end_report_to_doc, report_to_doc
from weiltate.forge import Scenario, scenario_main, serialize_scenario


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


def test_forge_budget_is_a_usage_error(capsys):
    """No spread budget is settable: the escalation ends within a bound set by g."""
    code, out, err = run_cli(capsys, ["forge", "--g", "4", "--p", "5", "--l", "7",
                                      "--lp", "11", "--budget", "5"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert "unrecognized arguments: --budget 5" in err


@pytest.mark.parametrize("g", [40, 44, 48])
def test_forge_past_g40_exits_0(g, capsys):
    """l and l' the two smallest primes above g other than p = 5, at seeds 0 and 1."""
    l, lp = forge._smallest_primes_avoiding(g, {5})
    for seed in (0, 1):
        code, out, err = run_cli(capsys, ["forge", "--g", str(g), "--p", "5", "--l", str(l),
                                          "--lp", str(lp), "--seed", str(seed)])
        assert (code, err) == (0, "")
        assert "real roots: %d" % g in out


@pytest.mark.parametrize("primes", [
    ("5", "7", "1000000000000000003"),  # primes past 2**31
    ("1000000000000000003", "7", "11"),
    ("2305843009213693951", "2147483659", "1000000000039"),
], ids=["lp", "p", "all"])
def test_forge_takes_primes_past_2_31(primes, capsys):
    p, l, lp = primes
    code, out, err = run_cli(capsys, ["forge", "--g", "4", "--p", p, "--l", l, "--lp", lp,
                                      "--format", "json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert [doc["p"], doc["l"], doc["lp"]] == [int(p), int(l), int(lp)]
    assert doc["certificates"]["galois_is_sg"] is True


def test_forge_refuses_2_31_as_a_composite(capsys):
    code, out, err = run_cli(capsys, ["forge", "--g", "4", "--p", "5", "--l", "7",
                                      "--lp", str(2**31)])
    assert (code, out) == (cli.EXIT_HYPOTHESIS, "")
    assert err == "hypothesis violation: 2147483648 is not prime\n"


class _Undividable(int):
    """An int that fails any trial division: `n % q` raises."""

    def __mod__(self, other):
        raise AssertionError(f"trial division on {int(self)}")


@pytest.mark.parametrize("primes", [
    ("5", "7", str(algebra.MR_BOUND)),
    (str(algebra.MR_BOUND + 1), "7", "11"),
    ("5", str(10**30), "11"),
], ids=["lp", "p", "l"])
def test_forge_refuses_a_modulus_at_the_primality_bound_before_trial_division(
        primes, capsys, monkeypatch):
    is_prime = algebra.is_prime

    def undividable_past_the_bound(n):
        return is_prime(_Undividable(n) if n >= algebra.MR_BOUND else n)

    monkeypatch.setattr(forge, "is_prime", undividable_past_the_bound)
    p, l, lp = primes
    code, out, err = run_cli(capsys, ["forge", "--g", "4", "--p", p, "--l", l, "--lp", lp])
    assert (code, out) == (cli.EXIT_USAGE, "")
    big = max(map(int, primes))
    assert err == (f"error: {big} is too large for the deterministic primality test "
                   f"(bound {algebra.MR_BOUND})\n")


def test_forge_json_deterministic(capsys):
    argv = ["forge", "--g", "4", "--p", "5", "--l", "7", "--lp", "11", "--seed", "2",
            "--format", "json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["certificates"]["galois_is_sg"] is True


FORGE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 65537,
                2**31 - 1)
# composites, 2**31 and the prime 2**31 + 11, and values at or past the Miller-Rabin bound
FORGE_MODULI = st.one_of(
    st.sampled_from(FORGE_PRIMES),
    st.integers(-3, 40),
    st.sampled_from((2**31, 2**31 + 11, 65535, 561, algebra.MR_BOUND, algebra.MR_BOUND + 1,
                     1000000000000000003)),
)


@st.composite
def forge_requests(draw):
    """(g, p, l, l'): half the time a valid request, else drawn with no hypothesis kept."""
    if draw(st.booleans()):
        g = draw(st.sampled_from((2, 4, 6, 8, 10, 12)))
        l, lp = draw(st.permutations([q for q in FORGE_PRIMES if q > g]))[:2]
        return g, draw(st.sampled_from([q for q in FORGE_PRIMES if q not in (l, lp)])), l, lp
    return (draw(st.integers(-2, 13)), draw(FORGE_MODULI), draw(FORGE_MODULI),
            draw(FORGE_MODULI))


@settings(max_examples=200, deadline=None)
@given(request=forge_requests(), seed=st.integers(-5, 10**6), fmt=st.sampled_from(("text", "json")))
@example(request=(12, 5, 2**31 - 1, 65537), seed=0, fmt="json")
@example(request=(4, 7, 7, 11), seed=0, fmt="text")  # equal primes
@example(request=(4, 5, 11, 11), seed=0, fmt="json")
def test_forge_argv_keeps_the_exit_code_contract(request, seed, fmt):
    """Every forge argv exits 0, 2, 3, 4 or 5 without a traceback; a JSON success parses."""
    g, p, l, lp = request
    argv = ["forge", "--g", str(g), "--p", str(p), "--l", str(l), "--lp", str(lp),
            "--seed", str(seed), "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err.getvalue()
    if code == 0 and fmt == "json":
        assert json.loads(out.getvalue())["schema"] == "weiltate.forge/1"
    elif code:
        assert out.getvalue() == "" and err.getvalue(), argv


PRESET_PRIMES = st.one_of(st.sampled_from(FORGE_PRIMES), st.integers(-3, 40),
                          st.sampled_from((2**31, 561, algebra.MR_BOUND + 1)))
WEIGHT_LISTS = st.one_of(
    st.lists(st.integers(-2, 14), max_size=4).map(lambda ws: ",".join(map(str, ws))),
    st.sampled_from(("", "a", "2,,4", " 4", "0x2", "4.0")),
)
VERIFY_NAMES = st.lists(st.sampled_from(("main4", "main6", "ramified3", "split3", "all", "main8",
                                         "", " main4 ", "x")), max_size=3).map(",".join)


@st.composite
def classify_or_verify_argv(draw):
    """A `classify` or `verify` argv: each optional flag present or not, with drawn values.

    Every classify request carries a `--cap` of at most 8, so no preset
    of more than 8 points is built and none is classified; `verify`
    runs its four presets at the default cap.  Half the classify
    requests are main g = 4, the one preset whose 8 points `--cap 8`
    admits, with a prime p and even weights, so that they reach a
    document; the rest draw every other flag.
    """
    def flag(name, values):
        return [name, str(draw(values))] if draw(st.booleans()) else []

    fmt = flag("--format", st.sampled_from(("text", "json")))
    fields = ["--attach-fields"] if draw(st.integers(0, 3)) == 0 else []
    if draw(st.booleans()):
        return ["verify", *flag("--presets", VERIFY_NAMES), *flag("--p", PRESET_PRIMES), *fmt]
    if draw(st.booleans()):
        weights = st.lists(st.sampled_from(range(0, 9, 2)), min_size=1, max_size=4)
        return ["classify", "--preset", "main", "--g", "4",
                *flag("--p", st.sampled_from(FORGE_PRIMES)),
                *flag("--weights", weights.map(lambda ws: ",".join(map(str, ws)))),
                "--cap", "8", *fields, *fmt]
    preset = flag("--preset", st.sampled_from(("main", "ramified", "split")))
    return ["classify", *preset, *flag("--g", st.integers(-2, 12)),
            *flag("--gp", st.integers(-2, 9)), *flag("--p", PRESET_PRIMES),
            *flag("--weights", WEIGHT_LISTS), "--cap", str(draw(st.integers(-1, 8))), *fields,
            *fmt]


@settings(max_examples=200, deadline=None)
@given(argv=classify_or_verify_argv())
@example(argv=["classify", "--preset", "main", "--g", "4", "--cap", "8", "--format", "json"])
@example(argv=["verify", "--presets", "main4,ramified3", "--format", "json"])
@example(argv=["classify", "--preset", "split", "--gp", "3", "--cap", "8"])  # 12 points: cap
def test_classify_and_verify_argv_keep_the_exit_code_contract(argv):
    """Every classify or verify argv exits 0, 2, 3, 4 or 5 without a traceback; JSON parses.

    A JSON success carries its command's schema; an exit other than 0
    or 5 (a lemma failed, the document still written) writes nothing to
    stdout and says why on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3, 4, 5), argv
    assert "Traceback" not in err.getvalue()
    if code in (0, 5) and "json" in argv:
        assert json.loads(out.getvalue())["schema"] == f"weiltate.{argv[0]}/1"
    elif code in (2, 3, 4):
        assert out.getvalue() == "" and err.getvalue(), argv


def test_classify_main_preset_text(capsys):
    code, out, err = run_cli(capsys, ["classify", "--preset", "main", "--g", "4", "--p", "5"])
    assert code == 0
    assert "APPLICABLE_MILDLY_EXOTIC" in out
    assert "predicted signature: (5, 3)" in out


def test_classify_text_prints_the_attached_fields(capsys):
    """--attach-fields forges in text format too, and the text carries what it forged."""
    argv = ["classify", "--preset", "main", "--g", "4"]
    _, json_out, _ = run_cli(capsys, argv + ["--attach-fields", "--format", "json"])
    metadata = json.loads(json_out)["scenario"]["metadata"]
    code, out, err = run_cli(capsys, argv + ["--attach-fields"])
    assert (code, err) == (0, "")
    for key in ("quadratic_d", "real_field_poly"):
        assert f"\n{key}: {metadata[key]}\n" in out
    _, plain, _ = run_cli(capsys, argv)
    assert plain != out and "quadratic_d" not in plain


@pytest.mark.parametrize("p", [2**31 + 11, 10**18 + 9])
def test_classify_attaches_fields_at_a_prime_past_2_31(p, capsys):
    """The quadratic field is inert at p (Euler's criterion), and the real field is the forge
    at p, l and l', irreducible mod p by Ben-Or on `gf_pow_mod`."""
    code, out, err = run_cli(capsys, ["classify", "--preset", "main", "--g", "4",
                                      "--attach-fields", "--p", str(p), "--format", "json"])
    assert (code, err) == (0, "")
    metadata = json.loads(out)["scenario"]["metadata"]
    d = int(metadata["quadratic_d"])
    assert d < 0 and pow(d, (p - 1) // 2, p) == p - 1
    field = forge.forge_totally_real(4, p, *forge._smallest_primes_avoiding(4, {p}), seed=0)
    assert metadata["real_field_poly"] == algebra.format_poly(field.poly)
    assert ben_or_by_pow_mod(field.poly, p)


def test_classify_json_round_trips_to_report_objects(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--preset", "ramified", "--gp", "3",
                                    "--p", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    from weiltate.forge import scenario_ramified

    scn = scenario_ramified(3, 5)
    direct = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    assert doc_to_report(doc["report"]) == direct
    from weiltate.classifier import honda_tate_endomorphism

    end = honda_tate_endomorphism(scn.model, scn.slopes, direct.columns)
    assert doc_to_end_report(doc["endomorphism"]) == end


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


MAIN4_SLOPES = "1/4 3/4 1/4 3/4 3/4 1/4 3/4 1/4"
SLOPES_DISAGREE = ("scenario parse error: line 7: field 'slopes': declared slopes disagree with "
                   f"the Shimura-Taniyama values {MAIN4_SLOPES} of phi\n")


@pytest.mark.parametrize("line, code, err", [
    (MAIN4_SLOPES, 0, ""),
    ("2/8 6/8 1/4 3/4 3/4 1/4 3/4 1/4", 0, ""),
    ("0.25 0.75 0.25 0.75 0.75 0.25 0.75 0.25", 0, ""),
    ("1/0 3/4", 2, "scenario parse error: line 7: field 'slopes': bad fraction list '1/0 3/4'\n"),
    ("abc", 2, "scenario parse error: line 7: field 'slopes': bad fraction list 'abc'\n"),
    ("1/2 1/2 1/2 1/2 1/2 1/2 1/2 1/2", 2, SLOPES_DISAGREE),
    ("1/4 3/4 1/4 3/4 3/4 1/4 3/4", 2, SLOPES_DISAGREE),
], ids=["accepted", "reduced", "decimal", "zero-denominator", "abc", "wrong", "short"])
def test_classify_file_checks_a_declared_slope_line(tmp_path, capsys, line, code, err):
    """A declared slope line is read as rationals and held against the slopes of phi."""
    text = serialize_scenario(scenario_main(4, 5))
    path = tmp_path / "main4.scn"
    path.write_text(text.replace(f"slopes = {MAIN4_SLOPES}", f"slopes = {line}"), encoding="utf-8")
    got, out, got_err = run_cli(capsys, ["classify", "--file", str(path)])
    assert (got, got_err, bool(out)) == (code, err, code == 0)


def test_classify_missing_file(capsys):
    code, out, err = run_cli(capsys, ["classify", "--file", "/nonexistent/x.scn"])
    assert code == cli.EXIT_USAGE
    assert err.startswith("scenario parse error: cannot read /nonexistent/x.scn: ")


def test_classify_file_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path, capsys):
    path = tmp_path / "x.scn"
    path.write_bytes(b"points = 8\n\xff\n")
    code, out, err = run_cli(capsys, ["classify", "--file", str(path)])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith(f"scenario parse error: cannot read {path}: 'utf-8' codec can't decode")
    assert len(err.splitlines()) == 1


def test_verify_presets_all_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--presets", "all", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    statuses = {row["status"] for row in doc["lemmas"]}
    assert "FAIL" not in statuses
    assert "PASS" in statuses


def test_verify_builds_one_basis_per_instance(capsys, monkeypatch):
    calls, checks = [], []
    real, real_check = classifier.conjugate_slope_basis, classifier.validate_slopes

    def counted(model, s):
        calls.append(model)
        return real(model, s)

    def counted_check(model, s):
        checks.append(model)
        return real_check(model, s)

    monkeypatch.setattr(classifier, "conjugate_slope_basis", counted)
    monkeypatch.setattr(classifier, "validate_slopes", counted_check)
    monkeypatch.setattr(slopes, "validate_slopes", counted_check)
    code, out, _ = run_cli(capsys, ["verify", "--presets", "all", "--format", "json"])
    assert code == 0
    half_weight = [row for row in json.loads(out)["lemmas"]
                   if row["lemma"] == classifier.LEMMA_HALF_WEIGHT
                   and row["status"] != classifier.NOT_APPLICABLE]
    # the half-weight lemma reads the columns of its instance's report
    assert half_weight
    assert len(calls) == 4
    assert len(checks) == 4  # one slope check per instance, from the preset build on


@pytest.mark.parametrize("argv", [
    ["verify", "--random", "1"],
    ["verify", "--g", "3"],
    ["verify", "--seed", "1"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[1:]))
def test_the_retired_verify_flags_are_a_usage_error(argv, capsys):
    """`--random`, `--g` and `--seed` left verify with its oracle rows: argparse refuses them."""
    code, out, err = run_cli(capsys, argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("usage: weiltate ")
    assert err.splitlines()[-1] == f"weiltate: error: unrecognized arguments: {' '.join(argv[1:])}"


@pytest.mark.parametrize("presets", [",", " ", ""])
def test_verify_presets_naming_no_preset_is_a_usage_error(presets, capsys):
    code, out, err = run_cli(capsys, ["verify", "--presets", presets])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: --presets names no preset; choose all or from main4, ")


@pytest.mark.parametrize("flag, argv", [
    ("--g", ["classify", "--preset", "ramified", "--gp", "3", "--g", "4"]),
    ("--g", ["classify", "--file", "{file}", "--g", "4"]),
    ("--gp", ["classify", "--preset", "main", "--g", "4", "--gp", "3"]),
    ("--gp", ["classify", "--file", "{file}", "--gp", "3"]),
    ("--attach-fields", ["classify", "--preset", "split", "--gp", "3", "--attach-fields"]),
    ("--attach-fields", ["classify", "--file", "{file}", "--attach-fields"]),
    ("--p", ["classify", "--file", "{file}", "--p", "7"]),
    ("--p", ["verify", "--presets", "", "--p", "7"]),
    ("--p", ["verify", "--presets", ",", "--p", "7"]),
    ("--p", ["verify", "--presets", " ", "--p", "7"]),
], ids=lambda v: "-".join(a.lstrip("-") for a in ([v] if isinstance(v, str) else v)))
def test_a_flag_nothing_reads_is_a_usage_error(flag, argv, tmp_path, capsys):
    path = tmp_path / "main4.scn"
    path.write_text(serialize_scenario(scenario_main(4, 5)), encoding="utf-8")
    code, out, err = run_cli(capsys, [str(path) if a == "{file}" else a for a in argv])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert len(err.splitlines()) == 1
    # a verify naming no preset is refused before any flag is read
    refused = "--presets names no preset" if argv[0] == "verify" else f"{flag} applies only to "
    assert err.startswith(f"usage error: {refused}")


def test_verify_lemma_fail_exit_code(capsys, monkeypatch):
    from weiltate.classifier import LemmaResult

    monkeypatch.setattr(
        cli, "verify_lemma_suite",
        lambda scn, report, end: (
            LemmaResult("synthetic", "exotic_partition", "FAIL", "forced"),),
    )
    code, out, err = run_cli(capsys, ["verify", "--presets", "main4"])
    assert code == cli.EXIT_LEMMA_FAIL


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_one_process_answers_as_fresh_calls_do(capsys):
    argvs = (
        ["forge", "--g", "4", "--nope"],
        ["forge", "--g", "4", "--p", "5", "--l", "7", "--lp", "11", "--format", "json"],
        ["classify", "--preset", "split", "--gp", "3", "--format", "json"],
    )
    in_one = [run_cli(capsys, argv)[:2] for argv in argvs]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, argv)[:2])
    assert in_one == fresh
    assert [code for code, _ in in_one] == [cli.EXIT_USAGE, 0, 0]
    assert in_one[0][1] == "" and in_one[1][1] and in_one[2][1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_reader_that_closes_stdout_after_one_line_leaves_exit_0(fmt):
    """`classify ... | head -1`: the closed pipe ends the command with exit 0 and an empty stderr.

    The pipe holds one page, so the output outgrows it before the reader closes it.
    """
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe size cannot be set on this platform")
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-m", "weiltate.cli", "classify", "--preset", "ramified", "--gp", "5",
            "--cap", "20", "--format", fmt]
    with subprocess.Popen(argv, env=env, stdout=w, stderr=subprocess.PIPE) as child:
        os.close(w)
        with os.fdopen(r, "rb", buffering=0) as reader:
            line = b""
            while not line.endswith(b"\n"):
                line += reader.read(1)
        err = child.stderr.read()
    assert line == (b"{\n" if fmt == "json" else
                    b"scenario ramified-gp5-p5  (g = 10, 20 indices, group order 480)\n")
    assert (child.returncode, err) == (cli.EXIT_OK, b"")


def test_usage_error_exit_code(capsys):
    assert cli.main(["classify", "--format", "yaml"]) == cli.EXIT_USAGE
    assert cli.main(["nonsense"]) == cli.EXIT_USAGE


def test_verify_unknown_preset(capsys):
    code, out, err = run_cli(capsys, ["verify", "--presets", "main5"])
    assert code == cli.EXIT_USAGE
    assert "unknown preset" in err


def test_preset_usage_messages(capsys):
    for argv, message in [
        (["classify", "--preset", "main"], "--preset main requires --g"),
        (["classify", "--preset", "ramified"], "--preset ramified requires --gp"),
        (["classify", "--preset", "split", "--g", "4"], "--g applies only to --preset main"),
        (["classify", "--preset", "split"], "--preset split requires --gp"),
        (["verify", "--presets", "main5"],
         "unknown preset 'main5'; choose from main4, main6, ramified3, split3"),
    ]:
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (cli.EXIT_USAGE, "", f"usage error: {message}\n"), argv


def test_a_large_p_is_answered_at_once():
    """A 19-digit prime p is tested by Miller-Rabin, and a p at or past its bound is refused.

    Trial division used to run for ever on both; the child process bounds
    the wait, so a regression fails instead of hanging.
    """
    big, past = "1000000000000000003", str(algebra.MR_BOUND)
    runs = [
        ["classify", "--preset", "main", "--g", "4", "--p", big],
        ["verify", "--presets", "split3", "--p", big],
        ["classify", "--preset", "ramified", "--gp", "3", "--p", past],
        ["verify", "--presets", "main4", "--p", past],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from weiltate import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(json.dumps(codes))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(done.stdout) == [0, 0, cli.EXIT_USAGE, cli.EXIT_USAGE]
    assert done.stderr.splitlines() == [
        f"error: {past} is too large for the deterministic primality test (bound {past})"
    ] * 2


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


def test_classify_has_no_workers_flag(capsys):
    for workers in ("1", "0", "-3"):
        code, out, err = run_cli(capsys, ["classify", "--preset", "main", "--g", "4",
                                          "--workers", workers])
        assert code == cli.EXIT_USAGE
        assert "unrecognized arguments: --workers" in err
        assert out == ""


@pytest.mark.parametrize("weights", ["", "2,x", "2,,4", "x", "2.5", "4,4.0"])
def test_classify_weights_that_are_not_integers_are_a_usage_error(capsys, weights):
    code, out, err = run_cli(capsys, ["classify", "--preset", "main", "--g", "4",
                                      "--weights", weights])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: --weights") and err.count("\n") == 1
    assert "invalid literal" not in err


CLASSIFY_MAIN4 = ["classify", "--preset", "main", "--g", "4"]
FORGE_G4 = ["forge", "--g", "4", "--p", "5", "--l", "7", "--lp", "11"]
RAMIFIED5 = ["classify", "--preset", "ramified", "--gp", "5"]  # 20 points


def assert_input_error(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert code == cli.EXIT_USAGE, argv
    assert out == ""
    assert err == f"usage error: {message}\n"


def test_subset_caps_that_admit_nothing_are_input_errors(capsys):
    for cap in ("-1", "0", "1"):
        assert_input_error(capsys, CLASSIFY_MAIN4 + ["--cap", cap],
                           f"--cap must be at least 2, got {cap}")
    # 2, the least cap that admits a point pair, is a cap that is hit
    code, out, err = run_cli(capsys, CLASSIFY_MAIN4 + ["--cap", "2"])
    assert (code, out, err) == (cli.EXIT_CAP, "", "cap exceeded: 2g = 8 exceeds the subset cap 2\n")


@pytest.mark.parametrize("variable, values, argvs, codes", [
    ("WEILTATE_GROUP_CAP", ("0", "-5", "1", "ten"), [CLASSIFY_MAIN4, ["verify"]], [0, 0]),
    ("WEILTATE_SUBSET_CAP", ("8", "-1", "ten"), [["classify", "--preset", "main", "--g", "6"],
                                                 ["verify"], RAMIFIED5], [0, 0, cli.EXIT_CAP]),
    ("WEILTATE_RETRY_BUDGET", ("0", "-3", "ten"), [FORGE_G4], [0]),
], ids=["GROUP_CAP", "SUBSET_CAP", "RETRY_BUDGET"])
def test_retired_variable_is_read_by_nothing(capsys, monkeypatch, variable, values, argvs, codes):
    """No value of a retired variable changes an output.

    WEILTATE_GROUP_CAP was a cap on |G|, WEILTATE_SUBSET_CAP a second
    setting of `classify --cap`, and WEILTATE_RETRY_BUDGET the forge's
    spread budget (the flag's refusal is test_forge_budget_is_a_usage_error).
    """
    expected = [run_cli(capsys, argv) for argv in argvs]
    assert [code for code, _, _ in expected] == codes
    for value in values:
        monkeypatch.setenv(variable, value)
        assert [run_cli(capsys, argv) for argv in argvs] == expected
    for code, out, err in expected:
        if code:  # ramified g' = 5 has 20 points, over the default cap
            assert (out, err) == ("", "cap exceeded: 2g = 20 exceeds the subset cap 16\n")


def test_main_g10_and_g12_classify_under_the_subset_cap(capsys):
    """|G| = 2 g! is 7,257,600 and 958,003,200: with no variable set, --cap 2g admits both."""
    for g in (10, 12):
        code, out, err = run_cli(capsys, ["classify", "--preset", "main", "--g", str(g),
                                          "--cap", str(2 * g), "--format", "json"])
        assert (code, err) == (0, "")
        doc = plain_document(json.loads(out))
        assert doc["scenario"]["group_order"] == 2 * math.factorial(g)
        assert doc["predicted_signature"] is not None
        assert_document_invariants(doc)
        assert [e["subgroup_order"] for e in doc["report"]["weil_tate"]] == [math.factorial(g)]
        rho, orbits = main_family_by_formula(g)
        assert tuple(doc["report"]["tate_dims"]) == rho
        for o in doc["report"]["orbits"]:
            members = frozenset(tuple(i - 1 for i in m) for m in o["orbit"])
            assert members == orbits.pop((o["weight"], o["is_exotic"]))
        assert orbits == {}


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


def test_scenario_decomposition_generator_outside_the_group_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "g2.scn"
    path.write_text(G2_SCENARIO.replace("decomposition_generators = (1 2)(3 4)",
                                        "decomposition_generators = (1 2)"), encoding="utf-8")
    code, out, err = run_cli(capsys, ["classify", "--file", str(path)])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "field 'decomposition_generators'" in err and "is not in the group" in err


def test_scenario_file_with_intransitive_generators_names_the_generators_line(tmp_path, capsys):
    path = tmp_path / "intransitive.scn"
    path.write_text("points = 4\ngenerators = (1 3)(2 4)\ntau = (1 3)(2 4)\nphi = 1 2\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, ["classify", "--file", str(path)])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == ("scenario parse error: line 2: field 'generators': "
                   "group does not act transitively on the 2g indices\n")


def test_large_intransitive_scenario_is_refused_before_the_chain_is_built(tmp_path, capsys,
                                                                          monkeypatch):
    def refuse(*args):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(galois, "StabChain", refuse)
    path = tmp_path / "wide.scn"
    path.write_text("points = 200000\ngenerators = (1 2)\ntau = (1 2)\nphi = 1\n",
                    encoding="utf-8")
    # the subset cap admits the points, so the transitivity check is what refuses the file
    code, out, err = run_cli(capsys, ["classify", "--file", str(path), "--cap", "200000"])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == ("scenario parse error: line 2: field 'generators': "
                   "group does not act transitively on the 2g indices\n")


def test_scenario_over_the_subset_cap_is_refused_before_the_chain_is_built(tmp_path, capsys,
                                                                           monkeypatch):
    def refuse(*args):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(galois, "StabChain", refuse)
    path = tmp_path / "long.scn"
    cycle = "(" + " ".join(map(str, range(1, 2001))) + ")"
    # transitive, and malformed on a later line: the cap refuses it first
    path.write_text(f"# a 2000-cycle\npoints = 2000\ngenerators = {cycle}\ntau = {cycle}\n"
                    "phi = 0\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["classify", "--file", str(path)])
    assert code == cli.EXIT_CAP
    assert out == ""
    assert err == ("cap exceeded: line 2: field 'points': "
                   "2g = 2000 exceeds the subset cap 16\n")
    code, _, err = run_cli(capsys, ["classify", "--file", str(path), "--cap", "1998"])
    assert code == cli.EXIT_CAP
    assert "2g = 2000 exceeds the subset cap 1998" in err


def test_parse_scenario_refuses_more_points_than_the_subset_cap_on_line_1():
    scn = forge.scenario_ramified(3, 5)
    text = serialize_scenario(scn)
    assert forge.parse_scenario(text).model.group.degree == 12  # 12 <= the default cap 16
    assert forge.parse_scenario(text, subset_cap=12).model.group.degree == 12
    with pytest.raises(galois.CapExceededError, match="2g = 12 exceeds the subset cap 10"):
        forge.parse_scenario(text, subset_cap=10)
    # with no cap given, the default refuses a long file before any permutation is read
    long = "points = 200000\ngenerators = (1 2)\ntau = (1 2)\nphi = 1\n"
    with pytest.raises(galois.CapExceededError,
                       match="^line 1: field 'points': 2g = 200000 exceeds the subset cap 16$"):
        forge.parse_scenario(long)


@pytest.mark.parametrize("generators, tau, message", [
    ("(1 2 4 3)", "(1 2)", "tau is not an element of the generated group"),
    ("(1 2 3 4)", "(1 2 3 4)", "tau does not act as i -> i + g mod 2g"),
    ("(1 2 3 4), (1 2)", "(1 3)(2 4)", "tau is not central: fails against generator (1 2)"),
], ids=["outside-G", "not-the-shift", "not-central"])
def test_scenario_tau_line_is_refused_with_its_reason(tmp_path, capsys, generators, tau, message):
    path = tmp_path / "tau.scn"
    path.write_text(f"points = 4\ngenerators = {generators}\ntau = {tau}\nphi = 1 2\n",
                    encoding="utf-8")
    assert run_cli(capsys, ["classify", "--file", str(path)]) == (
        cli.EXIT_USAGE, "", f"scenario parse error: line 3: field 'tau': {message}\n")


def test_scenario_tau_line_is_judged_before_the_decomposition_line_is_read(tmp_path, capsys):
    path = tmp_path / "order.scn"
    # a tau that is not central beside a malformed decomposition line: the tau line is refused
    path.write_text("points = 4\ngenerators = (1 2 3 4), (1 2)\ntau = (1 3)(2 4)\n"
                    "decomposition_generators = (1 2\nphi = 1 2\n", encoding="utf-8")
    assert run_cli(capsys, ["classify", "--file", str(path)]) == (
        cli.EXIT_USAGE, "", "scenario parse error: line 3: field 'tau': "
        "tau is not central: fails against generator (1 2)\n")
    # a valid tau and no decomposition line
    path.write_text("points = 4\ngenerators = (1 2 3 4)\ntau = (1 3)(2 4)\nphi = 1 2\n",
                    encoding="utf-8")
    assert run_cli(capsys, ["classify", "--file", str(path)]) == (
        cli.EXIT_USAGE, "", "scenario parse error: missing required field "
        "'decomposition_generators' (needed for phi and slopes)\n")


def test_the_classifier_takes_no_cap_and_classifies_what_the_capped_command_admits(
        capsys, monkeypatch):
    classify_scenario, reports = cli.classify_scenario, []
    monkeypatch.setattr(cli, "classify_scenario",
                        lambda *args: reports.append(classify_scenario(*args)) or reports[-1])
    assert run_cli(capsys, RAMIFIED5 + ["--cap", "20"])[0] == cli.EXIT_OK
    scn = forge.scenario_ramified(5, 5, subset_cap=20)
    assert classify_orbits(scn.model, scn.slopes, phi=scn.phi) == reports[0][0]


def test_subset_cap_flag_applies_to_every_preset_family(capsys):
    for preset in (["main", "--g", "6"], ["ramified", "--gp", "3"], ["split", "--gp", "3"]):
        code, out, err = run_cli(capsys, ["classify", "--preset", *preset, "--cap", "10"])
        assert (code, out) == (cli.EXIT_CAP, ""), preset
        assert err == "cap exceeded: 2g = 12 exceeds the subset cap 10\n"


@pytest.mark.parametrize("preset, points", [
    (["main", "--g", "4"], 8),
    (["ramified", "--gp", "3"], 12),
    (["split", "--gp", "3"], 12),
], ids=["main4", "ramified3", "split3"])
def test_subset_cap_flag_admits_a_preset_at_the_cap(capsys, preset, points):
    code, _, _ = run_cli(capsys, ["classify", "--preset", *preset, "--cap", str(points)])  # 2g
    assert code == 0
    code, out, err = run_cli(capsys, ["classify", "--preset", *preset, "--cap", str(points - 1)])
    assert code == cli.EXIT_CAP and out == ""
    assert err == f"cap exceeded: 2g = {points} exceeds the subset cap {points - 1}\n"


def test_verify_classifies_each_preset_once_through_the_classify_route(capsys, monkeypatch):
    calls, built = [], []
    classify_scenario = cli.classify_scenario

    def counted(scn, *args, **kwargs):
        calls.append(scn.name)
        return classify_scenario(scn, *args, **kwargs)

    def recording(family):
        build = forge.PRESETS[family]
        return lambda *args, **kwargs: built.append(family) or build(*args, **kwargs)

    monkeypatch.setattr(cli, "classify_scenario", counted)
    for family in list(forge.PRESETS):
        monkeypatch.setitem(forge.PRESETS, family, recording(family))
    assert run_cli(capsys, ["verify"])[0] == 0
    assert calls == ["main-g4-p5", "main-g6-p5", "ramified-gp3-p5", "split-gp3-p5"]
    assert built == ["main", "main", "ramified", "split"]
    calls.clear()
    assert run_cli(capsys, CLASSIFY_MAIN4)[0] == 0
    assert calls == ["main-g4-p5"]
    # every name is checked before the first preset is built
    calls.clear()
    built.clear()
    code, out, err = run_cli(capsys, ["verify", "--presets", "main4,main6,bogus"])
    assert (code, out, calls, built) == (cli.EXIT_USAGE, "", [], [])
    assert err.startswith("usage error: unknown preset 'bogus'")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_takes_each_preset_name_once(capsys, fmt):
    """A repeated name adds no row: the lemmas hold one row per (preset, lemma)."""
    once = run_cli(capsys, ["verify", "--presets", "main4", "--format", fmt])
    assert once[0] == 0
    assert run_cli(capsys, ["verify", "--presets", "main4,main4", "--format", fmt]) == once
    both = run_cli(capsys, ["verify", "--presets", "split3,main4", "--format", fmt])
    assert run_cli(capsys, ["verify", "--presets", "split3, main4,split3,main4 ", "--format",
                            fmt]) == both


@pytest.mark.parametrize("name", list(cli.VERIFY_PRESETS))
def test_the_lemma_rows_read_the_report_of_the_classify_document(name, capsys, monkeypatch):
    seen = []
    suite = cli.verify_lemma_suite

    def recording(scn, report, end):
        seen.append((scn, report, end))
        return suite(scn, report, end)

    monkeypatch.setattr(cli, "verify_lemma_suite", recording)
    assert run_cli(capsys, ["verify", "--presets", name])[0] == 0
    ((scn, report, end),) = seen
    doc = cli.classify_scenario_doc(scn)
    assert report_to_doc(report, scn.model.group) == doc["report"]
    assert end_report_to_doc(end) == doc["endomorphism"]
    assert all("hodge_type" in o for o in plain_document(doc)["report"]["orbits"])


WREATH_SCENARIO = """\
name = wreath-c2-s8
points = 16
generators = (1 9)(2 10)(3 11)(4 12)(5 13)(6 14)(7 15)(8 16), \
(1 2 3 4 5 6 7 8)(9 10 11 12 13 14 15 16), (1 2)(9 10), (1 9)
tau = (1 9)(2 10)(3 11)(4 12)(5 13)(6 14)(7 15)(8 16)
decomposition_generators = (1 2 3 4 5 6 7 8)(9 10 11 12 13 14 15 16)
phi_targets = 4 4
"""


def test_scenario_file_of_a_large_group_classifies_under_the_default_caps(tmp_path, capsys):
    """C2 wr S_8 on 16 points, of order 2^8 8! = 10,321,920; every slope is 1/2, so every
    subset of even size is Tate."""
    path = tmp_path / "wreath.scn"
    path.write_text(WREATH_SCENARIO, encoding="utf-8")
    code, out, err = run_cli(capsys, ["classify", "--file", str(path), "--format", "json"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["scenario"]["group_order"] == 2**8 * math.factorial(8) == 10321920
    assert doc["scenario"]["slopes"] == ["1/2"] * 16
    assert doc["report"]["tate_dims"] == [math.comb(16, 2 * k) for k in range(9)]
    assert_document_invariants(doc)


def test_forge_self_check_failure_exits_3_without_traceback(capsys, monkeypatch):
    crt_poly = forge.crt_poly

    def faulty(constraints, degree):
        """A CRT fault: the constant coefficient off by 1, so f no longer reduces to its targets."""
        base = crt_poly(constraints, degree)
        return (base[0] + 1,) + base[1:]

    monkeypatch.setattr(forge, "crt_poly", faulty)
    code, out, err = run_cli(capsys, ["forge", "--g", "4", "--p", "5", "--l", "7", "--lp", "11"])
    assert code == cli.EXIT_HYPOTHESIS
    assert out == ""
    assert err.splitlines() == [
        "self-check failed: certified search produced a polynomial failing its certificates"
    ]


def test_forge_past_its_spread_bound_is_a_self_check_failure(capsys, monkeypatch):
    """The bound makes the last refusal unreachable; a sign test that never passes reaches it."""
    tried = []
    monkeypatch.setattr(forge, "_alternates_at_midpoints", lambda poly, scale: tried.append(scale))
    code, out, err = run_cli(capsys, FORGE_G4)
    assert (code, out) == (cli.EXIT_HYPOTHESIS, "")
    # 2g (g + 1/2)^(g-1) = 729 at g = 4: the spreads 1, 2, ..., 1024 are tried
    assert forge._spread_bound(4) == 730 and len(tried) == 11
    assert err == "self-check failed: the signs did not alternate at spread 1024, past the bound\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--preset", "main", "--g", "4"],
    ["classify", "--preset", "ramified", "--gp", "3"],
    ["classify", "--preset", "split", "--gp", "3"],
    ["verify", "--presets", "main4"],
], ids=["main", "ramified", "split", "verify"])
def test_preset_block_check_failure_exits_3_without_traceback(argv, capsys, monkeypatch):
    # a trivial D leaves every index its own block, which no preset accepts
    preset = forge._preset
    monkeypatch.setattr(forge, "_preset", lambda name, family, group, d_gens, *rest:
                        preset(name, family, group, [], *rest))
    code, out, err = run_cli(capsys, argv)
    assert code == cli.EXIT_HYPOTHESIS
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("self-check failed: ") and "blocks" in err


# --- the indent=2 writer ------------------------------------------------------

class _Level(IntEnum):  # subclasses of int and str: json writes them, no document holds one
    ONE = 1


class _Tag(str):
    pass


TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001d53d') | st.characters())
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**80)
    | st.integers(-(2**80), -1)
    | TEXT
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children)
    | st.dictionaries(TEXT, children)
    | st.lists(st.integers() | st.booleans()),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(JSON_TREES)
@example({"b": [1, True, False, 0, None], "a": {}, "é\"\\\n": [[], [2**70, -3]]})
@example([[1, 2], [], [3]])  # lists of plain-int lists: an empty one leaves the one-join path
@example([[1], [True]])
@example([[2**70, -3], [0]])
@example([[1, 2], 3])
@example([[[1]], [2]])
@example({"s": "x\u00e9\n", "i": -(2**70), "t": True, "f": False, "n": None, "e": ""})
@example([["a", 0, True, None], {"k": [False, "b"]}])
def test_emit_json_matches_json_dumps(tree):
    assert emitted_text(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_emit_json_matches_json_dumps_on_the_documents():
    ramified = forge.scenario_ramified(3, 5)
    field = forge.forge_totally_real(4, 5, 7, 11, seed=1)
    docs = [
        cli.classify_scenario_doc(scenario_main(4, 5), fields=forge.main_fields(4, 5)),
        cli.classify_scenario_doc(ramified, weights=[0, 4, 6]),
        cli.forged_field_to_doc(field),
        {"schema": "weiltate.verify/1", "oracles": [], "lemmas": [
            {"instance": r.instance, "lemma": r.lemma, "status": r.status, "detail": r.detail}
            for r in classifier.verify_lemma_suite(
                ramified, *classifier.classify_scenario(ramified)
            )
        ]},
    ]
    for doc in docs:
        assert emitted_text(doc) == json.dumps(plain_document(doc), sort_keys=True, indent=2) + "\n"


class _WriteLog:
    """A stdout that keeps each write as it comes."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_classify_streams_its_document_in_pieces():
    """Each piece goes to stdout as it is formed: no write is longer than one orbit's members.

    The member lists sit at depth 4 (document, report, orbits, orbit),
    so each of their lines is indented by 8 more spaces than at the top.
    """
    argv = ["classify", "--preset", "ramified", "--gp", "5", "--cap", "20", "--format", "json"]
    log = _WriteLog()
    with redirect_stdout(log):
        assert cli.main(argv) == cli.EXIT_OK
    scn = forge.scenario_ramified(5, 5, subset_cap=20)
    doc = plain_document(cli.classify_scenario_doc(scn))
    assert "".join(log.writes) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    largest = max(
        len(json.dumps(o["orbit"], indent=2).replace("\n", "\n" + " " * 8))
        for o in doc["report"]["orbits"]
    )
    assert max(map(len, log.writes)) <= largest


def test_emit_json_rejects_what_json_rejects():
    pieces = []
    with pytest.raises(TypeError):
        cli._emit_json({"x": object()}, pieces.append)
    with pytest.raises(TypeError):
        json.dumps({"x": object()})
    with pytest.raises(TypeError):  # json writes floats, but no document holds one
        cli._emit_json({"x": [1, 0.5]}, pieces.append)
    bare = classifier.MemberMasks(4, (0b1100, 0b0011))  # members are written only in an orbit
    for tree in ({"x": bare}, [bare]):
        with pytest.raises(TypeError):
            json.dumps(tree)
        with pytest.raises(TypeError):
            cli._emit_json(tree, pieces.append)
    for tree in (_Level.ONE, _Tag("x"), {"i": _Level.ONE}, {"s": _Tag("t\n")},
                 [_Level.ONE, 2], [2, _Tag("")]):
        with pytest.raises(TypeError):
            cli._emit_json(tree, pieces.append)


# --- classify text straight from the masks --------------------------------------


def _ladder():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "ladder.py"
    spec = importlib.util.spec_from_file_location("perfbench_ladder", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


LADDER_CLASSIFY = {r.name: list(r.argv) for r in _ladder().RUNGS.values() if r.kind == "classify"}


def plain_classify_text(argv) -> str:
    """`json.dumps` of the plain form of the document `classify_scenario_doc` returns for an argv."""
    args = cli.build_parser().parse_args(argv)
    subset_cap = forge.DEFAULT_SUBSET_CAP if args.cap is None else args.cap
    p = cli.DEFAULT_P if args.p is None else args.p
    scn = cli._resolve_scenario(args, p, subset_cap)
    weights = None if args.weights is None else [int(w) for w in args.weights.split(",")]
    fields = forge.main_fields(args.g, p) if args.attach_fields else None
    doc = cli.classify_scenario_doc(scn, weights, fields)
    return json.dumps(plain_document(doc), sort_keys=True, indent=2) + "\n"


def assert_same_text(got: str, expected: str) -> None:
    """Equal texts, compared by sha256; a mismatch names the first line that differs.

    The texts run to many MB on the large rungs, where a full diff of
    the two would take minutes to build.
    """
    if hashlib.sha256(got.encode()).digest() == hashlib.sha256(expected.encode()).digest():
        return
    got_lines, expected_lines = got.splitlines(True), expected.splitlines(True)
    k = next((k for k, (a, b) in enumerate(zip(got_lines, expected_lines)) if a != b),
             min(len(got_lines), len(expected_lines)))

    def line(lines):
        return repr(lines[k]) if k < len(lines) else "the end of the text"

    pytest.fail(f"texts differ first at line {k + 1}: got {line(got_lines)}, "
                f"expected {line(expected_lines)} ({len(got)} and {len(expected)} characters)")


def assert_cli_text_is_the_plain_document(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert_same_text(out.getvalue(), plain_classify_text(argv))
    assert_document_invariants(json.loads(out.getvalue()))


@pytest.mark.parametrize("rung", list(LADDER_CLASSIFY))
def test_classify_json_is_the_plain_document_on_the_ladder(rung):
    assert_cli_text_is_the_plain_document(LADDER_CLASSIFY[rung])


@st.composite
def drawn_scenarios(draw):
    """A drawn CM model as a scenario, with the slopes of its CM type.

    The models are mu2 x S_g or tau with one or two signed permutations
    (g = 2..4), D is generated by a random word in the generators, and
    phi takes one of i, tau(i) for each i.
    """
    g = draw(st.integers(2, 4))
    n = 2 * g
    tau = tuple((i + g) % n for i in range(n))
    if draw(st.booleans()):
        group = cm_product_model(g).group
    else:
        cycle = draw(st.permutations(range(g)))
        sigmas = [{cycle[k]: cycle[(k + 1) % g] for k in range(g)}]  # a g-cycle: transitive
        if draw(st.booleans()):
            sigmas.append(dict(enumerate(draw(st.permutations(range(g))))))
        gens = [tau]
        for sigma in sigmas:
            flips = draw(st.lists(st.booleans(), min_size=g, max_size=g))
            perm = [0] * n
            for i in range(g):
                j = sigma[i] + (g if flips[i] else 0)
                perm[i], perm[i + g] = j, (j + g) % n
            gens.append(tuple(perm))
        group = galois.build_group(n, gens)
    gens = group.generators
    word = draw(st.lists(st.sampled_from(range(len(gens))), min_size=1, max_size=3))
    d = galois.identity(n)
    for k in word:
        d = galois.compose(d, gens[k])
    phi = frozenset(draw(st.sampled_from((i, tau[i]))) for i in range(g))
    return Scenario(name="drawn", family=None, model=galois.CMGaloisModel(group, [d]), phi=phi)


def drawn_weights(draw, n):
    """None (a full scan) or one to three even weights in 0..n."""
    return draw(st.none() | st.lists(st.sampled_from(range(0, n + 1, 2)), min_size=1, max_size=3))


@st.composite
def classify_argv(draw):
    """(scenario file text or None, classify argv): a drawn CM model from a file, or a preset.

    The models come from `drawn_scenarios`.  The presets are main g = 4, 6
    (with or without --attach-fields) and ramified / split g' = 3.  A
    full scan always has the weight-0 orbit; an explicit weight list may
    hold 0 or not.
    """
    if draw(st.booleans()):
        family = draw(st.sampled_from(("main", "ramified", "split")))
        n = 12  # points: 2g, with g = 2g' for ramified and split
        if family == "main":
            n = draw(st.sampled_from((8, 12)))
            argv = ["--preset", "main", "--g", str(n // 2)]
            if draw(st.booleans()):
                argv.append("--attach-fields")
        else:
            argv = ["--preset", family, "--gp", "3"]
        text = None
    else:
        scn = draw(drawn_scenarios())
        n = scn.model.group.degree
        text = serialize_scenario(scn)
        argv = []
    weights = drawn_weights(draw, n)
    if weights is not None:
        argv += ["--weights", ",".join(map(str, weights))]
    return text, argv


@settings(max_examples=40, deadline=None)
@given(classify_argv())
@example((None, ["--preset", "main", "--g", "4", "--attach-fields", "--weights", "0,4"]))
def test_classify_json_is_the_plain_document_on_drawn_models(tmp_path_factory, case):
    text, argv = case
    if text is not None:
        path = tmp_path_factory.mktemp("scenario") / "drawn.scn"
        path.write_text(text, encoding="utf-8")
        argv = ["--file", str(path)] + argv
    assert_cli_text_is_the_plain_document(["classify"] + argv + ["--format", "json"])


def _count_decodes(monkeypatch) -> list:
    """The masks that `classifier._points` decodes from now on, in call order."""
    decoded, points = [], classifier._points
    monkeypatch.setattr(classifier, "_points", lambda n, m: decoded.append(m) or points(n, m))
    return decoded


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_classify_forms_no_member_point_tuple(fmt, capsys, monkeypatch):
    """The CLI writes each orbit's members from their masks: no member is decoded to points."""
    doc = cli.classify_scenario_doc(forge.scenario_ramified(3, 5))
    decoded = _count_decodes(monkeypatch)
    if fmt == "json":
        cli._emit_json(doc, sys.stdout.write)
    else:
        cli._print_classify_text(doc)
    assert "weight" in capsys.readouterr().out
    assert decoded == []
    # the count sees a member that is decoded
    assert classifier._points(4, 0b1010) == (0, 2) and decoded == [0b1010]


def test_comparing_reports_decodes_no_member(monkeypatch):
    """Report equality and hashing read each orbit's `MemberMasks` as its masks."""
    scn = forge.scenario_ramified(5, 5, subset_cap=20)
    report, again = (classify_orbits(scn.model, scn.slopes) for _ in range(2))
    decoded = _count_decodes(monkeypatch)
    assert report == report and report == again and hash(report) == hash(again)
    assert decoded == []


# --- round trips on drawn models ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(drawn_scenarios(), st.data())
def test_report_document_round_trip_on_drawn_models(scn, data):
    """The written report reads back equal, each orbit's members as the same masks."""
    weights = drawn_weights(data.draw, scn.model.group.degree)
    report = classify_orbits(scn.model, scn.slopes, weights=weights, phi=scn.phi)
    doc = json.loads(emitted_text(report_to_doc(report, scn.model.group)))
    assert doc_to_report(doc) == report  # `MemberMasks` equality reads the masks


@settings(max_examples=40, deadline=None)
@given(drawn_scenarios(), st.booleans())
def test_each_orbit_is_three_writes_that_join_to_its_oracle_document(scn, with_phi):
    """An orbit's pieces are its keys before "orbit", its members, then the rest.

    Joined, they are `json.dumps` of its `orbit_to_doc` dict, at the
    orbits' depth in a classify document and at the top.  Without phi
    no orbit has a Hodge type, and no Hodge key is written.  A full scan
    starts with the weight-0 orbit, whose representative is empty.
    """
    report = classify_orbits(scn.model, scn.slopes, phi=scn.phi if with_phi else None)
    assert report.orbits[0].representative == ()
    tables = {}
    for nl in ("\n" + " " * 6, "\n"):
        for o in report.orbits:
            pieces = []
            cli._write_json(o, nl, pieces.append, tables)
            doc = plain_document(o)
            assert ("hodge_type" in doc) is ("hodge_balanced" in doc) is with_phi
            assert len(pieces) == 3
            assert pieces[0].endswith('"orbit": ')
            assert pieces[1] == json.dumps(doc["orbit"], indent=2).replace("\n", nl + "  ")
            assert "".join(pieces) == json.dumps(doc, sort_keys=True, indent=2).replace("\n", nl)


@settings(max_examples=40, deadline=None)
@given(drawn_scenarios(), st.data())
def test_a_weight_above_the_middle_reads_the_same_alone_and_with_its_mirror(scn, data):
    """The orbits at 2g - w are the walked ones, whether w is asked for too or not."""
    n = scn.model.group.degree
    w = data.draw(st.sampled_from(range(0, scn.model.g, 2)))

    def orbits(weights):
        report = classify_orbits(scn.model, scn.slopes, weights=weights, phi=scn.phi)
        return [o for o in report.orbits if o.weight == n - w]

    walked = list(classify_orbits_by_walk(scn.model, scn.slopes, [n - w], scn.phi).orbits)
    assert orbits([n - w]) == walked
    assert orbits([w, n - w]) == walked
    assert orbits([w]) == []


@settings(max_examples=40, deadline=None)
@given(drawn_scenarios())
def test_cm_types_of_the_measured_targets_are_the_listed_ones_on_drawn_models(scn):
    """Enumeration and the greedy least type against all 2^g choices, at phi's own place counts."""
    targets = measure_cm_type(scn.model, scn.phi)
    listed = cm_types_by_listing(scn.model, targets)
    assert scn.phi in listed
    assert enumerate_cm_types(scn.model, targets) == listed
    assert least_cm_type(scn.model, targets) == listed[0]


@settings(max_examples=40, deadline=None)
@given(drawn_scenarios())
def test_scenario_file_round_trip_on_drawn_models(scn):
    loaded = forge.parse_scenario(serialize_scenario(scn))
    assert loaded.model.tau == scn.model.tau
    assert loaded.model.group.order == scn.model.group.order
    assert loaded.model.D_blocks == scn.model.D_blocks
    assert loaded.phi == scn.phi
    assert loaded.slopes == scn.slopes


# --- classify --file on malformed scenario text -------------------------------------

SCENARIO_TOKENS = st.one_of(
    st.sampled_from(("0", "1", "-1", "9", "2,", "1.5", "1/0", "1/3", "ten", "=", "#", "",
                     "(1 2)", "(1 1)", "(1", ")", "(1 9)", "1 1 2")),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=4),
)


@st.composite
def malformed_scenario_texts(draw):
    """The `serialize_scenario` text of a drawn scenario with one line dropped, repeated or
    truncated, or one token of a line swapped for a drawn one."""
    lines = serialize_scenario(draw(drawn_scenarios())).splitlines()
    k = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(("drop", "repeat", "truncate", "swap")))
    event(edit)
    if edit == "drop":
        del lines[k]
    elif edit == "repeat":
        lines.insert(k, lines[k])
    elif edit == "truncate":
        lines[k] = lines[k][:draw(st.integers(0, len(lines[k]) - 1))]
    else:
        tokens = lines[k].split(" ")
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(SCENARIO_TOKENS)
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(text=malformed_scenario_texts(), fmt=st.sampled_from(("text", "json")))
@example(text="points = 4\ngenerators = (1 2)(3 4), (1 3)(2 4)\ntau = (1 3)(2 4)\n"
              "decomposition_generators = (1 3)(2 4)\nphi = 1 1 2\n", fmt="json")
def test_classify_file_keeps_the_exit_code_contract_on_malformed_text(tmp_path_factory, text,
                                                                      fmt):
    """Every mutated scenario file exits 0, 2, 3, 4 or 5 without a traceback, under `--cap 8`;
    a refusal writes nothing to stdout and says why on stderr."""
    path = tmp_path_factory.mktemp("malformed") / "scenario.scn"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["classify", "--file", str(path), "--cap", "8", "--format", fmt])
    event(f"exit {code}")
    assert code in (0, 2, 3, 4, 5), text
    assert "Traceback" not in err.getvalue()
    if code in (2, 3, 4):
        assert out.getvalue() == "" and err.getvalue(), text
