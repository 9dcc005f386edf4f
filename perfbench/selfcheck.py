"""Quick test of the harness itself: ``python3 perfbench/run.py --selfcheck``.

Checks that BENCHMARK.json names what run.py reports, that the output
checks accept good documents and reject broken ones, that the per-op
time limit fires and disarms, and that two traced passes over the same
ops give identical counters while leaving the program unpatched.
"""

from __future__ import annotations

import json
import random
import signal

import ladder
import run
import tracer


def _bench_json_matches() -> list:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        if listed != table:
            problems.append(f"{key} differs: {sorted(set(listed) ^ set(table))}")
    if [w["name"] for w in bench["workloads"]] != [n for n in ladder.WORKLOADS
                                                   if n != ladder.DEFECTS]:
        problems.append("workloads differ")
    return problems


def _doc(runner, op) -> dict:
    result = runner.run(op)
    if result.status != "ok":
        raise RuntimeError(f"{op.rung.name} failed: {result.status}")
    return json.loads(result.output[2])


def _check(op, doc) -> list:
    return run.checks.check_output(op.rung, op.argv, json.dumps(doc))


def _checks_behave(runner) -> list:
    problems = []
    main4 = ladder.Op(ladder.RUNGS["main4"], ladder.RUNGS["main4"].argv)
    split3 = ladder.Op(ladder.RUNGS["split3"], ladder.RUNGS["split3"].argv)
    forge4 = ladder.make_op(ladder.RUNGS["g4"], random.Random(0))
    good_main, good_split, good_forge = _doc(runner, main4), _doc(runner, split3), \
        _doc(runner, forge4)
    for op, doc in ((main4, good_main), (split3, good_split), (forge4, good_forge)):
        if _check(op, doc):
            problems.append(f"good {op.rung.name} output rejected: {_check(op, doc)}")

    def broken(doc, edit):
        doc = json.loads(json.dumps(doc))
        edit(doc)
        return doc

    cases = {
        "negative signature": (main4, broken(good_main, lambda d: d.update(
            predicted_signature=[-1, d["predicted_signature"][0] + d["predicted_signature"][1] + 1]))),
        "asymmetric rho": (main4, broken(good_main, lambda d: d["report"]["tate_dims"].__setitem__(
            0, 2))),
        "signature without tate_dims": (split3, broken(good_split, lambda d: d.update(
            predicted_signature=[1, 1]))),
        "weight left out": (split3, broken(good_split, lambda d: d["report"]["weights"].pop())),
        "no exotic orbit": (main4, broken(good_main, lambda d: [
            o.__setitem__("is_exotic", False) for o in d["report"]["orbits"]])),
        "odd 2 dim": (main4, broken(good_main, lambda d: d["endomorphism"].__setitem__(
            "abelian_variety_dim", 3))),
        "no real roots": (forge4, broken(good_forge, lambda d: d.__setitem__(
            "coefficients_low_to_high", [1] + [0] * (d["g"] - 1) + [1]))),
        "wrong root count": (forge4, broken(good_forge, lambda d: d["certificates"].__setitem__(
            "real_root_count", d["g"] - 2))),
        "not json": (main4, None),
    }
    for name, (op, doc) in cases.items():
        text = "{" if doc is None else json.dumps(doc)
        if not run.checks.check_output(op.rung, op.argv, text):
            problems.append(f"broken output accepted: {name}")
    return problems


def _time_limit_fires(runner) -> list:
    main6 = ladder.RUNGS["main6"]
    quick = ladder.Rung("main6", main6.metric, main6.kind, main6.family, main6.g, 0.05, main6.argv)
    result = runner.run(ladder.Op(quick, quick.argv))
    after = runner.run(ladder.Op(ladder.RUNGS["main4"], ladder.RUNGS["main4"].argv))
    problems = []
    if result.status != "timeout":
        problems.append(f"main6 under a 0.05 s limit ended {result.status!r}")
    if after.status != "ok" or signal.getitimer(signal.ITIMER_REAL)[0] != 0:
        problems.append("the timer stayed armed after a timed-out op")
    return problems


def _counters_repeat(runner, cli) -> list:
    ops = [ladder.Op(ladder.RUNGS[n], ladder.RUNGS[n].argv) for n in ("main4", "ramified3")]
    ops.append(ladder.make_op(ladder.RUNGS["g6"], random.Random(1)))
    seen = []
    for _ in range(2):
        rec, _pairs = run.traced_pass(runner, [run.Result(op, "ok", 1.0, 1.0) for op in ops], cli.main)
        calls = {name: row["calls"] for name, row in rec.layer_totals().items()}
        seen.append((dict(rec.counts), dict(rec.maxima), calls))
    problems = []
    if seen[0] != seen[1]:
        problems.append(f"counters differ between traced passes: {seen}")
    if any(getattr(fn, "__wrapped__", None) for fn in vars(cli).values()):
        problems.append("a wrapper was left in weiltate.cli")
    if sorted(seen[0][2]) != sorted({name for _, _, name, _ in tracer.PATCHES} | {tracer.ROOT}) or \
            seen[0][0].get("classifier.tate_orbits", 0) == 0:
        problems.append(f"traced names or counts missing: {sorted(seen[0][2])}, {seen[0][0]}")

    saved = tracer.PATCHES
    tracer.PATCHES = saved + (("weiltate.cli", "no_such_name", "cli.no_such_name", None),)
    try:
        with tracer.Recorder() as rec:
            pass
    finally:
        tracer.PATCHES = saved
    if rec.absent != ["weiltate.cli.no_such_name"]:
        problems.append(f"a missing name was not reported absent: {rec.absent}")
    return problems


def main() -> int:
    cli = run._import_program()
    signal.signal(signal.SIGALRM, run._alarm)
    runner = run.Runner(cli.main)
    steps = (
        ("BENCHMARK.json names what run.py reports", _bench_json_matches),
        ("checks accept good and reject broken output", lambda: _checks_behave(runner)),
        ("per-op time limit fires and disarms", lambda: _time_limit_fires(runner)),
        ("counters repeat; names absent are reported", lambda: _counters_repeat(runner, cli)),
    )
    failed = 0
    for name, step in steps:
        problems = step()
        failed += bool(problems)
        print(f"selfcheck {'PASS' if not problems else 'FAIL'}: {name}")
        for p in problems:
            print(f"    {p}")
    return 1 if failed else 0
