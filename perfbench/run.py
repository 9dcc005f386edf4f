"""Ladder benchmark of weiltate: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload groups --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selfcheck

Every op is one user command run in-process through
``weiltate.cli.main(argv)``, stdout captured, under a per-op time limit.
Repeat rungs run in seeded rounds for ``--seconds``; once rungs run once
after them.  Times are scaled to a reference machine state
(calibrate.py).  Outputs are checked after the timed region (checks.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same measurement, then replays its first round and its once rungs (one
op per rung) under the span recorder and prints the per-layer metrics;
spans go to perfbench/out/.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Exit status is 0 when the run completed, whatever the
failures, and 2 when the program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import checks
import ladder
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
MIN_ROUNDS = 3

# name -> (unit, better); the same names, units and directions as BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SPAN_METRICS = (
    "galois.build_group.s",
    "galois.index2_overgroups.s",
    "galois.orbit_of_subset.s",
    "galois.orbit_of_subset.calls",
    "slopes.fix_of_slope.s",
    "slopes.fix_of_slope.calls",
    "slopes.frobenius_rank.s",
    "slopes.minimal_field_index.s",
    "cmtypes.hodge_type.s",
    "cmtypes.hodge_type.calls",
    "classifier.classify_orbits.self_s",
    "classifier.has_qpair_matching.s",
    "classifier.q_pairs.s",
    "classifier.weil_tate_submotives.self_s",
    "classifier.honda_tate_endomorphism.s",
    "classifier.report_to_doc.s",
    "forge.scenario.s",
    "forge.forge_totally_real.self_s",
    "algebra.sturm_real_roots.s",
    "algebra.factor_degree_pattern.s",
    "algebra.factor_degree_pattern.calls",
    "algebra.count_distinct_roots_mod.s",
    "algebra.crt_poly.s",
    "cli.emit_json.s",
)
COUNT_METRICS = (
    "galois.orbit_of_subset.members",
    "galois.group_order",
    "classifier.tate_orbits",
    "classifier.tate_subsets",
    "forge.sturm_calls",
    "algebra.coeff_bits",
)
RATIO_METRICS = ("classifier.orbit_yield", "classifier.tate_yield", "trace.overhead_frac")
RUNG_METRICS = (
    "doc_s.main4",
    "doc_s.main6",
    "doc_s.ramified3",
    "doc_s.split3",
    "doc_s.ramified5",
    "doc_s.split5",
    "forge_s.g4",
    "forge_s.g8",
    "forge_s.g12",
)


def _per_layer_units() -> dict:
    units = {}
    for name in SPAN_METRICS + ("cli.self_s",) + RUNG_METRICS:
        units[name] = ("count", "lower") if name.endswith(".calls") else ("s", "lower")
    for name in COUNT_METRICS:
        units[name] = ("bits" if name == "algebra.coeff_bits" else "count", "lower")
    units["classifier.tate_orbits"] = units["classifier.tate_subsets"] = ("count", "higher")
    for name in RATIO_METRICS:
        units[name] = ("ratio", "lower" if name == "trace.overhead_frac" else "higher")
    return units


PER_LAYER = _per_layer_units()


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; BaseException so the program cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Result:
    op: ladder.Op
    status: str  # "ok", "timeout", "exit N: ...", "error: ...", then "check: ..." after checks
    seconds: float
    kernel_s: float  # calibration kernel time of the machine state the op ran in
    output: tuple = None  # (rung name, argv, stdout), shared by every op with that output

    @property
    def norm(self) -> float:
        """Seconds scaled to the reference machine state; a timeout counts as measured."""
        if self.status == "timeout":
            return self.seconds
        return self.seconds * calibrate.REFERENCE_S[self.op.rung.kind] / self.kernel_s


class Runner:
    """Runs ops one at a time and keeps one copy of each distinct output."""

    def __init__(self, main):
        self.main = main
        self.outputs = {}
        self.results = []

    def run(self, op: ladder.Op, main=None, kernel_s=None) -> Result:
        """Run one op; without `kernel_s`, calibrate before, during and after it."""
        kind = op.rung.kind
        sampler = calibrate.Sampler(kind) if kernel_s is None else nullcontext()
        before = kernel_s or calibrate.kernel_seconds(kind)
        out, err = io.StringIO(), io.StringIO()
        rc = None
        status = "ok"
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, op.rung.limit_s)
            try:
                with redirect_stdout(out), redirect_stderr(err), sampler:
                    rc = (main or self.main)(list(op.argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            status = "timeout"
        except Exception as exc:  # an escaping exception fails this op, not the run
            status = "error: " + "".join(traceback.format_exception_only(exc)).strip()
        seconds = perf_counter() - start
        if rc not in (None, 0):
            status = f"exit {rc}: {err.getvalue().strip()[:200]}"
        if kernel_s is None:
            seconds -= sampler.spent
            kernel_s = statistics.fmean([before, *sampler.samples,
                                         calibrate.kernel_seconds(kind)])
        result = Result(op, status, seconds, kernel_s)
        if status == "ok":
            key = (op.rung.name, op.argv, out.getvalue())
            result.output = self.outputs.setdefault(key, key)
        self.results.append(result)
        return result

    def check(self) -> None:
        """Check each distinct output once; mark the ops whose output fails."""
        problems = {(name, argv, text): checks.check_output(ladder.RUNGS[name], argv, text)
                    for name, argv, text in self.outputs}
        for r in self.results:
            if r.output is not None and problems[r.output]:
                r.status = "check: " + "; ".join(problems[r.output])


def _import_program():
    if not (SRC / "weiltate" / "cli.py").is_file():
        raise ImportError(f"no weiltate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weiltate.cli

    if SRC.resolve() not in Path(weiltate.cli.__file__).resolve().parents:
        raise ImportError(f"weiltate was imported from {weiltate.cli.__file__}, not {SRC}")
    return weiltate.cli


PROBE = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import calibrate
kernel_s = calibrate.kernel_seconds("classify")
t = time.perf_counter()
import weiltate.cli, ladder
ladder.WorkList({workload!r}, {seed!r})
print(time.perf_counter() - t, kernel_s)
"""


def measure_setup(workload: str, seed: int) -> list:
    """Import weiltate and build the input list in fresh interpreters, one at a time.

    Each interpreter calibrates just before it imports (imports are hash
    and dict work, like the classify kernel).
    """
    code = PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        seconds, kernel_s = map(float, done.stdout.split())
        times.append(seconds * calibrate.REFERENCE_S["classify"] / kernel_s)
    return times


def measure(runner: Runner, work: ladder.WorkList, seconds: float) -> list:
    """Timed phase: rounds of the repeat rungs for `seconds`, then the once rungs.

    A calibration before each round, or before, during and after each
    once op, records the machine state the op ran in (calibrate.py).

    Returns the results of the first round and of the once rungs: one op
    per rung, the ops the traced pass replays.
    """
    rounds = []
    deadline = perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        ops = work.next_round()
        kernel_s = calibrate.kernel_seconds(ops[0].rung.kind)
        rounds.append([runner.run(op, kernel_s=kernel_s) for op in ops])
    return rounds[0] + [runner.run(op) for op in work.once]


def traced_pass(runner: Runner, replay: list, cli_main):
    """Replays one op per rung under the recorder; returns (recorder, [(untraced, traced)])."""
    pairs = []
    with tracer.Recorder() as rec:
        root = rec.wrap(cli_main, tracer.ROOT)
        for op_id, untraced in enumerate(replay):
            rec.op_id = op_id
            pairs.append((untraced, runner.run(untraced.op, main=root)))
    return rec, pairs


def rung_times(results) -> dict:
    """rung -> (seconds, ops, inputs) over normalised op times.

    Per input the median of its ops, per rung the mean over its inputs:
    forge times differ by seed, and over a pool of seeds the mean is the
    steadier summary.  A classify rung has one input.
    """
    per_input = defaultdict(list)
    ops = Counter()
    for r in results:
        per_input[(r.op.rung.name, r.op.argv)].append(r.norm)
        ops[r.op.rung.name] += 1
    per_rung = defaultdict(list)
    for (name, _), times in per_input.items():
        per_rung[name].append(statistics.median(times))
    return {name: (statistics.fmean(ts), ops[name], len(ts)) for name, ts in per_rung.items()}


def per_layer_metrics(rec, pairs, timed) -> dict:
    scales = {op_id: calibrate.REFERENCE_S[t.op.rung.kind] / t.kernel_s
              for op_id, (_, t) in enumerate(pairs)}
    totals = rec.layer_totals(scales)  # a name never called reads as zero
    values = {}
    for name in SPAN_METRICS:
        span, field = name.rsplit(".", 1)
        values[name] = totals[span][field]
    values["cli.self_s"] = totals[tracer.ROOT]["self_s"]
    counts = {**rec.counts, **rec.maxima,
              "forge.sturm_calls": totals["algebra.sturm_real_roots"]["calls"]}
    for name in COUNT_METRICS:
        values[name] = counts.get(name, 0)
    orbit_calls = totals["galois.orbit_of_subset"]["calls"]
    scanned = counts.get("classifier.even_subsets_scanned", 0)
    values["classifier.orbit_yield"] = values["classifier.tate_orbits"] / orbit_calls \
        if orbit_calls else 0.0
    values["classifier.tate_yield"] = values["classifier.tate_subsets"] / scanned \
        if scanned else 0.0

    both = [(u, t) for u, t in pairs if "timeout" not in (u.status, t.status)]
    untraced = sum(u.norm for u, _ in both)
    values["trace.overhead_frac"] = sum(t.norm for _, t in both) / untraced - 1 \
        if untraced else 0.0

    by_metric = {ladder.RUNGS[name].metric: t for name, t in rung_times(timed).items()}
    for name in RUNG_METRICS:
        values[name] = by_metric[name][0] if name in by_metric else 0.0
    return values


def summarize(workload, results, timed) -> list:
    lines = []
    times = rung_times(timed)
    for name in ladder.WORKLOADS[workload].rungs:
        seconds, ops, inputs = times[name]
        raw = statistics.median(r.seconds for r in timed if r.op.rung.name == name)
        bad = sum(r.status != "ok" for r in timed if r.op.rung.name == name)
        lines.append(f"{ladder.RUNGS[name].metric:<18} {seconds:.6f} s  ops={ops} inputs={inputs} "
                     f"failed={bad}  (raw median {raw:.6f} s)")
    failures = Counter((r.op.rung.name, r.status) for r in results if r.status != "ok")
    for (name, status), count in sorted(failures.items()):
        lines.append(f"FAILED {name} x{count}: {status[:400]}")
    return lines


def run(args) -> int:
    try:
        cli = _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    setup = measure_setup(args.workload, args.seed) if not args.trace else []
    work = ladder.WorkList(args.workload, args.seed)
    runner = Runner(cli.main)
    replay = measure(runner, work, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed = list(runner.results)
    if args.trace:
        rec, pairs = traced_pass(runner, replay, cli.main)
    runner.check()

    results = runner.results
    failed = sum(r.status != "ok" for r in results)
    wrong = any(r.status.startswith(("check", "exit", "error")) for r in results)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for line in summarize(args.workload, results, timed):
        print(line)
    print(f"fail_frac          {failed / len(results):.6f}  ({failed}/{len(results)})")
    if args.trace:
        values = per_layer_metrics(rec, pairs, timed)
        units = PER_LAYER
        if rec.absent:
            print(f"absent (reported as 0): {', '.join(rec.absent)}")
        OUT.mkdir(exist_ok=True)
        rec.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        times = rung_times(timed)
        repeat = ladder.WORKLOADS[args.workload].repeat
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(t for t, _, _ in times.values()),
            "round_s": sum(times[name][0] for name in repeat),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        print(f"setup samples      {setup}")
    for name, value in values.items():
        print(f"{name:<40} {value:.6g} {units[name][0]}")
    metrics = {name: {"value": value, "unit": units[name][0]} for name, value in values.items()}
    print(json.dumps({"correct": not wrong, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(ladder.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="quick test of the harness itself (a few seconds)")
    args = parser.parse_args(argv)
    if args.selfcheck:
        import selfcheck

        return selfcheck.main()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
