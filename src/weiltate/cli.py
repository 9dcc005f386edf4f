"""Batch front end: forge / classify / verify.

Exit codes: 0 success, 2 usage or input error (including scenario parse
errors), 3 hypothesis violation, 4 cap exceeded, 5 lemma-suite FAIL.
Caps can be overridden through WEILTATE_GROUP_CAP, WEILTATE_SUBSET_CAP
and WEILTATE_RETRY_BUDGET.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import classifier, forge
from .classifier import (
    FAIL,
    LemmaInstance,
    classify_orbits,
    end_report_to_doc,
    honda_tate_endomorphism,
    predicted_signature,
    report_to_doc,
    verify_lemma_suite,
)
from .galois import DEFAULT_GROUP_CAP, CapExceededError, cm_product_group, index2_overgroups
from .slopes import (
    SlopeVector,
    fix_of_slope,
    fixer_by_definition,
    frobenius_rank,
    is_p_potentially_in,
    minimal_field_index,
    potential_by_valuation_grouping,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_CAP = 4
EXIT_LEMMA_FAIL = 5


class UsageError(ValueError):
    pass


def _env_int(name: str, default):
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {value!r}")


def _emit_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# forge
# ---------------------------------------------------------------------------


def cmd_forge(args) -> int:
    budget = args.budget if args.budget is not None else _env_int(
        "WEILTATE_RETRY_BUDGET", forge.DEFAULT_RETRY_BUDGET
    )
    field = forge.forge_totally_real(args.g, args.p, args.l, args.lp, args.seed, budget)
    doc = forge.forged_field_to_doc(field)
    doc["schema"] = "weiltate.forge/1"
    if args.format == "json":
        sys.stdout.write(_emit_json(doc))
        return EXIT_OK
    c = field.certificates
    print(f"polynomial: {forge.format_poly(field.poly)}")
    print(f"coefficients (low to high): {list(field.poly)}")
    print(f"spread constant: {field.spread}")
    print("certificates:")
    print(f"  pattern mod p={field.p}: {list(c.pattern_at_p)}")
    print(f"  pattern mod l={field.l}: {list(c.pattern_at_l)}")
    print(f"  pattern mod l'={field.lp}: {list(c.pattern_at_lp)} "
          f"({c.roots_at_lp} distinct roots)")
    print(f"  real roots: {c.real_root_count}")
    print(f"  galois S_g certificate: {c.galois_is_sg}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _resolve_scenario(args, group_cap) -> forge.Scenario:
    if args.file is not None and args.preset is not None:
        raise UsageError("--preset and --file are mutually exclusive")
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise forge.ScenarioParseError(f"cannot read {args.file}: {exc}")
        return forge.parse_scenario(text, group_cap=group_cap)
    if args.preset == "main":
        if args.g is None:
            raise UsageError("--preset main requires --g")
        return forge.scenario_main(
            args.g, args.p, attach_fields=args.attach_fields, group_cap=group_cap
        )
    if args.preset == "ramified":
        if args.gp is None:
            raise UsageError("--preset ramified requires --gp")
        return forge.scenario_ramified(args.gp, args.p, group_cap=group_cap)
    if args.preset == "split":
        if args.gp is None:
            raise UsageError("--preset split requires --gp")
        return forge.scenario_split(args.gp, args.p, group_cap=group_cap)
    raise UsageError("one of --preset or --file is required")


def _scenario_doc(scn: forge.Scenario) -> dict:
    from .galois import format_perm

    doc = {
        "name": scn.name,
        "family": scn.family,
        "g": scn.g,
        "points": scn.model.group.degree,
        "group_order": scn.model.group.order,
        "tau": format_perm(scn.model.tau),
        "phi": [i + 1 for i in scn.phi.sorted_indices()],
        "slopes": scn.slopes.serialize().split(),
        "provenance": scn.provenance,
    }
    if scn.metadata:
        doc["metadata"] = {k: v for k, v in scn.metadata}
    return doc


def classify_scenario_doc(scn: forge.Scenario, workers: int = 1, subset_cap: int = None,
                          weights=None) -> dict:
    """Full classification document for one scenario (the structured report)."""
    cap = subset_cap if subset_cap is not None else _env_int(
        "WEILTATE_SUBSET_CAP", classifier.DEFAULT_SUBSET_CAP
    )
    report = classify_orbits(
        scn.model, scn.slopes, weights=weights, phi=scn.phi, subset_cap=cap, workers=workers
    )
    end = honda_tate_endomorphism(scn.model, scn.slopes)
    doc = {
        "schema": "weiltate.classify/1",
        "scenario": _scenario_doc(scn),
        "report": report_to_doc(report, group=scn.model.group),
        "endomorphism": end_report_to_doc(end),
        "frobenius_rank": frobenius_rank(scn.model, scn.slopes),
        "minimal_field_index": minimal_field_index(scn.model, scn.slopes),
    }
    if scn.g % 2 == 0 and report.tate_dims is not None:
        s_plus, s_minus = predicted_signature(report, scn.g)
        doc["predicted_signature"] = [s_plus, s_minus]
        doc["signature_assumption"] = classifier.TATE_COUNT_NOTE
    else:
        doc["predicted_signature"] = None
        doc["signature_assumption"] = None
    return doc


def _print_classify_text(doc: dict) -> None:
    scn = doc["scenario"]
    rep = doc["report"]
    end = doc["endomorphism"]
    print(f"scenario {scn['name']}  (g = {scn['g']}, {scn['points']} indices, "
          f"group order {scn['group_order']})")
    print(f"phi: {scn['phi']}")
    print(f"slopes: {' '.join(scn['slopes'])}")
    print()
    print(f"{'weight':>6}  {'representative':<24} {'rank':>4}  "
          f"{'lefschetz':<9} {'exotic':<6} hodge")
    for o in rep["orbits"]:
        hodge = ""
        if "hodge_type" in o:
            p, q = o["hodge_type"]
            hodge = f"({p},{q})" + ("" if o["hodge_balanced"] else " unbalanced")
        print(f"{o['weight']:>6}  {str(o['representative']):<24} {o['rank']:>4}  "
              f"{str(o['is_lefschetz_bearing']):<9} {str(o['is_exotic']):<6} {hodge}")
    print()
    if rep["tate_dims"] is not None:
        print(f"tate dims rho_0..rho_g: {rep['tate_dims']}")
    exotic = [o for o in rep["orbits"] if o["is_exotic"]]
    print(f"exotic orbits: {len(exotic)}")
    print(f"mildly exotic: {rep['mildly_exotic']}")
    print(f"verdict: {rep['scht_verdict']}")
    for e in rep["weil_tate"]:
        kind = "exotic" if e["is_exotic"] else (
            "lefschetz-bearing" if e["is_lefschetz_bearing"] else "non-tate"
        )
        print(f"weil-tate determinant {e['determinant_set']}: "
              f"tate={e['is_tate']} ({kind})")
    invs = ", ".join(
        f"deg {p['degree']}: slope {p['slope']}, inv {p['invariant']}"
        for p in end["local_invariants"]
    )
    print(f"endomorphism algebra: [F:Q] = {end['frobenius_field_degree']}, "
          f"index m = {end['index']}, "
          f"{'commutative' if end['commutative'] else 'noncommutative'}, "
          f"dim = {end['abelian_variety_dim']}")
    print(f"local invariants: {invs}")
    print(f"frobenius rank: {doc['frobenius_rank']}")
    print(f"minimal field index: {doc['minimal_field_index']}")
    if doc["predicted_signature"] is not None:
        sp, sm = doc["predicted_signature"]
        print(f"predicted signature: ({sp}, {sm})  [{doc['signature_assumption']}]")
    for note in rep["notes"]:
        print(f"note: {note}")


def cmd_classify(args) -> int:
    group_cap = _env_int("WEILTATE_GROUP_CAP", DEFAULT_GROUP_CAP)
    scn = _resolve_scenario(args, group_cap)
    weights = None
    if args.weights:
        weights = [int(w) for w in args.weights.split(",")]
    doc = classify_scenario_doc(scn, workers=args.workers, subset_cap=args.cap, weights=weights)
    if args.format == "json":
        sys.stdout.write(_emit_json(doc))
    else:
        _print_classify_text(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_PRESET_BUILDERS = {
    "main4": lambda p, cap: forge.scenario_main(4, p, group_cap=cap),
    "main6": lambda p, cap: forge.scenario_main(6, p, group_cap=cap),
    "ramified3": lambda p, cap: forge.scenario_ramified(3, p, group_cap=cap),
    "split3": lambda p, cap: forge.scenario_split(3, p, group_cap=cap),
}


def random_admissible_slopes(model, rng: random.Random) -> SlopeVector:
    """Random exact slopes with s_i + s_tau(i) = 1 (no D constraint)."""
    g = model.g
    values = [None] * (2 * g)
    for i in range(g):
        den = rng.choice([1, 2, 3, 4, 6])
        v = Fraction(rng.randint(0, den), den)
        values[i] = v
        values[model.tau[i]] = 1 - v
    return SlopeVector(tuple(values))


def slope_oracle_rows(g: int, count: int, seed: int, group_cap: int = DEFAULT_GROUP_CAP):
    """Agreement of the Fix/potential machinery with the definitional oracles."""
    model = cm_product_group(g, cap=group_cap)
    subgroups = index2_overgroups(model.group, model.H)
    rng = random.Random(seed)
    rows = []
    for k in range(count):
        s = random_admissible_slopes(model, rng)
        fix = fix_of_slope(model, s)
        checks = {
            "fixer_matches_definition": fix == fixer_by_definition(model, s),
            "minimal_index_divides_2g": (2 * g) % minimal_field_index(model, s) == 0,
        }
        potential_ok = True
        for Z in subgroups + [model.H, frozenset(model.group.elements), fix]:
            if not model.H <= Z:
                continue
            if is_p_potentially_in(model, s, Z) != potential_by_valuation_grouping(model, s, Z):
                potential_ok = False
        checks["potential_matches_grouping"] = potential_ok
        rows.append(
            {
                "instance": f"random-g{g}-{k}",
                "slopes": s.serialize().split(),
                "checks": checks,
                "all_pass": all(checks.values()),
            }
        )
    return rows


def cmd_verify(args) -> int:
    doc = {"schema": "weiltate.verify/1", "lemmas": [], "oracles": []}
    failed = False
    group_cap = _env_int("WEILTATE_GROUP_CAP", DEFAULT_GROUP_CAP)

    if args.presets:
        names = (
            list(_PRESET_BUILDERS)
            if args.presets == "all"
            else [n.strip() for n in args.presets.split(",") if n.strip()]
        )
        instances = []
        for name in names:
            if name not in _PRESET_BUILDERS:
                raise UsageError(
                    f"unknown preset {name!r}; choose from {', '.join(_PRESET_BUILDERS)}"
                )
            scn = _PRESET_BUILDERS[name](args.p, group_cap)
            instances.append(
                LemmaInstance(label=scn.name, model=scn.model, slopes=scn.slopes,
                              family=scn.family)
            )
        for row in verify_lemma_suite(instances):
            doc["lemmas"].append(
                {
                    "instance": row.instance,
                    "lemma": row.lemma,
                    "status": row.status,
                    "detail": row.detail,
                }
            )
            if row.status == FAIL:
                failed = True

    if args.random is not None:
        for g in args.random_g:
            rows = slope_oracle_rows(g, args.random, args.seed, group_cap)
            doc["oracles"].extend(rows)
            failed = failed or any(not r["all_pass"] for r in rows)

    if args.format == "json":
        sys.stdout.write(_emit_json(doc))
    else:
        if doc["lemmas"]:
            print(f"{'instance':<20} {'lemma':<28} {'status':<16} detail")
            for row in doc["lemmas"]:
                print(f"{row['instance']:<20} {row['lemma']:<28} {row['status']:<16} "
                      f"{row['detail']}")
        if doc["oracles"]:
            bad = [r for r in doc["oracles"] if not r["all_pass"]]
            print(f"oracle agreement: {len(doc['oracles']) - len(bad)}/{len(doc['oracles'])} "
                  f"instances pass")
            for r in bad:
                print(f"  FAIL {r['instance']}: {r['checks']}")
        if not doc["lemmas"] and not doc["oracles"]:
            print("nothing to verify")
    return EXIT_LEMMA_FAIL if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weiltate",
        description="forge number-field certificates and classify Tate/Lefschetz/exotic "
        "orbits of abelian varieties over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_forge = sub.add_parser("forge", help="produce a certified totally real polynomial")
    p_forge.add_argument("--g", type=int, required=True, help="degree (even)")
    p_forge.add_argument("--p", type=int, required=True, help="prime p")
    p_forge.add_argument("--l", type=int, required=True, help="prime l > g (g-cycle certificate)")
    p_forge.add_argument("--lp", type=int, required=True,
                         help="prime l' > g (transposition certificate)")
    p_forge.add_argument("--seed", type=int, default=0)
    p_forge.add_argument("--budget", type=int, default=None, help="spread escalation budget")
    p_forge.add_argument("--format", choices=["text", "json"], default="text")

    p_classify = sub.add_parser("classify", help="classify the motive orbits of a scenario")
    p_classify.add_argument("--preset", choices=["main", "ramified", "split"])
    p_classify.add_argument("--file", help="scenario file path")
    p_classify.add_argument("--g", type=int, help="dimension for --preset main (even >= 4)")
    p_classify.add_argument("--gp", type=int, help="g' for --preset ramified/split (odd >= 3)")
    p_classify.add_argument("--p", type=int, default=5, help="prime p (default 5)")
    p_classify.add_argument("--weights", help="comma-separated even weights (default: all)")
    p_classify.add_argument("--cap", type=int, default=None, help="subset-dimension cap on 2g")
    p_classify.add_argument("--workers", type=int, default=1)
    p_classify.add_argument("--attach-fields", action="store_true",
                            help="attach forged field provenance to preset scenarios")
    p_classify.add_argument("--format", choices=["text", "json"], default="text")

    p_verify = sub.add_parser("verify", help="run the lemma suite and oracle agreement checks")
    p_verify.add_argument("--presets", help="'all' or comma list: main4,main6,ramified3,split3")
    p_verify.add_argument("--p", type=int, default=5)
    p_verify.add_argument("--random", type=int, default=None,
                          help="number of random slope vectors per g")
    p_verify.add_argument("--g", dest="random_g", type=int, action="append", default=None,
                          help="degree(s) for random instances (repeatable; default 2,3,4)")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "forge":
            return cmd_forge(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "verify":
            if args.random is not None and args.random_g is None:
                args.random_g = [2, 3, 4]
            elif args.random_g is None:
                args.random_g = []
            if args.presets is None and args.random is None:
                args.presets = "all"
            return cmd_verify(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except forge.ScenarioParseError as exc:
        print(f"scenario parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (forge.HypothesisError,) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (CapExceededError, forge.RetryBudgetError) as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
