"""Batch front end: forge / classify / verify, and the one builder of their documents.

The engine returns records; the documents `weiltate.classify/1`,
`weiltate.forge/1` and `weiltate.verify/1` are built from them here.
`verify` runs the lemma suite on the verify presets; its document keeps
the `oracles` key of `weiltate.verify/1`, always an empty list.
Exit codes: 0 success, 2 usage or input error (including scenario parse
errors), 3 hypothesis violation or a failed self-check (a forged field
that fails its certificates, a preset whose blocks are off), 4 the
subset cap on 2g exceeded, 5 lemma-suite FAIL.
The subset cap is the one cap: `classify --cap`, else its default;
`verify` runs its presets at the default.  A cap below 2 can admit
nothing, so it is an input error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from _json import encode_basestring_ascii  # the C function that `json.encoder` re-exports

from . import classifier, forge
from .algebra import format_poly
from .classifier import FAIL, MotiveOrbit, classify_scenario, verify_lemma_suite
from .galois import CapExceededError, format_perm, subgroup_generators
from .slopes import ratio_str

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3
EXIT_CAP = 4
EXIT_LEMMA_FAIL = 5

DEFAULT_P = 5

TATE_COUNT_NOTE = (
    "rho_k counts Tate classes; identifying them with cycle-space dimensions "
    "assumes the numerical consequences of the Tate conjecture"
)
EXOTIC_RANK_NOTE = "exotic summands are required to have rank <= 2"


class UsageError(ValueError):
    pass


def _reject_ignored(*rules) -> None:
    """A flag given where nothing reads it is a usage error.

    Each rule is (flag, given, read, where): `where` names what reads it.
    """
    for flag, given, read, where in rules:
        if given and not read:
            raise UsageError(f"{flag} applies only to {where}")


def _emit_json(doc: dict, write) -> None:
    """Write `json.dumps(doc, sort_keys=True, indent=2) + "\\n"` byte for byte, piece by piece.

    `json` runs its pure-Python encoder whenever `indent` is set; this
    writer hands each piece to `write` as it is formed, a list of plain
    ints as one piece, so no text of the whole document is held.  An
    orbit is its `MotiveOrbit` record, written from one template in
    three pieces (`_write_orbit`); its members are the middle one, the
    list of their 1-based point lists, straight from the masks
    (`_members_text`); members are written nowhere else, so a bare
    `MemberMasks` raises `TypeError`.  No document holds a float (a
    slope or an invariant is an "a/b" string), so a float does too.
    """
    _write_json(doc, "\n", write, {})
    write("\n")


_BOOL_TEXT = {True: "true", False: "false"}

# the JSON text of a value of each plain scalar type a document holds
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _BOOL_TEXT.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(value, nl: str, write, tables: dict) -> None:
    """Write one JSON value whose opening line is already indented; `nl` starts its lines.

    `tables` keeps the member text tables of `_members_text` for the
    document.  A scalar is written from `_SCALAR_TEXT` by its exact
    type, inline when it is an item of a list or a dict; a subclass of
    a scalar type raises `TypeError`, as a float does.
    """
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        write(scalar(value))
    elif type(value) is MotiveOrbit:
        _write_orbit(value, nl, write, tables)
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = nl + "  "
        types = set(map(type, value))
        if types == {int}:  # not isinstance: a bool is no int here
            write("[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is not None:
                write(sep + scalar(item))
            else:
                write(sep)
                _write_json(item, inner, write, tables)
            sep = "," + inner
        write(nl + "]")
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):  # keys are str: encode_basestring_ascii rejects others
            item = value[key]
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is not None:
                write(sep + encode_basestring_ascii(key) + ": " + scalar(item))
            else:
                write(sep + encode_basestring_ascii(key) + ": ")
                _write_json(item, inner, write, tables)
            sep = "," + inner
        write(nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_orbit(o: MotiveOrbit, nl: str, write, tables: dict) -> None:
    """Write one orbit's JSON object in three pieces, its keys in sorted order.

    The pieces are the keys before "orbit" ("hodge_balanced" and
    "hodge_type" only when the orbit has a Hodge type), the members
    from `_members_text`, and the rest; so no piece is longer than the
    orbit's members.  The representative is written 1-based.
    """
    inner = nl + "  "
    head = "{"
    if o.hodge_type is not None:
        p, q = o.hodge_type
        head = (f'{{{inner}"hodge_balanced": {_BOOL_TEXT[o.hodge_balanced]},'
                f'{inner}"hodge_type": [{inner}  {p},{inner}  {q}{inner}],')
    write(f'{head}{inner}"is_exotic": {_BOOL_TEXT[o.is_exotic]},'
          f'{inner}"is_lefschetz_bearing": {_BOOL_TEXT[o.is_lefschetz_bearing]},'
          f'{inner}"is_tate": true,{inner}"orbit": ')
    write(_members_text(o.orbit, inner, tables))
    rep = "[]"
    if o.representative:
        item = inner + "  "
        rep = "[" + item + ("," + item).join([str(i + 1) for i in o.representative]) + inner + "]"
    write(f',{inner}"rank": {o.rank},{inner}"representative": {rep},'
          f'{inner}"weight": {o.weight}{nl}}}')


def _members_text(members: MemberMasks, nl: str, tables: dict) -> str:
    """The JSON text of an orbit's members, each read off its mask with two table lookups.

    A member's text is "[", its 1-based points joined by ",", then "]",
    each point on its own line.  The high half of a mask holds the
    smaller points, so a mask with high half h and low half l reads
    opened[h] + closed[l]: opened[h] is "[" and the points of h,
    closed[l] the points of l, each led by ",", then "]".  A mask whose
    high half is 0 reads alone[l], which is opened and closed at once
    ("[]" for the empty member).  The tables are built once per point
    count and indent, by doubling straight into their texts: bit j
    brings a point smaller than those of the bits below it, so it
    leads each text that it joins, after "[" in opened and alone (built
    from led and closed, whose texts start with ",") and after "," in
    led and closed.
    """
    n = members.n
    inner = nl + "  "
    key = (n, nl)
    half = n // 2
    if key not in tables:
        closed, alone = [inner + "]"], ["[]"]
        for j in range(half):
            point = f"{inner}  {n - j}"
            alone += ["[" + point + x for x in closed]
            closed += ["," + point + x for x in closed]
        opened, led = [""], [""]
        for j in range(half, n):
            point = f"{inner}  {n - j}"
            opened += ["[" + point + x for x in led]
            if j < n - 1:  # led is read only by the bits after j
                led += ["," + point + x for x in led]
        tables[key] = opened, closed, alone
    opened, closed, alone = tables[key]
    low_bits = (1 << half) - 1
    texts = [
        opened[h] + closed[m & low_bits] if (h := m >> half) else alone[m] for m in members.masks
    ]
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


# ---------------------------------------------------------------------------
# forge
# ---------------------------------------------------------------------------


def forged_field_to_doc(f: forge.ForgedField) -> dict:
    """The forge document; the writer writes each tuple, the patterns among them, as a list."""
    return {
        "schema": "weiltate.forge/1",
        "g": f.g,
        "p": f.p,
        "l": f.l,
        "lp": f.lp,
        "lpp": f.lpp,
        "seed": f.seed,
        "coefficients_low_to_high": f.poly,
        "polynomial": format_poly(f.poly),
        "spread": f.spread,
        "certificates": {k: getattr(f.certificates, k) for k in forge.Certificates._fields},
    }


def cmd_forge(args) -> int:
    field = forge.forge_totally_real(args.g, args.p, args.l, args.lp, args.seed)
    if args.format == "json":
        _emit_json(forged_field_to_doc(field), sys.stdout.write)
        return EXIT_OK
    c = field.certificates
    print(f"polynomial: {format_poly(field.poly)}")
    print(f"coefficients (low to high): {list(field.poly)}")
    print(f"spread constant: {field.spread}")
    print("certificates:")
    print(f"  pattern mod p={field.p}: {list(c.pattern_at_p)}")
    print(f"  pattern mod l={field.l}: {list(c.pattern_at_l)}")
    print(f"  pattern mod l'={field.lp}: {list(c.pattern_at_lp)} "
          f"({c.roots_at_lp} distinct roots)")
    print(f"  pattern mod l''={field.lpp}: {list(c.pattern_at_lpp)}")
    print(f"  real roots: {c.real_root_count}")
    print(f"  galois S_g certificate: {c.galois_is_sg}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _resolve_scenario(args, p, subset_cap) -> forge.Scenario:
    if args.file is not None and args.preset is not None:
        raise UsageError("--preset and --file are mutually exclusive")
    if args.file is None and args.preset is None:
        raise UsageError("one of --preset or --file is required")
    _reject_ignored(
        ("--g", args.g is not None, args.preset == "main", "--preset main"),
        ("--gp", args.gp is not None, args.preset in ("ramified", "split"),
         "--preset ramified or split"),
        ("--attach-fields", args.attach_fields, args.preset == "main", "--preset main"),
        ("--p", args.p is not None, args.preset is not None, "--preset"),
    )
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise forge.ScenarioParseError(f"cannot read {args.file}: {exc}")
        return forge.parse_scenario(text, subset_cap=subset_cap)
    flag, size = ("--g", args.g) if args.preset == "main" else ("--gp", args.gp)
    if size is None:
        raise UsageError(f"--preset {args.preset} requires {flag}")
    return forge.PRESETS[args.preset](size, p, subset_cap=subset_cap)


def _scenario_doc(scn: forge.Scenario, fields) -> dict:
    """The scenario section: `provenance` is "preset" for a preset family, else "file".

    `fields` is `forge.main_fields` of the scenario, or None; it gives
    the `metadata` keys.
    """
    doc = {
        "name": scn.name,
        "family": scn.family,
        "g": scn.model.g,
        "points": scn.model.group.degree,
        "group_order": scn.model.group.order,
        "tau": format_perm(scn.model.tau),
        "phi": [i + 1 for i in sorted(scn.phi)],
        "slopes": scn.slopes.serialize().split(),
        "provenance": "file" if scn.family is None else "preset",
    }
    if fields is not None:
        d, real_field = fields
        doc["metadata"] = {"quadratic_d": str(d), "real_field_poly": format_poly(real_field.poly)}
    return doc


def report_to_doc(report: classifier.ClassifierReport, group) -> dict:
    """The structured report, each orbit kept as its `MotiveOrbit` record.

    `_emit_json` writes a `MotiveOrbit` from one template, its members
    as their 1-based point lists, without forming a point tuple.
    """
    return {
        "g": report.g,
        "weights": list(report.weights),
        "orbits": list(report.orbits),
        "tate_dims": list(report.tate_dims) if report.tate_dims is not None else None,
        "mildly_exotic": report.mildly_exotic,
        "scht_verdict": report.scht_verdict,
        "weil_tate": [_weil_tate_to_doc(e, group) for e in report.weil_tate],
        "notes": [TATE_COUNT_NOTE, EXOTIC_RANK_NOTE],
    }


def _weil_tate_to_doc(e: classifier.WeilTateEntry, group) -> dict:
    """The entry with its subgroup {g : g(1) in P}, P its determinant set, a block of G.

    The subgroup holds the stabilizer G^(1), of order |G|/n, so its
    chain is G's below level 0 and keeps the transversal of P at level
    0: its order is |G| |P| / n.
    """
    reps = group.chain.reps
    P = e.determinant_set
    transversals = [{x: reps[0][x] for x in P}, *reps[1:]]
    return {
        "subgroup_generators": [format_perm(p) for p in subgroup_generators(transversals)],
        "subgroup_order": group.order // group.degree * len(P),
        "determinant_set": [i + 1 for i in P],
        "is_tate": e.is_tate,
        "is_lefschetz_bearing": e.is_lefschetz_bearing,
        "is_exotic": e.is_exotic,
    }


def end_report_to_doc(end: classifier.EndAlgebraReport) -> dict:
    return {
        "frobenius_field_degree": end.frobenius_field_degree,
        "local_invariants": [
            {
                "degree": p.degree,
                "slope": ratio_str(p.slope_num, p.den),
                "invariant": ratio_str(p.invariant_num, p.den),
            }
            for p in end.local_invariants
        ],
        "index": end.index,
        "commutative": end.commutative,
        "abelian_variety_dim": end.abelian_variety_dim,
    }


def classify_scenario_doc(scn: forge.Scenario, weights=None, fields=None) -> dict:
    """Full classification document for one scenario: the reports of `classify_scenario`.

    The Frobenius rank is read off the report, whose Tate predicate is
    built from the one conjugate-slope basis.  The minimal field index
    [G : Fix] is [Q(pi^k) : Q], the Frobenius field degree that
    Honda-Tate has already counted: both are the number of signature
    blocks, which all have one size since G is transitive.  Each orbit
    stays its `MotiveOrbit` record, which `_emit_json` writes from one
    template, its members as their 1-based point lists.  `fields`, for
    `--attach-fields`, is what `forge.main_fields` returns.
    """
    report, end = classify_scenario(scn, weights)
    doc = {
        "schema": "weiltate.classify/1",
        "scenario": _scenario_doc(scn, fields),
        "report": report_to_doc(report, scn.model.group),
        "endomorphism": end_report_to_doc(end),
        "frobenius_rank": report.frobenius_rank,
        "minimal_field_index": end.frobenius_field_degree,
    }
    signature = report.predicted_signature
    doc["predicted_signature"] = signature and list(signature)
    doc["signature_assumption"] = signature and TATE_COUNT_NOTE
    return doc


def _print_classify_text(doc: dict) -> None:
    scn = doc["scenario"]
    rep = doc["report"]
    end = doc["endomorphism"]
    print(f"scenario {scn['name']}  (g = {scn['g']}, {scn['points']} indices, "
          f"group order {scn['group_order']})")
    print(f"phi: {scn['phi']}")
    print(f"slopes: {' '.join(scn['slopes'])}")
    for key, value in scn.get("metadata", {}).items():
        print(f"{key}: {value}")
    print()
    print(f"{'weight':>6}  {'representative':<24} {'rank':>4}  "
          f"{'lefschetz':<9} {'exotic':<6} hodge")
    for o in rep["orbits"]:
        hodge = ""
        if o.hodge_type is not None:
            p, q = o.hodge_type
            hodge = f"({p},{q})" + ("" if o.hodge_balanced else " unbalanced")
        points = str([i + 1 for i in o.representative])
        print(f"{o.weight:>6}  {points:<24} {o.rank:>4}  "
              f"{str(o.is_lefschetz_bearing):<9} {str(o.is_exotic):<6} {hodge}")
    print()
    if rep["tate_dims"] is not None:
        print(f"tate dims rho_0..rho_g: {rep['tate_dims']}")
    print(f"exotic orbits: {sum(o.is_exotic for o in rep['orbits'])}")
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
    weights = None
    if args.weights is not None:
        try:
            weights = [int(w) for w in args.weights.split(",")]
        except ValueError:
            raise UsageError(f"--weights takes comma-separated integers, got {args.weights!r}")
    subset_cap = forge.DEFAULT_SUBSET_CAP if args.cap is None else args.cap
    if subset_cap < 2:  # admits nothing: an input error, not a cap that was hit
        raise UsageError(f"--cap must be at least 2, got {subset_cap}")
    p = DEFAULT_P if args.p is None else args.p
    scn = _resolve_scenario(args, p, subset_cap)
    fields = forge.main_fields(args.g, p) if args.attach_fields else None  # --preset main only
    doc = classify_scenario_doc(scn, weights, fields)
    if args.format == "json":
        _emit_json(doc, sys.stdout.write)
    else:
        _print_classify_text(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# verify preset name -> (family, size), built by forge.PRESETS[family](size, p)
VERIFY_PRESETS = {
    "main4": ("main", 4),
    "main6": ("main", 6),
    "ramified3": ("ramified", 3),
    "split3": ("split", 3),
}


def cmd_verify(args) -> int:
    names = "all" if args.presets is None else args.presets
    names = (
        list(VERIFY_PRESETS)
        if names == "all"
        else list(dict.fromkeys(n.strip() for n in names.split(",") if n.strip()))
    )  # each name once, in first-seen order
    if not names:
        raise UsageError(
            f"--presets names no preset; choose all or from {', '.join(VERIFY_PRESETS)}"
        )
    p = DEFAULT_P if args.p is None else args.p
    for name in names:  # every name checked before any preset is built
        if name not in VERIFY_PRESETS:
            raise UsageError(
                f"unknown preset {name!r}; choose from {', '.join(VERIFY_PRESETS)}"
            )
    # every scenario built before the first classification
    scenarios = [forge.PRESETS[family](size, p)
                 for family, size in map(VERIFY_PRESETS.__getitem__, names)]
    rows = [row for scn in scenarios for row in verify_lemma_suite(scn, *classify_scenario(scn))]
    doc = {"schema": "weiltate.verify/1", "oracles": [], "lemmas": [
        {"instance": r.instance, "lemma": r.lemma, "status": r.status, "detail": r.detail}
        for r in rows
    ]}

    if args.format == "json":
        _emit_json(doc, sys.stdout.write)
    else:
        print(f"{'instance':<20} {'lemma':<28} {'status':<16} detail")
        for row in doc["lemmas"]:
            print(f"{row['instance']:<20} {row['lemma']:<28} {row['status']:<16} "
                  f"{row['detail']}")
    return EXIT_LEMMA_FAIL if any(r.status == FAIL for r in rows) else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
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
    p_forge.add_argument("--format", choices=["text", "json"], default="text")

    p_classify = sub.add_parser("classify", help="classify the motive orbits of a scenario")
    p_classify.add_argument("--preset", choices=["main", "ramified", "split"])
    p_classify.add_argument("--file", help="scenario file path")
    p_classify.add_argument("--g", type=int, help="dimension for --preset main (even >= 4)")
    p_classify.add_argument("--gp", type=int, help="g' for --preset ramified/split (odd >= 3)")
    p_classify.add_argument("--p", type=int, help="prime p for --preset (default 5)")
    p_classify.add_argument("--weights", help="comma-separated even weights (default: all)")
    p_classify.add_argument("--cap", type=int, default=None, help="subset-dimension cap on 2g")
    p_classify.add_argument("--attach-fields", action="store_true",
                            help="attach forged field provenance to preset scenarios")
    p_classify.add_argument("--format", choices=["text", "json"], default="text")

    p_verify = sub.add_parser("verify", help="run the lemma suite on the verify presets")
    p_verify.add_argument("--presets",
                          help="'all' (the default) or comma list: main4,main6,ramified3,split3")
    p_verify.add_argument("--p", type=int, help="prime p for the presets (default 5)")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    return parser


COMMANDS = {"forge": cmd_forge, "classify": cmd_classify, "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what it read stands, and nothing is left to say
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except forge.ScenarioParseError as exc:
        print(f"scenario parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (forge.HypothesisError,) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except forge.SelfCheckError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
