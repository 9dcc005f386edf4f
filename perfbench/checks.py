"""Output checks, derived from the mathematics rather than from earlier output.

Every check returns a list of problems; an empty list means the output
passed.  Classify documents are held to the invariants the theory
guarantees and to the known answer of each preset family; forged
polynomials are re-certified independently with sympy.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import lcm

CLASSIFY_KEYS = {
    "schema",
    "scenario",
    "report",
    "endomorphism",
    "frobenius_rank",
    "minimal_field_index",
    "predicted_signature",
}
FORGE_KEYS = {"schema", "g", "p", "l", "lp", "seed", "coefficients_low_to_high", "certificates"}

# exotic orbits per family, and the Frobenius rank as a function of g
KNOWN_EXOTIC = {"main": 1, "ramified": 1, "split": 2}
KNOWN_RANK = {"main": lambda g: g - 1, "ramified": lambda g: g // 2 - 1, "split": lambda g: g - 2}


def check_output(rung, argv, text: str) -> list:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["stdout is not a JSON object"]
    try:
        if rung.kind == "classify":
            return check_classify(rung, doc)
        return check_forge(rung, argv, doc)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed document: {type(exc).__name__}: {exc}"]


def check_classify(rung, doc: dict) -> list:
    missing = CLASSIFY_KEYS - doc.keys()
    if missing:
        return [f"missing keys {sorted(missing)}"]
    if doc["schema"] != "weiltate.classify/1":
        return [f"schema {doc['schema']!r}"]
    problems = []
    scn, rep, end = doc["scenario"], doc["report"], doc["endomorphism"]
    g = rung.g
    if scn["g"] != g or scn["family"] != rung.family:
        problems.append(f"scenario is {scn['family']} g={scn['g']}")
    n = 2 * g

    if rep["weights"] != list(range(0, n + 1, 2)):
        problems.append(f"weights {rep['weights']}: not every even weight was scanned")
    per_weight = Counter()
    for o in rep["orbits"]:
        per_weight[o["weight"] // 2] += o["rank"]
        if o["rank"] != len(o["orbit"]) or o["weight"] % 2:
            problems.append(f"orbit {o['representative']}: rank/weight inconsistent")
        if "hodge_type" in o and sum(o["hodge_type"]) != o["weight"]:
            problems.append(f"orbit {o['representative']}: p + q != weight")
    # rho_k from the orbits; an explicit weight list gives no tate_dims and no signature
    rho = [per_weight[k] for k in range(g + 1)]
    if rho != rho[::-1] or rho[0] != 1:
        problems.append(f"rho = {rho} is not a symmetric rho_0..rho_g with rho_0 = 1")
    if any(rho[k] < rho[k - 1] for k in range(1, g // 2 + 1)):
        problems.append(f"rho = {rho} falls before g/2: a primitive part of negative dimension")
    full_scan = rep["tate_dims"] is not None
    if full_scan and rep["tate_dims"] != rho:
        problems.append(f"tate_dims {rep['tate_dims']}, but the orbit ranks give {rho}")

    sig = doc["predicted_signature"]
    if not full_scan:
        if sig is not None:
            problems.append(f"signature {sig} without tate_dims")
    elif sig is None or min(sig) < 0 or sum(sig) != rho[g // 2]:
        problems.append(f"signature {sig}: need s_+, s_- >= 0 and s_+ + s_- = rho_(g/2)")

    degree = end["frobenius_field_degree"]
    m = end["index"]
    total = Fraction(0)
    for place in end["local_invariants"]:
        inv = Fraction(place["invariant"])
        total += inv
        if not 0 <= inv < 1 or (Fraction(place["slope"]) * place["degree"] - inv).denominator != 1:
            problems.append(f"place {place}: invariant is not slope * degree mod 1")
    if total.denominator != 1:
        problems.append(f"local invariants sum to {total}, not 0 mod 1")
    if sum(p["degree"] for p in end["local_invariants"]) != degree:
        problems.append("local degrees do not add up to [F:Q]")
    if m != lcm(1, *(Fraction(p["invariant"]).denominator for p in end["local_invariants"])):
        problems.append(f"index m = {m} is not the lcm of the invariant denominators")
    if 2 * end["abelian_variety_dim"] != m * degree or end["commutative"] != (m == 1):
        problems.append("2 dim != m [F:Q], or commutativity disagrees with m")

    # known answers of the preset families
    exotic = [o for o in rep["orbits"] if o["is_exotic"]]
    want = KNOWN_EXOTIC[rung.family]
    if len(exotic) != want or any(o["rank"] != 2 or o["weight"] != g for o in exotic):
        got = [(o["weight"], o["rank"]) for o in exotic]
        problems.append(f"exotic orbits (weight, rank) = {got}; want {want} of ({g}, 2)")
    if full_scan and (rep["mildly_exotic"] is not True
                      or rep["scht_verdict"] != "APPLICABLE_MILDLY_EXOTIC"):
        problems.append("preset is not reported mildly exotic")
    det_sets = {tuple(e["determinant_set"]) for e in rep["weil_tate"] if e["is_exotic"]}
    for o in exotic:
        rep_set = set(o["representative"])
        if rep_set | {(i - 1 + g) % n + 1 for i in rep_set} != set(range(1, n + 1)):
            problems.append(f"exotic {o['representative']}: I and tau I do not cover 1..2g")
        if not det_sets & {tuple(member) for member in o["orbit"]}:
            problems.append(f"exotic {o['representative']}: no exotic Weil-Tate determinant")
    if doc["frobenius_rank"] != KNOWN_RANK[rung.family](g):
        problems.append(f"frobenius rank {doc['frobenius_rank']}")
    if rung.family == "ramified" and (m != 2 or end["commutative"]):
        problems.append(f"ramified family must be noncommutative of index 2, got m = {m}")
    if rung.family == "split" and not end["commutative"]:
        problems.append("split family must be commutative")
    return problems


def _pattern(poly, q):
    """Squarefreeness and the [degree, count] pattern of poly mod q, by sympy."""
    _, factors = poly.set_modulus(q).factor_list()
    counts = Counter(f.degree() for f, _ in factors)
    return all(e == 1 for _, e in factors), [[d, c] for d, c in sorted(counts.items())]


def check_forge(rung, argv, doc: dict) -> list:
    from sympy import Poly, Symbol

    missing = FORGE_KEYS - doc.keys()
    if missing:
        return [f"missing keys {sorted(missing)}"]
    if doc["schema"] != "weiltate.forge/1":
        return [f"schema {doc['schema']!r}"]
    g = rung.g
    flags = dict(zip(argv[1::2], argv[2::2]))
    asked = {k: int(flags["--" + k]) for k in ("g", "p", "l", "lp", "seed")}
    got = {k: doc[k] for k in asked}
    if got != asked:
        return [f"document is for {got}, asked {asked}"]
    coeffs = doc["coefficients_low_to_high"]
    if len(coeffs) != g + 1 or coeffs[-1] != 1:
        return [f"not a monic polynomial of degree {g}"]

    problems = []
    want = {
        "p": [[g, 1]],
        "l": [[g, 1]],
        "lp": [[1, g - 2], [2, 1]],
    }
    certs = doc["certificates"]
    poly = Poly(list(reversed(coeffs)), Symbol("x"))
    for key, expected in want.items():
        squarefree, pattern = _pattern(poly, doc[key])
        if not squarefree or pattern != expected or certs[f"pattern_at_{key}"] != expected:
            problems.append(
                f"pattern mod {key}={doc[key]}: sympy {pattern}, document "
                f"{certs[f'pattern_at_{key}']}, want {expected}"
            )
    if poly.gcd(poly.diff()).degree() != 0:
        problems.append("not squarefree over Q")
    real = poly.count_roots()
    if real != g or certs["real_root_count"] != g:
        problems.append(f"real roots: sympy {real}, document {certs['real_root_count']}, want {g}")
    if certs["roots_at_lp"] != g - 2 or certs["galois_is_sg"] is not True:
        problems.append("certificate fields disagree with the S_g construction")
    return problems
