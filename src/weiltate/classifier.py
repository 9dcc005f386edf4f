"""Tate / Lefschetz / exotic classification of Galois orbits of index subsets.

A subset I of the 2g indices is Tate (modulo torsion, i.e. after a
finite base extension) when #I is even and every conjugate of I has
slope sum #I/2.  Divisor classes correspond to the weight-2 Tate pairs
("q-pairs"); an orbit bears Lefschetz classes exactly when a member
splits into disjoint q-pairs.  When the Frobenius conjugates are
distinct the q-pairs are just the conjugation pairs {i, tau(i)} and the
criterion collapses to tau-stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .galois import (
    CMGaloisModel,
    CapExceededError,
    format_perm,
    identity,
    index2_point_sets,
    orbit_of_subset,
    parse_perm,
    subgroup_closure,
)
from .slopes import SlopeVector, conjugate_slope_basis, signature_classes, validate_slopes
from .cmtypes import CMType, hodge_type, is_balanced

# Not called here any more: perfbench/tracer.py patches both names in this
# module, so they stay importable from it.
from .galois import index2_overgroups  # noqa: F401
from .slopes import fix_of_slope  # noqa: F401

DEFAULT_SUBSET_CAP = 16

SCHT_APPLICABLE = "APPLICABLE_MILDLY_EXOTIC"
SCHT_LEFSCHETZ_ONLY = "LEFSCHETZ_ONLY"
SCHT_NOT_DECIDED = "NOT_DECIDED"

TATE_COUNT_NOTE = (
    "rho_k counts Tate classes; identifying them with cycle-space dimensions "
    "assumes the numerical consequences of the Tate conjecture"
)
EXOTIC_RANK_NOTE = "exotic summands are required to have rank <= 2"


@dataclass(frozen=True)
class MotiveOrbit:
    """One Galois orbit <I> carrying Tate classes."""

    weight: int
    representative: tuple
    orbit: tuple
    rank: int
    is_tate: bool
    is_lefschetz_bearing: bool
    is_exotic: bool
    hodge_type: tuple = None
    hodge_balanced: bool = None


@dataclass(frozen=True)
class WeilTateEntry:
    """Determinant set of an imaginary quadratic subfield (index-2 overgroup)."""

    subgroup: frozenset
    determinant_set: tuple
    is_tate: bool
    is_lefschetz_bearing: bool
    is_exotic: bool


@dataclass(frozen=True)
class ClassifierReport:
    g: int
    weights: tuple
    orbits: tuple
    tate_dims: tuple
    exotic: tuple
    mildly_exotic: bool
    weil_tate: tuple
    scht_verdict: str
    notes: tuple = (TATE_COUNT_NOTE, EXOTIC_RANK_NOTE)


def tate_rows(model: CMGaloisModel, s: SlopeVector) -> tuple:
    """Integer rows of the linear Tate predicate, one per conjugate-slope basis vector b.

    Row a_b = D (b - 1/2), with D twice the lcm of the slope denominators.
    Every conjugate s∘g has entry sum g, so a subset J has slope sum #J/2
    at every conjugate iff sum_{i in J} a_b[i] = 0 for every row.
    """
    D = 2 * lcm(*(v.denominator for v in s.values))
    return tuple(
        tuple(int(D * v) - D // 2 for v in b) for b in conjugate_slope_basis(model, s)
    )


def _half_weight(rows, subset) -> bool:
    """Slope sum #J/2 at every conjugate; evenness is not demanded here."""
    return all(sum(row[i] for i in subset) == 0 for row in rows)


def is_tate_subset(model: CMGaloisModel, s: SlopeVector, subset) -> bool:
    """True iff #I is even and every G-conjugate of I has slope sum #I/2."""
    validate_slopes(model, s)
    I = frozenset(subset)
    return len(I) % 2 == 0 and _half_weight(tate_rows(model, s), I)


def q_pairs(model: CMGaloisModel, s: SlopeVector) -> frozenset:
    """All weight-2 Tate subsets {x, y}: the combinatorial divisor classes.

    Conjugation pairs {i, tau(i)} always qualify; further pairs appear
    exactly when distinct indices carry equal Frobenius conjugates
    modulo torsion (Q(pi) smaller than L).
    """
    rows = tate_rows(model, s)
    return frozenset(
        frozenset(P) for P in combinations(range(model.group.degree), 2) if _half_weight(rows, P)
    )


def has_qpair_matching(subset, qpairs) -> bool:
    """Whether the subset is a disjoint union of q-pairs (perfect matching)."""
    memo = {}

    def solve(rest: frozenset) -> bool:
        if not rest:
            return True
        if rest in memo:
            return memo[rest]
        x = min(rest)
        ok = False
        for y in rest:
            if y != x and frozenset({x, y}) in qpairs:
                if solve(rest - {x, y}):
                    ok = True
                    break
        memo[rest] = ok
        return ok

    return solve(frozenset(subset))


def _subset_sums(points, rows) -> dict:
    """(size, row-sum vector) -> the subsets of `points` with that size and sums."""
    table = {}
    for size in range(len(points) + 1):
        for c in combinations(points, size):
            key = (size, tuple(sum(row[i] for i in c) for row in rows))
            table.setdefault(key, []).append(c)
    return table


def tate_subsets(rows, weights) -> dict:
    """weight -> every subset of that size passing the predicate `rows`.

    Meet-in-the-middle: the n points split into two halves, and a subset
    passes iff its parts have sizes k, w - k and row sums v, -v.  The two
    half tables hold 2^(n/2) subsets each, so the cost follows the
    output rather than the 2^n subsets.  Weights are taken as given;
    only even ones yield Tate subsets.
    """
    n = len(rows[0])
    half = n // 2
    low = _subset_sums(range(half), rows)
    high = _subset_sums(range(half, n), rows)
    out = {w: [] for w in weights}
    for (size, vec), parts in low.items():
        minus = tuple(-v for v in vec)
        for w, found in out.items():
            partners = high.get((w - size, minus))
            if partners:
                found.extend(frozenset(a + b) for a in parts for b in partners)
    return out


def classify_orbits(
    model: CMGaloisModel,
    s: SlopeVector,
    weights=None,
    phi: CMType = None,
    subset_cap: int = DEFAULT_SUBSET_CAP,
    workers: int = 1,
) -> ClassifierReport:
    """Enumerate every Tate-class-bearing orbit of the requested weights.

    The Tate subsets of each requested even weight are enumerated
    directly (`tate_subsets`) and grouped into G-orbits in sorted order,
    so each orbit is walked once, from its least member.  Every
    conjugate of a Tate subset is Tate, so each orbit is kept whole.
    Lefschetz / exotic flags, per-weight Tate dimensions rho_k, the
    mildly-exotic flag and the verdict are derived from the orbits.
    Output ordering is canonical (weight, then lexicographic
    representative).  `workers` must be at least 1 and never changes
    the output; the scan runs in the calling thread.
    """
    n = model.group.degree
    if n > subset_cap:
        raise CapExceededError(f"2g = {n} exceeds the subset cap {subset_cap}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    validate_slopes(model, s)

    full_scan = weights is None
    if full_scan:
        weight_list = list(range(0, n + 1, 2))
    else:
        weight_list = sorted(set(int(w) for w in weights))
        for w in weight_list:
            if w % 2 != 0 or not 0 <= w <= n:
                raise ValueError(f"weight {w} is not an even integer in 0..{n}")

    qp = q_pairs(model, s)
    orbits = []
    for w, found in tate_subsets(tate_rows(model, s), weight_list).items():
        unvisited = set(found)
        for I in sorted(found, key=sorted):
            if I not in unvisited:
                continue
            orbit = orbit_of_subset(model, I)
            unvisited.difference_update(orbit)
            rep = orbit[0]
            lefschetz = has_qpair_matching(rep, qp)
            ht = hodge_type(model, phi, rep) if phi is not None else None
            orbits.append(
                MotiveOrbit(
                    weight=w,
                    representative=tuple(sorted(rep)),
                    orbit=tuple(tuple(sorted(m)) for m in orbit),
                    rank=len(orbit),
                    is_tate=True,
                    is_lefschetz_bearing=lefschetz,
                    is_exotic=not lefschetz,
                    hodge_type=ht,
                    hodge_balanced=is_balanced(ht) if ht is not None else None,
                )
            )
    orbits.sort(key=lambda o: (o.weight, o.representative))
    exotic = tuple(o for o in orbits if o.is_exotic)

    if full_scan:
        dims = [0] * (model.g + 1)
        for o in orbits:
            dims[o.weight // 2] += o.rank
        tate_dims = tuple(dims)
        mildly = bool(exotic) and all(o.rank <= 2 for o in exotic)
        if mildly:
            verdict = SCHT_APPLICABLE
        elif not exotic:
            verdict = SCHT_LEFSCHETZ_ONLY
        else:
            verdict = SCHT_NOT_DECIDED
    else:
        tate_dims = None
        mildly = None
        verdict = SCHT_NOT_DECIDED

    return ClassifierReport(
        g=model.g,
        weights=tuple(weight_list),
        orbits=tuple(orbits),
        tate_dims=tate_dims,
        exotic=exotic,
        mildly_exotic=mildly,
        weil_tate=weil_tate_submotives(model, s, _qpairs=qp),
        scht_verdict=verdict,
    )


def weil_tate_submotives(model: CMGaloisModel, s: SlopeVector, _qpairs=None) -> tuple:
    """Candidate determinant submotives over imaginary quadratic subfields.

    One entry per index-2 overgroup Z of H avoiding tau: the orbit
    {z(1) : z in Z} of size g, flagged Tate / Lefschetz-bearing /
    exotic.  The determinant sets come from sign labellings of the
    points (`index2_point_sets`); Z itself is listed only for the entry.
    """
    validate_slopes(model, s)
    qp = q_pairs(model, s) if _qpairs is None else _qpairs
    rows = tate_rows(model, s)
    entries = []
    for det_set in index2_point_sets(model.group):
        if model.tau[0] in det_set:
            continue
        tate = len(det_set) % 2 == 0 and _half_weight(rows, det_set)
        lefschetz = has_qpair_matching(det_set, qp)
        entries.append(
            WeilTateEntry(
                subgroup=frozenset(e for e in model.group.elements if e[0] in det_set),
                determinant_set=tuple(sorted(det_set)),
                is_tate=tate,
                is_lefschetz_bearing=lefschetz,
                is_exotic=tate and not lefschetz,
            )
        )
    entries.sort(key=lambda e: e.determinant_set)
    return tuple(entries)


# ---------------------------------------------------------------------------
# Honda-Tate endomorphism invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalInvariant:
    """One place of F = Q(pi^k) above p."""

    degree: int
    slope: Fraction
    invariant: Fraction


@dataclass(frozen=True)
class EndAlgebraReport:
    frobenius_field_degree: int
    local_invariants: tuple
    index: int
    commutative: bool
    abelian_variety_dim: int


def _blocks_in_coset_order(model: CMGaloisModel, label, point) -> list:
    """The blocks of a G-stable partition, in the order BFS over G meets their cosets.

    Blocks are class labels, with the class S of index 1 labelled 0
    and point[B] some index in B; block B stands for the coset
    {g : g(S) = B} of the setwise stabilizer of S.  `build_group` lists
    the elements in shortlex order of their least generator words
    w = w_1 ... w_k (acting as w_1 after ... after w_k), so the first
    element meeting the coset of B is the shortlex-least word with
    w(S) = B.  Its length is the BFS distance from S in the block graph,
    and it is read greedily from the left: w_1 is the first generator
    whose inverse takes B one step closer to S.
    """
    nblocks = len(point)
    moves = [[label[gen[point[b]]] for b in range(nblocks)] for gen in model.group.generators]
    back = []
    for move in moves:
        inv = [0] * nblocks
        for b, c in enumerate(move):
            inv[c] = b
        back.append(inv)
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for b in frontier:
            for move in moves:
                if move[b] not in dist:
                    dist[move[b]] = dist[b] + 1
                    nxt.append(move[b])
        frontier = nxt

    def least_word(b):
        word = []
        for step in range(dist[b] - 1, -1, -1):
            k = next(k for k, inv in enumerate(back) if dist[inv[b]] == step)
            word.append(k)
            b = back[k][b]
        return word

    return sorted(range(nblocks), key=lambda b: (dist[b], least_word(b)))


def honda_tate_endomorphism(model: CMGaloisModel, s: SlopeVector) -> EndAlgebraReport:
    """Local Brauer invariants, index and dimension of the isogeny factor.

    Places of F correspond to D-orbits on the cosets G/Fix, i.e. on the
    blocks of the signature partition (`signature_classes`); each place
    contributes slope * local degree mod 1.  The index m is the lcm of
    the invariant denominators, and 2 dim = m [F:Q].
    """
    if model.D is None:
        raise ValueError("model has no decomposition subgroup D")
    validate_slopes(model, s)
    label = signature_classes(model, s)
    ncos = max(label) + 1
    point = [label.index(b) for b in range(ncos)]
    d_moves = {tuple(label[d[point[b]]] for b in range(ncos)) for d in model.D}

    visited = set()
    places = []
    for start in _blocks_in_coset_order(model, label, point):
        if start in visited:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            b = frontier.pop()
            for move in d_moves:
                if move[b] not in orbit:
                    orbit.add(move[b])
                    frontier.append(move[b])
        visited |= orbit
        slope = s[point[start]]
        degree = len(orbit)
        raw = slope * degree
        inv = raw - raw.numerator // raw.denominator  # reduce mod 1 into [0, 1)
        places.append(LocalInvariant(degree=degree, slope=slope, invariant=inv))

    total = sum((p.invariant for p in places), Fraction(0))
    if label[model.tau[0]] == 0:
        # F is totally real (slope constant 1/2, hence F = Q): its single
        # real place carries the balancing invariant 1/2
        if (total + Fraction(ncos, 2)).denominator != 1:
            raise ValueError("inconsistent block data: Brauer invariants do not balance")
    elif total.denominator != 1:
        raise ValueError("inconsistent block data: invariants do not sum to 0 mod 1")
    m = 1
    for p in places:
        m = m * p.invariant.denominator // gcd(m, p.invariant.denominator)
    if (m * ncos) % 2 != 0:
        raise ValueError("inconsistent block data: m * [F:Q] is odd")
    return EndAlgebraReport(
        frobenius_field_degree=ncos,
        local_invariants=tuple(places),
        index=m,
        commutative=(m == 1),
        abelian_variety_dim=m * ncos // 2,
    )


# ---------------------------------------------------------------------------
# structure theorem check and signature prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureVerdict:
    passed: bool
    branch: str
    failed_clause: str = None


def structure_check(
    model: CMGaloisModel,
    s: SlopeVector,
    report: ClassifierReport,
    end_report: EndAlgebraReport,
) -> StructureVerdict:
    """Verify the mildly-exotic structure theorem on one instance."""
    if report.mildly_exotic is not True:
        raise ValueError("structure_check requires a mildly exotic instance")
    branch = "commutative" if end_report.commutative else "noncommutative"
    if model.g % 2 != 0:
        return StructureVerdict(False, branch, failed_clause="dimension g is odd")
    exotic_wt_orbits = [
        set(frozenset(m) for m in orbit_of_subset(model, e.determinant_set))
        for e in report.weil_tate
        if e.is_exotic
    ]
    for o in report.exotic:
        oset = set(frozenset(m) for m in o.orbit)
        if oset not in exotic_wt_orbits:
            return StructureVerdict(
                False,
                branch,
                failed_clause=(
                    "exotic orbit with representative "
                    f"{[i + 1 for i in o.representative]} is not a Weil-Tate determinant"
                ),
            )
    if end_report.commutative:
        if not report.weil_tate:
            return StructureVerdict(
                False, branch, failed_clause="no imaginary quadratic subfield exists"
            )
    else:
        if end_report.index != 2:
            return StructureVerdict(
                False, branch, failed_clause=f"noncommutative index m = {end_report.index} != 2"
            )
        if (model.g // 2) % 2 != 1:
            return StructureVerdict(False, branch, failed_clause="g/2 is even")
        if len(report.exotic) != 1:
            return StructureVerdict(
                False,
                branch,
                failed_clause=f"{len(report.exotic)} exotic orbits instead of a unique one",
            )
    return StructureVerdict(True, branch)


def predicted_signature(report: ClassifierReport, g: int) -> tuple:
    """Signature (s_+, s_-) of the middle intersection pairing.

    Hodge-Riemann gives sign (-1)^k to the primitive part of degree 2k,
    of dimension rho_k - rho_{k-1} (rho_{-1} = 0), so s_+ sums those
    dimensions over even k <= g/2 and s_- = rho_{g/2} - s_+.  Assumes
    the Tate-class dimensions rho_k equal the cycle-space dimensions
    (see ClassifierReport.notes).
    """
    if g % 2 != 0:
        raise ValueError("signature prediction needs even g")
    rho = report.tate_dims
    if rho is None or len(rho) <= g // 2:
        raise ValueError("report does not carry rho_0..rho_{g/2}")
    s_plus = sum(rho[k] - (rho[k - 1] if k else 0) for k in range(0, g // 2 + 1, 2))
    return (s_plus, rho[g // 2] - s_plus)


# ---------------------------------------------------------------------------
# lemma suite
# ---------------------------------------------------------------------------

LEMMA_PARTITION = "exotic_partition"
LEMMA_HALF_WEIGHT = "half_weight_minimum"
LEMMA_UNIQUE_EXOTIC = "exotic_uniqueness"
LEMMA_MAIN_UNIQUE = "main_family_unique_exotic"

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class LemmaInstance:
    label: str
    model: CMGaloisModel
    slopes: SlopeVector
    family: str = None


@dataclass(frozen=True)
class LemmaResult:
    instance: str
    lemma: str
    status: str
    detail: str = ""


def verify_lemma_suite(instances) -> tuple:
    """Brute-force the combinatorial lemmas on each instance.

    Hypothesis gating: the partition lemma needs a mildly exotic
    instance; the half-weight minimum and exotic uniqueness need the
    noncommutative setting on top; the unique-exotic-orbit statement is
    specific to the main scenario family.
    """
    results = []
    for inst in instances:
        model, s = inst.model, inst.slopes
        report = classify_orbits(model, s)
        end = honda_tate_endomorphism(model, s) if model.D is not None else None
        mildly = report.mildly_exotic
        noncommutative = end is not None and not end.commutative
        n = model.group.degree
        all_points = frozenset(range(n))
        rows = tate_rows(model, s)

        if mildly:
            status, detail = PASS, ""
            for o in report.exotic:
                I = frozenset(o.representative)
                tau_I = frozenset(model.tau[i] for i in I)
                if I | tau_I != all_points:
                    status = FAIL
                    detail = f"I = {[i + 1 for i in sorted(I)]} has I ∪ tau I != all indices"
                    break
            results.append(LemmaResult(inst.label, LEMMA_PARTITION, status, detail))
        else:
            results.append(
                LemmaResult(inst.label, LEMMA_PARTITION, NOT_APPLICABLE, "not mildly exotic")
            )

        if mildly and noncommutative:
            status, detail = PASS, ""
            for o in report.exotic:
                I = sorted(o.representative)
                for size in range(1, len(I) + 1):
                    for J in combinations(I, size):
                        if _half_weight(rows, J) and size < model.g // 2:
                            status = FAIL
                            detail = (
                                f"J = {[i + 1 for i in J]} has half-weight products "
                                f"but #J = {size} < g/2 = {model.g // 2}"
                            )
                            break
                    if status == FAIL:
                        break
                if status == FAIL:
                    break
            results.append(LemmaResult(inst.label, LEMMA_HALF_WEIGHT, status, detail))

            exotic_sets = {frozenset(m) for o in report.exotic for m in o.orbit}
            if len(report.exotic) == 1:
                I = frozenset(report.exotic[0].representative)
                allowed = {I, frozenset(model.tau[i] for i in I)}
                if exotic_sets <= allowed:
                    results.append(LemmaResult(inst.label, LEMMA_UNIQUE_EXOTIC, PASS))
                else:
                    extra = next(iter(exotic_sets - allowed))
                    results.append(
                        LemmaResult(
                            inst.label,
                            LEMMA_UNIQUE_EXOTIC,
                            FAIL,
                            f"exotic subset {[i + 1 for i in sorted(extra)]} differs from I, tau I",
                        )
                    )
            else:
                results.append(
                    LemmaResult(
                        inst.label,
                        LEMMA_UNIQUE_EXOTIC,
                        FAIL,
                        f"{len(report.exotic)} exotic orbits in the noncommutative setting",
                    )
                )
        else:
            why = "not mildly exotic" if not mildly else "endomorphism algebra is commutative"
            results.append(LemmaResult(inst.label, LEMMA_HALF_WEIGHT, NOT_APPLICABLE, why))
            results.append(LemmaResult(inst.label, LEMMA_UNIQUE_EXOTIC, NOT_APPLICABLE, why))

        if inst.family == "main":
            ok = (
                len(report.exotic) == 1
                and report.exotic[0].rank == 2
                and report.exotic[0].weight == model.g
            )
            results.append(
                LemmaResult(
                    inst.label,
                    LEMMA_MAIN_UNIQUE,
                    PASS if ok else FAIL,
                    "" if ok else f"exotic orbits: {[o.representative for o in report.exotic]}",
                )
            )
        else:
            results.append(
                LemmaResult(inst.label, LEMMA_MAIN_UNIQUE, NOT_APPLICABLE, "not the main family")
            )
    return tuple(results)


# ---------------------------------------------------------------------------
# structured serialization
# ---------------------------------------------------------------------------


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _subgroup_generators(group, sub) -> list:
    """Small deterministic generating set for a verified subgroup."""
    gens = []
    closure = {identity(group.degree)}
    for e in sorted(sub):
        if e not in closure:
            gens.append(e)
            closure = set(subgroup_closure(group, gens))
    return gens


def orbit_to_doc(o: MotiveOrbit) -> dict:
    doc = {
        "weight": o.weight,
        "representative": [i + 1 for i in o.representative],
        "orbit": [[i + 1 for i in member] for member in o.orbit],
        "rank": o.rank,
        "is_tate": o.is_tate,
        "is_lefschetz_bearing": o.is_lefschetz_bearing,
        "is_exotic": o.is_exotic,
    }
    if o.hodge_type is not None:
        doc["hodge_type"] = list(o.hodge_type)
        doc["hodge_balanced"] = o.hodge_balanced
    return doc


def report_to_doc(report: ClassifierReport, group) -> dict:
    return {
        "g": report.g,
        "weights": list(report.weights),
        "orbits": [orbit_to_doc(o) for o in report.orbits],
        "tate_dims": list(report.tate_dims) if report.tate_dims is not None else None,
        "mildly_exotic": report.mildly_exotic,
        "scht_verdict": report.scht_verdict,
        "weil_tate": [
            {
                "subgroup_generators": [
                    format_perm(p) for p in _subgroup_generators(group, e.subgroup)
                ],
                "subgroup_order": len(e.subgroup),
                "determinant_set": [i + 1 for i in e.determinant_set],
                "is_tate": e.is_tate,
                "is_lefschetz_bearing": e.is_lefschetz_bearing,
                "is_exotic": e.is_exotic,
            }
            for e in report.weil_tate
        ],
        "notes": list(report.notes),
    }


def end_report_to_doc(end: EndAlgebraReport) -> dict:
    return {
        "frobenius_field_degree": end.frobenius_field_degree,
        "local_invariants": [
            {"degree": p.degree, "slope": _frac_str(p.slope), "invariant": _frac_str(p.invariant)}
            for p in end.local_invariants
        ],
        "index": end.index,
        "commutative": end.commutative,
        "abelian_variety_dim": end.abelian_variety_dim,
    }


def doc_to_report(doc: dict, model: CMGaloisModel) -> ClassifierReport:
    """Rebuild a ClassifierReport from its structured document."""
    orbits = []
    for od in doc["orbits"]:
        ht = tuple(od["hodge_type"]) if "hodge_type" in od else None
        orbits.append(
            MotiveOrbit(
                weight=od["weight"],
                representative=tuple(i - 1 for i in od["representative"]),
                orbit=tuple(tuple(i - 1 for i in member) for member in od["orbit"]),
                rank=od["rank"],
                is_tate=od["is_tate"],
                is_lefschetz_bearing=od["is_lefschetz_bearing"],
                is_exotic=od["is_exotic"],
                hodge_type=ht,
                hodge_balanced=od.get("hodge_balanced"),
            )
        )
    entries = []
    for ed in doc["weil_tate"]:
        gens = [parse_perm(t, model.group.degree) for t in ed["subgroup_generators"]]
        Z = subgroup_closure(model.group, gens) if gens else frozenset({tuple(range(model.group.degree))})
        entries.append(
            WeilTateEntry(
                subgroup=Z,
                determinant_set=tuple(i - 1 for i in ed["determinant_set"]),
                is_tate=ed["is_tate"],
                is_lefschetz_bearing=ed["is_lefschetz_bearing"],
                is_exotic=ed["is_exotic"],
            )
        )
    return ClassifierReport(
        g=doc["g"],
        weights=tuple(doc["weights"]),
        orbits=tuple(orbits),
        tate_dims=tuple(doc["tate_dims"]) if doc["tate_dims"] is not None else None,
        exotic=tuple(o for o in orbits if o.is_exotic),
        mildly_exotic=doc["mildly_exotic"],
        weil_tate=tuple(entries),
        scht_verdict=doc["scht_verdict"],
        notes=tuple(doc["notes"]),
    )


def doc_to_end_report(doc: dict) -> EndAlgebraReport:
    return EndAlgebraReport(
        frobenius_field_degree=doc["frobenius_field_degree"],
        local_invariants=tuple(
            LocalInvariant(
                degree=pd["degree"],
                slope=Fraction(pd["slope"]),
                invariant=Fraction(pd["invariant"]),
            )
            for pd in doc["local_invariants"]
        ),
        index=doc["index"],
        commutative=doc["commutative"],
        abelian_variety_dim=doc["abelian_variety_dim"],
    )
