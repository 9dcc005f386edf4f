"""Definitional reference routes that the fast paths are tested against.

Each one follows the definition directly: it walks orbits, group
elements or cosets, or builds one matrix column per group element, with
no linear shortcut and no block system.
"""

from fractions import Fraction
from math import gcd

from weiltate.classifier import EndAlgebraReport, LocalInvariant
from weiltate.galois import compose, orbit_of_subset
from weiltate.slopes import validate_slopes


def tate_by_orbit_walk(model, s, subset) -> bool:
    """#I even and slope sum #I/2 at every member of the G-orbit of I."""
    I = frozenset(subset)
    if len(I) % 2 != 0:
        return False
    target = Fraction(len(I), 2)
    return all(sum((s[i] for i in member), Fraction(0)) == target
               for member in orbit_of_subset(model, I))


def rational_rank(matrix) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def frobenius_rank_by_matrix(model, s) -> int:
    """Rank of the matrix with one column s∘g per distinct conjugate, minus one."""
    n = model.group.degree
    columns = sorted({tuple(s[g[x]] for x in range(n)) for g in model.group.elements})
    return rational_rank([[col[x] for col in columns] for x in range(n)]) - 1


def fix_by_signatures_over_group(model, s) -> frozenset:
    """Fix as the preimage of the signature class of index 1, signatures taken over all of G."""
    validate_slopes(model, s)
    base_sig = tuple(s[g[0]] for g in model.group.elements)
    same = set()
    for x in range(model.group.degree):
        if tuple(s[g[x]] for g in model.group.elements) == base_sig:
            same.add(x)
    return frozenset(sigma for sigma in model.group.elements if sigma[0] in same)


def left_cosets(group, sub):
    """Canonical left cosets e*sub: representatives in discovery order."""
    reps = []
    key_to_id = {}
    coset_of = {}
    for e in group.elements:
        key = min(compose(e, z) for z in sub)
        cid = key_to_id.get(key)
        if cid is None:
            cid = len(reps)
            key_to_id[key] = cid
            reps.append(e)
        coset_of[e] = cid
    return reps, coset_of


def honda_tate_by_cosets(model, s) -> EndAlgebraReport:
    """Honda-Tate invariants with the places found as D-orbits on the materialized cosets G/Fix."""
    if model.D is None:
        raise ValueError("model has no decomposition subgroup D")
    validate_slopes(model, s)
    fix = fix_by_signatures_over_group(model, s)
    reps, coset_of = left_cosets(model.group, fix)
    ncos = len(reps)

    visited = [False] * ncos
    places = []
    for start in range(ncos):
        if visited[start]:
            continue
        orbit = set()
        frontier = [start]
        while frontier:
            c = frontier.pop()
            if c in orbit:
                continue
            orbit.add(c)
            visited[c] = True
            for d in model.D:
                frontier.append(coset_of[compose(d, reps[c])])
        slope = s[reps[min(orbit)][0]]
        degree = len(orbit)
        raw = slope * degree
        inv = raw - raw.numerator // raw.denominator  # reduce mod 1 into [0, 1)
        places.append(LocalInvariant(degree=degree, slope=slope, invariant=inv))

    total = sum((p.invariant for p in places), Fraction(0))
    if model.tau in fix:
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
