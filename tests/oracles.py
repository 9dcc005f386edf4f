"""Definitional reference routes that the fast paths are tested against.

Each one follows the definition directly: it walks orbits as
frozensets, group elements or cosets, builds one matrix column per
group element, runs a whole Sturm chain, reads
irreducibility off the full factorization pattern or tests primality
by trial division, with no linear shortcut, no block system, no bit
mask, no subresultant and no Miller-Rabin; only an orbit walk that
tests its members stops at the first that fails.  The Sturm chain is
the tests' own: the program proves total reality by the signs at the
midpoints of its spread, with no chain.  Every real-root count here
is `sturm_count` of the integer chain `sturm_chain_by_primitive_prem`
(`totally_real_by_sturm`, the forge loop), which makes each
pseudo-remainder primitive by a gcd, whatever the degree drops by, so
it reaches the forge pins past the ladder; the chain over the
rationals is only its cross-check, in `test_kernel_oracles.py`.
Over GF(l) they run
on tuples with their own product and division (`gf_mul`, `gf_divmod`):
x**(l**d) comes from square-and-multiply (`gf_pow_mod`, a full product
and remainder per step), and gcds and squarefree parts from Euclid on tuples, not from
the kernel's Frobenius rows and its one list division.  The forge loop
draws its residue targets with its own drawer
(`irreducible_by_definition`: `rng.randrange` per coefficient, Ben-Or
by `ben_or_by_pow_mod`; `split_target_by_definition`: `rng.sample`
roots multiplied out by `poly_mul`), rebuilds its spread target for
every spread, evaluates it at the midpoints in Fractions
(`alternates_at_midpoints_by_fractions`) and counts the accepted
polynomial's real roots with the integer Sturm chain.
`certificates_by_factoring` factors a forged polynomial mod p,
l, l' and l'' on tuples (`degree_pattern_by_pow_mod`,
`roots_by_pow_mod`), where the program reads the patterns off the CRT
targets that it has proved; `certify_galois_sg` reads the S_g
certificate of a field or a polynomial off the same factorization,
both through `_is_sg_certificate`, which holds the patterns against
`forge._sg_patterns`.
The package factors nothing, so these are the only factorization;
`reduce_checked` holds their input checks (`require_prime`: l a prime
that `is_prime` decides; f nonzero with a unit leading coefficient).

The element-set route lists the group (`elements_of`, breadth-first
from the identity, the order in which `classifier._blocks_in_coset_order`
places the blocks; the program lists no group): `subgroup_closure` and `block_subgroup` list the
subgroups above H from their generators or their point block, and
`fixer_by_definition` and `potential_by_valuation_grouping` decide Fix
and p-potential membership by their definitions over those lists.
`columns_of`, `column_classes` and `signature_block` are no oracles:
they read the program's packed predicate columns, their classes and
the class of index 1, the block that those are held against.

The program holds slopes and local invariants as integers over a
denominator and an orbit's members as masks; `slope_fractions` and
`member_points` read them as the Fractions and point tuples that the
oracles compute in, and `slope_vector` and `local_invariant` build them
from Fractions.  The slope routes read the Fractions:
`validate_slopes_by_fractions` checks the axioms on them, and
`tate_by_orbit_walk` sums them over every member of an orbit, which is
how `q_pairs` and `weil_tate_submotives` decide Tate-ness.
`classify_orbits_by_walk` sums them the same way in integers over its
own lcm, and lists each orbit's members as masks in the order of its
walk.  None of them reads predicate rows or a packed column.
`pairs_passing_by_rows` reads any integer rows one row at a time.
The Lefschetz route `has_qpair_matching` searches the q-pairs of
`pairs_passing` for a perfect matching, pair by pair, with no count
over column classes.  `tate_counts_by_dp` counts the Tate subsets of
each weight from packed columns by a dynamic program over each half of
the points, joined on opposite sums, with no mask, column class,
imbalance or complement; `tate_masks_by_listing` lists every mask and
keeps those whose columns sum to 0.
`main_family_by_formula` states the main family's orbits and rho in
closed form, with no group and no slope.
`short_half_weight_by_combinations` tries every subset of each exotic
representative below half weight, where the lemma suite asks
`tate_subsets`.

`cm_types_by_listing` lists all 2^g choices of one index per
conjugate pair and keeps those that meet the place counts, with no
per-block combinations and no greedy quota.

`plain_document` turns each orbit record into its `orbit_to_doc` dict
and decodes its members bit by bit, not from the writer's template and
text half-tables, so `json.dumps` of it is the reference text for
`cli._emit_json`, whose pieces `emitted_text` joins.
`doc_to_report` and `doc_to_end_report` read a classify report and its
Honda-Tate report back from their documents, for the round-trip tests.

A record holds what its builder found and reads the rest off it (an
orbit's rank and flags, a report's verdict and signature, the index
and dimension of an end report, a field's certificates).  An oracle
that computes such a value keeps computing it, and asserts it equal to
the record's: `classify_orbits_by_walk`, `weil_tate_submotives`,
`honda_tate_by_cosets` (with `local_invariant`), `forge_by_definition`
and the two document readers.
`assert_document_invariants` checks the north-star invariants on a
classify document.
"""

import random
from fractions import Fraction
from itertools import combinations, count, product
from math import comb, gcd, lcm

from weiltate.algebra import (
    crt_poly,
    gf_reduce,
    is_prime,
    poly_degree,
    poly_mul,
    poly_trim,
)
from weiltate.classifier import (
    SCHT_APPLICABLE,
    SCHT_LEFSCHETZ_ONLY,
    SCHT_NOT_DECIDED,
    ClassifierReport,
    EndAlgebraReport,
    LocalInvariant,
    MemberMasks,
    MotiveOrbit,
    WeilTateEntry,
    classify_orbits,
)
from weiltate.cli import EXOTIC_RANK_NOTE, TATE_COUNT_NOTE, _emit_json
from weiltate.cmtypes import is_balanced
from weiltate.forge import (
    Certificates,
    ForgedField,
    _sg_patterns,
)
from weiltate.galois import (
    CMGaloisModel,
    PermGroup,
    _in_group,
    _inverse,
    build_group,
    compose,
    identity,
    index2_point_sets,
    signed_symmetric_group,
)
from weiltate.slopes import SlopeVector


def slope_vector(values) -> SlopeVector:
    """The `SlopeVector` of slopes given as Fractions, ints or strings."""
    values = [Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return SlopeVector(den, tuple(int(v * den) for v in values))


def slope_fractions(s: SlopeVector) -> tuple:
    """The slopes of s as Fractions, the form that the oracles compute in."""
    return tuple(Fraction(a, s.den) for a in s.nums)


def local_invariant(degree: int, slope, invariant) -> LocalInvariant:
    """The `LocalInvariant` of a place's slope given as a Fraction or a string.

    The invariant, given the same way, must be the one that the record
    reads off its slope and degree.
    """
    slope, invariant = Fraction(slope), Fraction(invariant)
    place = LocalInvariant(degree, slope.denominator, slope.numerator)
    assert Fraction(place.invariant_num, place.den) == invariant, (place, invariant)
    return place


def member_points(members: MemberMasks) -> tuple:
    """Each member's sorted 0-based points, its mask read bit by bit (point i is bit n-1-i)."""
    n = members.n
    return tuple(tuple(i for i in range(n) if m >> (n - 1 - i) & 1) for m in members.masks)


def validate_slopes_by_fractions(model: CMGaloisModel, s: SlopeVector) -> None:
    """Check the slope axioms; block constancy only when D is present."""
    n = model.group.degree
    if len(s) != n:
        raise ValueError(f"slope vector has length {len(s)}, expected {n}")
    s = slope_fractions(s)
    for i, v in enumerate(s):
        if not 0 <= v <= 1:
            raise ValueError(f"slope s_{i + 1} = {v} outside [0, 1]")
        if v + s[model.tau[i]] != 1:
            raise ValueError(f"s_{i + 1} + s_tau({i + 1}) != 1")
    if model.D_blocks is not None:
        for block in model.D_blocks:
            vals = {s[i] for i in block}
            if len(vals) != 1:
                raise ValueError(f"slopes not constant on D-block {tuple(b + 1 for b in block)}")
            total = vals.pop() * len(block)
            if total.denominator != 1:
                raise ValueError(f"block {tuple(b + 1 for b in block)}: |B| * s is not an integer")


def pairs_passing_by_rows(rows) -> frozenset:
    """The pairs {x, y} whose entries sum to 0 in every row, one row at a time."""
    return frozenset(
        frozenset(P)
        for P in combinations(range(len(rows[0])), 2)
        if all(sum(row[i] for i in P) == 0 for row in rows)
    )


def pairs_passing(cols) -> frozenset:
    """The q-pairs: the weight-2 subsets {x, y} whose packed columns cancel, col[x] = -col[y]."""
    return frozenset(
        frozenset((x, y)) for x, y in combinations(range(len(cols)), 2) if cols[x] == -cols[y]
    )


def has_qpair_matching(subset, qpairs) -> bool:
    """Whether the subset is a disjoint union of q-pairs (perfect matching), by memoised search."""
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


def tate_counts_by_dp(cols) -> dict:
    """weight -> the number of subsets whose packed columns `cols` sum to 0.

    A dynamic program over each half of the points, keyed by (size,
    partial column sum), whose two counts are joined on opposite sums:
    no subset is listed, so it reaches sizes that a scan of every subset
    cannot, and no column class or imbalance is formed.
    """
    def counts(part) -> dict:
        found = {(0, 0): 1}
        for col in part:
            step = dict(found)
            for (size, total), ways in found.items():
                key = (size + 1, total + col)
                step[key] = step.get(key, 0) + ways
            found = step
        return found

    half = len(cols) // 2
    high = {}
    for (size, total), ways in counts(cols[half:]).items():
        high.setdefault(total, []).append((size, ways))
    out = {}
    for (size, total), ways in counts(cols[:half]).items():
        for rest, more in high.get(-total, ()):
            out[size + rest] = out.get(size + rest, 0) + ways * more
    return out


def tate_masks_by_listing(cols) -> dict:
    """weight -> the masks, in descending order, of every subset whose packed `cols` sum to 0.

    Every one of the 2^n masks is listed (point i is bit n-1-i), its
    column sum read off the mask without its lowest bit: no class, no
    imbalance, no half and no join.
    """
    n = len(cols)
    sums = [0]
    found = {}
    for m in range(1, 1 << n):
        bit = m & -m
        total = sums[m ^ bit] + cols[n - bit.bit_length()]
        sums.append(total)
        if total == 0:
            found.setdefault(m.bit_count(), []).append(m)
    found.setdefault(0, []).append(0)
    return {w: masks[::-1] for w, masks in found.items()}


def main_family_by_formula(g: int, weights=None) -> tuple:
    """(rho, orbits) of the main family mu2 x S_g, tau(i) = i + g, in closed form.

    rho_k = C(g, k), plus 2 at k = g/2.  There are g + 2 orbits: at each
    weight 2k the C(g, k) unions of k tau-pairs {i, i + g}, which are
    Lefschetz, and at weight g the exotic orbit of rank 2, {1..g} and
    {g+1..2g}.  `orbits` maps (weight, is_exotic) to the frozenset of
    the orbit's members, each the sorted tuple of its 0-based points;
    given `weights`, it holds only the orbits of those weights.
    """
    rho = tuple(comb(g, k) + 2 * (2 * k == g) for k in range(g + 1))
    weights = range(0, 2 * g + 1, 2) if weights is None else weights
    orbits = {
        (w, False): frozenset(pairs + tuple(i + g for i in pairs)
                              for pairs in combinations(range(g), w // 2))
        for w in weights
    }
    if g in weights:
        orbits[g, True] = frozenset({tuple(range(g)), tuple(range(g, 2 * g))})
    return rho, orbits


def short_half_weight_by_combinations(report: ClassifierReport):
    """The first J that fails the half-weight lemma, as sorted 0-based points, or None.

    J is a subset of an exotic representative, of size 1 <= #J < g/2,
    odd sizes included, whose packed columns sum to 0.  Representatives
    are tried in report order, then sizes upwards, then every subset of
    that size in lexicographic order (`itertools.combinations`).
    """
    return next(
        (J for o in report.exotic
         for size in range(1, report.g // 2)
         for J in combinations(sorted(o.representative), size)
         if sum(report.columns[i] for i in J) == 0),
        None,
    )


def orbit_of_subset(model: CMGaloisModel, subset, keep=None) -> list:
    """Full G-orbit of a subset of indices, in sorted deterministic order.

    With a predicate `keep`, None as soon as a member fails it: the
    walk stops there.
    """
    start = frozenset(subset)
    gens = model.group.generators
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        if keep is not None and not keep(cur):
            return None
        for gen in gens:
            img = frozenset(gen[x] for x in cur)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return sorted(seen, key=lambda s: sorted(s))


def tate_by_orbit_walk(model, s, subset) -> bool:
    """#I even and slope sum #I/2 at every member of the G-orbit of I."""
    I = frozenset(subset)
    if len(I) % 2 != 0:
        return False
    target = Fraction(len(I), 2)
    s = slope_fractions(s)
    return orbit_of_subset(
        model, I, lambda member: sum((s[i] for i in member), Fraction(0)) == target
    ) is not None


def q_pairs(model: CMGaloisModel, s: SlopeVector) -> frozenset:
    """All weight-2 Tate subsets {x, y}: the combinatorial divisor classes.

    Every pair is tested by walking its orbit.  Conjugation pairs
    {i, tau(i)} always qualify; further pairs appear exactly when
    distinct indices carry equal Frobenius conjugates modulo torsion
    (Q(pi) smaller than L).
    """
    validate_slopes_by_fractions(model, s)
    return frozenset(
        frozenset(P)
        for P in combinations(range(model.group.degree), 2)
        if tate_by_orbit_walk(model, s, P)
    )


def weil_tate_submotives(model: CMGaloisModel, s: SlopeVector) -> tuple:
    """Candidate determinant submotives over imaginary quadratic subfields.

    One entry per index-2 overgroup Z of H avoiding tau: the orbit
    {z(1) : z in Z} of size g, flagged Tate (by its orbit walk) /
    Lefschetz-bearing (a matching of `q_pairs`) / exotic.  The
    determinant sets come from sign labellings of the points
    (`index2_point_sets`); Z itself is never listed.
    """
    validate_slopes_by_fractions(model, s)
    qp = q_pairs(model, s)
    entries = []
    for det_set in index2_point_sets(model.group):
        if model.tau[0] in det_set:
            continue
        tate = tate_by_orbit_walk(model, s, det_set)
        lefschetz = has_qpair_matching(det_set, qp)
        entry = WeilTateEntry(tuple(sorted(det_set)), tate, lefschetz)
        assert entry.is_exotic == (tate and not lefschetz), entry
        entries.append(entry)
    return tuple(sorted(entries, key=lambda e: e.determinant_set))


def classify_orbits_by_walk(model, s, weights=None, phi=None) -> ClassifierReport:
    """`classify_orbits` with each orbit walked as frozensets from its least member.

    The subsets of each weight are visited in `sorted(key=sorted)`
    order.  Each unvisited one with slope sum half its weight starts a
    walk of its orbit, kept when every member has that slope sum; the
    least member of a Tate orbit is the first one met.  The sums are
    taken in integers over the lcm of the slope denominators.  The rank,
    exotic flag and Hodge balance of each orbit, rho, the mildly-exotic
    flag and the verdict are computed here too, and each must be what
    the records read off their fields.
    """
    n = model.group.degree
    full_scan = weights is None
    weight_list = list(range(0, n + 1, 2)) if full_scan else sorted(set(weights))
    qp = q_pairs(model, s)
    values = slope_fractions(s)
    scale = lcm(*(v.denominator for v in values))
    scaled = [int(v * scale) for v in values]

    def half_weight(member):
        return 2 * sum(scaled[i] for i in member) == len(member) * scale

    orbits = []
    for w in weight_list:
        if w % 2 != 0:
            continue
        visited = set()
        for c in combinations(range(n), w):
            if frozenset(c) in visited or not half_weight(c):
                continue
            orbit = orbit_of_subset(model, c, half_weight)
            if orbit is None:
                continue
            visited.update(orbit)
            rep = orbit[0]
            lefschetz = has_qpair_matching(rep, qp)
            ht = None
            if phi is not None:
                ht = (len(phi & rep), len({model.tau[i] for i in phi} & rep))
            o = MotiveOrbit(
                weight=w,
                representative=tuple(sorted(rep)),
                orbit=MemberMasks(n, (sum(1 << (n - 1 - i) for i in m) for m in orbit)),
                is_lefschetz_bearing=lefschetz,
                hodge_type=ht,
            )
            found = (len(orbit), True, not lefschetz, is_balanced(ht) if ht is not None else None)
            assert (o.rank, o.is_tate, o.is_exotic, o.hodge_balanced) == found, o
            orbits.append(o)
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

    report = ClassifierReport(
        g=model.g,
        weights=tuple(weight_list),
        orbits=tuple(orbits),
        tate_dims=tate_dims,
        weil_tate=weil_tate_submotives(model, s),
    )
    assert (report.exotic, report.mildly_exotic, report.scht_verdict) == (exotic, mildly, verdict)
    return report


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


def cm_product_model(g: int) -> CMGaloisModel:
    """The mu2 x S_g model on 2g points, with no D."""
    return CMGaloisModel(signed_symmetric_group(g, [(1, 0)]))


def elements_of(group: PermGroup) -> tuple:
    """Every element, breadth-first from the identity, the generators applied on the right."""
    ident = identity(group.degree)
    out = [ident]
    seen = {ident}
    for e in out:  # grows while it is walked
        for gen in group.generators:
            c = compose(e, gen)
            if c not in seen:
                seen.add(c)
                out.append(c)
    return tuple(out)


def frobenius_rank_by_matrix(model, s) -> int:
    """Rank of the matrix with one column s∘g per distinct conjugate, minus one."""
    n = model.group.degree
    s = slope_fractions(s)
    columns = sorted({tuple(s[g[x]] for x in range(n)) for g in elements_of(model.group)})
    return rational_rank([[col[x] for col in columns] for x in range(n)]) - 1


def fix_by_signatures_over_group(model, s) -> frozenset:
    """Fix as the preimage of the signature class of index 1, signatures taken over all of G."""
    validate_slopes_by_fractions(model, s)
    listed = elements_of(model.group)
    s = slope_fractions(s)
    base_sig = tuple(s[g[0]] for g in listed)
    same = set()
    for x in range(model.group.degree):
        if tuple(s[g[x]] for g in listed) == base_sig:
            same.add(x)
    return frozenset(sigma for sigma in listed if sigma[0] in same)


def subgroup_closure(group: PermGroup, generators) -> frozenset:
    """The subgroup that some elements of `group` generate, listed; each must lie in `group`."""
    sub = build_group(group.degree, _in_group(group, generators))
    return frozenset(elements_of(sub))


def block_subgroup(group: PermGroup, points) -> frozenset:
    """The subgroup {e : e(1) in points} above Stab(1) that the block `points` cuts out, listed.

    Precondition: `points` is a block of the transitive `group` that
    holds index 1 (0-based 0).  The subgroups Z >= Stab(1) are exactly
    these, Z the setwise stabilizer of its block Z(1).
    """
    return frozenset(e for e in elements_of(group) if e[0] in points)


def fixer_by_definition(model: CMGaloisModel, s: SlopeVector) -> frozenset:
    """Fix by its definition {sigma : s[g sigma(1)] = s[g(1)] for all g}, a double loop over G."""
    listed = elements_of(model.group)
    s = slope_fractions(s)
    return frozenset(sigma for sigma in listed if all(s[g[sigma[0]]] == s[g[0]] for g in listed))


def potential_by_valuation_grouping(model: CMGaloisModel, s: SlopeVector, Z) -> bool:
    """p-potential membership by grouping valuations over the subfield fixed by Z.

    Partitions G into the double cosets D g Z (valuations of the closure
    refining a fixed valuation of the subfield cut out by Z) and demands
    the slope function g -> s[g(1)] be constant on each class.  Without
    a decomposition subgroup the classes degenerate to the cosets g Z,
    which tests the same condition since slopes are block-constant.
    """
    D = subgroup_closure(model.group, model.D_generators or ())
    anchors = sorted({z[0] for z in Z})
    s = slope_fractions(s)
    for g in elements_of(model.group):
        base = s[g[0]]
        for d in D:
            dg = compose(d, g)
            for x in anchors:
                if s[dg[x]] != base:
                    return False
    return True


def columns_of(model: CMGaloisModel, s: SlopeVector) -> list:
    """The program's packed predicate columns of (model, s), off a `classify_orbits` of no weight.

    No oracle: the table that `honda_tate_endomorphism` reads.
    """
    return classify_orbits(model, s, weights=()).columns


def column_classes(model: CMGaloisModel, s: SlopeVector) -> tuple:
    """The class of each index under equal columns (`columns_of`), numbered by least index.

    No oracle: the signature partition that Honda-Tate reads, held
    against the signatures over the listed group.
    """
    ids = {}
    return tuple(ids.setdefault(c, len(ids)) for c in columns_of(model, s))


def signature_block(model: CMGaloisModel, s: SlopeVector) -> frozenset:
    """The class S of index 1 under the program's columns (`column_classes`): Fix as a point block.

    No oracle: the point block that the tests hold against
    `fixer_by_definition` and `potential_by_valuation_grouping`.
    """
    return frozenset(x for x, c in enumerate(column_classes(model, s)) if c == 0)


def random_admissible_slopes(model: CMGaloisModel, rng: random.Random) -> SlopeVector:
    """Random exact slopes with s_i + s_tau(i) = 1 (no D constraint)."""
    values = [None] * (2 * model.g)
    for i in range(model.g):
        den = rng.choice([1, 2, 3, 4, 6])
        values[i] = Fraction(rng.randint(0, den), den)
        values[model.tau[i]] = 1 - values[i]
    return slope_vector(values)


def cm_types_by_listing(model: CMGaloisModel, targets: tuple) -> list:
    """The CM-types with #(phi ∩ B) = targets[k] on each D-block B = D_blocks[k], sorted.

    Every choice of one index from each pair {i, tau(i)} is listed and
    counted block by block; the survivors are sorted by their sorted
    indices, as `enumerate_cm_types` sorts.
    """
    pairs = sorted({tuple(sorted((i, model.tau[i]))) for i in range(model.group.degree)})
    found = []
    for choice in product(*pairs):
        phi = frozenset(choice)
        if tuple(len(phi & set(b)) for b in model.D_blocks) == tuple(targets):
            found.append(phi)
    return sorted(found, key=sorted)


def verify_subgroup(group: PermGroup, members) -> frozenset:
    """Check subgroup axioms inside `group`; returns the verified frozenset."""
    sub = frozenset(tuple(e) for e in members)
    if identity(group.degree) not in sub:
        raise ValueError("subgroup does not contain the identity")
    for a in sub:
        if a not in group:
            raise ValueError("subgroup element lies outside the group")
        if _inverse(a) not in sub:
            raise ValueError("subgroup is not closed under inverse")
        for b in sub:
            if compose(a, b) not in sub:
                raise ValueError("subgroup is not closed under composition")
    return sub


def subgroup_generators_by_listing(group: PermGroup, sub) -> list:
    """Small deterministic generating set for a subgroup.

    Greedy over the sorted elements: an element joins when the closure
    of the generators so far misses it.
    """
    gens = []
    closure = {identity(group.degree)}
    for e in sorted(sub):
        if e not in closure:
            gens.append(e)
            closure = set(subgroup_closure(group, gens))
    return gens


def index2_overgroups(group: PermGroup, H) -> list:
    """All subgroups Z with H <= Z <= G of index 2, for any subgroup H.

    Found by assigning signs to the generators, validating that the
    assignment extends to a homomorphism G -> {+-1} over all |G|
    elements, and keeping the kernels that contain H.  For H = Stab(1)
    `index2_point_sets` finds the same subgroups on the points alone.
    """
    H = frozenset(tuple(h) for h in H)
    gens = group.generators
    ident = identity(group.degree)
    found = []
    for bits in range(1, 2 ** len(gens)):
        signs = {ident: 1}
        gen_sign = {g: (-1 if (bits >> k) & 1 else 1) for k, g in enumerate(gens)}
        queue = [ident]
        consistent = True
        while queue and consistent:
            nxt = []
            for e in queue:
                for g in gens:
                    c = compose(e, g)
                    s = signs[e] * gen_sign[g]
                    if c in signs:
                        if signs[c] != s:
                            consistent = False
                            break
                    else:
                        signs[c] = s
                        nxt.append(c)
                if not consistent:
                    break
            queue = nxt
        if not consistent:
            continue
        kernel = frozenset(e for e, s in signs.items() if s == 1)
        if len(kernel) * 2 != group.order:
            continue
        if H <= kernel and kernel not in found:
            found.append(kernel)
    return sorted(found, key=lambda z: sorted(z))


def orbits_by_walk(D, degree: int) -> tuple:
    """Orbits of the subgroup D on the points, each grown by applying every element of D."""
    seen = [False] * degree
    blocks = []
    for start in range(degree):
        if seen[start]:
            continue
        orbit = set()
        frontier = [start]
        while frontier:
            x = frontier.pop()
            if x in orbit:
                continue
            orbit.add(x)
            seen[x] = True
            for d in D:
                if d[x] not in orbit:
                    frontier.append(d[x])
        blocks.append(tuple(sorted(orbit)))
    return tuple(blocks)


def left_cosets(group, sub):
    """Left cosets e*sub, each listed whole at its first element, the representative."""
    reps = []
    coset_of = {}
    for e in elements_of(group):
        if e not in coset_of:
            for z in sub:
                coset_of[compose(e, z)] = len(reps)
            reps.append(e)
    return reps, coset_of


def honda_tate_by_cosets(model, s) -> EndAlgebraReport:
    """Honda-Tate invariants with the places found as D-orbits on the materialized cosets G/Fix.

    [F:Q] is the number of cosets and the index the lcm of the invariants'
    denominators as Fractions; each must be what the report reads off
    its places.
    """
    if model.D_generators is None:
        raise ValueError("model has no decomposition subgroup D")
    validate_slopes_by_fractions(model, s)
    D = subgroup_closure(model.group, model.D_generators)
    fix = fix_by_signatures_over_group(model, s)
    reps, coset_of = left_cosets(model.group, fix)
    ncos = len(reps)
    s = slope_fractions(s)

    visited = [False] * ncos
    places, invariants = [], []
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
            for d in D:
                frontier.append(coset_of[compose(d, reps[c])])
        slope = s[reps[min(orbit)][0]]
        degree = len(orbit)
        raw = slope * degree
        inv = raw - raw.numerator // raw.denominator  # reduce mod 1 into [0, 1)
        places.append(local_invariant(degree, slope, inv))
        invariants.append(inv)

    total = sum(invariants, Fraction(0))
    if model.tau in fix:
        if (total + Fraction(ncos, 2)).denominator != 1:
            raise ValueError("inconsistent block data: Brauer invariants do not balance")
    elif total.denominator != 1:
        raise ValueError("inconsistent block data: invariants do not sum to 0 mod 1")
    m = 1
    for inv in invariants:
        m = m * inv.denominator // gcd(m, inv.denominator)
    if (m * ncos) % 2 != 0:
        raise ValueError("inconsistent block data: m * [F:Q] is odd")
    end = EndAlgebraReport(tuple(places))
    found = (ncos, m, m == 1, m * ncos // 2)
    assert (end.frobenius_field_degree, end.index, end.commutative,
            end.abelian_variety_dim) == found, end
    return end


def is_prime_by_trial_division(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class NotSquarefreeError(ValueError):
    """Raised when a Sturm chain meets a polynomial that is not squarefree."""


def poly_derivative(f):
    return poly_trim(tuple(i * f[i] for i in range(1, len(f))))


def totally_real_by_sturm(f) -> bool:
    """Whether f has deg f distinct real roots, by the integer Sturm chain."""
    f = poly_trim(f)
    try:
        return sturm_count(sturm_chain_by_primitive_prem(f)) == poly_degree(f)
    except NotSquarefreeError:
        return False


def _sign_at_infinity(f, positive: bool) -> int:
    lead = f[-1]
    if positive or (poly_degree(f) % 2 == 0):
        return 1 if lead > 0 else -1
    return -1 if lead > 0 else 1


def _sign_changes(signs) -> int:
    changes = 0
    prev = None
    for s in signs:
        if s == 0:
            continue
        if prev is not None and s != prev:
            changes += 1
        prev = s
    return changes


def sturm_count(chain) -> int:
    """Distinct real roots from a Sturm chain: its sign changes at -oo minus those at +oo.

    Each member's sign at an infinity is read off its leading term; a
    zero member is skipped.
    """
    chain = [p for p in chain if p]
    neg = [_sign_at_infinity(p, positive=False) for p in chain]
    pos = [_sign_at_infinity(p, positive=True) for p in chain]
    return _sign_changes(neg) - _sign_changes(pos)


def _primitive(f):
    """f divided by the positive gcd of its coefficients (f nonzero)."""
    c = gcd(*f)
    return f if c == 1 else tuple(a // c for a in f)


def _prem(a, b):
    """Pseudo-remainder lc(b)**(deg a - deg b + 1) * a mod b, exact over Z."""
    rem = list(a)
    lead, nb = b[-1], len(b)
    for i in range(len(a) - nb, -1, -1):
        c = rem[i + nb - 1]
        for j in range(i + nb - 1):
            rem[j] *= lead
        for j in range(nb - 1):
            rem[i + j] -= c * b[j]
    return poly_trim(rem[: nb - 1])


def sturm_chain_by_primitive_prem(f):
    """The whole integer Sturm chain f, f', ... of a nonconstant trimmed f, lazily.

    After f and f' the chain continues with -sign(lc b)**(deg a - deg b
    + 1) * prem(a, b) made primitive: a positive multiple of -rem(a, b),
    so every member has the signs at -oo and +oo of the rational Sturm
    chain's, whatever the degrees drop by, with no fraction ever formed.
    A pseudo-remainder that vanishes before a constant is reached raises
    NotSquarefreeError.
    """
    a, b = _primitive(f), _primitive(poly_derivative(f))
    yield a
    yield b
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            raise NotSquarefreeError("polynomial is not squarefree over Q")
        if b[-1] > 0 or (len(a) - len(b)) % 2 == 1:
            r = tuple(-c for c in r)
        a, b = b, _primitive(r)
        yield b


def gf_mul(f, g, l):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % l
    return poly_trim(out)


def gf_divmod(f, g, l):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], -1, l)
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return (), poly_trim(rem)
    quo = [0] * (dq + 1)
    below_lead = g[:-1]
    for i in range(dq, -1, -1):
        c = rem[i + len(g) - 1] % l  # rem stays unreduced until a coefficient is read
        if c:
            c = (c * inv) % l
            quo[i] = c
            for j, b in enumerate(below_lead):
                rem[i + j] -= c * b
    return poly_trim(quo), poly_trim(tuple(c % l for c in rem[: len(g) - 1]))


def gf_quo(f, g, l):
    return gf_divmod(f, g, l)[0]


def gf_monic(f, l):
    f = gf_reduce(f, l)
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, l)
    return tuple((c * inv) % l for c in f)


def gf_derivative(f, l):
    return poly_trim(tuple((i * f[i]) % l for i in range(1, len(f))))


def gf_sub(f, g, l):
    n = max(len(f), len(g))
    return poly_trim(
        tuple(((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % l for i in range(n))
    )


def gf_rem(f, g, l):
    return gf_divmod(f, g, l)[1]


def gf_gcd_by_rem(f, g, l):
    """Euclid through tuple remainders, each a full `gf_divmod`."""
    a, b = gf_reduce(f, l), gf_reduce(g, l)
    while b:
        a, b = b, gf_rem(a, b, l)
    return gf_monic(a, l)


def gf_pow_mod(base, e, mod, l):
    """base**e mod `mod` over GF(l) by square-and-multiply, a full product and remainder per step."""
    result = (1,)
    base = gf_rem(base, mod, l)
    while e > 0:
        if e & 1:
            result = gf_rem(gf_mul(result, base, l), mod, l)
        base = gf_rem(gf_mul(base, base, l), mod, l)
        e >>= 1
    return result


def squarefree_decomposition_by_rem(f, l):
    """Monic squarefree decomposition over GF(l) on tuples, gcds by `gf_gcd_by_rem`.

    Returns a list of (multiplicity, factor) with the factors monic,
    squarefree, pairwise coprime, and prod(factor**mult) = monic(f).
    Handles the characteristic-l collapse f' = 0 via l-th roots
    (Frobenius is the identity on GF(l) coefficients).
    """
    f = gf_monic(f, l)
    if poly_degree(f) < 1:
        return []
    out = []
    n = 1
    while True:
        deriv = gf_derivative(f, l)
        if deriv:
            g = gf_gcd_by_rem(f, deriv, l)
            h = gf_quo(f, g, l)
            i = 1
            while h != (1,):
                gh = gf_gcd_by_rem(g, h, l)
                piece = gf_quo(h, gh, l)
                if poly_degree(piece) > 0:
                    out.append((i * n, piece))
                g, h, i = gf_quo(g, gh, l), gh, i + 1
            if g == (1,):
                break
            f = g
        # here f is an l-th power: f(x) = u(x**l); its l-th root reuses
        # the same coefficients since a**l = a in GF(l)
        f = tuple(f[i * l] for i in range(poly_degree(f) // l + 1))
        n *= l
    return out


def distinct_degree_by_pow_mod(f, l):
    """Distinct-degree split of a monic squarefree f, x**(l**d) by `gf_pow_mod` mod what is left."""
    out = []
    h = (0, 1)  # x
    d = 0
    while poly_degree(f) > 0:
        d += 1
        if 2 * d > poly_degree(f):
            out.append((poly_degree(f), f))
            break
        h = gf_pow_mod(h, l, f, l)
        g = gf_gcd_by_rem(f, gf_sub(h, (0, 1), l), l)
        if poly_degree(g) > 0:
            out.append((d, g))
            f = gf_quo(f, g, l)
            h = gf_rem(h, f, l)
    return out


def require_prime(l: int) -> None:
    """Refuse l unless it is a prime; at or above `MR_BOUND`, `is_prime` refuses it."""
    if not isinstance(l, int) or not is_prime(l):
        raise ValueError(f"modulus {l!r} is not prime")


def reduce_checked(f, l):
    """f mod l made monic, as a tuple: l a prime, f nonzero with a unit lead."""
    require_prime(l)
    f = poly_trim(f)
    if not f:
        raise ValueError("zero polynomial rejected")
    if f[-1] % l == 0:
        raise ValueError(f"leading coefficient of f vanishes mod {l}")
    inv = pow(f[-1], -1, l)
    return tuple(c % l * inv % l for c in f)


def ben_or_by_pow_mod(f, l):
    """Ben-Or's test, x**(l**d) by `gf_pow_mod` at every d."""
    fbar = reduce_checked(f, l)
    n = poly_degree(fbar)
    h = (0, 1)  # x**(l**d) mod f
    for _ in range(n // 2):
        h = gf_pow_mod(h, l, fbar, l)
        if gf_gcd_by_rem(fbar, gf_sub(h, (0, 1), l), l) != (1,):
            return False
    return n >= 1


def roots_by_pow_mod(f, l):
    """Distinct roots of f in GF(l): deg gcd(f, x**l - x), x**l by `gf_pow_mod`."""
    fbar = reduce_checked(f, l)
    if poly_degree(fbar) == 0:
        return 0
    xl = gf_pow_mod((0, 1), l, fbar, l)
    return poly_degree(gf_gcd_by_rem(fbar, gf_sub(xl, (0, 1), l), l))


def degree_pattern_by_pow_mod(f, l):
    """Degree pattern of f mod l: ([(degree, count), ...], squarefree).

    The squarefree parts of `squarefree_decomposition_by_rem`, each
    split by `distinct_degree_by_pow_mod`; the counts carry
    multiplicity, the pairs are sorted by degree and
    sum(d*c) = deg(f mod l).
    """
    fbar = reduce_checked(f, l)
    counts = {}
    squarefree = True
    for mult, part in squarefree_decomposition_by_rem(fbar, l):
        if mult > 1:
            squarefree = False
        for d, prod in distinct_degree_by_pow_mod(part, l):
            counts[d] = counts.get(d, 0) + (poly_degree(prod) // d) * mult
    return sorted(counts.items()), squarefree


def irreducible_by_pattern(f, l) -> bool:
    """Irreducible mod l iff the whole degree pattern is one factor of full degree."""
    pattern, _ = degree_pattern_by_pow_mod(f, l)
    d = poly_degree(gf_reduce(f, l))
    return d >= 1 and pattern == [(d, 1)]


def poly_add(f, g):
    """f + g, coefficient by coefficient, trimmed."""
    n = max(len(f), len(g))
    return poly_trim(
        tuple((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n))
    )


def poly_eval(f, x):
    """f(x) by Horner's rule, over the integers."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _is_sg_certificate(g: int, *patterns) -> bool:
    """Whether the squarefree patterns mod l, l' and l'' are those of `_sg_patterns`."""
    return tuple(map(tuple, patterns)) == _sg_patterns(g)


def certificates_by_factoring(poly, g: int, p: int, l: int, lp: int, lpp: int, real_roots: int):
    """The `Certificates` of `poly` from its factorization mod p, l, l' and l'';
    the real-root count is given."""
    (pat_p, _), *squarefree_patterns = (degree_pattern_by_pow_mod(poly, q) for q in (p, l, lp, lpp))
    pat_l, pat_lp, pat_lpp = (tuple(pattern) for pattern, _ in squarefree_patterns)
    return Certificates(
        pattern_at_p=tuple(pat_p),
        pattern_at_l=pat_l,
        pattern_at_lp=pat_lp,
        pattern_at_lpp=pat_lpp,
        roots_at_lp=roots_by_pow_mod(poly, lp),
        real_root_count=real_roots,
        galois_is_sg=all(squarefree for _, squarefree in squarefree_patterns)
        and _is_sg_certificate(g, pat_l, pat_lp, pat_lpp),
    )


def certify_galois_sg(field_or_poly, l=None, lp=None, lpp=None) -> bool:
    """The S_g certificate by factoring: a g-cycle mod l, a transposition
    shape mod l' and a (g-1)-cycle shape mod l'', each squarefree.

    g is the degree of the trimmed polynomial.
    """
    if isinstance(field_or_poly, ForgedField):
        f = field_or_poly
        field_or_poly, l, lp, lpp = f.poly, f.l, f.lp, f.lpp
    patterns = [degree_pattern_by_pow_mod(field_or_poly, q) for q in (l, lp, lpp)]
    g = poly_degree(poly_trim(field_or_poly))
    return all(squarefree for _, squarefree in patterns) and _is_sg_certificate(
        g, *(pattern for pattern, _ in patterns)
    )


def alternates_at_midpoints_by_fractions(poly, scale) -> bool:
    """Whether poly takes nonzero values of alternating sign at scale * (j + 1/2),
    j = 0..deg poly, each value a Fraction by Horner's rule."""
    values = [poly_eval(poly, Fraction(scale * (2 * j + 1), 2)) for j in range(len(poly))]
    return all(a * b < 0 for a, b in zip(values, values[1:]))


def irreducible_by_definition(g: int, l: int, rng: random.Random) -> tuple:
    """A monic degree-g irreducible mod l: draws of `rng.randrange(l)` per coefficient
    until `ben_or_by_pow_mod` proves one irreducible."""
    while True:
        f = tuple(rng.randrange(l) for _ in range(g)) + (1,)
        if ben_or_by_pow_mod(f, l):
            return f


def split_target_by_definition(g: int, d: int, q: int, rng: random.Random) -> tuple:
    """g - d distinct linears mod q, their roots by `rng.sample`, times an irreducible
    of degree d (none at d = 0), multiplied out by `poly_mul` and reduced mod q."""
    target = irreducible_by_definition(d, q, rng) if d else (1,)
    for r in rng.sample(range(q), g - d):
        target = poly_mul(target, (-r, 1))
    return gf_reduce(target, q)


def forge_by_definition(g: int, p: int, l: int, lp: int, seed: int = 0):
    """`forge_totally_real` by definition: l'' is the least prime other than
    p, l and l' by trial division; the targets come from
    `irreducible_by_definition` and `split_target_by_definition`, drawn
    from the forge's own seeded stream; for each spread K, rebuild
    T = prod(x - M K i) by multiplication, add the centered correction
    base - T mod M, and accept at the first K where the values at the
    midpoints M K (j + 1/2) alternate in sign, each a Fraction.  The
    accepted polynomial's real roots are counted by the integer Sturm
    chain and its certificates read off its factorization; they must be
    the certificates that the field reads off g.
    """
    lpp = next(q for q in count(2) if q not in (p, l, lp) and is_prime_by_trial_division(q))
    rng = random.Random(f"{seed}:{g}:{p}:{l}:{lp}")
    target_p = irreducible_by_definition(g, p, rng)
    target_l = irreducible_by_definition(g, l, rng)
    target_lp = split_target_by_definition(g, 2, lp, rng)
    target_lpp = split_target_by_definition(g, g - 1 if g > 2 else 0, lpp, rng)
    modulus = p * l * lp * lpp
    base = crt_poly([(p, target_p), (l, target_l), (lp, target_lp), (lpp, target_lpp)], g)
    # the signs alternate once K > 2g (g + 1/2)^(g-1), so by a power of two at most twice that
    bound = 4 * g * Fraction(2 * g + 1, 2) ** (g - 1)
    spread = 1
    while spread <= bound:
        t = (1,)
        for i in range(1, g + 1):
            t = poly_mul(t, (-modulus * spread * i, 1))
        correction = []
        for k in range(g):
            delta = (base[k] - t[k]) % modulus
            correction.append(delta - modulus if delta > modulus // 2 else delta)
        poly = poly_add(t, tuple(correction))
        if alternates_at_midpoints_by_fractions(poly, modulus * spread):
            real_roots = sturm_count(sturm_chain_by_primitive_prem(poly))
            certs = certificates_by_factoring(poly, g, p, l, lp, lpp, real_roots)
            field = ForgedField(g=g, p=p, l=l, lp=lp, lpp=lpp, seed=seed, poly=poly,
                                spread=spread)
            assert field.certificates == certs, (field, certs)
            return field
        spread *= 2
    raise RuntimeError("no totally real polynomial within the bound")


def orbit_to_doc(o: MotiveOrbit) -> dict:
    """The document of one orbit, "orbit" holding its `MemberMasks`.

    The reference for the template of `cli._write_orbit`: the Hodge
    keys are present only when the orbit has a Hodge type.
    """
    doc = {
        "weight": o.weight,
        "representative": [i + 1 for i in o.representative],
        "orbit": o.orbit,
        "rank": o.rank,
        "is_tate": o.is_tate,
        "is_lefschetz_bearing": o.is_lefschetz_bearing,
        "is_exotic": o.is_exotic,
    }
    if o.hodge_type is not None:
        doc["hodge_type"] = list(o.hodge_type)
        doc["hodge_balanced"] = o.hodge_balanced
    return doc


def plain_document(doc):
    """`doc` as plain data: each orbit as its `orbit_to_doc` dict, members as point lists.

    Each `MemberMasks` becomes the list of its members' 1-based point
    lists, a member read through `member_points`, which decodes its
    mask one bit at a time.
    """
    if isinstance(doc, MotiveOrbit):
        return plain_document(orbit_to_doc(doc))
    if isinstance(doc, MemberMasks):
        return [[i + 1 for i in m] for m in member_points(doc)]
    if isinstance(doc, dict):
        return {k: plain_document(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain_document(v) for v in doc]
    return doc


def emitted_text(doc) -> str:
    """The text that `cli._emit_json` writes for `doc`, its pieces joined."""
    pieces = []
    _emit_json(doc, pieces.append)
    return "".join(pieces)


def doc_to_report(doc: dict) -> ClassifierReport:
    """Rebuild a ClassifierReport from its structured document, as parsed from its JSON text.

    Each orbit's 1-based member lists are read back as their masks,
    point i as bit 2g-i.  Every key that a record reads off its fields
    (an orbit's rank and flags, an entry's exotic flag, the report's
    verdict and notes) must hold the value that the record reads.
    """
    n = 2 * doc["g"]
    orbits = []
    for od in doc["orbits"]:
        ht = tuple(od["hodge_type"]) if "hodge_type" in od else None
        o = MotiveOrbit(
            weight=od["weight"],
            representative=tuple(i - 1 for i in od["representative"]),
            orbit=MemberMasks(n, (sum(1 << (n - i) for i in m) for m in od["orbit"])),
            is_lefschetz_bearing=od["is_lefschetz_bearing"],
            hodge_type=ht,
        )
        assert (od["rank"], od["is_tate"], od["is_exotic"], od.get("hodge_balanced")) == (
            o.rank, o.is_tate, o.is_exotic, o.hodge_balanced), od
        orbits.append(o)
    entries = []
    for ed in doc["weil_tate"]:
        e = WeilTateEntry(
            determinant_set=tuple(i - 1 for i in ed["determinant_set"]),
            is_tate=ed["is_tate"],
            is_lefschetz_bearing=ed["is_lefschetz_bearing"],
        )
        assert ed["is_exotic"] == e.is_exotic, ed
        entries.append(e)
    report = ClassifierReport(
        g=doc["g"],
        weights=tuple(doc["weights"]),
        orbits=tuple(orbits),
        tate_dims=tuple(doc["tate_dims"]) if doc["tate_dims"] is not None else None,
        weil_tate=tuple(entries),
    )
    assert (doc["mildly_exotic"], doc["scht_verdict"], doc["notes"]) == (
        report.mildly_exotic, report.scht_verdict, [TATE_COUNT_NOTE, EXOTIC_RANK_NOTE]), doc
    return report


def doc_to_end_report(doc: dict) -> EndAlgebraReport:
    """Rebuild an EndAlgebraReport from its document.

    Each place's invariant, [F:Q], the index, commutativity and the
    dimension must be what the records read off the places.
    """
    end = EndAlgebraReport(tuple(
        local_invariant(pd["degree"], pd["slope"], pd["invariant"])
        for pd in doc["local_invariants"]
    ))
    assert (doc["frobenius_field_degree"], doc["index"], doc["commutative"],
            doc["abelian_variety_dim"]) == (end.frobenius_field_degree, end.index,
                                            end.commutative, end.abelian_variety_dim), doc
    return end


def assert_document_invariants(doc) -> None:
    """The north-star invariants of a classify document.

    rho_k = rho_{g-k} over rho_0..rho_g when the Tate dimensions are
    given; s_+, s_- >= 0 when the signature is predicted; the local
    invariants sum to 0 mod 1, counting [F:Q] real places of invariant
    1/2 when every slope is 1/2 (F totally real); and 2 dim = m [F:Q].
    """
    rho = doc["report"]["tate_dims"]
    if rho is not None:
        assert len(rho) == doc["report"]["g"] + 1 and rho == rho[::-1]
    if doc["predicted_signature"] is not None:
        assert min(doc["predicted_signature"]) >= 0
    end = doc["endomorphism"]
    places = end["local_invariants"]
    total = sum(Fraction(p["invariant"]) for p in places)
    if all(p["slope"] == "1/2" for p in places):
        total += Fraction(end["frobenius_field_degree"], 2)
    assert total % 1 == 0
    assert 2 * end["abelian_variety_dim"] == end["index"] * end["frobenius_field_degree"]
