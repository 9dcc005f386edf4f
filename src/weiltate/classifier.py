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

from math import gcd, lcm
from operator import index, itemgetter

from .galois import (
    CMGaloisModel,
    CapExceededError,
    Record,
    format_perm,
    index2_point_sets,
    point_orbits,
    subgroup_generators,
)
from .slopes import (
    SlopeVector,
    conjugate_slope_basis,
    lowest_terms,
    ratio_str,
    validate_slopes,
)
from .cmtypes import hodge_type, is_balanced, validate_cm_type

DEFAULT_SUBSET_CAP = 16

SCHT_APPLICABLE = "APPLICABLE_MILDLY_EXOTIC"
SCHT_LEFSCHETZ_ONLY = "LEFSCHETZ_ONLY"
SCHT_NOT_DECIDED = "NOT_DECIDED"

TATE_COUNT_NOTE = (
    "rho_k counts Tate classes; identifying them with cycle-space dimensions "
    "assumes the numerical consequences of the Tate conjecture"
)
EXOTIC_RANK_NOTE = "exotic summands are required to have rank <= 2"


def refuse_over_subset_cap(n: int, subset_cap: int, where: str = "") -> None:
    """Refuse 2g = n points over the subset cap, the one guard on a classification."""
    if n > subset_cap:
        raise CapExceededError(f"{where}2g = {n} exceeds the subset cap {subset_cap}")


class MemberMasks:
    """The members of an orbit as n-bit masks in descending order: point i is bit n-1-i.

    Descending mask order is the lexicographic order of the sorted point
    tuples, which is document order.  Equality, hash and repr read
    `(n, masks)`; no member is decoded to points.
    """

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks):
        self.n = n
        self.masks = tuple(masks)

    def __eq__(self, other):
        if not isinstance(other, MemberMasks):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.n, self.masks))

    def __repr__(self) -> str:
        return f"MemberMasks({self.n}, {self.masks!r})"


def _points(n, mask) -> tuple:
    """The sorted 0-based points of an n-bit mask (point i is bit n-1-i)."""
    points = []
    while mask:
        bit = mask & -mask  # the lowest set bit: the largest point left
        points.append(n - bit.bit_length())
        mask ^= bit
    return tuple(reversed(points))


class MotiveOrbit(Record):
    """One Galois orbit <I> carrying Tate classes.

    `orbit` is its members as a `MemberMasks`, in document order.
    """

    weight: int
    representative: tuple
    orbit: MemberMasks
    rank: int
    is_tate: bool
    is_lefschetz_bearing: bool
    is_exotic: bool
    hodge_type: tuple = None
    hodge_balanced: bool = None


class WeilTateEntry(Record):
    """Determinant set of an imaginary quadratic subfield (index-2 overgroup Z of H).

    The determinant set is the block {z(1) : z in Z}, which fixes Z.
    """

    determinant_set: tuple
    is_tate: bool
    is_lefschetz_bearing: bool
    is_exotic: bool


class ClassifierReport(Record):
    """The orbits and verdicts of one classification.

    `frobenius_rank` (the number of Tate predicate rows, minus one) and
    `columns` (the packed predicate columns, `_packed_columns`) are read
    off the predicate that `classify_orbits` builds; neither takes part
    in report equality or repr.
    """

    g: int
    weights: tuple
    orbits: tuple
    tate_dims: tuple
    exotic: tuple
    mildly_exotic: bool
    weil_tate: tuple
    scht_verdict: str
    notes: tuple = (TATE_COUNT_NOTE, EXOTIC_RANK_NOTE)
    frobenius_rank: int = None
    columns: list = None
    _compare = (
        "g", "weights", "orbits", "tate_dims", "exotic", "mildly_exotic", "weil_tate",
        "scht_verdict", "notes",
    )


def tate_rows(model: CMGaloisModel, s: SlopeVector) -> tuple:
    """Integer rows of the linear Tate predicate, one per conjugate-slope basis vector b.

    Row a_b = 2 den (b - 1/2): the entry of a slope num/den is 2 num - den,
    with den the common denominator of s, over which the basis gives each
    num.  Every conjugate s∘g has entry sum g, so a subset J has slope
    sum #J/2 at every conjugate iff
    sum_{i in J} a_b[i] = 0 for every row.
    """
    den = s.den
    return tuple(tuple(2 * a - den for a in b) for b in conjugate_slope_basis(model, s))


def _packed_columns(rows) -> list:
    """Each point's column of `rows` packed into one int: col[i] = sum_b rows[b][i] B^b.

    B is odd and above twice the largest |sum of one row|, so packing is
    one-to-one on every partial sum, adds like the vectors and sends -v
    to minus the packed v.  A subset J passes the predicate `rows` iff
    its columns sum to 0.
    """
    base = 2 * max(sum(map(abs, row)) for row in rows) + 1
    cols = [0] * len(rows[0])
    for row in reversed(rows):
        cols = [c * base + r for c, r in zip(cols, row)]
    return cols


def _lefschetz(points, cols) -> bool:
    """Whether the points split into disjoint q-pairs, {x, y} with col[x] = -col[y].

    The q-pair graph is a complete bipartite graph between the column
    classes v and -v for each v != 0, plus a complete graph on the class
    0, so the points have a perfect matching iff they hold as many
    points of class v as of class -v, and an even number of class 0.
    Conjugation pairs {i, tau(i)} always qualify; further pairs appear
    exactly when distinct indices carry equal Frobenius conjugates
    modulo torsion (Q(pi) smaller than L).
    """
    count = {}
    for i in points:
        count[cols[i]] = count.get(cols[i], 0) + 1
    return count.get(0, 0) % 2 == 0 and all(k == count.get(-v, 0) for v, k in count.items() if v)


def _mask(n, points) -> int:
    """The n-bit mask of a set of points: point i is bit n-1-i."""
    return sum(1 << (n - 1 - i) for i in points)


def tate_subsets(cols, weights) -> dict:
    """weight -> the mask of every subset of that size whose packed columns `cols` sum to 0.

    Point i of the n points is bit n-1-i of a mask.  The points fall into
    classes by column, and the class of v > 0 pairs with the class of -v
    (either may be empty); class 0 stands alone, as the pair of v = 0.  A
    subset with a_j points in the class of v_j and b_j in that of -v_j
    has column sum sum_j (a_j - b_j) v_j, so it passes iff its imbalance
    vector d, d_j = a_j - b_j, solves sum_j d_j v_j = 0; packing is
    one-to-one on subset sums, so the packed sum decides.  Such a subset
    has at least sum_j |d_j| points.  The solutions d come from a
    meet-in-the-middle over the pairs (Horowitz-Sahni): each half lists
    its d within the class sizes, with sum |d_j| at most the largest
    weight asked, keyed by the packed sum_j d_j v_j, and a low key k
    meets the high keys -k.  Each solution then expands into masks,
    weight by weight: the two halves of its pairs' offers (`_offers`)
    are each grouped by size (`_masks_by_size`) and joined where the
    sizes add up to a weight asked.  So the cost follows the solutions
    and the output, not the 2^n subsets.  A weight is a subset size,
    taken as given, in the order given; one outside 0..n keeps its key
    with no mask.  An odd one can pass only when the slopes' common
    denominator is even (all columns are 0 when every slope is 1/2), so
    `classify_orbits` asks only even weights; the lemma suite asks odd
    ones too.  `cols` is `_packed_columns(rows)`.
    """
    out = {w: [] for w in weights}
    top = max(out, default=-1)
    n = len(cols)
    classes = {}
    for i, c in enumerate(cols):
        classes.setdefault(abs(c), []).append((1 << (n - 1 - i), (c > 0) - (c < 0)))
    pairs = [_offers(v, signed, top) for v, signed in classes.items()]
    half = len(pairs) // 2
    high = {}
    for key, least, chosen in _imbalances(pairs[half:], top):
        high.setdefault(key, []).append((least, chosen))
    for key, least, chosen in _imbalances(pairs[:half], top):
        for rest, others in high.get(-key, ()):
            if least + rest <= top:
                highs = _masks_by_size(others, top)
                for size, los in _masks_by_size(chosen, top).items():
                    for high_size, his in highs.items():
                        found = out.get(size + high_size)
                        if found is not None:
                            found += [lo | hi for lo in los for hi in his]
    return out


def _offers(v, signed, top) -> list:
    """(d v, |d|, its offers) for each imbalance d of one pair of classes.

    `signed` holds (bit, +1) for each point of the class of v and
    (bit, -1) for each of -v ((bit, 0) for class 0, v = 0).  The offers of
    d are the (size, mask) of every choice of at most `top` of those
    points whose signs add up to d.
    """
    subsets = [(0, 0, 0)]
    for bit, sign in signed:
        subsets += [(d + sign, k + 1, m | bit) for d, k, m in subsets if k < top]
    offers = {}
    for d, k, m in subsets:
        offers.setdefault(d, []).append((k, m))
    return [(d * v, abs(d), offer) for d, offer in offers.items()]


def _imbalances(pairs, top) -> list:
    """(packed sum_j d_j v_j, sum_j |d_j|, the offers of each d_j) per d with sum |d_j| <= top."""
    found = [(0, 0, ())]
    for steps in pairs:
        found = [
            (key + dv, least + ad, chosen + (offer,))
            for key, least, chosen in found
            for dv, ad, offer in steps
            if least + ad <= top
        ]
    return found


def _masks_by_size(offers, top) -> dict:
    """size -> the masks that take one (size, mask) offer from each list, up to size `top`.

    Every offer has at most `top` points, so the first list is taken as it is.
    """
    joined = offers[0] if offers else [(0, 0)]
    for offer in offers[1:]:
        joined = [(k + a, m | b) for k, m in joined for a, b in offer if k + a <= top]
    by_size = {}
    for k, m in joined:
        by_size.setdefault(k, []).append(m)
    return by_size


def _orbit_tables(model: CMGaloisModel) -> tuple:
    """Half-mask image tables: (n/2, the table pairs of the non-central generators, the central).

    Each generator has one (low, high) table pair, and the pairs keep
    the generators' order within each list.  The low half of a mask is
    bits 0..n/2-1 and the high half the rest.  The image of a mask m
    under a generator is the or of its two entries, low[m & (2^(n/2) -
    1)] | high[m >> n/2]: entry b of a table is the or of the images of
    the bits set in b, built by doubling, one list comprehension per
    bit.  A generator is central when it commutes with every other
    generator, tested on the composed tuples of each generator pair; it
    then lies in the centre of G (tau on main; the sign flips e1 and e2
    on ramified and split).  `_mask_orbits` walks the first list and
    fills in the second.
    """
    n = model.group.degree
    half = n // 2
    gens = model.group.generators
    images = []
    for gen in gens:
        tables = []
        for bits in (range(half), range(half, n)):
            t = [0]
            for j in bits:
                v = 1 << (n - 1 - gen[n - 1 - j])
                t += [v | x for x in t]
            tables.append(t)
        images.append(tables)
    compose = [itemgetter(*gen) for gen in gens]  # compose[j](a) is a∘gens[j]
    central = [True] * len(gens)
    for i, a in enumerate(gens):
        for j in range(i + 1, len(gens)):
            if compose[j](a) != compose[i](gens[j]):
                central[i] = central[j] = False
    return (half, [t for t, c in zip(images, central) if not c],
            [t for t, c in zip(images, central) if c])


def _mask_orbits(tables, masks) -> list:
    """The G-orbits on a G-stable list of masks, each as its masks in descending order.

    Let H be the subgroup of the non-central generators and Z that of
    the central ones, so G = H·Z.  Each mask not yet seen starts a BFS
    over ints through the non-central generators only, which walks the
    member list it extends: a member m is split once into its halves lo
    and hi, and its image under a generator is tlo[lo] | thi[hi] from
    the image tables of `_orbit_tables`.  The list is then the H-orbit
    O of its start.  A central z maps the orbit K·x of the group K
    generated so far onto the K-orbit of z(x), so z(O) is O or disjoint
    from every mask seen: each central z in turn doubles the list by
    its images, one image per member and no set probe, whenever
    z(start) is not yet seen, and then maps the block just added again
    while z of its first mask is unseen, for a z of order above 2.  The
    masks come in no fixed order (`tate_subsets` lists them solution by
    solution).  Each orbit's list is then sorted once, in descending
    order, which is document order, so its representative comes first;
    the orbits are disjoint, so ordering them by their first members
    puts them in document order.
    """
    half, walked, filled = tables
    low = (1 << half) - 1
    seen = set()
    orbits = []
    for start in masks:
        if start in seen:
            continue
        seen.add(start)
        members = [start]
        for m in members:
            lo = m & low
            hi = m >> half
            for tlo, thi in walked:
                img = tlo[lo] | thi[hi]
                if img not in seen:
                    seen.add(img)
                    members.append(img)
        for zlo, zhi in filled:
            block = members
            while zlo[block[0] & low] | zhi[block[0] >> half] not in seen:
                block = [zlo[m & low] | zhi[m >> half] for m in block]
                seen.update(block)
                members += block
        members.sort(reverse=True)
        orbits.append(members)
    orbits.sort(key=itemgetter(0), reverse=True)
    return orbits


def classify_orbits(
    model: CMGaloisModel,
    s: SlopeVector,
    weights=None,
    phi: frozenset = None,
    subset_cap: int = DEFAULT_SUBSET_CAP,
) -> ClassifierReport:
    """Enumerate every Tate-class-bearing orbit of the requested weights.

    The Tate subsets of each requested even weight are enumerated
    directly as masks (`tate_subsets`) and split into G-orbits
    (`_mask_orbits`); every conjugate of a Tate subset is Tate, so each
    orbit is kept whole, as its `MemberMasks`.  Every predicate row sums
    to 0 over the 2g points (each conjugate slope vector sums to g), so
    the complement of a Tate subset of weight w is a Tate subset of
    weight 2g - w, and complement commutes with G.  So only the weights
    up to g are scanned, and the orbits of a weight w above g are the
    complements of the orbits at 2g - w, each member list reversed, in
    document order.  Lefschetz / exotic flags
    (`_lefschetz`), per-weight Tate dimensions rho_k, the mildly-exotic
    flag and the verdict are derived from the orbits.  Output ordering
    is canonical (weight, then lexicographic representative).  `weights`
    are integers (`operator.index`); s and a `phi` are validated once.  The
    report carries the Frobenius rank and the packed columns of the
    predicate built here.
    """
    n = model.group.degree
    refuse_over_subset_cap(n, subset_cap)
    validate_slopes(model, s)

    full_scan = weights is None
    if full_scan:
        weight_list = list(range(0, n + 1, 2))
    else:
        distinct = set()
        for w in weights:
            try:
                distinct.add(index(w))
            except TypeError:
                raise ValueError(f"weight {w!r} is not an even integer in 0..{n}") from None
        weight_list = sorted(distinct)
        for w in weight_list:
            if w % 2 != 0 or not 0 <= w <= n:
                raise ValueError(f"weight {w} is not an even integer in 0..{n}")
    if phi is not None:
        validate_cm_type(model, phi)

    rows = tate_rows(model, s)
    cols = _packed_columns(rows)
    tables = _orbit_tables(model)
    scanned = sorted({min(w, n - w) for w in weight_list})
    found = tate_subsets(cols, scanned)
    lists = {w: _mask_orbits(tables, found.pop(w)) for w in scanned}
    full = (1 << n) - 1
    orbits = []
    for w in weight_list:
        if w <= model.g:
            member_lists = lists[w]
        else:
            mirror = ([full ^ m for m in reversed(masks)] for masks in lists[n - w])
            member_lists = sorted(mirror, key=itemgetter(0), reverse=True)
        for masks in member_lists:
            rep = _points(n, masks[0])
            lefschetz = _lefschetz(rep, cols)
            ht = hodge_type(phi, rep) if phi is not None else None
            orbits.append(
                MotiveOrbit(
                    weight=w,
                    representative=rep,
                    orbit=MemberMasks(n, masks),
                    rank=len(masks),
                    is_tate=True,
                    is_lefschetz_bearing=lefschetz,
                    is_exotic=not lefschetz,
                    hodge_type=ht,
                    hodge_balanced=is_balanced(ht) if ht is not None else None,
                )
            )
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
        weil_tate=_weil_tate_entries(model, cols),
        scht_verdict=verdict,
        frobenius_rank=len(rows) - 1,
        columns=cols,
    )


def _weil_tate_entries(model: CMGaloisModel, cols) -> tuple:
    """Candidate determinant submotives over imaginary quadratic subfields.

    One entry per index-2 overgroup Z of H avoiding tau: the orbit
    {z(1) : z in Z} of size g, flagged Tate (its packed columns `cols`
    sum to 0), Lefschetz-bearing (a matching of its q-pairs, `_lefschetz`)
    or exotic.  The determinant sets come from sign labellings of the points
    (`index2_point_sets`); Z itself is never listed.
    """
    entries = []
    for det_set in index2_point_sets(model.group):
        if model.tau[0] in det_set:
            continue
        tate = len(det_set) % 2 == 0 and sum(cols[i] for i in det_set) == 0
        lefschetz = _lefschetz(det_set, cols)
        entries.append(
            WeilTateEntry(
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


class LocalInvariant(Record):
    """One place of F = Q(pi^k) above p: slope_num / den and invariant_num / den.

    The record holds the integers over their least common denominator.
    """

    degree: int
    den: int
    slope_num: int
    invariant_num: int

    def __post_init__(self):
        den, (slope_num, invariant_num) = lowest_terms(
            self.den, (self.slope_num, self.invariant_num))
        self.__dict__.update(den=den, slope_num=slope_num, invariant_num=invariant_num)


class EndAlgebraReport(Record):
    frobenius_field_degree: int
    local_invariants: tuple
    index: int
    commutative: bool
    abelian_variety_dim: int


def _blocks_in_coset_order(model: CMGaloisModel, label, point) -> list:
    """The blocks of a G-stable partition, in the order G's element order meets their cosets.

    Blocks are class labels, with the class S of index 1 labelled 0
    and point[B] some index in B; block B stands for the coset
    {g : g(S) = B} of the setwise stabilizer of S.  The canonical order
    (breadth-first from the identity, the generators applied on the
    right, as `tests/oracles.py::elements_of` lists it; no element is
    listed here) is the shortlex order of the least generator words
    w = w_1 ... w_k (acting as w_1 after ... after w_k), so the first
    element meeting the coset of B is the shortlex-least word with
    w(S) = B.  Its length d is the distance from S in the block graph,
    and its tail w_2 ... w_k is the least word of a block at distance
    d - 1.  So the blocks at distance d come in the order of their first
    letter w_1, then of that block: one level walk, each level reached
    from the one before one generator at a time, in generator order,
    each block placed where it is first reached.
    """
    moves = [[label[gen[x]] for x in point] for gen in model.group.generators]
    order = [0]
    start = 0
    while start < len(order):  # order[start:] is the level last reached
        level = order[start:]
        start = len(order)
        for move in moves:
            for b in level:
                if move[b] not in order:
                    order.append(move[b])
    return order


def honda_tate_endomorphism(model: CMGaloisModel, s: SlopeVector, columns) -> EndAlgebraReport:
    """Local Brauer invariants, index and dimension of the isogeny factor.

    Places of F are the D-orbits on the cosets G/Fix, i.e. on the blocks
    x ~ y iff s∘g agrees at x and y for every g: the classes of the packed
    `columns` of a basis of the conjugates s∘g.  Precondition: `columns` is
    `classify_orbits(model, s).columns`, which checked s.  Each place
    contributes slope * local degree mod 1.  The index m is the lcm of
    the invariant denominators, and 2 dim = m [F:Q].  All of it runs on
    the numerators over `s.den`.
    """
    if model.D_generators is None:
        raise ValueError("model has no decomposition subgroup D")
    ids = {}
    label = [ids.setdefault(c, len(ids)) for c in columns]  # numbered by least index
    ncos = len(ids)
    point = [label.index(b) for b in range(ncos)]
    d_moves = [[label[d[point[b]]] for b in range(ncos)] for d in model.D_generators]
    place_of = {b: orbit for orbit in point_orbits(d_moves, ncos) for b in orbit}

    den, nums = s.den, s.nums
    visited = set()
    places = []
    invariants = []  # numerators over den
    for start in _blocks_in_coset_order(model, label, point):
        if start in visited:
            continue
        orbit = place_of[start]
        visited.update(orbit)
        slope = nums[point[start]]
        degree = len(orbit)
        invariant = slope * degree % den  # slope * degree mod 1, in [0, 1)
        invariants.append(invariant)
        places.append(LocalInvariant(degree, den, slope, invariant))

    total = sum(invariants)
    if label[model.tau[0]] == 0:
        # F is totally real (slope constant 1/2, hence F = Q): its single
        # real place carries the balancing invariant 1/2
        if (2 * total + ncos * den) % (2 * den):
            raise ValueError("inconsistent block data: Brauer invariants do not balance")
    elif total % den:
        raise ValueError("inconsistent block data: invariants do not sum to 0 mod 1")
    m = lcm(*(den // gcd(invariant, den) for invariant in invariants))
    if (m * ncos) % 2 != 0:
        raise ValueError("inconsistent block data: m * [F:Q] is odd")
    return EndAlgebraReport(
        frobenius_field_degree=ncos,
        local_invariants=tuple(places),
        index=m,
        commutative=(m == 1),
        abelian_variety_dim=m * ncos // 2,
    )


def classify_scenario(scn, subset_cap: int = DEFAULT_SUBSET_CAP, weights=None) -> tuple:
    """(report, end): the orbit classification of a scenario, with its phi, and Honda-Tate.

    The one route from a scenario to its reports: the classify document
    and the lemma suite both read what it returns.
    """
    report = classify_orbits(
        scn.model, scn.slopes, weights=weights, phi=scn.phi, subset_cap=subset_cap
    )
    return report, honda_tate_endomorphism(scn.model, scn.slopes, report.columns)


# ---------------------------------------------------------------------------
# structure theorem check and signature prediction
# ---------------------------------------------------------------------------


class StructureVerdict(Record):
    passed: bool
    branch: str
    failed_clause: str = None


def structure_check(
    model: CMGaloisModel,
    report: ClassifierReport,
    end_report: EndAlgebraReport,
) -> StructureVerdict:
    """Verify the mildly-exotic structure theorem on one instance."""
    if report.mildly_exotic is not True:
        raise ValueError("structure_check requires a mildly exotic instance")
    branch = "commutative" if end_report.commutative else "noncommutative"
    if model.g % 2 != 0:
        return StructureVerdict(False, branch, failed_clause="dimension g is odd")
    n = model.group.degree
    exotic_dets = {_mask(n, e.determinant_set) for e in report.weil_tate if e.is_exotic}
    for o in report.exotic:
        # o.orbit is a whole G-orbit, so it is the orbit of any member
        if exotic_dets.isdisjoint(o.orbit.masks):
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


def predicted_signature(report: ClassifierReport) -> tuple:
    """Signature (s_+, s_-) of the middle intersection pairing.

    Hodge-Riemann gives sign (-1)^k to the primitive part of degree 2k,
    of dimension rho_k - rho_{k-1} (rho_{-1} = 0), so s_+ sums those
    dimensions over even k <= g/2 and s_- = rho_{g/2} - s_+.  Assumes
    the Tate-class dimensions rho_k equal the cycle-space dimensions
    (see ClassifierReport.notes).
    """
    g = report.g
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


class LemmaResult(Record):
    instance: str
    lemma: str
    status: str
    detail: str = ""


def verify_lemma_suite(scn, report: ClassifierReport, end: EndAlgebraReport) -> tuple:
    """Check the combinatorial lemmas on one scenario's reports, rows labelled by its name.

    `report` and `end` are what `classify_scenario(scn)` returns; nothing
    is classified here.  The lemmas read the exotic orbits' masks and the
    packed columns.  tau, i -> i + g, swaps the two g-bit halves of a
    mask, so with m an orbit's first mask, the partition lemma holds iff
    m | tau(m) is the full mask, and uniqueness iff every exotic mask is
    m or tau(m).  The half-weight lemma asks `tate_subsets` for the
    subsets of each representative I (the points of m), of each size
    1 <= #J < g/2, odd sizes too, on the columns of I; the largest mask
    of the least size found is the lexicographically first J.
    Hypothesis gating: the partition lemma needs a mildly exotic
    instance; the half-weight minimum and exotic uniqueness need the
    noncommutative setting on top; the unique-exotic-orbit statement is
    specific to the main scenario family.
    """
    results = []
    label, g = scn.name, report.g
    n = 2 * g
    low = (1 << g) - 1
    mildly = report.mildly_exotic
    noncommutative = not end.commutative

    def tau(m):
        return m >> g | (m & low) << g

    if mildly:
        status, detail = PASS, ""
        for o in report.exotic:
            m = o.orbit.masks[0]
            if m | tau(m) != (1 << n) - 1:
                status = FAIL
                detail = f"I = {[i + 1 for i in _points(n, m)]} has I ∪ tau I != all indices"
                break
        results.append(LemmaResult(label, LEMMA_PARTITION, status, detail))
    else:
        results.append(LemmaResult(label, LEMMA_PARTITION, NOT_APPLICABLE, "not mildly exotic"))

    if mildly and noncommutative:
        status, detail = PASS, ""
        for o in report.exotic:
            I = o.representative
            found = tate_subsets([report.columns[i] for i in I], range(1, g // 2))
            # only a half-weight J with #J < g/2 fails the lemma
            short = next((masks for masks in found.values() if masks), None)
            if short:
                J = [I[j] + 1 for j in _points(len(I), max(short))]
                status = FAIL
                detail = f"J = {J} has half-weight products but #J = {len(J)} < g/2 = {g // 2}"
                break
        results.append(LemmaResult(label, LEMMA_HALF_WEIGHT, status, detail))

        status, detail = PASS, ""
        if len(report.exotic) != 1:
            status = FAIL
            detail = f"{len(report.exotic)} exotic orbits in the noncommutative setting"
        else:
            masks = report.exotic[0].orbit.masks
            extra = set(masks) - {masks[0], tau(masks[0])}
            if extra:
                status = FAIL
                points = [i + 1 for i in _points(n, max(extra))]
                detail = f"exotic subset {points} differs from I, tau I"
        results.append(LemmaResult(label, LEMMA_UNIQUE_EXOTIC, status, detail))
    else:
        why = "not mildly exotic" if not mildly else "endomorphism algebra is commutative"
        results.append(LemmaResult(label, LEMMA_HALF_WEIGHT, NOT_APPLICABLE, why))
        results.append(LemmaResult(label, LEMMA_UNIQUE_EXOTIC, NOT_APPLICABLE, why))

    if scn.family == "main":
        ok = (
            len(report.exotic) == 1
            and report.exotic[0].rank == 2
            and report.exotic[0].weight == g
        )
        results.append(LemmaResult(
            label, LEMMA_MAIN_UNIQUE, PASS if ok else FAIL,
            "" if ok else f"exotic orbits: {[o.representative for o in report.exotic]}",
        ))
    else:
        results.append(LemmaResult(label, LEMMA_MAIN_UNIQUE, NOT_APPLICABLE, "not the main family"))
    return tuple(results)


# ---------------------------------------------------------------------------
# structured serialization
# ---------------------------------------------------------------------------


def orbit_to_doc(o: MotiveOrbit) -> dict:
    """The document of one orbit, "orbit" holding its `MemberMasks`."""
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


def report_to_doc(report: ClassifierReport, group) -> dict:
    """The structured report, each "orbit" holding the orbit's `MemberMasks`.

    `cli._emit_json` writes a `MemberMasks` as the list of its members'
    1-based point lists, without forming a point tuple.
    """
    return {
        "g": report.g,
        "weights": list(report.weights),
        "orbits": [orbit_to_doc(o) for o in report.orbits],
        "tate_dims": list(report.tate_dims) if report.tate_dims is not None else None,
        "mildly_exotic": report.mildly_exotic,
        "scht_verdict": report.scht_verdict,
        "weil_tate": [_weil_tate_to_doc(e, group) for e in report.weil_tate],
        "notes": list(report.notes),
    }


def _weil_tate_to_doc(e: WeilTateEntry, group) -> dict:
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


def end_report_to_doc(end: EndAlgebraReport) -> dict:
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
