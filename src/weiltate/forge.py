"""Constructive approximation: fields with prescribed local behavior.

Totally real fields come from CRT-combined residue targets plus a
spread polynomial whose widely separated integer roots survive the
centered correction.  The certificates are read off the construction:
the degree patterns mod p, l, l', l'' are those proved for the targets,
to which the polynomial reduces, and the real-root count is proved by
the signs at the midpoints between the spread's roots; nothing is
factored.  The spread doubles at most a number of times set by g, past
which the signs provably alternate.
Scenario presets encode the three construction families as pure
combinatorial data (group, D, CM-type); the forged polynomials are
provenance, not inputs, to the classification pipeline.  A preset, like
a scenario file, is refused on its point count over the subset cap
before any permutation is built.
"""

from __future__ import annotations

from .algebra import (
    crt_poly,
    format_poly,
    gf_ben_or,
    gf_reduce,
    is_prime,
    poly_mul,
)
from .galois import (
    CMGaloisModel,
    CapExceededError,
    Record,
    StabChain,
    build_group,
    compose,
    conjugation,
    cycles_to_perm,
    diagonal_lift,
    format_perm,
    parse_perm,
    point_orbits,
    signed_symmetric_group,
    subgroup_generators,
)
from .cmtypes import least_cm_type, tau_block_classes, validate_cm_type
from .slopes import slopes_from_cm_type

DEFAULT_SUBSET_CAP = 16


class HypothesisError(ValueError):
    """A construction hypothesis (parity, primality, distinctness) fails."""


class SelfCheckError(RuntimeError):
    """A construction failed its own check: certificates or preset blocks are off."""


class ScenarioParseError(ValueError):
    """A scenario file failed to parse; carries line/field context."""


def refuse_over_subset_cap(n: int, subset_cap: int, where: str = "") -> None:
    """Refuse 2g = n points over the subset cap: its one check, where a scenario is admitted."""
    if n > subset_cap:
        raise CapExceededError(f"{where}2g = {n} exceeds the subset cap {subset_cap}")


# ---------------------------------------------------------------------------
# quadratic fields
# ---------------------------------------------------------------------------


def _is_squarefree_int(n: int) -> bool:
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _splitting_in_quadratic(d: int, p: int) -> str:
    if p == 2:
        if d % 8 == 5:
            return "inert"
        if d % 8 == 1:
            return "split"
        return "ramified"
    if d % p == 0:
        return "ramified"
    return "split" if pow(d % p, (p - 1) // 2, p) == 1 else "inert"


def forge_quadratic(p: int, splitting: str, signature: str) -> int:
    """Smallest |d| squarefree with Q(sqrt d) of the requested shape.

    signature fixes the sign (imaginary: d < 0, real: d > 0); were both
    signs admissible at equal |d|, the negative one would win.
    """
    if not is_prime(p):
        raise HypothesisError(f"p = {p} is not prime")
    if splitting not in ("inert", "split", "ramified"):
        raise HypothesisError(f"unknown splitting {splitting!r}")
    if signature not in ("real", "imaginary"):
        raise HypothesisError(f"unknown signature {signature!r}")
    mag = 1
    while True:
        d = -mag if signature == "imaginary" else mag
        if d != 1 and _is_squarefree_int(d) and _splitting_in_quadratic(d, p) == splitting:
            return d
        mag += 1


# ---------------------------------------------------------------------------
# totally real fields with S_g certificates
# ---------------------------------------------------------------------------


class Certificates(Record):
    pattern_at_p: tuple
    pattern_at_l: tuple
    pattern_at_lp: tuple
    pattern_at_lpp: tuple
    roots_at_lp: int
    real_root_count: int
    galois_is_sg: bool


class ForgedField(Record):
    g: int
    p: int
    l: int
    lp: int
    lpp: int
    seed: int
    poly: tuple
    spread: int
    certificates: Certificates


def _pattern(*degrees) -> tuple:
    """The degree pattern ((degree, count), ...) of a product of distinct irreducibles."""
    return tuple((d, degrees.count(d)) for d in sorted(set(degrees)))


def _sg_patterns(g: int) -> tuple:
    """The squarefree patterns mod l, l' and l'' that prove the Galois group S_g.

    By Dedekind each is the cycle type of a Frobenius element: a g-cycle
    makes the group transitive, a (g-1)-cycle then makes it doubly
    transitive, hence primitive, and a primitive group that holds a
    transposition is S_g (Jordan).
    """
    return _pattern(g), _pattern(2, *[1] * (g - 2)), _pattern(1, g - 1)


def _random_irreducible(g: int, l: int, rng) -> tuple:
    """Monic degree-g irreducible target mod the prime l, which the caller has checked.

    `rng` is the `random.Random` that `forge_totally_real` seeds.
    Each coefficient is a getrandbits(bit length of l) draw, redrawn
    while it is at least l: the rule by which `rng.randrange(l)` draws,
    so the coefficients are those of randrange from the same state.
    That equality is why the forge documents that the golden tests pin
    by sha256 hold.
    """
    bits, draw = l.bit_length(), rng.getrandbits
    while True:
        cand = []
        for _ in range(g):
            r = draw(bits)
            while r >= l:
                r = draw(bits)
            cand.append(r)
        cand.append(1)
        if gf_ben_or(cand, l):
            return tuple(cand)


def _random_split_target(g: int, d: int, q: int, rng) -> tuple:
    """Monic degree-g target mod the prime q: g-d distinct linears times an
    irreducible of degree d, which has no root for d >= 2 (d = 0: no such factor)."""
    target = _random_irreducible(d, q, rng) if d else (1,)
    for r in rng.sample(range(q), g - d):
        target = poly_mul(target, (-r, 1))
    return gf_reduce(target, q)


def _crt_targets(g: int, p: int, l: int, lp: int, lpp: int, rng) -> tuple:
    """(prime, target) at p, l, l' and l'' in turn, each target squarefree:
    Ben-Or proves those mod p and l irreducible, the one mod l' is g-2
    distinct linears times a quadratic and the one mod l'' a linear times
    a factor of degree g-1 (two linears at g = 2), each factor proved
    irreducible by Ben-Or.  Their degree patterns are ((g, 1),) at p and
    `_sg_patterns(g)` at l, l' and l''."""
    return (
        (p, _random_irreducible(g, p, rng)),
        (l, _random_irreducible(g, l, rng)),
        (lp, _random_split_target(g, 2, lp, rng)),
        (lpp, _random_split_target(g, g - 1 if g > 2 else 0, lpp, rng)),
    )


def _alternates_at_midpoints(poly, scale: int) -> bool:
    """Whether poly of degree g takes nonzero values of alternating sign at
    scale * (2j + 1) / 2, j = 0..g: then it has a root between each two of
    them (intermediate value theorem), g simple real roots in all.

    Each value is 2**g * poly(x / 2) at x = scale * (2j + 1), in integers.
    """
    g = len(poly) - 1
    halved = [c << (g - k) for k, c in enumerate(poly)][::-1]
    before = 0
    for j in range(g + 1):
        x, value = scale * (2 * j + 1), 0
        for c in halved:
            value = value * x + c
        if not value or value * before > 0:
            return False
        before = value
    return True


def _spread_bound(g: int) -> int:
    """An integer above 2g (g + 1/2)^(g-1): past it every spread K makes the signs alternate.

    At each midpoint x_j = M K (2j + 1) / 2, |T(x_j)| >= (M K)^g / 4,
    and the centered correction, g coefficients of size at most M/2,
    is at most g (M/2) (M K (g + 1/2))^(g-1) there; so the signs of T
    carry over once K > 2g (g + 1/2)^(g-1).
    """
    return (2 * g * (2 * g + 1) ** (g - 1) >> (g - 1)) + 1


def forge_totally_real(g: int, p: int, l: int, lp: int, seed: int = 0) -> ForgedField:
    """Monic degree-g integer polynomial, totally real, with S_g certificates.

    Residue targets (irreducible mod p and mod l; g-2 distinct roots
    plus an irreducible quadratic mod l'; a root plus an irreducible of
    degree g-1 mod l'', the least prime other than p, l and l') are
    CRT-combined into a base with coefficients in [0, M), then the
    spread target T = prod(x - M K i) absorbs the centered correction
    base - T mod M, built once since it does not depend on K.  K
    doubles from 1 until the polynomial alternates in sign at the
    midpoints M K (2j + 1) / 2 between the roots of T, which proves the
    real-root count g that is certified; it does by the first power of
    two past `_spread_bound(g)`.  The polynomial, checked to reduce to
    each target, has its proved pattern.  Distinct seeds draw distinct
    residue targets.
    """
    if g < 2 or g % 2 != 0:
        raise HypothesisError(f"g = {g} must be a positive even integer")
    for q in (p, l, lp):
        if not is_prime(q):  # at or above MR_BOUND an input error, before any trial division
            raise HypothesisError(f"{q} is not prime")
    if len({p, l, lp}) != 3:
        raise HypothesisError(f"primes p = {p}, l = {l}, l' = {lp} must be distinct")
    if l <= g or lp <= g:
        raise HypothesisError(f"l = {l} and l' = {lp} must exceed g = {g}")

    import random  # here, not at the top: no classify or verify run loads it

    (lpp,) = _smallest_primes_avoiding(1, {p, l, lp}, 1)
    targets = _crt_targets(g, p, l, lp, lpp, random.Random(f"{seed}:{g}:{p}:{l}:{lp}"))
    modulus = p * l * lp * lpp
    base = crt_poly(targets, g)

    # every non-leading coefficient of prod(x - M K i) is a multiple of M,
    # so the centered correction base - T mod M is base centered, for every K
    centered = tuple(c - modulus if c > modulus // 2 else c for c in base[:g])
    unit = (1,)  # prod(x - i): T has the coefficients unit[k] * (M K)**(g - k)
    for i in range(1, g + 1):
        unit = poly_mul(unit, (-i, 1))
    spread = 1
    for _ in range(_spread_bound(g).bit_length() + 1):
        scale = modulus * spread
        poly = tuple(u * scale ** (g - k) + c for k, (u, c) in enumerate(zip(unit, centered)))
        poly += (1,)
        if _alternates_at_midpoints(poly, scale):
            if any(gf_reduce(poly, q) != target for q, target in targets):
                raise SelfCheckError(
                    "certified search produced a polynomial failing its certificates"
                )
            # S_g is proved: Ben-Or proved each target's factors irreducible, so
            # the targets have the patterns of _sg_patterns, and poly reduces to them
            pat_l, pat_lp, pat_lpp = _sg_patterns(g)
            certs = Certificates(
                pat_l, pat_l, pat_lp, pat_lpp, roots_at_lp=g - 2, real_root_count=g,
                galois_is_sg=True,
            )
            return ForgedField(g, p, l, lp, lpp, seed, poly, spread, certs)
        spread *= 2
    raise SelfCheckError(f"the signs did not alternate at spread {spread // 2}, past the bound")


def forged_field_to_doc(f: ForgedField) -> dict:
    """The forge document; the writer writes each tuple, the patterns among them, as a list."""
    return {
        "g": f.g,
        "p": f.p,
        "l": f.l,
        "lp": f.lp,
        "lpp": f.lpp,
        "seed": f.seed,
        "coefficients_low_to_high": f.poly,
        "polynomial": format_poly(f.poly),
        "spread": f.spread,
        "certificates": {name: getattr(f.certificates, name) for name in Certificates._fields},
    }


# ---------------------------------------------------------------------------
# scenario presets
# ---------------------------------------------------------------------------


class Scenario(Record):
    """A classification-ready instance: (G, tau, D, phi) and derived slopes.

    The slopes are `slopes_from_cm_type(model, phi)`, stored beside the
    fields; they take no part in equality.
    """

    name: str
    family: str
    model: CMGaloisModel
    phi: frozenset
    provenance: str
    metadata: tuple = ()
    _shown = ("name", "family", "model", "phi", "slopes", "provenance", "metadata")

    def __post_init__(self):
        self.__dict__["slopes"] = slopes_from_cm_type(self.model, self.phi)


def _smallest_primes_avoiding(least: int, avoid, count: int = 2):
    """The `count` smallest primes above `least` that are not in `avoid`."""
    out = []
    q = least + 1
    while len(out) < count:
        if q not in avoid and is_prime(q):
            out.append(q)
        q += 1
    return out


def _preset(name, family, group, d_gens, sizes, pair_targets) -> Scenario:
    """A preset scenario: the model of `group` with D = <d_gens>, and phi the least
    CM-type on the D-blocks.

    The sorted block sizes must be `sizes`.  A tau-stable block B gets
    target |B|/2; the k-th tau-swapped pair (B, B'), B the block with
    the smaller minimum, gets (pair_targets[k], |B| - pair_targets[k]).
    """
    model = CMGaloisModel(group, d_gens)
    if sorted(len(b) for b in model.D_blocks) != sorted(sizes):
        raise SelfCheckError(f"{family} scenario blocks do not match the local degrees")
    blocks = model.D_blocks
    pairs = [(k, kk) for k, kk in tau_block_classes(model) if k != kk]
    if len(pairs) != len(pair_targets):
        raise SelfCheckError(
            f"{family} scenario has {len(pairs)} tau-swapped pairs, not {len(pair_targets)}"
        )
    targets = [len(b) // 2 for b in blocks]
    for (k, kk), a in zip(pairs, pair_targets):
        targets[k], targets[kk] = a, len(blocks[k]) - a
    phi = least_cm_type(model, tuple(targets))
    return Scenario(name=name, family=family, model=model, phi=phi, provenance="preset")


def scenario_main(
    g: int, p: int, attach_fields: bool = False, subset_cap: int = DEFAULT_SUBSET_CAP
) -> Scenario:
    """The even-dimensional family: inert quadratic times totally real S_g field.

    D is generated by (-1, sigma0) for the standard g-cycle sigma0: two
    size-g blocks swapped by conjugation; phi is the least CM-type with
    block targets (1, g-1), so the slopes are 1/g and 1 - 1/g.
    """
    if g < 4 or g % 2 != 0:
        raise HypothesisError(f"g = {g} must be an even integer >= 4")
    if not is_prime(p):
        raise HypothesisError(f"p = {p} is not prime")
    refuse_over_subset_cap(2 * g, subset_cap)
    group = signed_symmetric_group(g, [(1, 0)])
    tau, cycle = group.generators[:2]
    frobenius = compose(tau, cycle)
    scn = _preset(f"main-g{g}-p{p}", "main", group, [frobenius], [g, g], (1,))
    if not attach_fields:
        return scn
    d = forge_quadratic(p, "inert", "imaginary")
    l, lp = _smallest_primes_avoiding(g, {p})
    real_field = forge_totally_real(g, p, l, lp, seed=0)
    return scn.replace(metadata=(
        ("quadratic_d", str(d)),
        ("real_field_poly", format_poly(real_field.poly)),
    ))


def _biquadratic_group(gp: int, p: int, subset_cap: int) -> tuple:
    """(mu2 x mu2) x S_g' on 4g' points, and the lift of the (g'-1)-cycle (1 2 .. g'-1).

    Copy k of the g' points carries the signs (0, 0), (1, 0), (1, 1),
    (0, 1) for k = 0..3; the group's first generators are the flips e1
    of the first sign and e2 of the second, and tau = e1 e2 is the shift
    by 2g'.  The (g'-1)-cycle acts on the inert part of the totally real
    field and fixes the split point.  g', p and the subset cap are
    checked before any permutation is built.
    """
    if gp < 3 or gp % 2 != 1:
        raise HypothesisError(f"g' = {gp} must be an odd integer >= 3")
    if not is_prime(p):
        raise HypothesisError(f"p = {p} is not prime")
    refuse_over_subset_cap(4 * gp, subset_cap)
    group = signed_symmetric_group(gp, [(1, 0, 3, 2), (3, 2, 1, 0)])
    return group, diagonal_lift(cycles_to_perm(gp, [tuple(range(1, gp))]), 4)


def scenario_ramified(gp: int, p: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> Scenario:
    """The noncommutative family: biquadratic tower ramified at p.

    D = <inertia, Frobenius> gives three blocks of sizes 2(g'-1),
    2(g'-1), 4, the first two swapped by conjugation; phi targets
    (1, 2g'-3, 2), so the slopes are 1/(2g'-2), (2g'-3)/(2g'-2), 1/2.
    """
    group, c = _biquadratic_group(gp, p, subset_cap)
    e1, e2 = group.generators[:2]
    inertia, frobenius = e2, compose(e1, c)
    return _preset(f"ramified-gp{gp}-p{p}", "ramified", group, [inertia, frobenius],
                   [2 * (gp - 1)] * 2 + [4], (1,))


def scenario_split(gp: int, p: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> Scenario:
    """The two-exotic family: biquadratic tower unramified at p.

    D = <Frobenius> gives four blocks of size g'-1 in two conjugate
    pairs and two conjugation-stable blocks of size 2; the slopes are
    0 and 1 on one pair, 1/(g'-1) and (g'-2)/(g'-1) on the other, 1/2
    on the stable blocks.
    """
    group, c = _biquadratic_group(gp, p, subset_cap)
    frobenius = compose(conjugation(4 * gp), c)
    return _preset(f"split-gp{gp}-p{p}", "split", group, [frobenius],
                   [gp - 1] * 4 + [2, 2], (0, 1))


# family -> builder(size, p, subset_cap=...): the size is g for main, g' otherwise
PRESETS = {"main": scenario_main, "ramified": scenario_ramified, "split": scenario_split}


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

_SCENARIO_FIELDS = {
    "name",
    "points",
    "generators",
    "tau",
    "decomposition_generators",
    "phi",
    "phi_targets",
    "slopes",
}


def parse_scenario(text: str, subset_cap: int = DEFAULT_SUBSET_CAP) -> Scenario:
    """Parse the scenario file format (key = value lines, # comments).

    A file with more points than `subset_cap` is refused as soon as
    `points` is read, before any group is built from it.
    """
    fields = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioParseError(f"line {lineno}: expected 'field = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in _SCENARIO_FIELDS:
            raise ScenarioParseError(f"line {lineno}: unknown field {key!r}")
        if key in fields:
            raise ScenarioParseError(f"line {lineno}: duplicate field {key!r}")
        fields[key] = value
        lines[key] = lineno

    def fail(key, msg):
        raise ScenarioParseError(f"line {lines.get(key, '?')}: field {key!r}: {msg}")

    for key in ("points", "generators", "tau"):
        if key not in fields:
            raise ScenarioParseError(f"missing required field {key!r}")
    if ("phi" in fields) == ("phi_targets" in fields):
        raise ScenarioParseError("exactly one of 'phi' and 'phi_targets' is required")

    try:
        npoints = int(fields["points"])
    except ValueError:
        fail("points", f"not an integer: {fields['points']!r}")
    if npoints < 2 or npoints % 2 != 0:
        fail("points", f"must be a positive even integer, got {npoints}")
    refuse_over_subset_cap(npoints, subset_cap, f"line {lines['points']}: field 'points': ")

    def parse_perm_list(key):
        out = []
        for chunk in fields[key].split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                out.append(parse_perm(chunk, npoints))
            except ValueError as exc:
                fail(key, str(exc))
        return out

    gens = parse_perm_list("generators")
    try:
        tau = parse_perm(fields["tau"], npoints)
    except ValueError as exc:
        fail("tau", str(exc))

    # linear in the points, so it runs before the stabilizer chain is built
    orbits = len(point_orbits(gens, npoints))
    if orbits != 1:
        if len(point_orbits(gens + [tau], npoints)) != orbits:  # tau joins two orbits
            fail("tau", "tau is not an element of the generated group")
        fail("generators", "group does not act transitively on the 2g indices")
    group = build_group(npoints, gens)
    if tau not in group:
        fail("tau", "tau is not an element of the generated group")
    if tau != conjugation(npoints):
        fail("tau", "tau does not act as i -> i + g mod 2g")
    try:  # the tau line is judged before the decomposition line is read
        CMGaloisModel(group)
    except ValueError as exc:
        fail("tau", str(exc))

    if "decomposition_generators" not in fields:
        raise ScenarioParseError(
            "missing required field 'decomposition_generators' (needed for phi and slopes)"
        )
    dec = parse_perm_list("decomposition_generators")
    try:
        model = CMGaloisModel(group, dec)
    except ValueError as exc:
        fail("decomposition_generators", str(exc))

    if "phi" in fields:
        try:
            indices = [int(tok) for tok in fields["phi"].replace(",", " ").split()]
        except ValueError:
            fail("phi", f"bad index list {fields['phi']!r}")
        if any(not 1 <= i <= npoints for i in indices):
            fail("phi", "indices outside 1..points")
        if len(set(indices)) != len(indices):
            fail("phi", f"repeated index in {fields['phi']!r}")
        phi = frozenset(i - 1 for i in indices)
        try:
            validate_cm_type(model, phi)
        except ValueError as exc:
            fail("phi", str(exc))
    else:
        try:
            counts = tuple(int(tok) for tok in fields["phi_targets"].replace(",", " ").split())
            phi = least_cm_type(model, counts)
        except ValueError as exc:
            fail("phi_targets", str(exc))

    scn = Scenario(name=fields.get("name", "scenario"), family=None, model=model, phi=phi,
                   provenance="file")
    if "slopes" in fields:
        from fractions import Fraction  # only a declared slope line is parsed as Fractions

        try:
            given = tuple(Fraction(tok) for tok in fields["slopes"].replace(",", " ").split())
        except (ValueError, ZeroDivisionError):
            fail("slopes", f"bad fraction list {fields['slopes']!r}")
        if [v * scn.slopes.den for v in given] != list(scn.slopes.nums):
            fail(
                "slopes",
                "declared slopes disagree with the Shimura-Taniyama values "
                f"{scn.slopes.serialize()} of phi",
            )
    return scn


def serialize_scenario(scn: Scenario) -> str:
    lines = [
        f"name = {scn.name}",
        f"points = {scn.model.group.degree}",
        "generators = " + ", ".join(format_perm(g) for g in scn.model.group.generators),
        f"tau = {format_perm(scn.model.tau)}",
    ]
    if scn.model.D_generators is not None:
        D = StabChain(scn.model.group.degree, scn.model.D_generators)
        dgens = subgroup_generators(D.reps)
        lines.append(
            "decomposition_generators = " + ", ".join(format_perm(g) for g in dgens)
        )
    lines.append("phi = " + " ".join(str(i + 1) for i in sorted(scn.phi)))
    lines.append(f"slopes = {scn.slopes.serialize()}")
    return "\n".join(lines) + "\n"
