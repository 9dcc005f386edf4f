"""Constructive approximation: fields with prescribed local behavior.

Totally real fields come from CRT-combined residue targets plus a
spread polynomial whose widely separated integer roots survive the
centered correction; everything is certified after the fact (degree
patterns mod p, l, l', Sturm count over Q, S_g cycle-type certificate).
Scenario presets encode the three construction families as pure
combinatorial data (group, tau, D, CM-type); the forged polynomials are
provenance, not inputs, to the classification pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    NotSquarefreeError,
    count_distinct_roots_mod,
    crt_poly,
    factor_degree_pattern,
    format_poly,
    is_prime,
    poly_add,
    poly_mul,
    poly_trim,
    sturm_real_roots,
)
from .galois import (
    DEFAULT_GROUP_CAP,
    CMGaloisModel,
    blocks_of_subgroup,
    build_group,
    cm_product_group,
    compose,
    cycles_to_perm,
    format_perm,
    identity,
    parse_perm,
    subgroup_closure,
)
from .cmtypes import CMType, PlacePrescription, least_cm_type, validate_cm_type
from .slopes import SlopeVector, slopes_from_cm_type

DEFAULT_RETRY_BUDGET = 64


class HypothesisError(ValueError):
    """A construction hypothesis (parity, primality, distinctness) fails."""


class RetryBudgetError(RuntimeError):
    """The certified search exhausted its escalation budget."""


class ScenarioParseError(ValueError):
    """A scenario file failed to parse; carries line/field context."""


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


@dataclass(frozen=True)
class Certificates:
    pattern_at_p: tuple
    pattern_at_l: tuple
    pattern_at_lp: tuple
    roots_at_lp: int
    real_root_count: int
    galois_is_sg: bool


@dataclass(frozen=True)
class ForgedField:
    g: int
    p: int
    l: int
    lp: int
    seed: int
    poly: tuple
    spread: int
    certificates: Certificates


def _transposition_pattern(g: int) -> tuple:
    """g-2 distinct linears plus one irreducible quadratic."""
    return ((2, 1),) if g == 2 else ((1, g - 2), (2, 1))


def compute_certificates(poly, g: int, p: int, l: int, lp: int) -> Certificates:
    pat_p, sf_p = factor_degree_pattern(poly, p)
    pat_l, sf_l = factor_degree_pattern(poly, l)
    pat_lp, sf_lp = factor_degree_pattern(poly, lp)
    roots_lp = count_distinct_roots_mod(poly, lp)
    try:
        real_roots = sturm_real_roots(poly)
    except NotSquarefreeError:
        real_roots = -1
    galois = (
        sf_l
        and sf_lp
        and tuple(pat_l) == ((g, 1),)
        and tuple(pat_lp) == _transposition_pattern(g)
    )
    return Certificates(
        pattern_at_p=tuple(pat_p),
        pattern_at_l=tuple(pat_l),
        pattern_at_lp=tuple(pat_lp),
        roots_at_lp=roots_lp,
        real_root_count=real_roots,
        galois_is_sg=galois,
    )


def certify_galois_sg(field_or_poly, l=None, lp=None, g=None) -> bool:
    """S_g certificate: a g-cycle mod l and a transposition shape mod l'."""
    if isinstance(field_or_poly, ForgedField):
        f = field_or_poly
        return compute_certificates(f.poly, f.g, f.p, f.l, f.lp).galois_is_sg
    poly = poly_trim(field_or_poly)
    if g is None:
        g = len(poly) - 1
    pat_l, sf_l = factor_degree_pattern(poly, l)
    pat_lp, sf_lp = factor_degree_pattern(poly, lp)
    return sf_l and sf_lp and tuple(pat_l) == ((g, 1),) and tuple(pat_lp) == _transposition_pattern(g)


def _random_irreducible(g: int, l: int, rng: random.Random) -> tuple:
    from .algebra import gf_is_irreducible

    while True:
        cand = tuple(rng.randrange(l) for _ in range(g)) + (1,)
        if gf_is_irreducible(cand, l):
            return cand


def _random_transposition_target(g: int, lp: int, rng: random.Random) -> tuple:
    """Monic degree-g target mod lp: g-2 distinct linears and an irreducible quadratic."""
    from .algebra import gf_is_irreducible, gf_mul

    roots = rng.sample(range(lp), g - 2)
    while True:
        b, c = rng.randrange(lp), rng.randrange(lp)
        quad = (c, b, 1)
        if gf_is_irreducible(quad, lp):
            break
    target = quad
    for r in roots:
        target = gf_mul(target, ((-r) % lp, 1), lp)
    return target


def forge_totally_real(
    g: int, p: int, l: int, lp: int, seed: int = 0, retry_budget: int = DEFAULT_RETRY_BUDGET
) -> ForgedField:
    """Monic degree-g integer polynomial, totally real, with S_g certificates.

    Residue targets (irreducible mod p and mod l; g-2 distinct roots
    plus an irreducible quadratic mod l') are CRT-combined, then the
    spread target T = prod(x - M K i) absorbs a centered correction;
    the spread constant K escalates until the Sturm count reaches g.
    Distinct seeds draw distinct residue targets.
    """
    if g < 2 or g % 2 != 0:
        raise HypothesisError(f"g = {g} must be a positive even integer")
    for q in (p, l, lp):
        if not is_prime(q):
            raise HypothesisError(f"{q} is not prime")
    if len({p, l, lp}) != 3:
        raise HypothesisError(f"primes p = {p}, l = {l}, l' = {lp} must be distinct")
    if l <= g or lp <= g:
        raise HypothesisError(f"l = {l} and l' = {lp} must exceed g = {g}")

    rng = random.Random(f"{seed}:{g}:{p}:{l}:{lp}")
    target_p = _random_irreducible(g, p, rng)
    target_l = _random_irreducible(g, l, rng)
    target_lp = _random_transposition_target(g, lp, rng)
    modulus = p * l * lp
    base = crt_poly([(p, target_p), (l, target_l), (lp, target_lp)], g)

    spread = 1
    for _ in range(retry_budget):
        t = (1,)
        for i in range(1, g + 1):
            t = poly_mul(t, (-modulus * spread * i, 1))
        correction = []
        for k in range(g):
            delta = (base[k] - (t[k] if k < len(t) else 0)) % modulus
            if delta > modulus // 2:
                delta -= modulus
            correction.append(delta)
        poly = poly_add(t, tuple(correction))
        try:
            real_roots = sturm_real_roots(poly)
        except NotSquarefreeError:
            real_roots = -1
        if real_roots == g:
            certs = compute_certificates(poly, g, p, l, lp)
            if not (
                certs.galois_is_sg
                and tuple(certs.pattern_at_p) == ((g, 1),)
                and certs.roots_at_lp == g - 2
                and certs.real_root_count == g
            ):
                raise RuntimeError("certified search produced a polynomial failing its certificates")
            return ForgedField(
                g=g, p=p, l=l, lp=lp, seed=seed, poly=poly, spread=spread, certificates=certs
            )
        spread *= 2
    raise RetryBudgetError(f"no totally real polynomial within {retry_budget} spread escalations")


def forged_field_to_doc(f: ForgedField) -> dict:
    return {
        "g": f.g,
        "p": f.p,
        "l": f.l,
        "lp": f.lp,
        "seed": f.seed,
        "coefficients_low_to_high": list(f.poly),
        "polynomial": format_poly(f.poly),
        "spread": f.spread,
        "certificates": {
            "pattern_at_p": [list(t) for t in f.certificates.pattern_at_p],
            "pattern_at_l": [list(t) for t in f.certificates.pattern_at_l],
            "pattern_at_lp": [list(t) for t in f.certificates.pattern_at_lp],
            "roots_at_lp": f.certificates.roots_at_lp,
            "real_root_count": f.certificates.real_root_count,
            "galois_is_sg": f.certificates.galois_is_sg,
        },
    }


# ---------------------------------------------------------------------------
# scenario presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A classification-ready instance: (G, tau, D, phi) and derived slopes."""

    name: str
    family: str
    g: int
    model: CMGaloisModel
    phi: CMType
    slopes: SlopeVector
    provenance: str
    metadata: tuple = ()


def validate_scenario(scn: Scenario) -> None:
    validate_cm_type(scn.model, scn.phi)
    derived = slopes_from_cm_type(scn.model, scn.phi)
    if derived.values != scn.slopes.values:
        raise ValueError("scenario slopes do not match the Shimura-Taniyama values of phi")


def _smallest_primes_avoiding(g: int, avoid, count: int = 2):
    out = []
    q = g + 1
    while len(out) < count:
        if is_prime(q) and q not in avoid:
            out.append(q)
        q += 1
    return out


def scenario_main(
    g: int, p: int, attach_fields: bool = False, group_cap: int = DEFAULT_GROUP_CAP
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
    model = cm_product_group(g, cap=group_cap)
    sigma0 = cycles_to_perm(g, [tuple(range(1, g + 1))])
    lifted = tuple(sigma0[i] if i < g else sigma0[i - g] + g for i in range(2 * g))
    frob = compose(model.tau, lifted)
    model = model.with_decomposition(subgroup_closure(model.group, [frob]))

    blocks = blocks_of_subgroup(model, model.D).blocks
    if len(blocks) != 2 or any(len(b) != g for b in blocks):
        raise RuntimeError("main scenario blocks are not two size-g orbits")
    targets = [0] * len(blocks)
    targets[0] = 1
    targets[1] = g - 1
    phi = least_cm_type(model, PlacePrescription.from_counts(targets))
    slopes = slopes_from_cm_type(model, phi)

    metadata = ()
    if attach_fields:
        d = forge_quadratic(p, "inert", "imaginary")
        l, lp = _smallest_primes_avoiding(g, {p})
        real_field = forge_totally_real(g, p, l, lp, seed=0)
        metadata = (
            ("quadratic_d", str(d)),
            ("real_field_poly", format_poly(real_field.poly)),
        )
    scn = Scenario(
        name=f"main-g{g}-p{p}",
        family="main",
        g=g,
        model=model,
        phi=phi,
        slopes=slopes,
        provenance="preset",
        metadata=metadata,
    )
    validate_scenario(scn)
    return scn


def _biquadratic_times_sym(gp: int):
    """(mu2 x mu2) x S_g' on 4g' points; returns (group gens dict, encode)."""
    n = 4 * gp
    offsets = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}
    decode = {}
    for (a, b), off in offsets.items():
        for i in range(gp):
            decode[i + gp * off] = (a, b, i)

    def encode(a, b, i):
        return i + gp * offsets[(a % 2, b % 2)]

    def as_perm(fn):
        return tuple(fn(*decode[x]) for x in range(n))

    e1 = as_perm(lambda a, b, i: encode(a + 1, b, i))
    e2 = as_perm(lambda a, b, i: encode(a, b + 1, i))

    def lift(sigma):
        return as_perm(lambda a, b, i: encode(a, b, sigma[i]))

    return n, e1, e2, lift, encode


def _sym_gens(gp: int):
    gens = [cycles_to_perm(gp, [tuple(range(1, gp + 1))])]
    if gp >= 2:
        gens.append(cycles_to_perm(gp, [(1, 2)]))
    return gens


def _ramified_split_base(gp: int, p: int, group_cap: int = DEFAULT_GROUP_CAP):
    if gp < 3 or gp % 2 != 1:
        raise HypothesisError(f"g' = {gp} must be an odd integer >= 3")
    if not is_prime(p):
        raise HypothesisError(f"p = {p} is not prime")
    n, e1, e2, lift, encode = _biquadratic_times_sym(gp)
    group = build_group(n, [e1, e2] + [lift(s) for s in _sym_gens(gp)], cap=group_cap)
    tau = compose(e1, e2)
    # (g'-1)-cycle on the inert part of the totally real field, fixing the split point
    c = cycles_to_perm(gp, [tuple(range(1, gp))]) if gp > 2 else identity(gp)
    return n, group, tau, e1, e2, lift, c


def scenario_ramified(gp: int, p: int, group_cap: int = DEFAULT_GROUP_CAP) -> Scenario:
    """The noncommutative family: biquadratic tower ramified at p.

    D = <inertia, Frobenius> gives three blocks of sizes 2(g'-1),
    2(g'-1), 4, the first two swapped by conjugation; phi targets
    (1, 2g'-3, 2), so the slopes are 1/(2g'-2), (2g'-3)/(2g'-2), 1/2.
    """
    n, group, tau, e1, e2, lift, c = _ramified_split_base(gp, p, group_cap)
    model = CMGaloisModel(g=2 * gp, group=group, tau=tau)
    inertia = e2
    frobenius = compose(e1, lift(c))
    model = model.with_decomposition(subgroup_closure(group, [inertia, frobenius]))

    blocks = blocks_of_subgroup(model, model.D).blocks
    sizes = sorted(len(b) for b in blocks)
    if len(blocks) != 3 or sizes != sorted([2 * (gp - 1), 2 * (gp - 1), 4]):
        raise RuntimeError("ramified scenario blocks do not match the local degrees")
    targets = [None] * len(blocks)
    for k, b in enumerate(blocks):
        tau_image = frozenset(model.tau[i] for i in b)
        if tau_image == frozenset(b):
            targets[k] = len(b) // 2
        elif 0 in b:
            targets[k] = 1
        else:
            targets[k] = 2 * gp - 3
    phi = least_cm_type(model, PlacePrescription.from_counts(targets))
    slopes = slopes_from_cm_type(model, phi)
    scn = Scenario(
        name=f"ramified-gp{gp}-p{p}",
        family="ramified",
        g=2 * gp,
        model=model,
        phi=phi,
        slopes=slopes,
        provenance="preset",
    )
    validate_scenario(scn)
    return scn


def scenario_split(gp: int, p: int, group_cap: int = DEFAULT_GROUP_CAP) -> Scenario:
    """The two-exotic family: biquadratic tower unramified at p.

    D = <Frobenius> gives four blocks of size g'-1 in two conjugate
    pairs and two conjugation-stable blocks of size 2; the slopes are
    0 and 1 on one pair, 1/(g'-1) and (g'-2)/(g'-1) on the other, 1/2
    on the stable blocks.
    """
    n, group, tau, e1, e2, lift, c = _ramified_split_base(gp, p, group_cap)
    model = CMGaloisModel(g=2 * gp, group=group, tau=tau)
    frobenius = compose(compose(e1, e2), lift(c))
    model = model.with_decomposition(subgroup_closure(group, [frobenius]))

    blocks = blocks_of_subgroup(model, model.D).blocks
    sizes = sorted(len(b) for b in blocks)
    if len(blocks) != 6 or sizes != sorted([gp - 1] * 4 + [2, 2]):
        raise RuntimeError("split scenario blocks do not match the local degrees")

    tau_stable = []
    swapped_pairs = []
    seen = set()
    for k, b in enumerate(blocks):
        if k in seen:
            continue
        tau_image = frozenset(model.tau[i] for i in b)
        if tau_image == frozenset(b):
            tau_stable.append(k)
            seen.add(k)
        else:
            partner = next(kk for kk, bb in enumerate(blocks) if frozenset(bb) == tau_image)
            swapped_pairs.append((k, partner))
            seen.update({k, partner})
    if len(tau_stable) != 2 or len(swapped_pairs) != 2:
        raise RuntimeError("split scenario tau structure is off")

    targets = [None] * len(blocks)
    for k in tau_stable:
        targets[k] = len(blocks[k]) // 2
    first = next(pair for pair in swapped_pairs if 0 in blocks[pair[0]] or 0 in blocks[pair[1]])
    other = next(pair for pair in swapped_pairs if pair != first)
    k0, k1 = first if 0 in blocks[first[0]] else (first[1], first[0])
    targets[k0] = 0
    targets[k1] = gp - 1
    ka, kb = other if min(blocks[other[0]]) < min(blocks[other[1]]) else (other[1], other[0])
    targets[ka] = 1
    targets[kb] = gp - 2
    phi = least_cm_type(model, PlacePrescription.from_counts(targets))
    slopes = slopes_from_cm_type(model, phi)
    scn = Scenario(
        name=f"split-gp{gp}-p{p}",
        family="split",
        g=2 * gp,
        model=model,
        phi=phi,
        slopes=slopes,
        provenance="preset",
    )
    validate_scenario(scn)
    return scn


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


def parse_scenario(text: str, group_cap: int = None) -> Scenario:
    """Parse the scenario file format (key = value lines, # comments)."""
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

    kwargs = {} if group_cap is None else {"cap": group_cap}
    group = build_group(npoints, gens, **kwargs)
    if tau not in group:
        fail("tau", "tau is not an element of the generated group")
    try:
        model = CMGaloisModel(g=npoints // 2, group=group, tau=tau)
    except ValueError as exc:
        fail("tau", str(exc))

    if "decomposition_generators" in fields:
        dec = parse_perm_list("decomposition_generators")
        try:
            model = model.with_decomposition(subgroup_closure(group, dec))
        except ValueError as exc:
            fail("decomposition_generators", str(exc))
    if model.D is None:
        raise ScenarioParseError(
            "missing required field 'decomposition_generators' (needed for phi and slopes)"
        )

    if "phi" in fields:
        try:
            indices = [int(tok) for tok in fields["phi"].replace(",", " ").split()]
        except ValueError:
            fail("phi", f"bad index list {fields['phi']!r}")
        if any(not 1 <= i <= npoints for i in indices):
            fail("phi", "indices outside 1..points")
        phi = CMType(phi=frozenset(i - 1 for i in indices))
        try:
            validate_cm_type(model, phi)
        except ValueError as exc:
            fail("phi", str(exc))
    else:
        try:
            counts = [int(tok) for tok in fields["phi_targets"].replace(",", " ").split()]
            phi = least_cm_type(model, PlacePrescription.from_counts(counts))
        except ValueError as exc:
            fail("phi_targets", str(exc))

    slopes = slopes_from_cm_type(model, phi)
    if "slopes" in fields:
        try:
            given = tuple(Fraction(tok) for tok in fields["slopes"].replace(",", " ").split())
        except (ValueError, ZeroDivisionError):
            fail("slopes", f"bad fraction list {fields['slopes']!r}")
        if given != slopes.values:
            fail(
                "slopes",
                "declared slopes disagree with the Shimura-Taniyama values "
                f"{slopes.serialize()} of phi",
            )

    name = fields.get("name", "scenario")
    scn = Scenario(
        name=name,
        family=None,
        g=npoints // 2,
        model=model,
        phi=phi,
        slopes=slopes,
        provenance="file",
    )
    validate_scenario(scn)
    return scn


def serialize_scenario(scn: Scenario) -> str:
    lines = [
        f"name = {scn.name}",
        f"points = {scn.model.group.degree}",
        "generators = " + ", ".join(format_perm(g) for g in scn.model.group.generators),
        f"tau = {format_perm(scn.model.tau)}",
    ]
    if scn.model.D is not None:
        from .classifier import _subgroup_generators

        dgens = _subgroup_generators(scn.model.group, scn.model.D)
        lines.append(
            "decomposition_generators = " + ", ".join(format_perm(g) for g in dgens)
        )
    lines.append(f"phi = {scn.phi.serialize()}")
    lines.append(f"slopes = {scn.slopes.serialize()}")
    return "\n".join(lines) + "\n"
