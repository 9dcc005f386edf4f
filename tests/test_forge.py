"""Forge tests: quadratics, certified totally real fields, scenarios, files."""

import math
import random

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _is_sg_certificate,
    alternates_at_midpoints_by_fractions,
    ben_or_by_pow_mod,
    certificates_by_factoring,
    certify_galois_sg,
    degree_pattern_by_pow_mod,
    sturm_chain_by_primitive_prem,
    sturm_count,
    subgroup_closure,
)
from test_golden import GOLDEN_ARGV, GOLDEN_FORGE

import weiltate.algebra
import weiltate.forge
from weiltate.algebra import poly_degree, poly_mul
from weiltate.forge import (
    HypothesisError,
    Scenario,
    ScenarioParseError,
    _sg_patterns,
    _smallest_primes_avoiding,
    forge_quadratic,
    forge_totally_real,
    parse_scenario,
    scenario_main,
    scenario_ramified,
    scenario_split,
    serialize_scenario,
)
from weiltate.slopes import slopes_from_cm_type


# --- forge_quadratic ---------------------------------------------------------


def test_quadratic_inert_imaginary_mod_5():
    # -1 is a square mod 5, so it is skipped; -2 is a non-residue
    assert forge_quadratic(5, "inert", "imaginary") == -2


def test_quadratic_ramified_imaginary():
    for p in (3, 7, 11):
        d = forge_quadratic(p, "ramified", "imaginary")
        assert d < 0 and d % p == 0
        assert d == -p  # smallest magnitude multiple of p is p itself


def test_quadratic_split_real_mod_7():
    d = forge_quadratic(7, "split", "real")
    assert d == 2
    assert pow(2, 3, 7) == 1  # 2 is a quadratic residue mod 7


def test_quadratic_p_equals_2_branches():
    assert forge_quadratic(2, "inert", "imaginary") % 8 == 5
    assert forge_quadratic(2, "split", "real") % 8 == 1
    d = forge_quadratic(2, "ramified", "imaginary")
    assert d % 8 not in (1, 5)


def test_quadratic_rejects_bad_inputs():
    with pytest.raises(HypothesisError):
        forge_quadratic(6, "inert", "imaginary")
    with pytest.raises(HypothesisError):
        forge_quadratic(5, "weird", "imaginary")
    with pytest.raises(HypothesisError):
        forge_quadratic(5, "inert", "complex")


# --- forge_totally_real --------------------------------------------------------


def test_forge_quartic_certificates():
    f = forge_totally_real(4, 5, 7, 11, seed=0)
    c = f.certificates
    assert poly_degree(f.poly) == 4 and f.poly[-1] == 1
    assert c.pattern_at_p == ((4, 1),)
    assert c.pattern_at_l == ((4, 1),)
    assert c.pattern_at_lp == ((1, 2), (2, 1))
    assert f.lpp == 2 and c.pattern_at_lpp == ((1, 1), (3, 1))
    assert c.roots_at_lp == 2
    assert c.real_root_count == 4
    assert c.galois_is_sg


def test_forge_quadratic_field_certificates():
    f = forge_totally_real(2, 7, 11, 13, seed=0)
    c = f.certificates
    assert c.pattern_at_l == ((2, 1),)
    assert c.pattern_at_lp == ((2, 1),)
    assert f.lpp == 2 and c.pattern_at_lpp == ((1, 2),)  # the (g-1)-cycle is the identity
    assert c.roots_at_lp == 0
    assert c.real_root_count == 2
    assert c.galois_is_sg


def test_forge_reductions_match_targets():
    _assert_certificates_rederived(forge_totally_real(4, 5, 7, 11, seed=3))


def _assert_certificates_rederived(f):
    """The certificates read off the CRT targets are those that factoring f derives.

    The real roots come from the integer Sturm chain of primitive
    pseudo-remainders, which reaches the pins past the ladder (g = 32).
    """
    real_roots = sturm_count(sturm_chain_by_primitive_prem(f.poly))
    assert f.certificates == certificates_by_factoring(
        f.poly, f.g, f.p, f.l, f.lp, f.lpp, real_roots
    )
    assert certify_galois_sg(f)


@pytest.mark.parametrize("key", list(GOLDEN_FORGE), ids=lambda k: "g%d-l%d-lp%d-seed%d" % k)
def test_golden_forge_certificates_match_factoring(key):
    g, l, lp, seed = key
    _assert_certificates_rederived(forge_totally_real(g, 5, l, lp, seed))


GOLDEN_ARGV_FORGE = [argv for argv in GOLDEN_ARGV if argv[0] == "forge"]


@pytest.mark.parametrize("argv", GOLDEN_ARGV_FORGE, ids=lambda a: "p%s-l%s-lp%s" % a[4::2])
def test_golden_forge_certificates_at_large_primes_match_factoring(argv):
    """The pins at primes up to 2**31 - 1 and past 2**31: Ben-Or by `gf_pow_mod` finds
    the polynomial irreducible mod p and mod l, and factoring re-derives every certificate."""
    g, p, l, lp = (int(v) for v in argv[2::2])
    f = forge_totally_real(g, p, l, lp, seed=0)
    assert ben_or_by_pow_mod(f.poly, p) and ben_or_by_pow_mod(f.poly, l)
    _assert_certificates_rederived(f)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(range(2, 13, 2)), st.integers(0, 2**31 - 1))
def test_forged_certificates_match_factoring(g, seed):
    """p = 5 and the bench's l, l': the two smallest primes above g other than 5."""
    l, lp = _smallest_primes_avoiding(g, {5})
    _assert_certificates_rederived(forge_totally_real(g, 5, l, lp, seed))


def test_a_wrongly_recorded_target_pattern_is_caught(monkeypatch):
    sg_patterns = weiltate.forge._sg_patterns

    def mutant(g):
        """The target mod l recorded as a linear times a (g-1)-factor."""
        _, at_lp, at_lpp = sg_patterns(g)
        return ((1, 1), (g - 1, 1)), at_lp, at_lpp

    monkeypatch.setattr(weiltate.forge, "_sg_patterns", mutant)
    f = forge_totally_real(6, 5, 7, 11, seed=0)
    with pytest.raises(AssertionError):
        _assert_certificates_rederived(f)


def test_forge_counts_real_roots_once_per_spread(monkeypatch):
    counted = []
    alternates = weiltate.forge._alternates_at_midpoints

    def counting(poly, scale):
        counted.append(poly)
        return alternates(poly, scale)

    monkeypatch.setattr(weiltate.forge, "_alternates_at_midpoints", counting)
    f = forge_totally_real(12, 5, 13, 17, seed=0)
    # spreads 1, 2, 4, ..., f.spread: one total-reality test each, the accepted one proves g roots
    assert len(counted) == f.spread.bit_length() == 18
    assert len(set(counted)) == len(counted)
    assert f.certificates.real_root_count == 12


def test_forge_tests_each_prime_once_however_many_draws(monkeypatch):
    """Ben-Or on the random draws is unchecked: p, l and l' are tested once up front,
    at l' = 2**31 - 1 too, then the search for l'' tests 2, and the certificates
    test none again."""
    tested, draws = [], []
    is_prime, ben_or = weiltate.algebra.is_prime, weiltate.forge.gf_ben_or

    def counted_is_prime(n):
        tested.append(n)
        return is_prime(n)

    def counted_ben_or(f, l):
        draws.append(l)
        return ben_or(f, l)

    monkeypatch.setattr(weiltate.algebra, "is_prime", counted_is_prime)
    monkeypatch.setattr(weiltate.forge, "is_prime", counted_is_prime)
    monkeypatch.setattr(weiltate.forge, "gf_ben_or", counted_ben_or)
    for seed in range(3):
        tested.clear()
        draws.clear()
        forge_totally_real(6, 5, 65537, 2147483647, seed=seed)
        assert len(draws) > 7
        assert tested == [5, 65537, 2147483647, 2]


@pytest.mark.parametrize("l", [2, 3, 17, 65537, 2**31 - 1])
def test_drawer_draws_the_coefficients_of_randrange(monkeypatch, l):
    """Over 1,000 draws the drawer's coefficients are `[rng.randrange(l) for _ in range(g)]`
    from the same seed, and it leaves the stream where randrange does: the forge
    documents pinned by sha256 keep their targets."""
    drawn = []

    def every_third_accepted(f, q):
        drawn.append(f[:-1])
        return len(drawn) % 3 == 0

    monkeypatch.setattr(weiltate.forge, "gf_ben_or", every_third_accepted)
    ours, theirs = random.Random(f"drawer:{l}"), random.Random(f"drawer:{l}")
    while len(drawn) < 1000:
        weiltate.forge._random_irreducible(1 + len(drawn) % 13, l, ours)
    assert drawn == [[theirs.randrange(l) for _ in f] for f in drawn]
    assert ours.getstate() == theirs.getstate()


def test_forge_deterministic_and_seed_sensitive():
    a = forge_totally_real(4, 5, 7, 11, seed=5)
    b = forge_totally_real(4, 5, 7, 11, seed=5)
    c = forge_totally_real(4, 5, 7, 11, seed=6)
    assert a == b
    assert a.poly != c.poly


def test_forge_ten_seeds_distinct_and_certified():
    seen = set()
    for seed in range(10):
        f = forge_totally_real(4, 5, 7, 11, seed=seed)
        assert f.certificates.galois_is_sg
        assert certify_galois_sg(f)
        seen.add(f.poly)
    assert len(seen) == 10


def test_forge_hypothesis_violations():
    with pytest.raises(HypothesisError):
        forge_totally_real(3, 5, 7, 11)
    with pytest.raises(HypothesisError):
        forge_totally_real(4, 5, 5, 7)
    with pytest.raises(HypothesisError):
        forge_totally_real(4, 5, 3, 11)  # l <= g
    with pytest.raises(HypothesisError):
        forge_totally_real(4, 4, 7, 11)  # p not prime


def test_forge_escalation_ends_within_its_bound():
    """At the last spread the forge tries, 2^t with t the bit length of `_spread_bound(g)`,
    the signs alternate for the largest corrections, every |c_k| = floor(M/2)."""
    rng = random.Random(0)
    for g in range(2, 17, 2):
        unit = (1,)  # prod(x - i)
        for i in range(1, g + 1):
            unit = poly_mul(unit, (-i, 1))
        spread = 1 << weiltate.forge._spread_bound(g).bit_length()
        for modulus in (5 * 7 * 11 * 2, 7 * 17 * 19 * 2, 1009 * 1013 * 1019 * 2):
            scale = modulus * spread
            for _ in range(10):
                signs = [rng.choice((-1, 1)) for _ in range(g)]
                poly = tuple(u * scale ** (g - k) + sign * (modulus // 2)
                             for k, (u, sign) in enumerate(zip(unit, signs))) + (1,)
                assert weiltate.forge._alternates_at_midpoints(poly, scale), (g, modulus, signs)


def test_forge_reaches_g40():
    """g = 40 is past what a budget of 64 doublings allowed: its spread is 2^67."""
    f = forge_totally_real(40, 5, 41, 43, seed=0)
    assert f.spread.bit_length() - 1 > 64
    assert alternates_at_midpoints_by_fractions(f.poly, 5 * 41 * 43 * f.lpp * f.spread)
    assert f.certificates == certificates_by_factoring(f.poly, 40, 5, 41, 43, f.lpp, 40)


def test_certify_a_forged_field_recomputes_only_the_sg_patterns(monkeypatch):
    f = forge_totally_real(4, 5, 7, 11, seed=0)

    def no_sturm(*args):
        raise AssertionError("the S_g certificate needs no Sturm chain")

    for name in ("sturm_chain_by_primitive_prem", "sturm_count"):
        monkeypatch.setattr(oracles, name, no_sturm)
    assert certify_galois_sg(f)


def test_certify_rejects_reducible_poly():
    assert not certify_galois_sg((-1, 0, 0, 0, 1), l=7, lp=11, lpp=2)  # x^4 - 1


def test_certify_s2_from_irreducible_quadratic():
    assert certify_galois_sg((1, 0, 1), l=3, lp=7, lpp=5)  # x^2 + 1, roots 2 and 3 mod 5


# --- the S_g certificate is a proof, and needs each clause -----------------------

D4_QUARTIC = (7, 0, -6, 0, 1)  # x^4 - 6x^2 + 7, Galois group D4 of order 8
C4_QUARTIC = (2, 0, -4, 0, 1)  # x^4 - 4x^2 + 2, Galois group C4
# a sextic resolvent of x^5 - x - 1 (the minimal polynomial of
# (x1x2 + x2x3 + x3x4 + x4x5 + x5x1 - x1x3 - x3x5 - x5x2 - x2x4 - x4x1)**2 / 16):
# S5 on its six Sylow 5-subgroups, PGL(2, 5) of order 120, which holds
# 6-cycles and 5-cycles but no transposition
PGL25_SEXTIC = (25, -3019, 175, 140, 55, 10, 1)
# x (x^3 - x - 1): intransitive, S3 on the roots of the cubic
LINEAR_TIMES_S3_CUBIC = poly_mul((0, 1), (-1, -1, 0, 1))


def _galois_order(poly):
    galoisgroups = pytest.importorskip("sympy.polys.numberfields.galoisgroups")
    sympy = pytest.importorskip("sympy")
    factors = sympy.Poly(list(reversed(poly)), sympy.Symbol("x")).factor_list()[1]
    if len(factors) > 1:  # reducible: the group of the product is no larger than that
        return math.prod(math.factorial(f.degree()) for f, _ in factors)
    group, _ = galoisgroups.galois_group(factors[0][0], by_name=False)
    return group.order()


def _patterns(poly, primes):
    """The squarefree degree patterns of poly mod each prime, by factoring; None if not squarefree."""
    out = []
    for q in primes:
        pattern, squarefree = degree_pattern_by_pow_mod(poly, q)
        out.append(tuple(pattern) if squarefree else None)
    return out


@pytest.mark.parametrize("poly", [D4_QUARTIC, C4_QUARTIC], ids=["D4", "C4"])
def test_imprimitive_quartics_are_refused(poly):
    """No l'' below 200 shows a 3-cycle: D4 and C4 hold none, so the certificate refuses them."""
    assert _galois_order(poly) < math.factorial(4)
    for lpp in (q for q in range(3, 200) if weiltate.algebra.is_prime(q)):
        pattern, _ = degree_pattern_by_pow_mod(poly, lpp)
        assert tuple(pattern) != ((1, 1), (3, 1)), lpp
        assert not certify_galois_sg(poly, l=5, lp=17, lpp=lpp)


@pytest.mark.parametrize("poly, primes, dropped", [
    (LINEAR_TIMES_S3_CUBIC, (7, 5, 2), 0),  # no g-cycle: x^4 - x^2 - x is reducible
    (PGL25_SEXTIC, (7, 23, 3), 1),  # no transposition: PGL(2, 5) on six points
    (D4_QUARTIC, (5, 17, 3), 2),  # no 3-cycle: D4
], ids=["g-cycle", "transposition", "g-1-cycle"])
def test_each_clause_of_the_sg_certificate_is_needed(poly, primes, dropped):
    """A group other than S_g whose patterns meet the two other clauses: only
    the dropped clause refuses it, so the certificate without it would pass."""
    g = poly_degree(poly)
    assert _galois_order(poly) < math.factorial(g)
    patterns = _patterns(poly, primes)
    want = _sg_patterns(g)
    assert [got == expected for got, expected in zip(patterns, want)] == [
        k != dropped for k in range(3)
    ]
    assert not _is_sg_certificate(g, *(p or () for p in patterns))
    patterns[dropped] = want[dropped]
    assert _is_sg_certificate(g, *patterns)


# --- scenario presets ------------------------------------------------------------


def test_scenario_main_structure():
    scn = scenario_main(4, 5)
    assert scn.model.group.order == 48
    blocks = scn.model.D_blocks
    assert sorted(len(b) for b in blocks) == [4, 4]
    b0, b1 = blocks
    assert {scn.model.tau[i] for i in b0} == set(b1)
    assert (scn.slopes.den, sorted(scn.slopes.nums)) == (4, [1] * 4 + [3] * 4)


def test_scenario_main6_blocks():
    scn = scenario_main(6, 5)
    blocks = scn.model.D_blocks
    assert sorted(len(b) for b in blocks) == [6, 6]


def test_scenario_main_rejects_bad_parameters():
    with pytest.raises(HypothesisError):
        scenario_main(3, 5)
    with pytest.raises(HypothesisError):
        scenario_main(4, 6)


def test_scenario_ramified_structure():
    scn = scenario_ramified(3, 5)
    assert scn.model.group.degree == 12
    assert scn.model.group.order == 24
    blocks = scn.model.D_blocks
    assert sorted(len(b) for b in blocks) == [4, 4, 4]
    stable = [b for b in blocks if {scn.model.tau[i] for i in b} == set(b)]
    assert len(stable) == 1  # one place fixed by conjugation, two swapped
    assert (scn.slopes.den, sorted(scn.slopes.nums)) == (4, [1] * 4 + [2] * 4 + [3] * 4)


def test_scenario_ramified5_slopes():
    scn = scenario_ramified(5, 5, subset_cap=20)
    assert (scn.slopes.den, sorted(scn.slopes.nums)) == (8, [1] * 8 + [4] * 4 + [7] * 8)


def test_scenario_split_structure():
    scn = scenario_split(3, 5)
    blocks = scn.model.D_blocks
    assert sorted(len(b) for b in blocks) == [2, 2, 2, 2, 2, 2]
    assert (scn.slopes.den, sorted(scn.slopes.nums)) == (2, [0] * 2 + [1] * 8 + [2] * 2)


def test_scenario_split5_slopes():
    scn = scenario_split(5, 5, subset_cap=20)
    expected = [0] * 4 + [1] * 4 + [2] * 4 + [3] * 4 + [4] * 4
    assert (scn.slopes.den, sorted(scn.slopes.nums)) == (4, expected)


def test_scenario_presets_deterministic():
    assert scenario_main(4, 5) == scenario_main(4, 5)
    assert scenario_ramified(3, 5) == scenario_ramified(3, 5)
    assert scenario_split(3, 5) == scenario_split(3, 5)


def test_scenario_slopes_rederive_from_phi():
    for scn in (scenario_main(4, 5), scenario_ramified(3, 5), scenario_split(3, 5)):
        assert slopes_from_cm_type(scn.model, scn.phi) == scn.slopes


def test_a_scenario_is_given_no_slopes_and_reads_them_off_its_model_and_phi():
    scn = scenario_ramified(3, 5)
    fields = {"name": "s", "family": None, "model": scn.model, "phi": scn.phi, "provenance": "t"}
    with pytest.raises(TypeError, match="no further field"):
        Scenario(**fields, slopes=scn.slopes)
    made = Scenario(**fields)
    assert made.slopes == slopes_from_cm_type(made.model, made.phi) == scn.slopes
    other = made.replace(phi=frozenset(made.model.tau[i] for i in made.phi))
    assert other.slopes == slopes_from_cm_type(other.model, other.phi) != made.slopes


def test_scenario_odd_gp_rejected():
    with pytest.raises(HypothesisError):
        scenario_ramified(4, 5)
    with pytest.raises(HypothesisError):
        scenario_split(2, 5)


def test_scenario_main_attach_fields():
    scn = scenario_main(4, 5, attach_fields=True)
    meta = dict(scn.metadata)
    assert meta["quadratic_d"] == "-2"
    assert "real_field_poly" in meta


# --- scenario files ----------------------------------------------------------------


def test_scenario_file_round_trip():
    for scn in (scenario_main(4, 5), scenario_ramified(3, 5), scenario_split(3, 5)):
        text = serialize_scenario(scn)
        loaded = parse_scenario(text)
        assert loaded.model.group.degree == scn.model.group.degree
        assert loaded.model.tau == scn.model.tau
        D = subgroup_closure(scn.model.group, scn.model.D_generators)
        assert subgroup_closure(loaded.model.group, loaded.model.D_generators) == D
        assert loaded.model.D_blocks == scn.model.D_blocks
        assert loaded.phi == scn.phi
        assert loaded.slopes == scn.slopes


TARGETS_MAIN = """
name = targets-main
points = 8
generators = (1 2)(5 6), (1 2 3 4)(5 6 7 8), (1 5)(2 6)(3 7)(4 8)
tau = (1 5)(2 6)(3 7)(4 8)
decomposition_generators = (1 6 3 8)(2 7 4 5)
phi_targets = {}
"""


def test_scenario_file_phi_targets():
    scn = parse_scenario(TARGETS_MAIN.format("1 3"))
    assert "phi = 1 2 4 7" in serialize_scenario(scn).splitlines()


@pytest.mark.parametrize("targets, message", [
    ("1.7 3", "line 7: field 'phi_targets': invalid literal for int"),
    ("1 2", "line 7: field 'phi_targets': no CM-type exists"),
])
def test_scenario_file_phi_targets_are_integers_that_admit_a_cm_type(targets, message):
    with pytest.raises(ScenarioParseError, match=message):
        parse_scenario(TARGETS_MAIN.format(targets))


def test_scenario_file_errors_carry_line_and_field():
    with pytest.raises(ScenarioParseError, match="line 1"):
        parse_scenario("points 8")
    with pytest.raises(ScenarioParseError, match="unknown field"):
        parse_scenario("posts = 8")
    with pytest.raises(ScenarioParseError, match="missing required field"):
        parse_scenario("points = 8")
    base = (
        "points = 8\n"
        "generators = (1 2)(5 6), (1 2 3 4)(5 6 7 8), (1 5)(2 6)(3 7)(4 8)\n"
        "tau = (1 5)(2 6)(3 7)(4 8)\n"
        "decomposition_generators = (1 6 3 8)(2 7 4 5)\n"
    )
    with pytest.raises(ScenarioParseError, match="phi"):
        parse_scenario(base)
    with pytest.raises(ScenarioParseError, match="field 'phi'"):
        parse_scenario(base + "phi = 1 2 3 5\n")  # meets its own conjugate
    with pytest.raises(ScenarioParseError, match="field 'slopes'"):
        parse_scenario(base + "phi = 1 2 4 7\nslopes = 1/2 1/2 1/2 1/2 1/2 1/2 1/2 1/2\n")
    with pytest.raises(ScenarioParseError, match="tau"):
        parse_scenario(
            "points = 8\ngenerators = (1 2)(5 6)\ntau = (1 5)(2 6)(3 7)(4 8)\nphi = 1 2 4 7\n"
        )


def test_scenario_file_refuses_a_repeated_phi_index():
    """phi is a set of indices: a repeated one is refused, not collapsed."""
    base = ("points = 4\ngenerators = (1 2)(3 4), (1 3)(2 4)\ntau = (1 3)(2 4)\n"
            "decomposition_generators = (1 3)(2 4)\n")
    assert parse_scenario(base + "phi = 1 2\n").phi == frozenset({0, 1})
    with pytest.raises(ScenarioParseError, match="line 5: field 'phi': repeated index in '1 1 2'"):
        parse_scenario(base + "phi = 1 1 2\n")


def test_scenario_file_duplicate_field():
    with pytest.raises(ScenarioParseError, match="duplicate"):
        parse_scenario("points = 8\npoints = 8\n")


def test_scenario_file_bad_cycle_notation():
    with pytest.raises(ScenarioParseError, match="generators"):
        parse_scenario("points = 4\ngenerators = (1 9)\ntau = (1 3)(2 4)\nphi = 1 2\n")


def test_scenario_file_rejects_odd_points():
    with pytest.raises(ScenarioParseError, match="points"):
        parse_scenario("points = 7\ngenerators = (1 2)\ntau = (1 2)\nphi = 1\n")
