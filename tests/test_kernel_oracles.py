"""The forge's exact kernels against their definitional routes and against sympy.

`forge._alternates_at_midpoints` proves total reality by sign changes
at the midpoints between the spread's roots; whatever it accepts, the
whole integer Sturm chain of primitive pseudo-remainders,
`oracles.sturm_chain_by_primitive_prem`, must count deg f distinct
real roots for, and the rule must answer as the same signs taken
in Fractions do.  It is one-sided: pinned seeds show Sturm accepting a
spread that the midpoints refuse.  The integer chain must give the
count and squarefree verdict of sympy and of the chain over Q,
`sturm_by_fractions`, kept here only as its cross-check.
`forge_totally_real` must forge what `oracles.forge_by_definition`
forges; `gf_ben_or` (early exit) on f mod l made monic must agree with
the full degree pattern `oracles.irreducible_by_pattern`.  Over GF(l)
the kernel takes x**(l**d) from the Frobenius rows on packed ints and
runs Euclid on lists; `gf_ben_or`, `_euclid` (non-monic divisors, one
inverse per step), the packed product mod f, the Frobenius rows on both
sides of l < 2 deg f (unreduced shifted rows, products with x**l) and
each x**(l**d) must agree with the square-and-multiply and tuple routes
of `oracles`, at primes the kernel admits up to the largest below
`MR_BOUND`.  At deg f = 60 and l = 113, the longest unreduced runs, and
at l = 2**31 - 1 and that largest prime, every slot must stay below the
bound that sets the slot width.  For l < 2 deg f Ben-Or's d = 1 stage is a root search by
evaluation; it must agree with the gcd of
`oracles.ben_or_by_pow_mod` at every prime up to 17, and count pins
hold that a draw with a root runs no product mod f and no Euclid.
Those tuple routes are the tests' factorization (the package factors nothing): their degree patterns, root counts and
Ben-Or must agree with sympy's `factor_list`.  Count pins hold the
mechanisms: forging at the bench's g = 12 primes builds no Frobenius
row by a product, and the total-reality test takes no gcd.
The draws cover what the chains' signs and stops depend on (negative
and non-unit leading coefficients, sparse polynomials whose chain drops
an even number of degrees), squares, the forge's spread-plus-correction
shape up to g = 12 and spreads 2**18, and leading coefficients that
vanish mod l.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    NotSquarefreeError,
    alternates_at_midpoints_by_fractions,
    ben_or_by_pow_mod,
    degree_pattern_by_pow_mod,
    forge_by_definition,
    gf_divmod,
    gf_gcd_by_rem,
    gf_mul,
    gf_pow_mod,
    gf_rem,
    gf_sub,
    irreducible_by_pattern,
    is_prime_by_trial_division,
    poly_add,
    poly_derivative,
    poly_eval,
    reduce_checked,
    roots_by_pow_mod,
    squarefree_decomposition_by_rem,
    sturm_chain_by_primitive_prem,
    sturm_count,
    totally_real_by_sturm,
)
from weiltate import algebra, forge
from weiltate.algebra import (
    MR_BOUND,
    gf_ben_or,
    gf_reduce,
    is_prime,
    poly_degree,
    poly_mul,
    poly_trim,
)
from weiltate.forge import forge_totally_real

MERSENNE_31 = 2**31 - 1  # the largest prime below 2**31
LARGEST_PRIME = 3317044064679887385961813  # the largest prime below MR_BOUND, 82 bits
PRIMES = (2, 3, 5, 7, 11, 13, 17, 31, 65537, MERSENNE_31, LARGEST_PRIME)
LEADS = st.integers(-12, 12).filter(bool)


def sturm_by_fractions(f):
    """Distinct real roots of a squarefree integer polynomial, by the Sturm chain over Q.

    Each member after f and f' is minus the remainder of the two before
    it, in Fractions; the signs at -oo and +oo are read off the leading
    terms.  A zero remainder before a constant raises NotSquarefreeError.
    """
    f = poly_trim(tuple(map(Fraction, f)))
    if not f:
        raise ValueError("zero polynomial rejected")
    if len(f) == 1:
        return 0
    chain = [f, poly_derivative(f)]
    while len(chain[-1]) > 1:
        rem, b = list(chain[-2]), chain[-1]
        for i in range(len(rem) - len(b), -1, -1):
            c = rem[i + len(b) - 1] / b[-1]
            for j, v in enumerate(b):
                rem[i + j] -= c * v
        chain.append(poly_trim(tuple(-c for c in rem[: len(b) - 1])))
    if not chain[-1]:
        raise NotSquarefreeError("polynomial is not squarefree over Q")
    return sturm_count(chain)


def count_by_the_integer_chain(f):
    """Distinct real roots of f from the whole integer chain of primitive pseudo-remainders."""
    f = poly_trim(f)
    if not f:
        raise ValueError("zero polynomial rejected")
    return sturm_count(sturm_chain_by_primitive_prem(f)) if len(f) > 1 else 0


def ben_or(f, l):
    """`gf_ben_or` on f mod l made monic, after the input checks of `oracles.reduce_checked`."""
    return gf_ben_or(reduce_checked(f, l), l)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NotSquarefreeError:
        return "not squarefree"
    except ValueError:
        return "value error"


@st.composite
def integer_polys(draw, max_degree=9, bound=60):
    """Dense or sparse: zero coefficients make the chain drop two or more degrees."""
    n = draw(st.integers(0, max_degree))
    coeff = st.integers(-bound, bound)
    if draw(st.booleans()):
        coeff = st.one_of(st.just(0), coeff)
    return tuple(draw(coeff) for _ in range(n)) + (draw(LEADS),)


@st.composite
def non_squarefree_polys(draw):
    h = draw(integer_polys(max_degree=3, bound=6))
    return poly_mul(poly_mul(h, h), draw(integer_polys(max_degree=4, bound=10)))


@st.composite
def forge_shaped_and_scale(draw, max_g=8, max_spread_bits=6):
    """prod(x - M K i) plus a correction centered in (-M/2, M/2], as the forge builds, and M K."""
    g = draw(st.integers(2, max_g))
    modulus = draw(st.sampled_from((5 * 7 * 11 * 2, 5 * 11 * 13 * 2, 2 * 13 * 17 * 3)))
    scale = modulus * 2 ** draw(st.integers(0, max_spread_bits))
    t = (1,)
    for i in range(1, g + 1):
        t = poly_mul(t, (-scale * i, 1))
    half = modulus // 2
    return poly_add(t, tuple(draw(st.integers(-half, half)) for _ in range(g))), scale


def forge_shaped(max_g=8, max_spread_bits=6):
    return forge_shaped_and_scale(max_g, max_spread_bits).map(lambda case: case[0])


@settings(max_examples=300, deadline=None)
@given(st.one_of(integer_polys(), non_squarefree_polys(), forge_shaped()))
@example((-2, 0, 1))
@example((0, 3, 0, -1))  # -x^3 + 3x: negative leading coefficient, three roots
@example((1, 0, -2, 0, 1))  # (x^2 - 1)^2
@example((0, 5, 0, 0, 1))  # x^4 + 5x: the chain goes 3 -> 1 to an element with lc < 0
@example((0, 5, 0, 0, 0, 0, -1))
@example((1,))
@example((0,))
def test_integer_sturm_matches_the_fraction_chain(f):
    assert _outcome(count_by_the_integer_chain, f) == _outcome(sturm_by_fractions, f)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.one_of(integer_polys(), non_squarefree_polys()).map(poly_trim).filter(bool),
              st.integers(1, 6)),
    forge_shaped_and_scale(12, 18),
))
@example(((-2, 0, 1), 1))  # roots +-1.41: the midpoints 0.5, 1.5, 2.5 see no sign change
@example(((2, -3, 1), 1))  # (x - 1)(x - 2): +, -, +
@example(((-6, 11, -6, 1), 1))  # (x - 1)(x - 2)(x - 3)
@example(((6, -11, 6, -1), 1))  # its negative: the first sign is free
@example(((-1, 2), 1))  # 2x - 1 vanishes at the midpoint 1/2
@example(((1, -2, 1), 1))  # (x - 1)^2: positive at every midpoint
@example(((2, -3, 1), 2))  # roots 1 and 2 both below the midpoint 3
@example(((1,), 1))  # a constant has no root and one midpoint
@example(((-4, 0, 5, 0, -1), 1))  # -(x^2 - 1)(x^2 - 4): roots outside (1/2, 9/2)
def test_total_reality_matches_the_full_count(case):
    """The midpoint signs answer as the Fractions do, and accept only what Sturm counts
    totally real."""
    f, scale = case
    accepted = forge._alternates_at_midpoints(f, scale)
    assert accepted == alternates_at_midpoints_by_fractions(f, scale)
    if accepted:
        assert totally_real_by_sturm(f)


def _spreads_tested(g, seed):
    """The forged field at p = 5 and the bench's l, l', and the polynomials it tested."""
    l, lp = forge._smallest_primes_avoiding(g, {5})
    tested = []
    alternates = forge._alternates_at_midpoints

    def recorded(poly, scale):
        tested.append(poly)
        return alternates(poly, scale)

    with mock.patch.object(forge, "_alternates_at_midpoints", recorded):
        field = forge_totally_real(g, 5, l, lp, seed)
    return field, tested


def _first_sturm_accepts(polys) -> int:
    """The index of the first polynomial that the integer Sturm chain counts totally real."""
    return next(k for k, f in enumerate(polys) if count_by_the_integer_chain(f) == len(f) - 1)


# (g, seed) where Sturm accepts an earlier spread than the midpoints: (Sturm's, the forge's)
STURM_EARLIER = {(4, 25): (8, 16), (4, 60): (1, 2), (6, 1): (128, 256),
                 (8, 40): (128, 256), (12, 27): (131072, 262144)}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((4, 6, 8, 10, 12)), st.integers(0, 2**31 - 1))
@example(4, 25)
@example(4, 60)
@example(6, 1)  # a pinned forge document
@example(8, 40)
@example(12, 27)
def test_midpoint_rule_accepts_only_totally_real_fields(g, seed):
    """The accepted spread is totally real by the integer Sturm chain, and no
    earlier than the first that it accepts."""
    field, tested = _spreads_tested(g, seed)
    assert tested[-1] == field.poly and field.spread == 2 ** (len(tested) - 1)
    assert count_by_the_integer_chain(field.poly) == g
    assert _first_sturm_accepts(tested) <= len(tested) - 1


@pytest.mark.parametrize("key", list(STURM_EARLIER), ids=lambda k: "g%d-seed%d" % k)
def test_sturm_accepts_spreads_that_the_midpoints_refuse(key):
    """The rule is one-sided: at these seeds the midpoint signs refuse a totally real spread."""
    field, tested = _spreads_tested(*key)
    assert (2 ** _first_sturm_accepts(tested), field.spread) == STURM_EARLIER[key]


@pytest.mark.parametrize("g", [4, 6, 8, 10, 12])
def test_forge_matches_the_definitional_loop(g):
    # p, l and l' of the benchmark's forge rungs: 5 and the two smallest primes above g other than 5
    l, lp = {4: (7, 11), 6: (7, 11), 8: (11, 13), 10: (11, 13), 12: (13, 17)}[g]
    for seed in range(5):
        assert forge_totally_real(g, 5, l, lp, seed) == forge_by_definition(g, 5, l, lp, seed)


@st.composite
def gf_polys(draw):
    """Degree up to 16 mod a prime the kernel admits: a square times a linear, or dense."""
    l = draw(st.sampled_from(PRIMES))
    if draw(st.booleans()):
        h = tuple(draw(st.integers(0, l - 1)) for _ in range(draw(st.integers(1, 7)))) + (1,)
        f = poly_mul(h, h)
        if draw(st.booleans()):
            f = poly_mul(f, (draw(st.integers(0, l - 1)), 1))
    else:
        n = draw(st.integers(1, 16))
        lead = draw(st.sampled_from((1, l - 1, l, 2 * l, l + 1)))
        f = tuple(draw(st.integers(-l, 2 * l)) for _ in range(n)) + (lead,)
    return f, l


@settings(max_examples=400, deadline=None)
@given(gf_polys())
@example(((1, 0, 2, 0, 1), 3))  # (x^2 + 1)^2 mod 3: the only factor has degree n/2
@example(((2, 1, 0, 1, 1), 3))  # (x^2 + 1)(x^2 + x + 2) mod 3
@example(((1, 1, 1, 0, 1, 1), 2))  # x^5 + x^4 + x^2 + x + 1 mod 2 is irreducible
@example(((1, 0, 5), 5))  # leading coefficient vanishes mod 5
@example(((0,), 5))
@example(((), 5))
@example(((3,), 7))
def test_ben_or_matches_the_full_pattern(case):
    f, l = case
    assert _outcome(ben_or, f, l) == _outcome(irreducible_by_pattern, f, l)


def test_ben_or_keeps_the_input_errors():
    for kernel in (ben_or, degree_pattern_by_pow_mod, roots_by_pow_mod):
        for f, l in (((1, 1), 6), ((1, 0, 5), 5), ((1, 1), MR_BOUND)):
            with pytest.raises(ValueError):
                kernel(f, l)
        for f, l in (((), 5), ((0,), 5), ((0, 0), 7)):
            with pytest.raises(ValueError, match="zero polynomial rejected"):
                kernel(f, l)


@settings(max_examples=300, deadline=None)
@given(gf_polys())
@example(((1, 0, 2, 0, 1), 3))
@example(((1, 1, 1, 0, 1, 1), 2))
@example(((5, 1), MERSENNE_31))  # degree 1: x**l mod f is a constant
@example(((3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), MERSENNE_31))
@example(((3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), LARGEST_PRIME))
@example(((1, 0, 5), 5))
@example(((), 5))
@example(((3,), 7))
def test_kernel_matches_the_pow_mod_routes(case):
    f, l = case
    assert _outcome(ben_or, f, l) == _outcome(ben_or_by_pow_mod, f, l)


@st.composite
def monic_below_17(draw):
    """A monic f of degree 1..16 mod a prime up to 17: l < 2 deg f and l >= 2 deg f both occur."""
    l = draw(st.sampled_from([q for q in PRIMES if q <= 17]))
    return [draw(st.integers(0, l - 1)) for _ in range(draw(st.integers(1, 16)))] + [1], l


@settings(max_examples=400, deadline=None)
@given(monic_below_17())
@example(([1, 0, 1], 3))  # x^2 + 1 mod 3, n = 2: the root stage alone proves it irreducible
@example(([2, 0, 1], 3))  # x^2 - 1 mod 3, n = 2: refused by its roots
@example(([1, 2, 0, 1], 3))  # x^3 - x + 1 mod 3, n = 3: the root stage alone
@example(([1, 1, 0, 1], 5))  # x^3 + x + 1 mod 5, n = 3 and 5 < 6: the root stage alone
@example(([0, 2, 0, 1], 5))  # x (x^2 + 2) mod 5, n = 3: a root only at 0
@example(([2, 2, 1, 1], 5))  # (x + 1)(x^2 + 2) mod 5, n = 3: a root only at l - 1
@example(([0, 1, 0, 2, 0, 1], 7))  # x (x^2 + 1)^2 mod 7: a root only at 0, n = 5
@example(([1, 1, 2, 2, 1, 1], 7))  # (x + 1)(x^2 + 1)^2 mod 7: a root only at l - 1, n = 5
@example(([1, 0, 3, 0, 3, 0, 1], 11))  # (x^2 + 1)^3 mod 11, l = 2n - 1: refused at d = 2
@example(([2, 1, 0, 0, 0, 0, 1], 11))  # x^6 + x + 2 mod 11, l = 2n - 1: irreducible
@example(([8, 0, 12, 0, 6, 0, 1], 13))  # (x^2 + 2)^3 mod 13, l = 2n + 1: the d = 1 gcd route
@example(([1, 1, 0, 0, 0, 0, 1], 13))  # x^6 + x + 1 mod 13, l = 2n + 1: irreducible
def test_root_stage_matches_the_pow_mod_route(case):
    f, l = case
    assert gf_ben_or(f, l) == ben_or_by_pow_mod(f, l)


def _record_kernel_calls(monkeypatch):
    """The calls of `_x_to_the_l`, `_product_mod` and `_euclid`, in order, each with
    its arguments as tuples at the call (`_euclid` consumes its lists)."""
    calls = []
    for name in ("_x_to_the_l", "_product_mod", "_euclid"):

        def recorded(*args, name=name, kernel=getattr(algebra, name)):
            calls.append((name, tuple(tuple(a) if isinstance(a, list) else a for a in args)))
            return kernel(*args)

        monkeypatch.setattr(algebra, name, recorded)
    return calls


def test_roots_below_twice_the_degree_cost_no_product_and_no_euclid(monkeypatch):
    """At l < 2 deg f a draw with a root runs no x**l, no product mod f and no
    Euclid, and the first Euclid of a root-free draw is its d = 2 gcd, with
    x**(l**2) - x.  At 65537 and 2**31 - 1 the d = 1 gcd, with x**l - x, still runs."""
    calls = _record_kernel_calls(monkeypatch)
    rng = random.Random(34)
    for l, n in ((2, 11), (5, 12), (7, 4), (13, 12)):
        seen = set()
        for _ in range(60):
            f = [rng.randrange(l) for _ in range(n)] + [1]
            calls.clear()
            irreducible = gf_ben_or(f, l)
            has_root = any(poly_eval(f, a) % l == 0 for a in range(l))
            seen.add(has_root)
            if has_root:
                assert not irreducible and calls == [], (f, l)
            else:
                first = next(args for name, args in calls if name == "_euclid")
                assert first[1] == gf_sub(gf_pow_mod((0, 1), l * l, tuple(f), l), (0, 1), l)
        assert seen == {True, False}, (l, n)
    for l in (65537, MERSENNE_31, LARGEST_PRIME):
        for _ in range(3):
            f = [rng.randrange(l) for _ in range(12)] + [1]
            calls.clear()
            gf_ben_or(f, l)
            first = next(args for name, args in calls if name == "_euclid")
            assert first[1] == gf_sub(gf_pow_mod((0, 1), l, tuple(f), l), (0, 1), l)


@st.composite
def monic_and_residue(draw):
    """A monic f of degree 1..16 mod a prime the kernel admits, and h of lower degree."""
    l = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 16))
    coeff = st.integers(0, l - 1)
    f = [draw(coeff) for _ in range(n)] + [1]
    h = [draw(coeff) for _ in range(draw(st.integers(0, n)))]
    return f, h, l


@settings(max_examples=300, deadline=None)
@given(monic_and_residue())
@example(([0, 0, 0, 1], [0, 1], 2))  # x**3: every row a monomial
@example(([7, 1], [0], 5))
def test_frobenius_step_is_the_lth_power(case):
    f, h, l = case
    rows = _unpacked_rows(f, l)
    assert len(rows) == len(f) - 1 and all(len(row) == len(f) - 1 for row in rows)
    step = [sum(c * row[j] for c, row in zip(h, rows)) % l for j in range(len(f) - 1)]
    assert poly_trim(step) == gf_pow_mod(tuple(h), l, tuple(f), l)


# n + 1 and 2n - 1 prime for every n here, so both sides of l < 2n are met at each degree
@pytest.mark.parametrize("n", [2, 4, 6, 10, 12, 16])
def test_frobenius_rows_are_the_powers_of_x(n):
    """Row i is x**(l*i) mod f: shifted rows for l < 2n, products with x**l from 2n on."""
    rng = random.Random(n)
    first_past = next(q for q in range(2 * n, 4 * n) if is_prime(q))
    for l in (2, 3, n + 1, 2 * n - 1, first_past, 65537, MERSENNE_31, LARGEST_PRIME):
        for _ in range(3):
            f = [rng.randrange(l) for _ in range(n)] + [1]
            rows = _unpacked_rows(f, l)
            assert len(rows) == n and all(len(row) == n for row in rows)
            for i, row in enumerate(rows):
                assert poly_trim(row) == gf_pow_mod((0, 1), l * i, tuple(f), l), (l, f, i)


def _slots(h, modulus):
    """The n slots of the packed h as they stand, unreduced."""
    _, n, w, _ = modulus
    mask = (1 << w) - 1
    return [h >> s & mask for s in range(0, n * w, w)]


def _unpacked_rows(f, l):
    """The Frobenius rows of the monic list f, each unpacked mod l."""
    modulus = algebra._packed_modulus(f, l)
    rows = algebra._frobenius_rows(modulus, algebra._x_to_the_l(modulus))
    return [algebra._unpack(row, modulus) for row in rows]


def _assert_powers_match(f, l, count):
    """The first `count` powers x**(l**d) mod f of the kernel are those of `gf_pow_mod`,
    each the l-th power of the one before, as lists of deg f coefficients in [0, l)."""
    powers, want = algebra._frobenius_powers_of_x(f, l), (0, 1)
    for d in range(1, count + 1):
        want = gf_pow_mod(want, l, tuple(f), l)
        got = next(powers)
        assert len(got) == len(f) - 1 and all(0 <= c < l for c in got), (f, l, d)
        assert poly_trim(got) == want, (f, l, d)


@st.composite
def monic_up_to_24(draw):
    l = draw(st.sampled_from(PRIMES))
    return [draw(st.integers(0, l - 1)) for _ in range(draw(st.integers(1, 24)))] + [1], l


@settings(max_examples=100, deadline=None)
@given(monic_up_to_24())
@example(([1] * 25, 23))  # every slot of negf at l - 1: each clear adds the most
@example(([1] * 25, MERSENNE_31))
@example(([1] * 25, LARGEST_PRIME))
def test_packed_powers_match_pow_mod(case):
    """x**(l**d) mod f for every d = 1..deg f, deg f <= 24, at every prime of the kernel."""
    f, l = case
    _assert_powers_match(f, l, len(f) - 1)


def test_packed_powers_at_degrees_1_and_2():
    """Every monic f of degree 1 and 2 mod 2 and 3, d = 1..deg f."""
    for l in (2, 3):
        for n in (1, 2):
            for low in range(l**n):
                f = [low // l**i % l for i in range(n)] + [1]
                _assert_powers_match(f, l, n)


@pytest.mark.parametrize("l", [113, MERSENNE_31, LARGEST_PRIME])
def test_packed_slots_stay_below_their_bound_at_degree_60(l):
    """At deg f = 60 and l = 113 < 2 deg f, the 58 rows past x**l take 113 shifts
    each and are never reduced; at l = 2**31 - 1 and past it the rows are products.
    Each row is x**(l*i) mod f, each slot of the rows and of the matrix-vector product
    with every h_i = l - 1 stays below the bound of `_packed_modulus`, and that bound
    below 2**(w - 1), so no slot carries into the next."""
    n = 60
    rng = random.Random(l)
    for f in ([1] * (n + 1), [rng.randrange(l) for _ in range(n)] + [1]):
        modulus = algebra._packed_modulus(f, l)
        w = modulus[2]
        rows = algebra._frobenius_rows(modulus, algebra._x_to_the_l(modulus))
        xl = gf_pow_mod((0, 1), l, tuple(f), l)
        want = (1,)
        for row in rows:
            assert poly_trim(algebra._unpack(row, modulus)) == want
            want = gf_rem(gf_mul(want, xl, l), tuple(f), l)
        row_bound = l + n * l * (l - 1) ** 2 if l < 2 * n else l
        assert max(max(_slots(row, modulus)) for row in rows) < row_bound
        product = sum((l - 1) * row for row in rows)
        assert max(_slots(product, modulus)) < n * (l - 1) * row_bound + row_bound < 2 ** (w - 1)
        assert product >> n * w == 0
        _assert_powers_match(f, l, 3)


def test_ben_or_on_degrees_0_and_1():
    """A constant is not irreducible and a linear is, at every prime of the kernel."""
    for l in PRIMES:
        assert gf_ben_or([1], l) is False
        for a in (0, 1, l - 1):
            assert gf_ben_or([a, 1], l) is True


def test_forging_at_the_bench_primes_multiplies_no_frobenius_row(monkeypatch):
    """At (g, p, l, l') = (12, 5, 13, 17) every prime is below 2g: each row is a shifted row."""
    inside, calls = [], {"rows": 0, "products": 0}
    rows, product_mod = algebra._frobenius_rows, algebra._product_mod

    def counted_rows(*args):
        calls["rows"] += 1
        inside.append(1)
        try:
            return rows(*args)
        finally:
            inside.pop()

    def counted_product_mod(*args):
        calls["products"] += bool(inside)
        return product_mod(*args)

    monkeypatch.setattr(algebra, "_frobenius_rows", counted_rows)
    monkeypatch.setattr(algebra, "_product_mod", counted_product_mod)
    field = forge_totally_real(12, 5, 13, 17, seed=0)
    assert field.certificates.galois_is_sg
    assert calls["rows"] > 0 and calls["products"] == 0


def test_total_reality_takes_no_gcd(monkeypatch):
    """The spreads the forge tests at g = 12, seed 0, answered again with `gcd` refused,
    as the Fraction midpoints answer them."""
    seen = []
    alternates = forge._alternates_at_midpoints

    def recorded(poly, scale):
        seen.append((poly, scale, alternates(poly, scale)))
        return seen[-1][2]

    monkeypatch.setattr(forge, "_alternates_at_midpoints", recorded)
    forge_totally_real(12, 5, 13, 17, seed=0)
    assert seen[-1][2] and not all(answer for _, _, answer in seen)

    def no_gcd(*args):
        raise AssertionError("the total-reality test takes no gcd")

    monkeypatch.setattr(algebra, "gcd", no_gcd)
    assert [alternates(poly, scale) for poly, scale, _ in seen] == [
        alternates_at_midpoints_by_fractions(poly, scale) for poly, scale, _ in seen
    ] == [answer for _, _, answer in seen]


def test_squarefree_decomposition_collapses_in_characteristic_l():
    """x^10 + 1 = (x^2 + 1)^5 mod 5 and x^4 + 1 = (x + 1)^4 mod 2: f' = 0, l-th roots."""
    x10_plus_1 = (1,) + (0,) * 9 + (1,)
    assert squarefree_decomposition_by_rem(x10_plus_1, 5) == [(5, (1, 0, 1))]
    assert degree_pattern_by_pow_mod(x10_plus_1, 5) == ([(1, 10)], False)
    assert squarefree_decomposition_by_rem((1, 0, 0, 0, 1), 2) == [(4, (1, 1))]
    assert degree_pattern_by_pow_mod((1, 0, 0, 0, 1), 2) == ([(1, 4)], False)


@st.composite
def monic_and_two_residues(draw):
    f, a, l = draw(monic_and_residue())
    return f, a, draw(st.lists(st.integers(0, l - 1), max_size=len(f) - 1)), l


@settings(max_examples=300, deadline=None)
@given(monic_and_two_residues())
@example(([1, 1], [1], [1], 2))  # degree 1: the product of constants
@example(([0, 0, 1], [0, 1], [0, 1], 3))  # x * x * x mod x**2: slot 2n - 1 cleared
@example(([1] * 17, [MERSENNE_31 - 1] * 16, [MERSENNE_31 - 1] * 16, MERSENNE_31))
@example(([1] * 17, [LARGEST_PRIME - 1] * 16, [LARGEST_PRIME - 1] * 16, LARGEST_PRIME))
def test_packed_product_leaves_the_remainder(case):
    """`_product_mod` of two reduced residues, one of them times x (a shift by one
    slot, as x**l's squaring takes it), is their product's remainder mod f, with
    reduced slots: the quotient times f plus it gives the product back."""
    f, a, b, l = case
    n = len(f) - 1
    modulus = algebra._packed_modulus(f, l)
    w = modulus[2]
    for shift in (0, 1):
        product = gf_mul(tuple(a), (0,) * shift + tuple(b), l)
        quo, rem = gf_divmod(product, tuple(f), l)
        got = algebra._product_mod(algebra._pack(a, w), algebra._pack(b, w) << shift * w, modulus)
        assert _slots(got, modulus) == list(rem) + [0] * (n - len(rem))
        assert got == algebra._pack(_slots(got, modulus), w)  # nothing past slot n - 1
        assert gf_reduce(poly_add(poly_mul(quo, f), rem), l) == product


@settings(max_examples=300, deadline=None)
@given(gf_polys(), st.lists(st.integers(-5, 2**31), max_size=17))
def test_list_euclid_matches_euclid_on_tuples(case, g):
    f, l = case
    f, g = list(gf_reduce(f, l)), list(gf_reduce(g, l))
    assert tuple(algebra._euclid(list(f), list(g), l)) == gf_gcd_by_rem(f, g, l)
    assert tuple(algebra._euclid(list(g), list(f), l)) == gf_gcd_by_rem(g, f, l)


@st.composite
def non_monic_pairs(draw):
    """Two lists mod a prime the kernel admits, of degree up to 60, sharing a non-monic factor."""
    l = draw(st.sampled_from(PRIMES))
    coeff = st.integers(0, l - 1)
    unit = st.integers(1, l - 1)

    def poly(max_degree):
        return tuple(draw(coeff) for _ in range(draw(st.integers(0, max_degree)))) + (draw(unit),)

    h = poly(20)
    return gf_reduce(poly_mul(h, poly(40)), l), gf_reduce(poly_mul(h, poly(40)), l), l


@settings(max_examples=150, deadline=None)
@given(non_monic_pairs())
@example(((3,), (0, 5), 7))
@example(((1, 2, 3), (2, 4, 6), 7))  # one a multiple of the other
def test_list_euclid_matches_euclid_on_long_non_monic_inputs(case):
    f, g, l = case
    assert tuple(algebra._euclid(list(f), list(g), l)) == gf_gcd_by_rem(f, g, l)
    assert tuple(algebra._euclid(list(g), list(f), l)) == gf_gcd_by_rem(g, f, l)


def test_list_euclid_at_degree_60_and_the_largest_prime():
    rng = random.Random(60)
    for l in (65537, MERSENNE_31, LARGEST_PRIME):
        for _ in range(3):
            h = [rng.randrange(l) for _ in range(20)] + [rng.randrange(1, l)]
            f = gf_reduce(poly_mul(h, [rng.randrange(l) for _ in range(40)] + [rng.randrange(1, l)]), l)
            g = gf_reduce(poly_mul(h, [rng.randrange(l) for _ in range(39)] + [rng.randrange(1, l)]), l)
            assert len(f) == 61 and f[-1] != 1
            got = algebra._euclid(list(f), list(g), l)
            assert tuple(got) == gf_gcd_by_rem(f, g, l) and len(got) >= 21


# Carmichael numbers: composite, yet a**(n-1) = 1 mod n for every a prime to n
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
              52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461)
# the least strong pseudoprime to the first k prime bases, with its factors (OEIS A014233)
LEAST_STRONG_PSEUDOPRIMES = (
    (1, 2047, (23, 89)),
    (2, 1373653, (829, 1657)),
    (3, 25326001, (2251, 11251)),
    (4, 3215031751, (151, 751, 28351)),
    (5, 2152302898747, (6763, 10627, 29947)),
    (6, 3474749660383, (1303, 16927, 157543)),
    (8, 341550071728321, (10670053, 32010157)),
    (11, 3825123056546413051, (149491, 747451, 34233211)),
    (12, 318665857834031151167461, (399165290221, 798330580441)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**10))
@example(MERSENNE_31)
@example(1000000000039)  # the least prime above 10**12
def test_miller_rabin_matches_trial_division(n):
    assert is_prime(n) == is_prime_by_trial_division(n)


def test_miller_rabin_matches_trial_division_below_20000_and_on_carmichael_numbers():
    assert all(is_prime(n) == is_prime_by_trial_division(n) for n in range(20000))
    for n in CARMICHAEL:
        factors = [q for q in range(2, n) if n % q == 0 and is_prime_by_trial_division(q)]
        assert all(n % (q * q) and (n - 1) % (q - 1) == 0 for q in factors)  # Korselt
        assert not is_prime(n)


def test_miller_rabin_needs_its_bases_and_refuses_past_its_bound():
    for k, n, factors in LEAST_STRONG_PSEUDOPRIMES:
        assert math.prod(factors) == n
        assert algebra._strong_probable_prime(n, algebra._MR_BASES[:k])
        assert not is_prime(n)
    # 3,215,031,751 fools the first four bases (the k = 4 row above), and all 13 refuse it
    assert not algebra._strong_probable_prime(3215031751, algebra._MR_BASES)
    # the bound is the least strong pseudoprime to all 13 bases, so it is refused, not guessed
    assert algebra._strong_probable_prime(MR_BOUND, algebra._MR_BASES)
    assert is_prime(MR_BOUND - 1) is False  # even, just below the bound
    for n in (MR_BOUND, MR_BOUND + 1, 2**89 - 1):
        with pytest.raises(ValueError, match="too large for the deterministic primality test"):
            is_prime(n)


def test_large_prime_costs_products_in_the_bits_of_l(monkeypatch):
    """At l = 2**31 - 1 and at the largest prime the products mod f per polynomial grow
    with deg f + log2 l, not with l."""
    calls = []
    product_mod = algebra._product_mod

    def counted(*args):
        calls.append(1)
        return product_mod(*args)

    monkeypatch.setattr(algebra, "_product_mod", counted)
    n = 12
    for l in (MERSENNE_31, LARGEST_PRIME):
        bound = 2 * (n + l.bit_length())
        rng = random.Random(12)
        draws = iter(lambda: tuple(rng.randrange(l) for _ in range(n)) + (1,), None)
        polys = [next(draws) for _ in range(6)]
        polys.append(next(f for f in draws if ben_or(f, l)))  # every step of Ben-Or
        polys.append(poly_mul((3, 0, 0, 0, 0, 1), (5, 0, 0, 0, 0, 0, 0, 1)))  # degrees 5 and 7
        for f in polys:
            calls.clear()
            ben_or(f, l)
            assert 0 < len(calls) <= bound, (l, f, len(calls))


# --- sympy as an independent oracle ------------------------------------------


def _sympy_poly(f, **kwargs):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(poly_trim(f))), x, **kwargs)


@settings(max_examples=150, deadline=None)
@given(st.one_of(integer_polys(max_degree=7), non_squarefree_polys(), forge_shaped()))
def test_sturm_matches_sympy_count_roots(f):
    P = _sympy_poly(f)
    got = _outcome(count_by_the_integer_chain, f)
    if P.degree() >= 1 and P.gcd(P.diff()).degree() >= 1:
        assert got == "not squarefree"
    else:
        assert got == P.count_roots()


@settings(max_examples=150, deadline=None)
@given(gf_polys())
def test_patterns_and_roots_match_sympy_factor_list(case):
    f, l = case
    f = poly_trim(f)
    if not f or f[-1] % l == 0:
        return
    _, factors = _sympy_poly(f, modulus=l).factor_list()
    counts = {}
    for factor, mult in factors:
        counts[factor.degree()] = counts.get(factor.degree(), 0) + mult
    squarefree = all(mult == 1 for _, mult in factors)
    assert degree_pattern_by_pow_mod(f, l) == (sorted(counts.items()), squarefree)
    linears = sum(1 for factor, _ in factors if factor.degree() == 1)
    assert roots_by_pow_mod(f, l) == linears
    assert ben_or(f, l) == (len(factors) == 1 and factors[0][1] == 1
                            and factors[0][0].degree() >= 1)


@pytest.mark.parametrize("g", [4, 6, 8, 10, 12])
def test_forged_fields_have_galois_group_sg(g):
    """Seeds 0-7 at p = 5 and the bench's l, l': sympy factors each forged field mod l''
    as a linear times an irreducible of degree g - 1, squarefree, and at g = 4 and 6
    gives it a Galois group of order g!."""
    galoisgroups = pytest.importorskip("sympy.polys.numberfields.galoisgroups")
    l, lp = forge._smallest_primes_avoiding(g, {5})
    for seed in range(8):
        field = forge_totally_real(g, 5, l, lp, seed)
        _, factors = _sympy_poly(field.poly, modulus=field.lpp).factor_list()
        assert sorted((f.degree(), e) for f, e in factors) == [(1, 1), (g - 1, 1)], (g, seed)
        if g <= 6:
            group, _ = galoisgroups.galois_group(_sympy_poly(field.poly), by_name=False)
            assert group.order() == math.factorial(g), (g, seed, field.poly)
