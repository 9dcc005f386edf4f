"""Kernel tests: degree patterns, root counts, the tests' Sturm chain, CRT.

The degree patterns and root counts mod l are those of the tests' own
factorization on tuples (`oracles.degree_pattern_by_pow_mod`,
`oracles.roots_by_pow_mod`; the package factors nothing).  Expected
values for the factorization-shaped operations come from independent
brute-force oracles (exhaustive root checks, trial division over all
monic irreducibles, sign scans on root-separated grids) computed inside
this module.
"""

import random
from fractions import Fraction

import pytest
from oracles import (
    degree_pattern_by_pow_mod,
    gf_monic,
    gf_quo,
    gf_rem,
    poly_eval,
    reduce_checked,
    roots_by_pow_mod,
    totally_real_by_sturm,
)

from weiltate.algebra import (
    crt_poly,
    gf_ben_or,
    gf_reduce,
    poly_degree,
    poly_mul,
    poly_trim,
)

X2_PLUS_1 = (1, 0, 1)
X2_MINUS_1 = (-1, 0, 1)
X = (0, 1)
X3_MINUS_X = (0, -1, 0, 1)
X3_MINUS_3X = (0, -3, 0, 1)
X2_MINUS_2 = (-2, 0, 1)


# --- oracles ---------------------------------------------------------------


def brute_roots(f, l):
    return sorted(x for x in range(l) if poly_eval(f, x) % l == 0)


import functools


@functools.lru_cache(maxsize=None)
def monic_irreducibles(l, max_degree):
    """All monic irreducibles of GF(l)[x] up to max_degree, by sieve."""
    out = []
    for d in range(1, max_degree + 1):
        for tail in range(l**d):
            coeffs = []
            t = tail
            for _ in range(d):
                coeffs.append(t % l)
                t //= l
            f = tuple(coeffs) + (1,)
            if not any(_divides(g, f, l) for g in out if poly_degree(g) <= d // 2):
                out.append(f)
    return tuple(out)


def _divides(g, f, l):
    return gf_rem(f, g, l) == ()


def trial_division_pattern(f, l):
    """Factor f mod l by trial division over monic irreducibles.

    Dividing by irreducibles of degree <= deg/2 suffices: whatever is
    left has no factor of half its degree or less, hence is irreducible.
    """
    fbar = gf_monic(gf_reduce(f, l), l)
    counts = {}
    squarefree = True
    for g in monic_irreducibles(l, poly_degree(fbar) // 2):
        mult = 0
        while poly_degree(fbar) >= poly_degree(g) and gf_rem(fbar, g, l) == ():
            fbar = gf_quo(fbar, g, l)
            mult += 1
        if mult:
            counts[poly_degree(g)] = counts.get(poly_degree(g), 0) + mult
            if mult > 1:
                squarefree = False
        if poly_degree(fbar) < 1:
            break
    if poly_degree(fbar) >= 1:
        counts[poly_degree(fbar)] = counts.get(poly_degree(fbar), 0) + 1
    return sorted(counts.items()), squarefree


def grid_sign_root_count(f, radius, step=Fraction(1, 4)):
    """Sign-change scan on a grid finer than the root separation."""
    count = 0
    prev = None
    x = Fraction(-radius)
    while x <= radius:
        v = poly_eval(f, x)
        if v == 0:
            count += 1
            prev = None
        else:
            sign = 1 if v > 0 else -1
            if prev is not None and sign != prev:
                count += 1
            prev = sign
        x += step
    return count


# --- degree patterns, by the tests' own factorization -----------------------


def test_pattern_x2_plus_1_mod_5_splits():
    assert brute_roots(X2_PLUS_1, 5) == [2, 3]
    pattern, squarefree = degree_pattern_by_pow_mod(X2_PLUS_1, 5)
    assert pattern == [(1, 2)]
    assert squarefree


def test_pattern_x2_plus_1_mod_3_irreducible():
    assert brute_roots(X2_PLUS_1, 3) == []
    pattern, squarefree = degree_pattern_by_pow_mod(X2_PLUS_1, 3)
    assert pattern == [(2, 1)]
    assert squarefree


def test_pattern_linear():
    pattern, squarefree = degree_pattern_by_pow_mod(X, 7)
    assert pattern == [(1, 1)]
    assert squarefree


def test_pattern_rejects_non_prime_and_zero():
    with pytest.raises(ValueError):
        degree_pattern_by_pow_mod(X2_PLUS_1, 6)
    with pytest.raises(ValueError):
        degree_pattern_by_pow_mod((), 5)
    with pytest.raises(ValueError):
        degree_pattern_by_pow_mod((1, 0, 5), 5)  # leading coefficient dies mod 5


def test_pattern_with_multiplicity():
    # (x - 1)^2 (x^2 + 1) mod 3: one linear squared plus an irreducible quadratic
    f = poly_mul(poly_mul((-1, 1), (-1, 1)), X2_PLUS_1)
    pattern, squarefree = degree_pattern_by_pow_mod(f, 3)
    assert pattern == [(1, 2), (2, 1)]
    assert not squarefree


def test_pattern_char_collapse():
    # x^3 - 1 = (x - 1)^3 mod 3 exercises the l-th-root branch
    pattern, squarefree = degree_pattern_by_pow_mod((-1, 0, 0, 1), 3)
    assert pattern == [(1, 3)]
    assert not squarefree


def test_pattern_agrees_with_trial_division():
    rng = random.Random(20240)
    for l in (2, 3, 5, 7, 11, 13):
        for _ in range(40):
            d = rng.randint(1, 4)
            f = tuple(rng.randrange(l) for _ in range(d)) + (1,)
            expected = trial_division_pattern(f, l)
            got = degree_pattern_by_pow_mod(f, l)
            assert (sorted(got[0]), got[1]) == expected, (f, l)
            assert sum(deg * cnt for deg, cnt in got[0]) == poly_degree(gf_reduce(f, l))


def test_irreducibility_helper():
    assert gf_ben_or(reduce_checked(X2_PLUS_1, 3), 3)
    assert not gf_ben_or(reduce_checked(X2_PLUS_1, 5), 5)


# --- distinct roots mod l: `oracles.roots_by_pow_mod` ------------------------


def test_count_roots_examples():
    assert roots_by_pow_mod(X2_MINUS_1, 5) == 2
    assert roots_by_pow_mod(X2_PLUS_1, 3) == 0
    assert roots_by_pow_mod(X3_MINUS_X, 3) == 3


def test_count_roots_matches_brute_force():
    rng = random.Random(77)
    for l in (3, 5, 7, 11):
        for _ in range(30):
            d = rng.randint(1, 5)
            f = tuple(rng.randrange(l) for _ in range(d)) + (1,)
            assert roots_by_pow_mod(f, l) == len(brute_roots(f, l)), (f, l)


def test_count_roots_counts_repeated_roots_once():
    f = poly_mul((-1, 1), (-1, 1))  # (x-1)^2
    assert roots_by_pow_mod(f, 5) == 1


# --- sturm: total reality, by the chain that the forge's midpoint rule is held against ---


def test_sturm_examples():
    assert totally_real_by_sturm(X2_MINUS_2)
    assert not totally_real_by_sturm(X2_PLUS_1)
    assert totally_real_by_sturm(X3_MINUS_3X)
    assert not totally_real_by_sturm(poly_mul(X3_MINUS_3X, X2_PLUS_1))


def test_sturm_rejects_non_squarefree():
    # (x - 1)^2 has one distinct root of two
    assert not totally_real_by_sturm(poly_mul((-1, 1), (-1, 1)))


def test_sturm_agrees_with_grid_scan_on_integer_roots():
    rng = random.Random(4242)
    for _ in range(25):
        k = rng.randint(1, 5)
        roots = rng.sample(range(-6, 7), k)
        f = (1,)
        for r in roots:
            f = poly_mul(f, (-r, 1))
        extra = rng.randint(0, 1)
        if extra:  # tack on an irreducible quadratic with no real roots
            f = poly_mul(f, (1, 0, 1))
        expected = len(roots)
        assert totally_real_by_sturm(f) == (expected == poly_degree(f))
        assert grid_sign_root_count(f, radius=8) == expected


def test_sturm_large_coefficients():
    # product of widely spread roots, the forge's shape
    f = (1,)
    for i in range(1, 5):
        f = poly_mul(f, (-385 * i, 1))
    assert totally_real_by_sturm(f)
    assert not totally_real_by_sturm(poly_mul(f, X2_PLUS_1))


# --- crt_poly ----------------------------------------------------------------


def test_crt_linear_example():
    assert crt_poly([(2, X), (3, (1, 1))], 1) == (4, 1)


def test_crt_single_modulus_identity():
    assert crt_poly([(5, X2_PLUS_1)], 2) == (1, 0, 1)


def test_crt_two_moduli_quadratic():
    out = crt_poly([(2, (0, 1, 1)), (5, (2, 0, 1))], 2)
    assert out == (2, 5, 1)
    assert gf_reduce(out, 2) == gf_reduce((0, 1, 1), 2)
    assert gf_reduce(out, 5) == gf_reduce((2, 0, 1), 5)


def test_crt_idempotent_and_reduces_exactly():
    rng = random.Random(9)
    for _ in range(20):
        moduli = rng.sample([2, 3, 5, 7, 11, 13], 3)
        g = rng.randint(1, 4)
        constraints = []
        for m in moduli:
            residue = tuple(rng.randrange(m) for _ in range(g)) + (1,)
            constraints.append((m, residue))
        out = crt_poly(constraints, g)
        assert poly_degree(out) == g and out[-1] == 1
        for m, residue in constraints:
            assert gf_reduce(out, m) == gf_reduce(residue, m)
        again = crt_poly([(m, out) for m, _ in constraints], g)
        assert again == out


def test_crt_rejects_non_coprime_moduli():
    with pytest.raises(ValueError):
        crt_poly([(4, X), (6, X)], 1)


def test_crt_rejects_monic_inconsistency():
    with pytest.raises(ValueError):
        crt_poly([(3, (1, 2))], 1)  # leading coefficient 2 != 1 mod 3
    with pytest.raises(ValueError):
        crt_poly([(3, (1,))], 1)  # degree too small to be monic of degree 1
    with pytest.raises(ValueError):
        crt_poly([(3, (1, 0, 1))], 1)  # degree too large


def test_poly_trim_and_eval():
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_eval((1, 2, 3), 2) == 1 + 4 + 12
