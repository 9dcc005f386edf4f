"""Slope vector tests: Shimura-Taniyama values, fixers, potential membership, rank."""

import random
from fractions import Fraction

import pytest

from weiltate.cmtypes import CMType
from weiltate.forge import scenario_main, scenario_ramified, scenario_split
from weiltate.galois import cm_product_group, identity
from weiltate.slopes import (
    SlopeVector,
    fix_of_slope,
    fixer_by_definition,
    frobenius_rank,
    is_p_potentially_in,
    minimal_field_index,
    potential_by_valuation_grouping,
    signature_block,
    signature_classes,
    slopes_from_cm_type,
    validate_slopes,
)


def rank_mod_prime(matrix, p):
    """Independent rank route: Gaussian elimination over GF(p)."""
    rows = []
    for row in matrix:
        out = []
        for v in row:
            f = Fraction(v)
            out.append(f.numerator * pow(f.denominator, -1, p) % p)
        rows.append(out)
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def slope_matrix(model, s):
    n = model.group.degree
    return [[s[g[x]] for g in model.group.elements] for x in range(n)]


def random_pair_slopes(model, rng):
    g = model.g
    values = [None] * (2 * g)
    for i in range(g):
        den = rng.choice([1, 2, 3, 4, 6])
        v = Fraction(rng.randint(0, den), den)
        values[i] = v
        values[model.tau[i]] = 1 - v
    return SlopeVector(tuple(values))


def test_main_scenario_slope_multiset():
    scn = scenario_main(4, 5)
    assert sorted(scn.slopes.values) == [Fraction(1, 4)] * 4 + [Fraction(3, 4)] * 4


def test_full_block_cm_type_gives_ordinary_slopes():
    scn = scenario_main(4, 5)
    from weiltate.galois import blocks_of_subgroup

    block0 = blocks_of_subgroup(scn.model, scn.model.D).blocks[0]
    phi = CMType(phi=frozenset(block0))
    s = slopes_from_cm_type(scn.model, phi)
    assert set(s.values) == {Fraction(0), Fraction(1)}


def test_tau_stable_blocks_give_half_slopes():
    model = cm_product_group(2)
    model = model.with_decomposition(frozenset(model.group.elements))
    phi = CMType(phi=frozenset({0, 1}))
    s = slopes_from_cm_type(model, phi)
    assert set(s.values) == {Fraction(1, 2)}


def test_slopes_require_decomposition_group():
    model = cm_product_group(2)
    with pytest.raises(ValueError):
        slopes_from_cm_type(model, CMType(phi=frozenset({0, 1})))


def test_validate_slopes_rejects_broken_pairing():
    model = cm_product_group(2)
    with pytest.raises(ValueError):
        validate_slopes(model, SlopeVector((Fraction(1, 2),) * 3 + (Fraction(1, 4),)))
    with pytest.raises(ValueError):
        validate_slopes(model, SlopeVector((Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2))))


def test_fix_of_slope_main_scenario():
    scn = scenario_main(4, 5)
    fix = fix_of_slope(scn.model, scn.slopes)
    assert len(fix) == 6
    assert scn.model.group.order // len(fix) == 8
    assert scn.model.H <= fix


def test_fix_of_slope_constant_half():
    model = cm_product_group(3)
    s = SlopeVector((Fraction(1, 2),) * 6)
    assert fix_of_slope(model, s) == frozenset(model.group.elements)
    assert minimal_field_index(model, s) == 1


def test_fix_of_slope_ramified_index():
    scn = scenario_ramified(3, 5)
    assert minimal_field_index(scn.model, scn.slopes) == 6


def test_potential_membership_real_subfield_fails():
    scn = scenario_main(4, 5)
    # fixer of the totally real subfield: sigma(1) = 1 up to conjugation
    g = scn.g
    Z = frozenset(e for e in scn.model.group.elements if e[0] in (0, g))
    from weiltate.galois import verify_subgroup

    verify_subgroup(scn.model.group, Z)
    assert scn.model.H <= Z
    assert not is_p_potentially_in(scn.model, scn.slopes, Z)
    assert not potential_by_valuation_grouping(scn.model, scn.slopes, Z)


def test_potential_membership_reflexive_and_constant():
    scn = scenario_main(4, 5)
    fix = fix_of_slope(scn.model, scn.slopes)
    assert is_p_potentially_in(scn.model, scn.slopes, fix)
    model = cm_product_group(3)
    s = SlopeVector((Fraction(1, 2),) * 6)
    assert is_p_potentially_in(model, s, frozenset(model.group.elements))


def test_potential_membership_rejects_non_overgroup():
    scn = scenario_main(4, 5)
    with pytest.raises(ValueError):
        is_p_potentially_in(scn.model, scn.slopes, frozenset({identity(8)}))


def test_minimal_field_index_examples():
    assert minimal_field_index(scenario_main(4, 5).model, scenario_main(4, 5).slopes) == 8
    scn = scenario_split(3, 5)
    assert minimal_field_index(scn.model, scn.slopes) == 12


def test_frobenius_rank_examples():
    scn = scenario_main(4, 5)
    assert frobenius_rank(scn.model, scn.slopes) == 3
    model = cm_product_group(3)
    assert frobenius_rank(model, SlopeVector((Fraction(1, 2),) * 6)) == 0
    split = scenario_split(3, 5)
    assert frobenius_rank(split.model, split.slopes) == 4


def test_frobenius_rank_cross_checked_mod_primes():
    for scn in (scenario_main(4, 5), scenario_ramified(3, 5), scenario_split(3, 5)):
        matrix = slope_matrix(scn.model, scn.slopes)
        expected = frobenius_rank(scn.model, scn.slopes) + 1
        assert rank_mod_prime(matrix, 10**9 + 7) == expected
        assert rank_mod_prime(matrix, 998244353) == expected


def test_fix_and_rank_invariant_under_relabeling():
    rng = random.Random(11)
    for g in (2, 3):
        model = cm_product_group(g)
        for _ in range(5):
            s = random_pair_slopes(model, rng)
            idx = minimal_field_index(model, s)
            rank = frobenius_rank(model, s)
            sigma = model.group.elements[rng.randrange(model.group.order)]
            relabeled = SlopeVector(tuple(s[sigma[i]] for i in range(2 * g)))
            assert minimal_field_index(model, relabeled) == idx
            assert frobenius_rank(model, relabeled) == rank


def test_oracle_agreement_random_sample():
    rng = random.Random(3)
    for g in (2, 3):
        model = cm_product_group(g)
        from weiltate.galois import index2_overgroups

        overgroups = index2_overgroups(model.group, model.H)
        for _ in range(10):
            s = random_pair_slopes(model, rng)
            fix = fix_of_slope(model, s)
            assert fix == fixer_by_definition(model, s)
            assert (2 * g) % minimal_field_index(model, s) == 0
            for Z in overgroups + [model.H, frozenset(model.group.elements), fix]:
                assert is_p_potentially_in(model, s, Z) == potential_by_valuation_grouping(
                    model, s, Z
                )


def test_signature_classes_match_signatures_over_the_group():
    rng = random.Random(17)
    for g in (2, 3, 4):
        model = cm_product_group(g)
        for _ in range(8):
            s = random_pair_slopes(model, rng)
            label = signature_classes(model, s)
            sig = [tuple(s[e[x]] for e in model.group.elements) for x in range(2 * g)]
            for x in range(2 * g):
                for y in range(2 * g):
                    assert (label[x] == label[y]) == (sig[x] == sig[y])
            assert label[0] == 0
            assert signature_block(model, s) == {x for x in range(2 * g) if sig[x] == sig[0]}


def test_signature_block_of_presets():
    scn = scenario_main(4, 5)
    assert signature_block(scn.model, scn.slopes) == {0}
    scn = scenario_ramified(3, 5)
    assert len(signature_block(scn.model, scn.slopes)) == 2
    model = cm_product_group(3)
    assert signature_block(model, SlopeVector((Fraction(1, 2),) * 6)) == set(range(6))


def test_fix_is_verified_subgroup():
    from weiltate.galois import verify_subgroup

    for scn in (scenario_main(4, 5), scenario_ramified(3, 5)):
        fix = fix_of_slope(scn.model, scn.slopes)
        verify_subgroup(scn.model.group, fix)


def test_slope_serialization():
    scn = scenario_main(4, 5)
    assert scn.slopes.serialize() == "1/4 3/4 1/4 3/4 3/4 1/4 3/4 1/4"
