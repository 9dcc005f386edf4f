"""Slope vector tests: Shimura-Taniyama values, fixers, potential membership, rank."""

import random

import pytest
from oracles import (
    block_subgroup,
    cm_product_model,
    column_classes,
    columns_of,
    elements_of,
    fixer_by_definition,
    index2_overgroups,
    potential_by_valuation_grouping,
    random_admissible_slopes,
    signature_block,
    verify_subgroup,
)

from weiltate.classifier import honda_tate_endomorphism
from weiltate.forge import scenario_main, scenario_ramified, scenario_split
from weiltate.galois import CMGaloisModel
from weiltate.slopes import (
    SlopeVector,
    conjugate_slope_basis,
    slopes_from_cm_type,
    validate_slopes,
)


def rank_mod_prime(matrix, p):
    """Independent rank route: Gaussian elimination over GF(p)."""
    rows = [[v % p for v in row] for row in matrix]
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
    listed = elements_of(model.group)
    return [[s.nums[g[x]] for g in listed] for x in range(n)]


def test_main_scenario_slope_multiset():
    scn = scenario_main(4, 5)
    assert (scn.slopes.den, sorted(scn.slopes.nums)) == (4, [1] * 4 + [3] * 4)


def test_full_block_cm_type_gives_ordinary_slopes():
    scn = scenario_main(4, 5)
    block0 = scn.model.D_blocks[0]
    phi = frozenset(block0)
    s = slopes_from_cm_type(scn.model, phi)
    assert (s.den, set(s.nums)) == (1, {0, 1})


def test_tau_stable_blocks_give_half_slopes():
    model = cm_product_model(2)
    model = CMGaloisModel(model.group, elements_of(model.group))
    phi = frozenset({0, 1})
    s = slopes_from_cm_type(model, phi)
    assert (s.den, set(s.nums)) == (2, {1})


def test_slopes_require_decomposition_group():
    model = cm_product_model(2)
    with pytest.raises(ValueError):
        slopes_from_cm_type(model, frozenset({0, 1}))


def test_validate_slopes_rejects_broken_pairing():
    model = cm_product_model(2)
    with pytest.raises(ValueError) as err:
        validate_slopes(model, SlopeVector(4, (2, 2, 2, 1)))
    assert str(err.value) == "s_2 + s_tau(2) != 1"
    # the text of an out-of-range slope is that of the rational, reduced on its own
    for nums, message in (((6, 1, -2, 3), "slope s_1 = 3/2 outside [0, 1]"),
                          ((8, 1, -4, 3), "slope s_1 = 2 outside [0, 1]"),
                          ((1, -2, 3, 6), "slope s_2 = -1/2 outside [0, 1]")):
        with pytest.raises(ValueError) as err:
            validate_slopes(model, SlopeVector(4, nums))
        assert str(err.value) == message
    # D = <(1 2)(3 4)> has the blocks {1, 2} and {3, 4}
    model = CMGaloisModel(model.group, [(1, 0, 3, 2)])
    with pytest.raises(ValueError) as err:
        validate_slopes(model, SlopeVector(4, (1, 3, 3, 1)))
    assert str(err.value) == "slopes not constant on D-block (1, 2)"
    with pytest.raises(ValueError) as err:
        validate_slopes(model, SlopeVector(3, (1, 1, 2, 2)))
    assert str(err.value) == "block (1, 2): |B| * s is not an integer"


def minimal_field_index(model, s) -> int:
    """[G : Fix] as the program counts it: the number of column classes."""
    return max(column_classes(model, s)) + 1


def listed_fix(model, s):
    """Fix as an element set, listed from its point block."""
    return block_subgroup(model.group, signature_block(model, s))


def test_fix_of_slope_main_scenario():
    scn = scenario_main(4, 5)
    fix = listed_fix(scn.model, scn.slopes)
    assert fix == fixer_by_definition(scn.model, scn.slopes)
    assert len(fix) == 6
    assert scn.model.group.order // len(fix) == 8
    assert block_subgroup(scn.model.group, {0}) <= fix


def test_fix_of_slope_constant_half():
    model = cm_product_model(3)
    s = SlopeVector(2, (1,) * 6)
    assert signature_block(model, s) == frozenset(range(6))
    assert listed_fix(model, s) == frozenset(elements_of(model.group))
    assert minimal_field_index(model, s) == 1


def test_fix_of_slope_ramified_index():
    scn = scenario_ramified(3, 5)
    end = honda_tate_endomorphism(scn.model, scn.slopes, columns_of(scn.model, scn.slopes))
    assert end.frobenius_field_degree == 6
    assert scn.model.group.order // len(listed_fix(scn.model, scn.slopes)) == 6


def test_potential_membership_real_subfield_fails():
    scn = scenario_main(4, 5)
    # fixer of the totally real subfield: sigma(1) = 1 up to conjugation
    g = scn.model.g
    Z = block_subgroup(scn.model.group, {0, g})
    verify_subgroup(scn.model.group, Z)
    assert block_subgroup(scn.model.group, {0}) <= Z
    assert not {0, g} <= signature_block(scn.model, scn.slopes)
    assert not potential_by_valuation_grouping(scn.model, scn.slopes, Z)


def test_potential_membership_reflexive_and_constant():
    scn = scenario_main(4, 5)
    fix = listed_fix(scn.model, scn.slopes)
    assert potential_by_valuation_grouping(scn.model, scn.slopes, fix)
    model = cm_product_model(3)
    s = SlopeVector(2, (1,) * 6)
    assert signature_block(model, s) == frozenset(range(6))
    assert potential_by_valuation_grouping(model, s, elements_of(model.group))


def test_minimal_field_index_examples():
    for scn, index in ((scenario_main(4, 5), 8), (scenario_split(3, 5), 12)):
        assert minimal_field_index(scn.model, scn.slopes) == index
        end = honda_tate_endomorphism(scn.model, scn.slopes, columns_of(scn.model, scn.slopes))
        assert end.frobenius_field_degree == index


def frobenius_rank(model, s) -> int:
    """The Frobenius rank: the size of the conjugate-slope basis, minus one."""
    return len(conjugate_slope_basis(model, s)) - 1


def test_frobenius_rank_examples():
    scn = scenario_main(4, 5)
    assert frobenius_rank(scn.model, scn.slopes) == 3
    model = cm_product_model(3)
    assert frobenius_rank(model, SlopeVector(2, (1,) * 6)) == 0
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
        model = cm_product_model(g)
        listed = elements_of(model.group)
        for _ in range(5):
            s = random_admissible_slopes(model, rng)
            idx = minimal_field_index(model, s)
            rank = frobenius_rank(model, s)
            sigma = listed[rng.randrange(model.group.order)]
            relabeled = SlopeVector(s.den, tuple(s.nums[sigma[i]] for i in range(2 * g)))
            assert minimal_field_index(model, relabeled) == idx
            assert frobenius_rank(model, relabeled) == rank


def test_oracle_agreement_random_sample():
    rng = random.Random(3)
    for g in (2, 3):
        model = cm_product_model(g)
        H = block_subgroup(model.group, {0})
        overgroups = index2_overgroups(model.group, H)
        for _ in range(10):
            s = random_admissible_slopes(model, rng)
            fix = listed_fix(model, s)
            assert fix == fixer_by_definition(model, s)
            assert (2 * g) % minimal_field_index(model, s) == 0
            S = signature_block(model, s)
            for Z in overgroups + [H, frozenset(elements_of(model.group)), fix]:
                expected = potential_by_valuation_grouping(model, s, Z)
                assert ({z[0] for z in Z} <= S) == expected


def test_signature_classes_match_signatures_over_the_group():
    rng = random.Random(17)
    for g in (2, 3, 4):
        model = cm_product_model(g)
        listed = elements_of(model.group)
        for _ in range(8):
            s = random_admissible_slopes(model, rng)
            label = column_classes(model, s)
            sig = [tuple(s.nums[e[x]] for e in listed) for x in range(2 * g)]
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
    model = cm_product_model(3)
    assert signature_block(model, SlopeVector(2, (1,) * 6)) == set(range(6))


def test_fix_is_verified_subgroup():
    for scn in (scenario_main(4, 5), scenario_ramified(3, 5)):
        fix = listed_fix(scn.model, scn.slopes)
        verify_subgroup(scn.model.group, fix)


def test_slope_serialization():
    scn = scenario_main(4, 5)
    assert scn.slopes.serialize() == "1/4 3/4 1/4 3/4 3/4 1/4 3/4 1/4"
