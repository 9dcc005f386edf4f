"""Permutation model tests: closure, CM structure, orbits, overgroups, blocks."""

import math
import random

import pytest

from weiltate.galois import (
    CMGaloisModel,
    CapExceededError,
    blocks_of_subgroup,
    build_group,
    cm_product_group,
    compose,
    cycles_to_perm,
    format_perm,
    identity,
    index2_overgroups,
    inverse,
    orbit_of_subset,
    parse_perm,
    subgroup_closure,
    verify_subgroup,
)


def test_build_group_cyclic():
    g = build_group(4, [cycles_to_perm(4, [(1, 2, 3, 4)])])
    assert g.order == 4
    assert g.elements[0] == identity(4)


def test_build_group_symmetric():
    g = build_group(4, [cycles_to_perm(4, [(1, 2)]), cycles_to_perm(4, [(1, 2, 3, 4)])])
    assert g.order == 24


def test_build_group_trivial():
    assert build_group(3, []).order == 1


def test_build_group_deterministic_bfs_order():
    gens = [cycles_to_perm(3, [(1, 2)]), cycles_to_perm(3, [(1, 2, 3)])]
    a = build_group(3, gens)
    b = build_group(3, gens)
    assert a.elements == b.elements


def test_build_group_cap():
    gens = [cycles_to_perm(8, [(1, 2)]), cycles_to_perm(8, [tuple(range(1, 9))])]
    with pytest.raises(CapExceededError):
        build_group(8, gens, cap=1000)


def test_build_group_rejects_non_bijection():
    with pytest.raises(ValueError):
        build_group(3, [(0, 0, 1)])


def test_cycle_notation_round_trip():
    p = cycles_to_perm(8, [(1, 2, 3, 4), (5, 6)])
    assert format_perm(p) == "(1 2 3 4)(5 6)"
    assert parse_perm("(1 2 3 4)(5 6)", 8) == p
    assert parse_perm("()", 4) == identity(4)
    assert format_perm(identity(4)) == "()"
    with pytest.raises(ValueError):
        parse_perm("(1 2)(2 3)", 4)


def test_cm_product_group_orders():
    assert cm_product_group(2).group.order == 4
    assert cm_product_group(3).group.order == 12
    assert cm_product_group(4).group.order == 48


def test_cm_product_group_action_matches_shifted_split():
    model = cm_product_group(3)
    # tau shifts by g
    assert model.tau == (3, 4, 5, 0, 1, 2)
    # the diagonal 3-cycle fixes each half setwise
    three_cycle = next(
        e for e in model.group.elements if e[:3] == (1, 2, 0) and e[3:] == (4, 5, 3)
    )
    assert compose(three_cycle, model.tau) == compose(model.tau, three_cycle)


def test_tau_invariants():
    for g in (2, 3, 4):
        model = cm_product_group(g)
        tau = model.tau
        assert compose(tau, tau) == identity(2 * g)
        assert all(tau[i] != i for i in range(2 * g))
        for sigma in model.group.elements:
            assert compose(sigma, tau) == compose(tau, sigma)


def test_stabilizer_size():
    for g in (2, 3, 4, 5):
        model = cm_product_group(g)
        assert len(model.H) == math.factorial(g - 1)
        assert model.group.order == 2 * math.factorial(g)


def test_orbit_of_half_set():
    model = cm_product_group(4)
    orbit = orbit_of_subset(model, frozenset({0, 1, 2, 3}))
    assert sorted(tuple(sorted(s)) for s in orbit) == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_orbit_of_pair_and_empty():
    model = cm_product_group(4)
    orbit = orbit_of_subset(model, frozenset({0, 4}))
    assert sorted(tuple(sorted(s)) for s in orbit) == [(0, 4), (1, 5), (2, 6), (3, 7)]
    assert orbit_of_subset(model, frozenset()) == [frozenset()]


def test_orbit_sizes_divide_group_order():
    rng = random.Random(5)
    for g in (2, 3, 4):
        model = cm_product_group(g)
        for _ in range(10):
            size = rng.randint(0, 2 * g)
            subset = frozenset(rng.sample(range(2 * g), size))
            assert model.group.order % len(orbit_of_subset(model, subset)) == 0


def test_index2_overgroups_of_point_stabilizer():
    model = cm_product_group(4)
    overs = index2_overgroups(model.group, model.H)
    assert len(overs) == 1
    (z,) = overs
    assert len(z) == 24
    assert model.tau not in z
    # it is the epsilon-kernel: every element preserves the two halves
    assert all(e[0] < 4 for e in z)


def test_index2_overgroups_of_trivial_subgroup():
    model = cm_product_group(4)
    overs = index2_overgroups(model.group, frozenset({identity(8)}))
    assert len(overs) == 3
    for z in overs:
        verify_subgroup(model.group, z)
        assert len(z) == 24


def test_index2_overgroups_order_two_group():
    group = build_group(2, [cycles_to_perm(2, [(1, 2)])])
    overs = index2_overgroups(group, frozenset({identity(2)}))
    assert overs == [frozenset({identity(2)})]


def test_index2_overgroup_properties():
    for g in (3, 4):
        model = cm_product_group(g)
        for z in index2_overgroups(model.group, model.H):
            verify_subgroup(model.group, z)
            assert model.H <= z
            assert 2 * len(z) == model.group.order


def test_blocks_whole_group_and_trivial():
    model = cm_product_group(3)
    whole = blocks_of_subgroup(model, frozenset(model.group.elements))
    assert whole.blocks == (tuple(range(6)),)
    trivial = blocks_of_subgroup(model, frozenset({identity(6)}))
    assert trivial.blocks == tuple((i,) for i in range(6))


def test_blocks_of_frobenius_like_generator():
    model = cm_product_group(4)
    sigma0 = cycles_to_perm(4, [(1, 2, 3, 4)])
    lifted = tuple(sigma0[i] if i < 4 else sigma0[i - 4] + 4 for i in range(8))
    d = compose(model.tau, lifted)
    blocks = blocks_of_subgroup(model, subgroup_closure(model.group, [d])).blocks
    assert sorted(len(b) for b in blocks) == [4, 4]
    b0, b1 = blocks
    assert {model.tau[i] for i in b0} == set(b1)


def test_blocks_partition_and_tau_permutes():
    model = cm_product_group(3)
    sub = subgroup_closure(model.group, [model.tau])
    blocks = blocks_of_subgroup(model, sub).blocks
    covered = sorted(i for b in blocks for i in b)
    assert covered == list(range(6))
    block_sets = {frozenset(b) for b in blocks}
    for b in blocks:
        assert frozenset(model.tau[i] for i in b) in block_sets


def test_verify_subgroup_rejects_non_subgroup():
    model = cm_product_group(2)
    some = next(e for e in model.group.elements if e != identity(4) and e != model.tau)
    with pytest.raises(ValueError):
        verify_subgroup(model.group, frozenset({identity(4), some, model.tau}))
    with pytest.raises(ValueError):
        verify_subgroup(model.group, frozenset({model.tau}))


def test_model_rejects_wrong_tau():
    group = build_group(4, [cycles_to_perm(4, [(1, 2)]), cycles_to_perm(4, [(1, 2, 3, 4)])])
    with pytest.raises(ValueError):
        CMGaloisModel(g=2, group=group, tau=cycles_to_perm(4, [(1, 2)]))


def test_model_rejects_non_central_tau():
    # S_4 holds (1 3)(2 4), which acts as i -> i + 2 but is not central
    group = build_group(4, [cycles_to_perm(4, [(1, 2)]), cycles_to_perm(4, [(1, 2, 3, 4)])])
    with pytest.raises(ValueError, match="tau is not central: fails against generator"):
        CMGaloisModel(g=2, group=group, tau=cycles_to_perm(4, [(1, 3), (2, 4)]))


def test_with_decomposition_verifies_only_d():
    model = cm_product_group(3)
    sub = model.with_decomposition(subgroup_closure(model.group, [model.tau]))
    assert sub.D == frozenset({identity(6), model.tau})
    assert (sub.g, sub.group, sub.tau, sub.H) == (model.g, model.group, model.tau, model.H)
    assert model.D is None
    with pytest.raises(ValueError):
        model.with_decomposition(frozenset({identity(6), model.group.generators[1]}))


def test_model_rejects_intransitive_group():
    group = build_group(4, [cycles_to_perm(4, [(1, 3), (2, 4)])])
    # group is {id, tau}: transitivity fails for degree 4
    with pytest.raises(ValueError):
        CMGaloisModel(g=2, group=group, tau=cycles_to_perm(4, [(1, 3), (2, 4)]))


def test_inverse_and_compose():
    p = cycles_to_perm(5, [(1, 2, 3)])
    assert compose(p, inverse(p)) == identity(5)
