"""Permutation model tests: closure, CM structure, orbits, overgroups, blocks."""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    block_subgroup,
    cm_product_model,
    elements_of,
    index2_overgroups,
    orbit_of_subset,
    orbits_by_walk,
    subgroup_closure,
    verify_subgroup,
)

from weiltate import forge, galois
from weiltate.galois import (
    CMGaloisModel,
    CapExceededError,
    PermGroup,
    StabChain,
    _inverse,
    adjacent_transpositions,
    build_group,
    compose,
    conjugation,
    cycles_to_perm,
    diagonal_lift,
    format_perm,
    identity,
    index2_point_sets,
    parse_perm,
    point_orbits,
    signed_symmetric_group,
    subgroup_generators,
    sym_generators,
)


def test_build_group_cyclic():
    g = build_group(4, [cycles_to_perm(4, [(1, 2, 3, 4)])])
    assert g.order == 4
    assert elements_of(g)[0] == identity(4)


def test_build_group_symmetric():
    g = build_group(4, [cycles_to_perm(4, [(1, 2)]), cycles_to_perm(4, [(1, 2, 3, 4)])])
    assert g.order == 24


def test_build_group_trivial():
    assert build_group(3, []).order == 1


def test_build_group_deterministic_bfs_order():
    gens = [cycles_to_perm(3, [(1, 2)]), cycles_to_perm(3, [(1, 2, 3)])]
    a = build_group(3, gens)
    b = build_group(3, gens)
    assert elements_of(a) == elements_of(b)


def test_build_group_builds_a_large_group_without_listing_it():
    assert not hasattr(PermGroup, "elements")  # the listing is the tests' `elements_of`
    s8 = build_group(8, [cycles_to_perm(8, [(1, 2)]), cycles_to_perm(8, [tuple(range(1, 9))])])
    assert s8.order == math.factorial(8)


def test_cm_product_group_builds_g10_without_listing_it():
    assert not hasattr(PermGroup, "elements")  # the listing is the tests' `elements_of`
    model = cm_product_model(10)  # |G| = 2 * 10!, never listed
    assert model.group.order == 7257600
    assert model.tau in model.group
    assert cycles_to_perm(20, [(1, 2)]) not in model.group


def test_a_preset_over_the_cap_is_refused_at_its_first_level(monkeypatch):
    """A preset's point count, 2g or 4g', is held against the subset cap before any
    permutation is made."""
    made = []
    monkeypatch.setattr(galois, "_inverse", lambda p: made.append(p) or _inverse(p))
    # the strong generators of `signed_symmetric_group` start from the transpositions
    monkeypatch.setattr(galois, "adjacent_transpositions",
                        lambda g: made.append(g) or adjacent_transpositions(g))
    for build, points, cap in ((lambda: forge.scenario_main(4000, 5), 8000, 16),
                               (lambda: forge.scenario_ramified(1001, 5), 4004, 16),
                               (lambda: forge.scenario_split(1001, 5), 4004, 16),
                               (lambda: forge.scenario_main(10, 5, subset_cap=19), 20, 19)):
        with pytest.raises(CapExceededError, match=f"^2g = {points} exceeds the subset cap {cap}$"):
            build()
    assert made == []
    # 2g = 20 is the boundary
    assert forge.scenario_main(10, 5, subset_cap=20).model.group.order == 7257600
    assert made  # the counters do see a chain being built


def test_a_chain_with_a_long_base_is_built_without_recursion():
    # (1199 1200) on 1200 points joins the generators of the 1199 levels down to the one it moves
    swap = tuple(range(1198)) + (1199, 1198)
    group = build_group(1200, [swap])
    assert group.order == 2 and swap in group


def test_elements_are_listed_once_and_take_no_part_in_equality():
    gens = [cycles_to_perm(4, [(1, 2)]), cycles_to_perm(4, [(1, 2, 3, 4)])]
    a, b = build_group(4, gens), build_group(4, gens)
    assert a == b and hash(a) == hash(b)
    listed = elements_of(a)
    assert len(listed) == len(set(listed)) == 24  # each element once
    assert a == b  # the chains take no part
    assert build_group(4, gens[::-1]) != a


def test_subgroup_generators_pick_the_least_element_outside_the_closure():
    s4 = build_group(4, sym_generators(4))
    # (3 4) is the least element after the identity, (2 3) the least outside <(3 4)>,
    # and (1 2) the least outside the S_3 they generate
    assert subgroup_generators(s4.chain.reps) == [(0, 1, 3, 2), (0, 2, 1, 3), (1, 0, 2, 3)]
    assert subgroup_generators(StabChain(4).reps) == []
    c4 = StabChain(4, [cycles_to_perm(4, [(1, 2, 3, 4)])])
    assert subgroup_generators(c4.reps) == [(1, 2, 3, 0)]


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
    assert cm_product_model(2).group.order == 4
    assert cm_product_model(3).group.order == 12
    assert cm_product_model(4).group.order == 48


def test_cm_product_group_action_matches_shifted_split():
    model = cm_product_model(3)
    # tau shifts by g
    assert model.tau == (3, 4, 5, 0, 1, 2)
    # the diagonal 3-cycle fixes each half setwise
    three_cycle = next(
        e for e in elements_of(model.group) if e[:3] == (1, 2, 0) and e[3:] == (4, 5, 3)
    )
    assert compose(three_cycle, model.tau) == compose(model.tau, three_cycle)


@pytest.mark.parametrize("gp", [3, 5, 7])
def test_each_preset_builds_the_tau_that_its_model_reads_off_the_group(gp):
    """tau leads mu2 x S_g' and is e1 e2 on the ramified and split presets."""
    model = cm_product_model(gp)
    assert model.group.generators[0] == model.tau
    for family in ("ramified", "split"):
        model = forge.PRESETS[family](gp, 5, subset_cap=4 * gp).model
        e1, e2 = model.group.generators[:2]
        assert compose(e1, e2) == model.tau


def test_tau_invariants():
    for g in (2, 3, 4):
        model = cm_product_model(g)
        tau = model.tau
        assert compose(tau, tau) == identity(2 * g)
        assert all(tau[i] != i for i in range(2 * g))
        for sigma in elements_of(model.group):
            assert compose(sigma, tau) == compose(tau, sigma)


def test_stabilizer_size():
    for g in (2, 3, 4, 5):
        model = cm_product_model(g)
        assert len(block_subgroup(model.group, {0})) == math.factorial(g - 1)
        assert model.group.order == 2 * math.factorial(g)


def test_orbit_of_half_set():
    model = cm_product_model(4)
    orbit = orbit_of_subset(model, frozenset({0, 1, 2, 3}))
    assert sorted(tuple(sorted(s)) for s in orbit) == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_orbit_of_pair_and_empty():
    model = cm_product_model(4)
    orbit = orbit_of_subset(model, frozenset({0, 4}))
    assert sorted(tuple(sorted(s)) for s in orbit) == [(0, 4), (1, 5), (2, 6), (3, 7)]
    assert orbit_of_subset(model, frozenset()) == [frozenset()]


def test_orbit_sizes_divide_group_order():
    rng = random.Random(5)
    for g in (2, 3, 4):
        model = cm_product_model(g)
        for _ in range(10):
            size = rng.randint(0, 2 * g)
            subset = frozenset(rng.sample(range(2 * g), size))
            assert model.group.order % len(orbit_of_subset(model, subset)) == 0


def test_index2_overgroups_of_point_stabilizer():
    model = cm_product_model(4)
    overs = index2_overgroups(model.group, block_subgroup(model.group, {0}))
    assert len(overs) == 1
    (z,) = overs
    assert len(z) == 24
    assert model.tau not in z
    # it is the epsilon-kernel: every element preserves the two halves
    assert all(e[0] < 4 for e in z)


def test_index2_overgroups_of_trivial_subgroup():
    model = cm_product_model(4)
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
        model = cm_product_model(g)
        H = block_subgroup(model.group, {0})
        for z in index2_overgroups(model.group, H):
            verify_subgroup(model.group, z)
            assert H <= z
            assert 2 * len(z) == model.group.order


def test_blocks_whole_group_and_trivial():
    model = cm_product_model(3)
    whole = CMGaloisModel(model.group, elements_of(model.group))
    assert whole.D_blocks == (tuple(range(6)),)
    trivial = CMGaloisModel(model.group, frozenset({identity(6)}))
    assert trivial.D_blocks == tuple((i,) for i in range(6))


def test_blocks_of_frobenius_like_generator():
    model = cm_product_model(4)
    sigma0 = cycles_to_perm(4, [(1, 2, 3, 4)])
    lifted = tuple(sigma0[i] if i < 4 else sigma0[i - 4] + 4 for i in range(8))
    d = compose(model.tau, lifted)
    blocks = CMGaloisModel(model.group, subgroup_closure(model.group, [d])).D_blocks
    assert sorted(len(b) for b in blocks) == [4, 4]
    b0, b1 = blocks
    assert {model.tau[i] for i in b0} == set(b1)


def test_blocks_partition_and_tau_permutes():
    model = cm_product_model(3)
    sub = subgroup_closure(model.group, [model.tau])
    blocks = CMGaloisModel(model.group, sub).D_blocks
    covered = sorted(i for b in blocks for i in b)
    assert covered == list(range(6))
    block_sets = {frozenset(b) for b in blocks}
    for b in blocks:
        assert frozenset(model.tau[i] for i in b) in block_sets


def test_verify_subgroup_rejects_non_subgroup():
    model = cm_product_model(2)
    some = next(e for e in elements_of(model.group) if e != identity(4) and e != model.tau)
    with pytest.raises(ValueError):
        verify_subgroup(model.group, frozenset({identity(4), some, model.tau}))
    with pytest.raises(ValueError):
        verify_subgroup(model.group, frozenset({model.tau}))


def test_model_rejects_wrong_tau():
    # <(1 2 4 3)> is transitive, but its involution is (1 4)(2 3), not the shift (1 3)(2 4)
    with pytest.raises(ValueError, match="^tau is not a group element$"):
        CMGaloisModel(build_group(4, [cycles_to_perm(4, [(1, 2, 4, 3)])]))
    with pytest.raises(ValueError, match="^group degree 3 is odd, not 2g$"):
        CMGaloisModel(build_group(3, [cycles_to_perm(3, [(1, 2, 3)])]))


def test_model_rejects_non_central_tau():
    # S_4 holds (1 3)(2 4), which acts as i -> i + 2 but is not central
    group = build_group(4, [cycles_to_perm(4, [(1, 2)]), cycles_to_perm(4, [(1, 2, 3, 4)])])
    with pytest.raises(ValueError, match="tau is not central: fails against generator"):
        CMGaloisModel(group)


def test_with_decomposition_verifies_only_d():
    """A model given a decomposition group D keeps it as given and checks only that D lies
    in the group: g, the group and tau are those of the model without D."""
    model = cm_product_model(3)
    sub = CMGaloisModel(model.group, subgroup_closure(model.group, [model.tau]))
    assert type(sub.D_generators) is tuple  # D given by all of its elements, kept as a tuple
    assert subgroup_closure(model.group, sub.D_generators) == frozenset({identity(6), model.tau})
    assert (sub.g, sub.group, sub.tau) == (model.g, model.group, model.tau)
    assert sub == model  # neither D field takes part in model equality
    assert model.D_generators is None and model.D_blocks is None
    with pytest.raises(ValueError, match="is not in the group"):
        CMGaloisModel(model.group, [cycles_to_perm(6, [(1, 2)])])


@pytest.mark.parametrize("name", ["H", "D"])
def test_model_takes_neither_h_nor_d(name):
    model = cm_product_model(2)
    with pytest.raises(TypeError):
        CMGaloisModel(model.group, **{name: (model.tau,)})


def test_model_checks_the_decomposition_fields_it_is_given():
    model = cm_product_model(3)
    assert model.D_generators is None and model.D_blocks is None
    with_d = CMGaloisModel(model.group, [model.tau])
    given = CMGaloisModel(model.group, with_d.D_generators)
    assert given == with_d and given.D_blocks == ((0, 3), (1, 4), (2, 5))
    assert vars(given) == vars(with_d)
    with pytest.raises(ValueError, match="is not in the group"):
        CMGaloisModel(model.group, (cycles_to_perm(6, [(1, 2)]),))
    # the D-orbits are derived from the generators, never given
    with pytest.raises(TypeError):
        CMGaloisModel(model.group, with_d.D_generators, with_d.D_blocks)
    with pytest.raises(TypeError):
        CMGaloisModel(model.group, D_blocks=with_d.D_blocks)


def test_each_preset_builds_its_model_once_and_checks_its_d_once(monkeypatch):
    calls = Counter()
    post_init, in_group = CMGaloisModel.__post_init__, galois._in_group

    def counted_post_init(model):
        calls["__post_init__"] += 1
        post_init(model)

    def counted_in_group(group, generators):
        calls["_in_group"] += 1
        return in_group(group, generators)

    monkeypatch.setattr(CMGaloisModel, "__post_init__", counted_post_init)
    monkeypatch.setattr(galois, "_in_group", counted_in_group)
    for family, size in (("main", 4), ("main", 6), ("ramified", 3), ("split", 5)):
        calls.clear()
        model = forge.PRESETS[family](size, 5, subset_cap=4 * size).model
        assert calls == {"__post_init__": 1, "_in_group": 1}, (family, size)
        assert model.D_blocks is not None


# the sign flips of the biquadratic presets: e1 and e2 on the four copies of the g' points
BIQUADRATIC_FLIPS = [(1, 0, 3, 2), (3, 2, 1, 0)]


@pytest.mark.parametrize("g, flips", [
    (2, [(1, 0)]), (5, [(1, 0)]), (3, BIQUADRATIC_FLIPS), (4, BIQUADRATIC_FLIPS),
])
def test_signed_symmetric_group_generators_are_its_flips_then_the_lifted_sym_generators(
    g, flips
):
    group = signed_symmetric_group(g, flips)
    copies = len(flips[0])
    assert group.degree == copies * g
    signs, lifts = group.generators[:len(flips)], group.generators[len(flips):]
    assert lifts == tuple(diagonal_lift(s, copies) for s in sym_generators(g))
    for flip, sign in zip(flips, signs):  # copy k of the points onto copy flip[k]
        assert all(sign[k * g + x] == flip[k] * g + x for k in range(copies) for x in range(g))
    tau = signs[0] if copies == 2 else compose(*signs)
    assert tau == conjugation(copies * g)
    with pytest.raises(ValueError, match="g must be at least 2"):
        signed_symmetric_group(1, flips)


@pytest.mark.parametrize("gp", [3, 5])
def test_each_preset_group_is_the_signed_symmetric_group_of_its_family(gp):
    assert forge.scenario_main(gp + 1, 5).model.group == signed_symmetric_group(gp + 1, [(1, 0)])
    for family in ("ramified", "split"):
        group = forge.PRESETS[family](gp, 5, subset_cap=4 * gp).model.group
        assert group == signed_symmetric_group(gp, BIQUADRATIC_FLIPS)


def _preset_groups():
    for g in range(2, 11):  # mu2 x S_g
        yield f"main{g}", (signed_symmetric_group(g, [(1, 0)]), 2 * math.factorial(g))
    for gp in (3, 5, 7):  # (mu2 x mu2) x S_g', the group of both ramified and split
        yield f"biquadratic{gp}", (signed_symmetric_group(gp, BIQUADRATIC_FLIPS),
                                   4 * math.factorial(gp))


PRESET_GROUPS = dict(_preset_groups())


@pytest.mark.parametrize("name", list(PRESET_GROUPS))
def test_a_preset_chain_from_its_strong_generators_matches_schreier_sims(name):
    group, order = PRESET_GROUPS[name]
    n, strong = group.degree, group.chain
    oracle = StabChain(n, group.generators)
    assert strong.order == oracle.order == math.prod(len(reps) for reps in oracle.reps) == order
    assert [set(reps) for reps in strong.reps] == [set(reps) for reps in oracle.reps]
    below = strong.order
    for i in range(n):
        # the generators of level i generate the stabilizer of 0..i-1
        assert StabChain(n, strong.gens[i]).order == below, i
        below //= len(strong.reps[i])
    assert below == 1
    # every generator and every strong generator is a member of both chains
    assert all(s in oracle and s in strong for s in (*group.generators, *strong.gens[0]))
    for points in index2_point_sets(group):
        # the block's subgroup: G's transversals below level 0, the block's at level 0
        transversals = [{x: strong.reps[0][x] for x in points}, *strong.reps[1:]]
        picks = subgroup_generators(transversals)
        assert StabChain(n, picks).order == strong.order // 2
        assert all(p[0] in points for p in picks)


def test_model_rejects_intransitive_group():
    group = build_group(4, [cycles_to_perm(4, [(1, 3), (2, 4)])])
    # group is {id, tau}: transitivity fails for degree 4
    with pytest.raises(ValueError):
        CMGaloisModel(group)


def test_inverse_and_compose():
    p = cycles_to_perm(5, [(1, 2, 3)])
    assert compose(p, _inverse(p)) == identity(5)


_SYMMETRIC = {n: build_group(n, sym_generators(n) if n > 1 else []) for n in range(1, 7)}


@st.composite
def _generator_sets(draw):
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=3))
    return n, gens


@settings(max_examples=80, deadline=None)
@given(_generator_sets())
@example((4, []))
@example((6, [(3, 4, 5, 0, 1, 2), (1, 0, 2, 3, 4, 5)]))  # intransitive: {1,2,4,5} and {3,6}
def test_point_orbits_match_the_orbits_of_the_closure(case):
    n, gens = case
    D = subgroup_closure(_SYMMETRIC[n], gens)
    assert point_orbits(gens, n) == orbits_by_walk(D, n)
