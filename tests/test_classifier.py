"""Classification tests: Tate orbits, Lefschetz/exotic flags, invariants, lemmas."""

import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    fix_by_signatures_over_group,
    frobenius_rank_by_matrix,
    honda_tate_by_cosets,
    tate_by_orbit_walk,
)

from weiltate.classifier import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    SCHT_APPLICABLE,
    SCHT_LEFSCHETZ_ONLY,
    SCHT_NOT_DECIDED,
    ClassifierReport,
    LemmaInstance,
    classify_orbits,
    doc_to_end_report,
    doc_to_report,
    end_report_to_doc,
    has_qpair_matching,
    honda_tate_endomorphism,
    is_tate_subset,
    predicted_signature,
    q_pairs,
    report_to_doc,
    structure_check,
    tate_rows,
    verify_lemma_suite,
    weil_tate_submotives,
)
from weiltate.forge import scenario_main, scenario_ramified, scenario_split
from weiltate.galois import (
    CMGaloisModel,
    CapExceededError,
    build_group,
    cm_product_group,
    cycles_to_perm,
    index2_overgroups,
    index2_point_sets,
    orbit_of_subset,
    subgroup_closure,
)
from weiltate.slopes import (
    SlopeVector,
    conjugate_slope_basis,
    fix_of_slope,
    fixer_by_definition,
    frobenius_rank,
    is_p_potentially_in,
    minimal_field_index,
    slopes_from_cm_type,
)


def tate_subsets_by_oracle(model, s):
    n = model.group.degree
    return {
        frozenset(c)
        for size in range(n + 1)
        for c in combinations(range(n), size)
        if tate_by_orbit_walk(model, s, c)
    }


PRESETS = {
    "main4": lambda: scenario_main(4, 5),
    "main6": lambda: scenario_main(6, 5),
    "ramified3": lambda: scenario_ramified(3, 5),
    "split3": lambda: scenario_split(3, 5),
    "ramified5": lambda: scenario_ramified(5, 5),
    "split5": lambda: scenario_split(5, 5),
}


def ordinary_slopes(g):
    """Slopes 0 on the first half, 1 on the second: no extra relations."""
    return SlopeVector(tuple([Fraction(0)] * g + [Fraction(1)] * g))


def supersingular_degree2_model():
    tau = cycles_to_perm(2, [(1, 2)])
    group = build_group(2, [tau])
    model = CMGaloisModel(g=1, group=group, tau=tau)
    return model.with_decomposition(frozenset(group.elements))


# --- is_tate_subset ----------------------------------------------------------


def test_is_tate_main_half_set():
    scn = scenario_main(4, 5)
    assert is_tate_subset(scn.model, scn.slopes, {0, 1, 2, 3})


def test_is_tate_conjugate_pairs_always():
    for scn in (scenario_main(4, 5), scenario_ramified(3, 5)):
        for i in range(scn.model.group.degree):
            assert is_tate_subset(scn.model, scn.slopes, {i, scn.model.tau[i]})


def test_is_tate_rejects_equal_low_slopes():
    scn = scenario_main(4, 5)
    # indices 1 and 3 both have slope 1/4: the sum already misses 1
    assert scn.slopes[0] == scn.slopes[2] == Fraction(1, 4)
    assert not is_tate_subset(scn.model, scn.slopes, {0, 2})


def test_is_tate_rejects_odd_size():
    scn = scenario_main(4, 5)
    assert not is_tate_subset(scn.model, scn.slopes, {0})


def test_is_tate_orbit_escape():
    scn = scenario_main(4, 5)
    # sum is 1 at the base valuation but a conjugate breaks it
    assert scn.slopes[0] + scn.slopes[1] == 1
    assert not is_tate_subset(scn.model, scn.slopes, {0, 1})


def test_tate_complement_duality():
    rng = random.Random(8)
    scn = scenario_main(4, 5)
    points = set(range(8))
    for _ in range(40):
        subset = frozenset(rng.sample(sorted(points), rng.randint(0, 8)))
        assert is_tate_subset(scn.model, scn.slopes, subset) == is_tate_subset(
            scn.model, scn.slopes, points - subset
        )


# --- classify_orbits ----------------------------------------------------------


def test_classify_main4_full_table():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    assert rep.tate_dims == (1, 4, 8, 4, 1)
    assert rep.scht_verdict == SCHT_APPLICABLE
    assert rep.mildly_exotic is True

    by_weight = {}
    for o in rep.orbits:
        by_weight.setdefault(o.weight, []).append(o)
    assert [o.rank for o in by_weight[0]] == [1]
    assert [o.rank for o in by_weight[2]] == [4]
    assert by_weight[2][0].is_lefschetz_bearing
    assert by_weight[2][0].representative == (0, 4)
    assert sorted(o.rank for o in by_weight[4]) == [2, 6]
    assert [o.rank for o in by_weight[8]] == [1]

    (exotic,) = rep.exotic
    assert exotic.weight == 4
    assert exotic.rank == 2
    assert exotic.representative == (0, 1, 2, 3)
    assert exotic.orbit == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert exotic.hodge_type == (3, 1)
    assert exotic.hodge_balanced is False


def test_classify_main4_exotic_conjugate_to_first_half():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    (exotic,) = rep.exotic
    orbit_sets = {frozenset(m) for m in exotic.orbit}
    assert frozenset({0, 1, 2, 3}) in orbit_sets


def test_classify_ordinary_is_lefschetz_only():
    model = cm_product_group(3)
    rep = classify_orbits(model, ordinary_slopes(3))
    assert rep.scht_verdict == SCHT_LEFSCHETZ_ONLY
    assert rep.exotic == ()
    assert all(o.is_lefschetz_bearing for o in rep.orbits)


def test_classify_partial_weights_no_verdict():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes, weights=[4])
    assert rep.weights == (4,)
    assert rep.tate_dims is None
    assert rep.mildly_exotic is None
    assert rep.scht_verdict == SCHT_NOT_DECIDED
    assert {o.weight for o in rep.orbits} == {4}


def test_classify_rejects_bad_weights_and_cap():
    scn = scenario_main(4, 5)
    with pytest.raises(ValueError):
        classify_orbits(scn.model, scn.slopes, weights=[3])
    big = scenario_ramified(3, 5)
    with pytest.raises(CapExceededError):
        classify_orbits(big.model, big.slopes, subset_cap=8)


def test_classify_worker_split_is_invisible():
    scn = scenario_ramified(3, 5)
    seq = classify_orbits(scn.model, scn.slopes, phi=scn.phi, workers=1)
    par = classify_orbits(scn.model, scn.slopes, phi=scn.phi, workers=3)
    assert seq == par


def test_classified_orbits_cover_exactly_the_tate_subsets():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    reported = {frozenset(m) for o in rep.orbits for m in o.orbit}
    assert reported == tate_subsets_by_oracle(scn.model, scn.slopes)


def test_random_cm_types_keep_classifier_invariants():
    """Random CM-types on the preset models: the general path stays sound."""
    from weiltate.cmtypes import PlacePrescription, enumerate_cm_types
    from weiltate.galois import blocks_of_subgroup
    from weiltate.slopes import slopes_from_cm_type

    rng = random.Random(271)
    scn = scenario_main(4, 5)
    blocks = blocks_of_subgroup(scn.model, scn.model.D).blocks
    for _ in range(6):
        n0 = rng.randint(0, len(blocks[0]))
        prescription = PlacePrescription.from_counts((n0, len(blocks[0]) - n0))
        phis = enumerate_cm_types(scn.model, prescription, limit=3)
        for phi in phis:
            s = slopes_from_cm_type(scn.model, phi)
            rep = classify_orbits(scn.model, s, phi=phi)
            assert rep.tate_dims == tuple(reversed(rep.tate_dims))
            assert all(o.rank >= 2 for o in rep.exotic)
            reported = {frozenset(m) for o in rep.orbits for m in o.orbit}
            assert reported == tate_subsets_by_oracle(scn.model, s)
            for o in rep.orbits:
                members = [frozenset(m) for m in o.orbit]
                if all(frozenset(scn.model.tau[i] for i in m) == m for m in members):
                    assert o.is_lefschetz_bearing


MODELS = {g: cm_product_group(g) for g in (2, 3, 4)}


@st.composite
def product_models_with_slopes(draw):
    """cm_product_group(g), g = 2..4, with random admissible slopes s_i + s_tau(i) = 1."""
    model = MODELS[draw(st.integers(2, 4))]
    values = [None] * model.group.degree
    for i in range(model.g):
        den = draw(st.sampled_from([1, 2, 3, 4, 6]))
        values[i] = Fraction(draw(st.integers(0, den)), den)
        values[model.tau[i]] = 1 - values[i]
    return model, SlopeVector(tuple(values))


@settings(max_examples=60, deadline=None)
@given(product_models_with_slopes())
def test_linear_predicate_matches_the_orbit_walk(case):
    model, s = case
    n = model.group.degree
    oracle = tate_subsets_by_oracle(model, s)
    rep = classify_orbits(model, s)
    assert {frozenset(m) for o in rep.orbits for m in o.orbit} == oracle
    for size in range(n + 1):
        for c in combinations(range(n), size):
            assert is_tate_subset(model, s, c) == (frozenset(c) in oracle)
    assert q_pairs(model, s) == {P for P in oracle if len(P) == 2}
    assert frobenius_rank(model, s) == frobenius_rank_by_matrix(model, s)


def closed_form_rho(model, s):
    """rho_k without enumerating subsets: count vectors over the point classes.

    Points x, y share a class iff b[x] = b[y] for every basis vector b, so
    the predicate rows are constant on classes and a Tate subset is fixed,
    up to choosing its members, by how many points it takes from each class.
    """
    basis = conjugate_slope_basis(model, s)
    classes = {}
    for x in range(model.group.degree):
        classes.setdefault(tuple(b[x] for b in basis), []).append(x)
    sizes = [len(c) for c in classes.values()]
    values = [[row[c[0]] for row in tate_rows(model, s)] for c in classes.values()]
    rho = [0] * (model.g + 1)
    for counts in product(*(range(k + 1) for k in sizes)):
        w = sum(counts)
        if w % 2 == 0 and all(
            sum(c * v[r] for c, v in zip(counts, values)) == 0 for r in range(len(basis))
        ):
            ways = 1
            for k, c in zip(sizes, counts):
                ways *= comb(k, c)
            rho[w // 2] += ways
    return tuple(rho)


# split g'=5 is left out: its 20 points are 20 classes, so 2^20 count vectors
@pytest.mark.parametrize("name", [name for name in PRESETS if name != "split5"])
def test_closed_form_rho_matches_the_orbit_ranks(name):
    scn = PRESETS[name]()
    rep = classify_orbits(scn.model, scn.slopes, subset_cap=20)
    assert closed_form_rho(scn.model, scn.slopes) == rep.tate_dims


def test_rho_duality_on_presets():
    for scn in (scenario_main(4, 5), scenario_main(6, 5), scenario_ramified(3, 5),
                scenario_split(3, 5)):
        rep = classify_orbits(scn.model, scn.slopes)
        dims = rep.tate_dims
        assert dims == tuple(reversed(dims))


def test_exotic_orbits_have_rank_at_least_two():
    instances = [
        (scenario_main(4, 5).model, scenario_main(4, 5).slopes),
        (scenario_ramified(3, 5).model, scenario_ramified(3, 5).slopes),
        (scenario_split(3, 5).model, scenario_split(3, 5).slopes),
        (cm_product_group(3), ordinary_slopes(3)),
    ]
    for model, s in instances:
        for o in classify_orbits(model, s).exotic:
            assert o.rank >= 2


def test_lefschetz_flag_constant_across_orbit():
    scn = scenario_ramified(3, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    qp = q_pairs(scn.model, scn.slopes)
    for o in rep.orbits:
        flags = {has_qpair_matching(frozenset(m), qp) for m in o.orbit}
        assert flags == {o.is_lefschetz_bearing}


def test_tau_stable_sets_bear_lefschetz_classes():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    for o in rep.orbits:
        members = [frozenset(m) for m in o.orbit]
        tau_stable = {frozenset(scn.model.tau[i] for i in m) == m for m in members}
        assert len(tau_stable) == 1  # tau-stability is an orbit property
        if tau_stable.pop():
            assert o.is_lefschetz_bearing


def test_qpairs_reduce_to_conjugate_pairs_when_frobenius_field_is_full():
    scn = scenario_main(4, 5)
    qp = q_pairs(scn.model, scn.slopes)
    expected = {frozenset({i, scn.model.tau[i]}) for i in range(8)}
    assert qp == frozenset(expected)


def test_qpairs_grow_under_eigenvalue_collisions():
    scn = scenario_ramified(3, 5)
    qp = q_pairs(scn.model, scn.slopes)
    conj = {frozenset({i, scn.model.tau[i]}) for i in range(12)}
    assert conj < qp
    assert len(qp) == 12  # the conjugate pairs plus the collision pairs


def test_classify_main6():
    scn = scenario_main(6, 5)
    rep = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    (exotic,) = rep.exotic
    assert exotic.weight == 6
    assert exotic.rank == 2
    assert exotic.hodge_type == (4, 2)
    assert exotic.hodge_balanced is False
    assert rep.scht_verdict == SCHT_APPLICABLE


def test_family_invariants_at_gp5():
    """The construction families keep their shape at the next odd g'."""
    ram = scenario_ramified(5, 5)
    end = honda_tate_endomorphism(ram.model, ram.slopes)
    assert end.frobenius_field_degree == 10
    assert end.index == 2
    assert not end.commutative
    assert end.abelian_variety_dim == 10
    assert sorted(p.invariant for p in end.local_invariants) == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    entries = weil_tate_submotives(ram.model, ram.slopes)
    assert len(entries) == 2
    assert sorted(e.is_exotic for e in entries) == [False, True]
    lefschetz_entry = next(e for e in entries if not e.is_exotic)
    assert lefschetz_entry.is_tate and lefschetz_entry.is_lefschetz_bearing
    assert frobenius_rank(ram.model, ram.slopes) == 4  # g/2 - 1 with g = 10

    spl = scenario_split(5, 5)
    end = honda_tate_endomorphism(spl.model, spl.slopes)
    assert end.frobenius_field_degree == 20
    assert end.commutative
    assert end.abelian_variety_dim == 10
    entries = weil_tate_submotives(spl.model, spl.slopes)
    assert len(entries) == 2
    assert all(e.is_tate and e.is_exotic for e in entries)
    assert frobenius_rank(spl.model, spl.slopes) == 8  # g - 2 with g = 10


# --- weil_tate_submotives ------------------------------------------------------


def test_weil_tate_main4():
    scn = scenario_main(4, 5)
    entries = weil_tate_submotives(scn.model, scn.slopes)
    assert len(entries) == 1
    (e,) = entries
    assert e.is_tate and e.is_exotic
    orbit_sets = {frozenset(m) for m in orbit_of_subset(scn.model, e.determinant_set)}
    assert frozenset({0, 1, 2, 3}) in orbit_sets


def test_weil_tate_ramified_split_counts():
    ram = scenario_ramified(3, 5)
    entries = weil_tate_submotives(ram.model, ram.slopes)
    assert len(entries) == 2
    assert sorted(e.is_exotic for e in entries) == [False, True]
    lef = next(e for e in entries if not e.is_exotic)
    assert lef.is_tate and lef.is_lefschetz_bearing

    spl = scenario_split(3, 5)
    entries = weil_tate_submotives(spl.model, spl.slopes)
    assert len(entries) == 2
    assert all(e.is_tate and e.is_exotic for e in entries)


def test_weil_tate_empty_when_every_index2_overgroup_contains_tau():
    # cyclic C4 on 4 points: the only index-2 subgroup is <tau>
    c = cycles_to_perm(4, [(1, 2, 3, 4)])
    group = build_group(4, [c])
    tau = cycles_to_perm(4, [(1, 3), (2, 4)])
    model = CMGaloisModel(g=2, group=group, tau=tau)
    s = SlopeVector((Fraction(1, 2),) * 4)
    assert weil_tate_submotives(model, s) == ()


# --- honda_tate_endomorphism ----------------------------------------------------


def test_honda_tate_main4():
    scn = scenario_main(4, 5)
    end = honda_tate_endomorphism(scn.model, scn.slopes)
    assert end.frobenius_field_degree == 8
    assert end.index == 1
    assert end.commutative
    assert end.abelian_variety_dim == 4


def test_honda_tate_ramified3():
    scn = scenario_ramified(3, 5)
    end = honda_tate_endomorphism(scn.model, scn.slopes)
    assert end.frobenius_field_degree == 6
    assert sorted(p.invariant for p in end.local_invariants) == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 2),
    ]
    assert end.index == 2
    assert not end.commutative
    assert end.abelian_variety_dim == 6
    assert sorted(p.degree for p in end.local_invariants) == [2, 2, 2]


def test_honda_tate_split3():
    scn = scenario_split(3, 5)
    end = honda_tate_endomorphism(scn.model, scn.slopes)
    assert end.frobenius_field_degree == 12
    assert end.commutative
    assert end.abelian_variety_dim == 6


def test_honda_tate_supersingular_shadow():
    model = supersingular_degree2_model()
    s = SlopeVector((Fraction(1, 2), Fraction(1, 2)))
    end = honda_tate_endomorphism(model, s)
    assert end.frobenius_field_degree == 1
    assert [p.invariant for p in end.local_invariants] == [Fraction(1, 2)]
    assert end.index == 2
    assert end.abelian_variety_dim == 1
    assert not end.commutative


def test_honda_tate_dimension_identity():
    for scn in (scenario_main(4, 5), scenario_ramified(3, 5), scenario_split(3, 5)):
        end = honda_tate_endomorphism(scn.model, scn.slopes)
        assert 2 * end.abelian_variety_dim == end.index * end.frobenius_field_degree
        assert end.commutative == (end.index == 1)
        lcm = 1
        for p in end.local_invariants:
            d = p.invariant.denominator
            from math import gcd

            lcm = lcm * d // gcd(lcm, d)
        assert lcm == end.index


DIFF_MODELS = {g: cm_product_group(g) for g in (2, 3, 4, 5)}


@st.composite
def models_with_cm_types(draw):
    """cm_product_group(g), g = 2..5, D generated by 1-2 random elements, a random CM-type."""
    model = DIFF_MODELS[draw(st.integers(2, 5))]
    elements = model.group.elements
    gens = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=2))
    model = model.with_decomposition(subgroup_closure(model.group, gens))
    phi = [i if draw(st.booleans()) else model.tau[i] for i in range(model.g)]
    return model, slopes_from_cm_type(model, phi)


def outcome(fn, *args):
    """The value of fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=80, deadline=None)
@given(models_with_cm_types())
def test_block_routes_match_the_element_walks(case):
    model, s = case
    assert outcome(honda_tate_endomorphism, model, s) == outcome(honda_tate_by_cosets, model, s)
    fix = fix_of_slope(model, s)
    assert fix == fix_by_signatures_over_group(model, s)
    if model.g <= 4:  # the definition is a double loop over G
        assert fix == fixer_by_definition(model, s)
    assert minimal_field_index(model, s) == model.group.order // len(fix)
    overgroups = index2_overgroups(model.group, model.H)
    for Z in overgroups + [model.H, frozenset(model.group.elements)]:
        assert is_p_potentially_in(model, s, Z) == (Z <= fix)
    assert set(index2_point_sets(model.group)) == {
        frozenset(z[0] for z in Z) for Z in overgroups
    }
    assert {e.subgroup for e in weil_tate_submotives(model, s)} == {
        Z for Z in overgroups if model.tau not in Z
    }


@pytest.mark.parametrize("name", ["main4", "main6", "ramified3", "split3", "ramified5"])
def test_weil_tate_determinant_sets_match_the_overgroups(name):
    scn = PRESETS[name]()
    overgroups = index2_overgroups(scn.model.group, scn.model.H)
    assert sorted(map(sorted, index2_point_sets(scn.model.group))) == sorted(
        sorted({z[0] for z in Z}) for Z in overgroups
    )
    entries = weil_tate_submotives(scn.model, scn.slopes)
    assert [e.subgroup for e in entries] == sorted(
        (Z for Z in overgroups if scn.model.tau not in Z), key=lambda Z: sorted(z[0] for z in Z)
    )


@pytest.mark.parametrize("name", list(PRESETS))
def test_honda_tate_presets_match_the_coset_walk(name):
    scn = PRESETS[name]()
    assert honda_tate_endomorphism(scn.model, scn.slopes) == honda_tate_by_cosets(
        scn.model, scn.slopes
    )


# --- structure_check -------------------------------------------------------------


def test_structure_check_main4_commutative():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    end = honda_tate_endomorphism(scn.model, scn.slopes)
    verdict = structure_check(scn.model, scn.slopes, rep, end)
    assert verdict.passed and verdict.branch == "commutative"


def test_structure_check_ramified_noncommutative():
    scn = scenario_ramified(3, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    end = honda_tate_endomorphism(scn.model, scn.slopes)
    verdict = structure_check(scn.model, scn.slopes, rep, end)
    assert verdict.passed and verdict.branch == "noncommutative"


def test_structure_check_requires_mildly_exotic():
    model = cm_product_group(3)
    s = ordinary_slopes(3)
    model_d = model.with_decomposition(frozenset({tuple(range(6))}))
    rep = classify_orbits(model_d, s)
    end = honda_tate_endomorphism(model_d, s)
    with pytest.raises(ValueError):
        structure_check(model_d, s, rep, end)


# --- predicted_signature ----------------------------------------------------------


def test_signature_main4():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    assert rep.tate_dims[:3] == (1, 4, 8)
    assert predicted_signature(rep, 4) == (5, 3)


def test_signature_all_ones_hypothetical():
    rep = ClassifierReport(
        g=4,
        weights=(0, 2, 4, 6, 8),
        orbits=(),
        tate_dims=(1, 1, 1, 1, 1),
        exotic=(),
        mildly_exotic=False,
        weil_tate=(),
        scht_verdict=SCHT_LEFSCHETZ_ONLY,
    )
    assert predicted_signature(rep, 4) == (1, 0)


def test_signature_rho1_counts_the_g_pairs():
    scn = scenario_main(6, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    assert rep.tate_dims[0] == 1
    assert rep.tate_dims[1] == 6


def test_signature_main6():
    scn = scenario_main(6, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    assert rep.tate_dims[:4] == (1, 6, 15, 22)
    assert predicted_signature(rep, 6) == (10, 12)


@pytest.mark.parametrize("name", PRESETS)
def test_signature_is_nonnegative_on_presets(name):
    scn = PRESETS[name]()
    rep = classify_orbits(scn.model, scn.slopes, subset_cap=20)
    s_plus, s_minus = predicted_signature(rep, scn.g)
    assert s_plus >= 0 and s_minus >= 0
    assert s_plus + s_minus == rep.tate_dims[scn.g // 2]


def test_signature_rejects_odd_g():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    with pytest.raises(ValueError):
        predicted_signature(rep, 3)


# --- lemma suite -------------------------------------------------------------------


def build_instances():
    out = []
    for scn in (scenario_main(4, 5), scenario_ramified(3, 5), scenario_split(3, 5)):
        out.append(
            LemmaInstance(label=scn.name, model=scn.model, slopes=scn.slopes, family=scn.family)
        )
    return out


def test_lemma_suite_presets_all_pass():
    rows = verify_lemma_suite(build_instances())
    assert all(r.status in (PASS, NOT_APPLICABLE) for r in rows)
    by_key = {(r.instance, r.lemma): r.status for r in rows}
    assert by_key[("main-g4-p5", "exotic_partition")] == PASS
    assert by_key[("main-g4-p5", "main_family_unique_exotic")] == PASS
    assert by_key[("main-g4-p5", "half_weight_minimum")] == NOT_APPLICABLE
    assert by_key[("ramified-gp3-p5", "half_weight_minimum")] == PASS
    assert by_key[("ramified-gp3-p5", "exotic_uniqueness")] == PASS
    assert by_key[("split-gp3-p5", "exotic_partition")] == PASS
    assert by_key[("split-gp3-p5", "exotic_uniqueness")] == NOT_APPLICABLE


def test_lemma_suite_gates_on_hypotheses():
    model = cm_product_group(3)
    inst = LemmaInstance(label="ordinary", model=model, slopes=ordinary_slopes(3))
    rows = verify_lemma_suite([inst])
    assert {r.status for r in rows} == {NOT_APPLICABLE}
    assert not any(r.status == FAIL for r in rows)


# --- serialization ------------------------------------------------------------------


def test_report_document_round_trip():
    scn = scenario_ramified(3, 5)
    rep = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    doc = json.loads(json.dumps(report_to_doc(rep, group=scn.model.group)))
    assert doc_to_report(doc, scn.model) == rep

    end = honda_tate_endomorphism(scn.model, scn.slopes)
    end_doc = json.loads(json.dumps(end_report_to_doc(end)))
    assert doc_to_end_report(end_doc) == end
