"""Classification tests: Tate orbits, Lefschetz/exotic flags, invariants, lemmas."""

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from oracles import (
    block_subgroup,
    cm_product_model,
    elements_of,
    classify_orbits_by_walk,
    column_classes,
    columns_of,
    doc_to_end_report,
    doc_to_report,
    emitted_text,
    fix_by_signatures_over_group,
    fixer_by_definition,
    frobenius_rank_by_matrix,
    has_qpair_matching,
    honda_tate_by_cosets,
    local_invariant,
    main_family_by_formula,
    member_points,
    index2_overgroups,
    orbit_of_subset,
    orbits_by_walk,
    pairs_passing,
    pairs_passing_by_rows,
    q_pairs,
    random_admissible_slopes,
    short_half_weight_by_combinations,
    signature_block,
    slope_fractions,
    slope_vector,
    subgroup_closure,
    subgroup_generators_by_listing,
    tate_by_orbit_walk,
    tate_counts_by_dp,
    tate_masks_by_listing,
    validate_slopes_by_fractions,
    verify_subgroup,
    weil_tate_submotives,
)

import weiltate.classifier
import weiltate.galois
import weiltate.slopes
from weiltate.classifier import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    SCHT_APPLICABLE,
    SCHT_LEFSCHETZ_ONLY,
    SCHT_NOT_DECIDED,
    ClassifierReport,
    EndAlgebraReport,
    LocalInvariant,
    MemberMasks,
    MotiveOrbit,
    WeilTateEntry,
    _blocks_in_coset_order,
    _lefschetz,
    _mask,
    _mask_orbits,
    _orbit_tables,
    _packed_columns,
    _points,
    classify_orbits,
    classify_scenario,
    honda_tate_endomorphism,
    structure_check,
    tate_rows,
    tate_subsets,
    verify_lemma_suite,
)
from weiltate.cli import _weil_tate_to_doc, end_report_to_doc, report_to_doc
from weiltate.cmtypes import enumerate_cm_types, measure_cm_type
from weiltate.forge import Scenario, scenario_main, scenario_ramified, scenario_split
from weiltate.galois import (
    CMGaloisModel,
    StabChain,
    build_group,
    compose,
    cycles_to_perm,
    diagonal_lift,
    format_perm,
    index2_point_sets,
    parse_perm,
    point_orbits,
    subgroup_generators,
    sym_generators,
)
from weiltate.slopes import (
    SlopeVector,
    conjugate_slope_basis,
    ratio_str,
    slopes_from_cm_type,
    validate_slopes,
)


def tate_sets(model, s) -> set:
    """Every Tate subset as a set of points, from the scan `tate_subsets` over every even weight."""
    n = model.group.degree
    found = tate_subsets(_packed_columns(tate_rows(model, s)), range(0, n + 1, 2))
    return {frozenset(m) for masks in found.values() for m in member_points(MemberMasks(n, masks))}


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
    "ramified5": lambda: scenario_ramified(5, 5, subset_cap=20),
    "split5": lambda: scenario_split(5, 5, subset_cap=20),
}


def ordinary_slopes(g):
    """Slopes 0 on the first half, 1 on the second: no extra relations."""
    return SlopeVector(1, (0,) * g + (1,) * g)


def supersingular_degree2_model():
    tau = cycles_to_perm(2, [(1, 2)])
    group = build_group(2, [tau])
    return CMGaloisModel(group, elements_of(group))


# --- the Tate predicate, read off the scan ------------------------------------


def test_is_tate_main_half_set():
    scn = scenario_main(4, 5)
    assert {0, 1, 2, 3} in tate_sets(scn.model, scn.slopes)


def test_is_tate_conjugate_pairs_always():
    for scn in (scenario_main(4, 5), scenario_ramified(3, 5)):
        found = tate_sets(scn.model, scn.slopes)
        for i in range(scn.model.group.degree):
            assert {i, scn.model.tau[i]} in found


def test_is_tate_rejects_equal_low_slopes():
    scn = scenario_main(4, 5)
    # indices 1 and 3 both have slope 1/4: the sum already misses 1
    assert (scn.slopes.den, scn.slopes.nums[0], scn.slopes.nums[2]) == (4, 1, 1)
    assert {0, 2} not in tate_sets(scn.model, scn.slopes)


def test_is_tate_rejects_odd_size():
    # {1} alone would pass the rows if its slope were 1/2 at every conjugate
    model = cm_product_model(2)
    s = SlopeVector(2, (1,) * 4)
    found = tate_subsets(_packed_columns(tate_rows(model, s)), [1])
    assert len(found[1]) == 4  # an odd size passes the rows alone
    with pytest.raises(ValueError, match="weight 1 is not an even integer in 0..4"):
        classify_orbits(model, s, weights=[1])
    assert all(o.weight % 2 == 0 for o in classify_orbits(model, s).orbits)


def test_is_tate_orbit_escape():
    scn = scenario_main(4, 5)
    # sum is 1 at the base valuation but a conjugate breaks it
    assert scn.slopes.nums[0] + scn.slopes.nums[1] == scn.slopes.den
    assert {0, 1} not in tate_sets(scn.model, scn.slopes)


@pytest.mark.parametrize("weight", [-2, 10], ids=["negative", "past-2g"])
def test_is_tate_refuses_a_point_outside_the_2g_points(weight):
    # the scan takes weights, not subsets: a size of -2 or 10 has no subset of the 8 points
    scn = scenario_main(4, 5)
    with pytest.raises(ValueError, match=f"weight {weight} is not an even integer in 0..8"):
        classify_orbits(scn.model, scn.slopes, weights=[weight])


@pytest.mark.parametrize("weight", [2.5, "4", 4.0], ids=["fraction", "text", "float"])
def test_classify_refuses_a_weight_that_is_not_an_integer(weight):
    # 2.5 once read as weight 2, and "4" and 4.0 as weight 4
    scn = scenario_main(4, 5)
    with pytest.raises(ValueError, match=f"weight {weight!r} is not an even integer in 0..8"):
        classify_orbits(scn.model, scn.slopes, weights=[4, weight])
    with pytest.raises(ValueError, match=f"weight {weight!r} is not an even integer in 0..8"):
        classify_orbits(scn.model, scn.slopes, weights=iter([4, weight]))


def test_classify_reads_the_weights_from_a_generator():
    scn = scenario_main(4, 5)
    report = classify_orbits(scn.model, scn.slopes, weights=(w for w in (6, 2, 6)))
    assert report == classify_orbits(scn.model, scn.slopes, weights=[2, 6])
    assert {o.weight for o in report.orbits} == {2, 6}


def test_tate_complement_duality():
    rng = random.Random(8)
    scn = scenario_main(4, 5)
    found = tate_sets(scn.model, scn.slopes)
    points = set(range(8))
    for _ in range(40):
        subset = frozenset(rng.sample(sorted(points), rng.randint(0, 8)))
        assert (subset in found) == (points - subset in found)


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
    assert exotic.orbit == MemberMasks(8, (0b11110000, 0b00001111))
    assert exotic.hodge_type == (3, 1)
    assert exotic.hodge_balanced is False


def test_classify_main4_exotic_conjugate_to_first_half():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    (exotic,) = rep.exotic
    assert _mask(8, (0, 1, 2, 3)) in exotic.orbit.masks


def test_classify_ordinary_is_lefschetz_only():
    model = cm_product_model(3)
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


def test_classify_rejects_bad_weights():
    scn = scenario_main(4, 5)
    with pytest.raises(ValueError):
        classify_orbits(scn.model, scn.slopes, weights=[3])


def test_classified_orbits_cover_exactly_the_tate_subsets():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    reported = {frozenset(m) for o in rep.orbits for m in member_points(o.orbit)}
    assert reported == tate_subsets_by_oracle(scn.model, scn.slopes)


def test_random_cm_types_keep_classifier_invariants():
    """Random CM-types on the preset models: the general path stays sound."""
    from weiltate.slopes import slopes_from_cm_type

    rng = random.Random(271)
    scn = scenario_main(4, 5)
    blocks = scn.model.D_blocks
    for _ in range(6):
        n0 = rng.randint(0, len(blocks[0]))
        phis = enumerate_cm_types(scn.model, (n0, len(blocks[0]) - n0))[:3]
        for phi in phis:
            s = slopes_from_cm_type(scn.model, phi)
            rep = classify_orbits(scn.model, s, phi=phi)
            assert rep.tate_dims == tuple(reversed(rep.tate_dims))
            assert all(o.rank >= 2 for o in rep.exotic)
            reported = {frozenset(m) for o in rep.orbits for m in member_points(o.orbit)}
            assert reported == tate_subsets_by_oracle(scn.model, s)
            for o in rep.orbits:
                members = [frozenset(m) for m in member_points(o.orbit)]
                if all(frozenset(scn.model.tau[i] for i in m) == m for m in members):
                    assert o.is_lefschetz_bearing


MODELS = {g: cm_product_model(g) for g in (2, 3, 4, 5)}


@st.composite
def product_models_with_slopes(draw):
    """cm_product_model(g), g = 2..4, with random admissible slopes (`drawn_slopes`)."""
    model = MODELS[draw(st.integers(2, 4))]
    return model, drawn_slopes(draw, model)


def drawn_slopes(draw, model) -> SlopeVector:
    """Slopes with s_i + s_tau(i) = 1, each s_i of a drawn denominator 1, 2, 3, 4 or 6."""
    nums = [None] * model.group.degree
    for i in range(model.g):
        den = draw(st.sampled_from([1, 2, 3, 4, 6]))
        nums[i] = draw(st.integers(0, den)) * (12 // den)
        nums[model.tau[i]] = 12 - nums[i]
    return SlopeVector(12, tuple(nums))


def signed_perm(g, sigma, flips) -> tuple:
    """i -> sigma(i), moved across the conjugation split where flips[i]; commutes with tau."""
    out = [0] * (2 * g)
    for i in range(g):
        j = sigma[i] + (g if flips[i] else 0)
        out[i], out[i + g] = j, (j + g) % (2 * g)
    return tuple(out)


@st.composite
def cm_models(draw):
    """cm_product_model(g), g = 2..5, or tau with one or two random signed permutations.

    The first signed permutation moves the points of one half along a
    random g-cycle, so the group is transitive.  Such groups lack the
    symmetries of mu2 x S_g (the point reversal i -> 2g-1-i among them),
    so they tell apart orders that coincide on the product group.
    """
    g = draw(st.integers(2, 5))
    if draw(st.booleans()):
        return MODELS[g]
    flips = st.lists(st.booleans(), min_size=g, max_size=g)
    cycle = draw(st.permutations(range(g)))
    sigma = [0] * g
    for k in range(g):
        sigma[cycle[k]] = cycle[(k + 1) % g]
    tau = tuple((i + g) % (2 * g) for i in range(2 * g))
    gens = [tau, signed_perm(g, sigma, draw(flips))]
    if draw(st.booleans()):
        gens.append(signed_perm(g, draw(st.permutations(range(g))), draw(flips)))
    return CMGaloisModel(build_group(2 * g, gens))


def _with_cm_types(scn) -> tuple:
    """(scn, every CM-type with the place counts of its phi), each giving scn's slopes."""
    return scn, enumerate_cm_types(scn.model, measure_cm_type(scn.model, scn.phi))


# mildly exotic presets, each with its CM-types
MILDLY_EXOTIC = {
    name: _with_cm_types(PRESETS[name]()) for name in ("main4", "main6", "ramified3", "split3")
}


@st.composite
def classify_cases(draw):
    """A random CM model (`cm_models`), admissible slopes, CM-type and even weights.

    Every other case is instead a mildly exotic preset (`MILDLY_EXOTIC`)
    with its slopes and any CM-type of its phi's measure, which the
    random models almost never are.  The CM-type and the weight list are
    each left out now and then (no Hodge types, the full scan).
    """
    if draw(st.booleans()):
        scn, phis = MILDLY_EXOTIC[draw(st.sampled_from(sorted(MILDLY_EXOTIC)))]
        model, s, phi = scn.model, scn.slopes, draw(st.sampled_from(phis))
    else:
        model = draw(cm_models())
        s = drawn_slopes(draw, model)
        phi = frozenset(draw(st.sampled_from((i, model.tau[i]))) for i in range(model.g))
    n = model.group.degree
    weights = st.lists(st.sampled_from(range(0, n + 1, 2)), min_size=1, max_size=4)
    return (model, s, draw(st.none() | st.just(phi)),
            draw(st.none() | weights))


TAU5 = tuple((i + 5) % 10 for i in range(10))
CYCLIC5 = CMGaloisModel(build_group(10, [TAU5, (1, 2, 3, 4, 0, 6, 7, 8, 9, 5)]))


@settings(max_examples=80, deadline=None)
@given(classify_cases(), st.integers(0, 2**32 - 1))
# weight 6 holds orbits of weight 4 whose complements are out of order until sorted
@example((CYCLIC5, ordinary_slopes(5), None, [4, 6]), 0)
def test_mask_orbits_match_the_frozenset_walk(case, seed):
    """The report matches the walk, and `_mask_orbits` gives the walk's orbits in any input order."""
    model, s, phi, weights = case
    report = classify_orbits(model, s, weights=weights, phi=phi)
    walk = classify_orbits_by_walk(model, s, weights, phi)
    assert report == walk
    n = model.group.degree
    tables = _orbit_tables(model)
    low = [w for w in report.weights if w <= model.g]
    found = tate_subsets(report.columns, low)
    rng = random.Random(seed)
    for w in low:
        shuffled = found[w][:]
        rng.shuffle(shuffled)
        orbits = [MemberMasks(n, m) for m in _mask_orbits(tables, shuffled)]
        assert orbits == [o.orbit for o in walk.orbits if o.weight == w]


def _preset_case(name, weights=None) -> tuple:
    scn = PRESETS[name]()
    return scn.model, scn.slopes, scn.phi, weights


@settings(max_examples=80, deadline=None)
@given(classify_cases())
# mildly exotic, commutative and not; then a scan of given weights
@example(_preset_case("main4"))
@example(_preset_case("ramified3"))
@example(_preset_case("main4", [4]))
def test_a_report_reads_its_verdicts_off_its_orbits(case):
    """Each value the reports read off their fields, against its definition written out here.

    With D trivial every column class is a place of degree 1 with
    invariant s mod 1, so [F:Q] is the number of classes and the index
    the lcm of the slopes' denominators.
    """
    model, s, phi, weights = case
    report = classify_orbits(model, s, weights=weights, phi=phi)
    full = weights is None
    assert report.exotic == tuple(o for o in report.orbits if not o.is_lefschetz_bearing)
    exotic = report.exotic
    mildly = (len(exotic) > 0 and max(o.rank for o in exotic) <= 2) if full else None
    assert report.mildly_exotic == mildly
    if mildly:
        verdict = SCHT_APPLICABLE
    elif full and not exotic:
        verdict = SCHT_LEFSCHETZ_ONLY
    else:
        verdict = SCHT_NOT_DECIDED
    event(verdict)
    assert report.scht_verdict == verdict
    if not full or model.g % 2:
        assert report.predicted_signature is None
    else:  # the primitive parts of degree 2k, k <= g/2, with sign (-1)^k
        rho = (0,) + report.tate_dims
        primitive = [rho[k + 1] - rho[k] for k in range(model.g // 2 + 1)]
        assert report.predicted_signature == (sum(primitive[0::2]), sum(primitive[1::2]))
    trivial = CMGaloisModel(model.group, [tuple(range(model.group.degree))])
    end = honda_tate_endomorphism(trivial, s, report.columns)
    assert end.frobenius_field_degree == len(set(report.columns))
    values = slope_fractions(s)
    invariants = {values[report.columns.index(c)] % 1 for c in report.columns}
    m = lcm(*(v.denominator for v in invariants))
    assert (end.index, end.commutative) == (m, m == 1)
    assert 2 * end.abelian_variety_dim == m * end.frobenius_field_degree


@settings(max_examples=60, deadline=None)
@given(classify_cases())
def test_block_subgroup_is_the_subgroup_above_h_of_its_block(case):
    model, s, _, _ = case
    G = model.group
    for P in index2_point_sets(G) + [signature_block(model, s)]:
        Z = block_subgroup(G, P)
        assert Z == frozenset(e for e in elements_of(G) if e[0] in P)
        if model.g <= 4:  # the oracle is |Z|^2 compositions
            assert verify_subgroup(G, Z) == Z
        assert block_subgroup(G, {0}) <= Z
        assert len(Z) * 2 * model.g == G.order * len(P)


@pytest.mark.parametrize("name", ["main4", "main6", "ramified3", "split3"])
@pytest.mark.parametrize("weights", [None, [2, 6], [0, 4, 8, 10]])
def test_mask_orbits_match_the_frozenset_walk_on_the_presets(name, weights):
    scn = PRESETS[name]()
    if weights and max(weights) > scn.model.group.degree:
        weights = [w for w in weights if w <= scn.model.group.degree]
    report = classify_orbits(scn.model, scn.slopes, weights=weights, phi=scn.phi)
    assert report == classify_orbits_by_walk(scn.model, scn.slopes, weights, scn.phi)


@pytest.mark.parametrize("name", ["ramified5", "split5"])
def test_mask_orbits_match_the_frozenset_walk_past_one_byte(name):
    """g'=5 has 20 points: each half table spans 10 bits, so no half fits in one byte."""
    scn = PRESETS[name]()
    report = classify_orbits(scn.model, scn.slopes, weights=[2, 10], phi=scn.phi)
    assert report == classify_orbits_by_walk(scn.model, scn.slopes, [2, 10], scn.phi)


def no_central_model(g: int) -> CMGaloisModel:
    """mu2 x S_g, g odd, from the lifts c·tau and t alone: no generator is central.

    tau = (c·tau)^g lies in the group, but c·tau and t do not commute.
    """
    c, t = (diagonal_lift(p, 2) for p in sym_generators(g))
    tau = tuple((i + g) % (2 * g) for i in range(2 * g))
    return CMGaloisModel(build_group(2 * g, [compose(c, tau), t]))


def c4_times_s3() -> CMGaloisModel:
    """C4 x S3 on the 12 points 3k + x: z, 3k + x -> 3(k + 1) + x mod 12, is central of order 4.

    z^2 is tau, and no power of z but the identity lies in the S3 of
    the other generators, so each orbit takes up to four z-blocks.
    """
    z = tuple((i + 3) % 12 for i in range(12))
    gens = [diagonal_lift(p, 4) for p in sym_generators(3)]
    return CMGaloisModel(build_group(12, [gens[0], z, gens[1]]))


def perm_of_tables(n, half, tables) -> tuple:
    """The permutation with the half-mask image tables `tables`: i goes where bit n-1-i does."""
    lo, hi = tables
    bits = (n - 1 - i for i in range(n))
    return tuple(n - (lo[1 << b] if b < half else hi[1 << (b - half)]).bit_length() for b in bits)


@pytest.mark.parametrize("name", list(PRESETS) + ["no_central", "c4_times_s3"])
def test_orbit_tables_split_off_the_central_generators(name):
    """tau is central on main, the sign flips e1 and e2 (e1 e2 = tau) on ramified and split.

    One table pair per generator, in generator order within each list.
    """
    model = {"no_central": lambda: no_central_model(5), "c4_times_s3": c4_times_s3}.get(
        name, lambda: PRESETS[name]().model)()
    gens = model.group.generators
    n = model.group.degree
    half, walked, filled = _orbit_tables(model)
    assert half == n // 2
    central = [perm_of_tables(n, half, t) for t in filled]
    assert [perm_of_tables(n, half, t) for t in walked] == [g for g in gens if g not in central]
    if name.startswith("main"):
        assert central == [model.tau]
    elif name == "no_central":
        assert central == []
    elif name == "c4_times_s3":
        assert central == [gens[1]]
    else:
        assert central == list(gens[:2]) and compose(*central) == model.tau


@st.composite
def labelling_cases(draw):
    """A model and a few subsets of its points.

    The model is a preset, `signed_groups` with tau added as a
    generator, `no_central_model` or `c4_times_s3`.  tau commutes with
    every signed permutation, so it is central in the second; a
    `signed_groups` group may be intransitive, so it stands alone, in
    the one field that `_orbit_tables` and the walk read.
    """
    kind = draw(st.sampled_from([*PRESETS, "signed", "no_central", "c4_times_s3"]))
    if kind == "signed":
        G = draw(signed_groups())
        n = G.degree
        tau = tuple((i + n // 2) % n for i in range(n))
        model = SimpleNamespace(group=build_group(n, [tau, *G.generators]))
    elif kind == "no_central":
        model = no_central_model(draw(st.sampled_from([3, 5])))
    elif kind == "c4_times_s3":
        model = c4_times_s3()
    else:
        model = PRESETS[kind]().model
    n = model.group.degree
    return model, draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=4))


@settings(max_examples=120, deadline=None)
@given(labelling_cases(), st.integers(0, 2**32 - 1))
@example((c4_times_s3(), [{0, 3}, {0, 6}, {1, 2, 3}]), 0)  # 4, 2 and 4 z-blocks
def test_mask_orbits_match_the_orbit_walk_whatever_the_centre(case, seed):
    """The orbits of the walk, members and orbits in descending order, from masks in any order."""
    model, subsets = case
    n = model.group.degree
    orbits = {tuple(sorted((_mask(n, m) for m in orbit_of_subset(model, S)), reverse=True))
              for S in subsets}
    masks = [m for orbit in orbits for m in orbit]
    random.Random(seed).shuffle(masks)
    assert _mask_orbits(_orbit_tables(model), masks) == sorted(map(list, orbits), reverse=True)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1,
                           max_size=3)
    )
)
@example([[1, 1], [-1, 0]])  # sums (2, -1): packed in base 2 they would read 0
@example([[0] * 6])  # every slope 1/2: every subset passes, odd sizes included
def test_tate_subsets_match_a_scan_of_every_subset(rows):
    """Any integer rows: the packed sums never merge two different sum vectors."""
    n = len(rows[0])
    found = tate_subsets(_packed_columns(rows), range(n + 1))
    for w in range(n + 1):
        expected = {
            sum(1 << (n - 1 - i) for i in c)
            for c in combinations(range(n), w)
            if all(sum(row[i] for i in c) == 0 for row in rows)
        }
        assert sorted(found[w]) == sorted(expected)


@settings(max_examples=60, deadline=None)
@given(product_models_with_slopes())
def test_linear_predicate_matches_the_orbit_walk(case):
    model, s = case
    n = model.group.degree
    oracle = tate_subsets_by_oracle(model, s)
    rep = classify_orbits(model, s)
    assert {frozenset(m) for o in rep.orbits for m in member_points(o.orbit)} == oracle
    assert tate_sets(model, s) == oracle
    assert q_pairs(model, s) == {P for P in oracle if len(P) == 2}
    assert rep.weil_tate == weil_tate_submotives(model, s)
    assert rep.frobenius_rank == frobenius_rank_by_matrix(model, s)


@settings(max_examples=60, deadline=None)
@given(product_models_with_slopes())
def test_common_denominator_carries_the_slopes(case):
    _, s = case
    values = slope_fractions(s)
    assert s.den == lcm(*(v.denominator for v in values))
    assert all(Fraction(a, s.den) == v for a, v in zip(s.nums, values))


def _assert_same_slopes(s: SlopeVector, values: tuple):
    """s carries exactly the Fractions `values`: ==, hash and text."""
    by_fractions = slope_vector(values)
    assert s == by_fractions and hash(s) == hash(by_fractions)
    assert s.serialize() == " ".join(f"{v.numerator}/{v.denominator}" for v in values)
    assert slope_fractions(s) == values


@settings(max_examples=100, deadline=None)
@given(product_models_with_slopes(), st.integers(1, 6))
def test_a_slope_vector_from_integers_is_the_one_from_fractions_or_strings(case, scale):
    """Integers over any common denominator make the record of the Fractions or their texts."""
    _, s = case
    values = slope_fractions(s)
    again = SlopeVector(s.den * scale, tuple(a * scale for a in s.nums))
    assert (again.den, again.nums) == (s.den, s.nums)
    assert again == slope_vector(str(v) for v in values)
    _assert_same_slopes(again, values)


def test_reducible_slopes_are_kept_in_lowest_terms():
    values = (Fraction(1, 2), Fraction(0), Fraction(1), Fraction(1, 2))
    for s in (SlopeVector(4, (2, 0, 4, 2)), SlopeVector(2, (1, 0, 2, 1))):
        assert (s.den, s.nums) == (2, (1, 0, 2, 1))
        _assert_same_slopes(s, values)
        assert s.serialize() == "1/2 0/1 1/1 1/2"
    for s in (SlopeVector(1, (0, 1)), SlopeVector(3, (0, 3)), SlopeVector(5, (0, 5))):
        assert (s.den, s.nums) == (1, (0, 1)) and s.serialize() == "0/1 1/1"


@settings(max_examples=100, deadline=None)
@given(cm_models(), st.data())
def test_slopes_from_cm_type_in_integers_match_the_fraction_formula(model, data):
    """Shimura-Taniyama from block counts equals #(phi ∩ B) / #B computed as Fractions."""
    model = CMGaloisModel(model.group, [data.draw(st.sampled_from(elements_of(model.group)))])
    phi = frozenset(data.draw(st.sampled_from((i, model.tau[i]))) for i in range(model.g))
    values = [None] * model.group.degree
    for block in model.D_blocks:
        for i in block:
            values[i] = Fraction(len(phi & set(block)), len(block))
    _assert_same_slopes(slopes_from_cm_type(model, phi), tuple(values))


def test_a_local_invariant_from_integers_is_the_one_from_fractions():
    by_integers = LocalInvariant(2, 8, 2)
    assert (by_integers.den, by_integers.slope_num, by_integers.invariant_num) == (4, 1, 2)
    for again in (local_invariant(2, Fraction(1, 4), Fraction(1, 2)),
                  local_invariant(2, "2/8", "1/2"),
                  LocalInvariant(degree=2, den=4, slope_num=1)):
        assert again == by_integers and hash(again) == hash(by_integers)
    zero = LocalInvariant(1, 5, 5)
    assert (zero.den, zero.slope_num, zero.invariant_num) == (1, 1, 0)
    end = EndAlgebraReport((zero, by_integers))
    assert (end.frobenius_field_degree, end.index, end.commutative,
            end.abelian_variety_dim) == (3, 2, False, 3)
    assert end_report_to_doc(end)["local_invariants"] == [
        {"degree": 1, "slope": "1/1", "invariant": "0/1"},
        {"degree": 2, "slope": "1/4", "invariant": "1/2"}]


def test_an_end_report_refuses_an_odd_index_times_degree():
    # one place of degree 1 with invariant 1/3: m [F:Q] = 3 gives no integer dimension
    with pytest.raises(ValueError, match=r"m \* \[F:Q\] is odd"):
        EndAlgebraReport((LocalInvariant(1, 3, 1),))


@st.composite
def slopes_to_validate(draw):
    """A `classify_cases` model, with a random D for the block kinds, and slopes perturbed one way.

    outside: a tau pair moved out of [0, 1], its sum kept; pair: one
    slope redrawn alone; integer: slopes drawn constant on the D-blocks,
    so |B| * s is often not an integer; block: such slopes with one tau
    pair redrawn.
    """
    model, s, _, _ = draw(classify_cases())
    kind = draw(st.sampled_from(("none", "outside", "pair", "block", "integer")))
    values = list(slope_fractions(s))
    n = model.group.degree
    i = draw(st.integers(0, n - 1))
    den = draw(st.sampled_from([1, 2, 3, 4, 6]))
    if kind == "outside":
        v = Fraction(draw(st.integers(1, 2 * den)), den)
        values[i] = 1 + v if draw(st.booleans()) else -v
        values[model.tau[i]] = 1 - values[i]
    elif kind == "pair":
        values[i] = Fraction(draw(st.integers(0, den)), den)
    elif kind in ("block", "integer"):
        model = CMGaloisModel(model.group, [draw(st.sampled_from(elements_of(model.group)))])
        for block in model.D_blocks:  # tau is central, so tau B is a D-block too
            partner = tuple(sorted(model.tau[x] for x in block))
            v = Fraction(1, 2) if partner == block else Fraction(draw(st.integers(0, den)), den)
            for x in block:
                values[x], values[model.tau[x]] = v, 1 - v
        if kind == "block":
            values[i] = Fraction(draw(st.integers(0, den)), den)
            values[model.tau[i]] = 1 - values[i]
    return kind, model, slope_vector(values)


@settings(max_examples=300, deadline=None)
@given(slopes_to_validate())
def test_validate_slopes_matches_the_fraction_checks(case):
    """Same verdict and, on a rejected vector, the same message as the Fraction route."""
    kind, model, s = case
    event(kind)
    assert outcome(validate_slopes, model, s) == outcome(validate_slopes_by_fractions, model, s)


@settings(max_examples=80, deadline=None)
@given(classify_cases())
def test_packed_pairs_match_the_definitional_q_pairs(case):
    model, s, _, _ = case
    rows = tate_rows(model, s)
    packed = pairs_passing(_packed_columns(rows))
    assert packed == q_pairs(model, s)
    assert packed == pairs_passing_by_rows(rows)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1,
                           max_size=3)
    )
)
@example([[1, 1], [-1, 0]])  # columns (1, -1) and (1, 0) sum to (2, -1); base 2 packs -1 and 1
def test_packed_pairs_match_the_row_scan(rows):
    assert pairs_passing(_packed_columns(rows)) == pairs_passing_by_rows(rows)


@st.composite
def signed_groups(draw):
    """A transitive CM group (`cm_models`), or 0-3 random signed permutations of 2g points.

    g = 2..5; every such group lies in C2 wr S_g, so |G| <= 2^g g! <= 3840.
    """
    if draw(st.booleans()):
        return draw(cm_models()).group
    g = draw(st.integers(2, 5))
    flips = st.lists(st.booleans(), min_size=g, max_size=g)
    signed = st.builds(lambda sigma, f: signed_perm(g, sigma, f), st.permutations(range(g)), flips)
    return build_group(2 * g, draw(st.lists(signed, max_size=3)))


@st.composite
def signed_columns(draw):
    """Packed columns of the rows of s∘e, e the identity and each generator of `signed_groups`.

    s is drawn with s(i) + s(i + g) = 1, and a signed permutation
    commutes with i -> i + g, so each row sums to 0 over the 2g points,
    as every Tate predicate row does.
    """
    G = draw(signed_groups())
    n = G.degree
    den = draw(st.sampled_from([1, 2, 3, 4, 6]))
    nums = draw(st.lists(st.integers(0, den), min_size=n // 2, max_size=n // 2))
    nums += [den - v for v in nums]
    rows = [[2 * nums[e[x]] - den for x in range(n)] for e in (tuple(range(n)), *G.generators)]
    return _packed_columns(rows)


def drawn_columns():
    """`signed_columns`, or the packed predicate rows of a `classify_cases` model."""
    predicate = classify_cases().map(lambda case: _packed_columns(tate_rows(case[0], case[1])))
    return signed_columns() | predicate


@st.composite
def wide_kernel_columns(draw):
    """Packed columns over k pairs of classes whose vectors span r < k - 2 dimensions.

    One or two rows, and k = r + 3 or r + 4 nonzero vectors v_j, distinct
    up to sign, so V (one column v_j per pair) has a kernel of dimension
    3 or more.  Pair j holds a class of v_j and a class of -v_j, of sizes
    (1, 0), (0, 1), (1, 1), (2, 0), (2, 1) or (1, 2): classes of unequal
    size, and classes whose negative is absent.  Up to two points have
    column 0, and the at most 13 points are shuffled.
    """
    r = draw(st.integers(1, 2))
    k = r + draw(st.integers(3, 4))
    entry = st.integers(-6, 6) if r == 1 else st.integers(-3, 3)
    vectors = draw(st.lists(
        st.tuples(*[entry] * r).filter(any), min_size=k, max_size=k,
        unique_by=lambda v: max(v, tuple(-x for x in v)),
    ))
    shapes = st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (1, 2)])
    sizes = draw(st.lists(shapes, min_size=k, max_size=k).filter(lambda s: sum(map(sum, s)) <= 11))
    points = [(0,) * r] * draw(st.integers(0, 2))
    for v, (a, b) in zip(vectors, sizes):
        points += [v] * a + [tuple(-x for x in v)] * b
    points = draw(st.permutations(points))
    return _packed_columns([[p[row] for p in points] for row in range(r)])


def with_weights(columns):
    """(cols, weights): weights drawn from -1..n+2, so odd ones, repeats, sizes above n or none."""
    return columns.flatmap(
        lambda cols: st.tuples(st.just(cols), st.lists(st.integers(-1, len(cols) + 2), max_size=5))
    )


@settings(max_examples=150, deadline=None)
@given(with_weights(
    drawn_columns() | st.lists(st.integers(-4, 4), max_size=10) | wide_kernel_columns()
))
@example(([3, 3, -3, 0, 0, 0, 0, -3], [4, 3, 4, 9]))  # class 0 lets odd sizes pass
@example(([2, 2, 1, -3, 0], [2, 4]))  # classes 2 and -3 lack their negatives; 2 + 1 - 3 = 0
@example(([], [0, 1]))
def test_tate_subsets_match_the_listing_and_the_dp_count(case):
    """Each weight asked keeps its key, in the order asked, with the masks of the listing."""
    cols, weights = case
    n = len(cols)
    listed = tate_masks_by_listing(cols)
    counts = tate_counts_by_dp(cols)
    found = tate_subsets(cols, range(n + 2))
    assert list(found) == list(range(n + 2))
    for w, masks in found.items():
        assert sorted(masks, reverse=True) == listed.get(w, [])
        assert len(masks) == counts.get(w, 0)
    asked = tate_subsets(cols, iter(weights))
    assert list(asked) == list(dict.fromkeys(weights))
    for w, masks in asked.items():
        assert sorted(masks, reverse=True) == listed.get(w, [])
    assert tate_subsets(cols, []) == {}


@pytest.mark.parametrize("family", [scenario_ramified, scenario_split])
def test_tate_subsets_match_the_dp_count_at_gp7(family):
    """28 points, every weight: the counts of the DP, each mask once and of its own weight."""
    scn = family(7, 5, subset_cap=28)
    cols = _packed_columns(tate_rows(scn.model, scn.slopes))
    n = len(cols)
    counts = tate_counts_by_dp(cols)
    found = tate_subsets(cols, range(n + 1))
    for w, masks in found.items():
        assert len(masks) == len(set(masks)) == counts.get(w, 0)
        assert all(m.bit_count() == w for m in masks)
        assert all(sum(cols[i] for i in _points(n, m)) == 0 for m in masks[::97])


def test_tate_subsets_follow_the_output_at_main_g24():
    """48 points, weights 0, 2 and 4: 1, 24 and 276 masks, each a union of tau-pairs.

    A join of the two halves of the points would build two tables of
    2^24 entries; the subset cap is raised here only to build the preset.
    """
    scn = scenario_main(24, 5, subset_cap=48)
    found = tate_subsets(_packed_columns(tate_rows(scn.model, scn.slopes)), (0, 2, 4))
    _, orbits = main_family_by_formula(24, weights=(0, 2, 4))
    assert [len(found[w]) for w in (0, 2, 4)] == [1, 24, 276]
    for w in (0, 2, 4):
        members = MemberMasks(48, sorted(found[w], reverse=True))
        assert frozenset(member_points(members)) == orbits.pop((w, False))
    assert orbits == {}


@settings(max_examples=80, deadline=None)
@given(drawn_columns())
def test_tate_subsets_above_the_middle_are_the_complements(cols):
    n = len(cols)
    full = (1 << n) - 1
    found = tate_subsets(cols, range(n + 1))
    for w in range(n + 1):
        assert sorted(full ^ m for m in found[w]) == sorted(found[n - w])


@settings(max_examples=80, deadline=None)
@given(drawn_columns())
@example([3, 3, -3, 0, 0, 0, 0, -3])  # {0, 2, 4}: classes 3 and -3 balance, class 0 is odd
def test_lefschetz_count_matches_the_matching_search(cols):
    """On every subset, for 2g <= 10: the Weil-Tate determinant sets have odd size when g is odd."""
    n = len(cols)
    qp = pairs_passing(cols)
    for size in range(n + 1):
        for c in combinations(range(n), size):
            assert _lefschetz(c, cols) == has_qpair_matching(c, qp), c


@settings(max_examples=60, deadline=None)
@given(signed_groups(), st.data())
def test_chain_order_and_membership_match_the_listing(G, data):
    listed = set(elements_of(G))
    assert G.order == len(listed)
    n = G.degree
    word = data.draw(st.lists(st.sampled_from(G.generators), max_size=8)) if G.generators else []
    product = tuple(range(n))
    for gen in word:
        product = compose(product, gen)
    assert product in G
    for p in data.draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=5)):
        assert (p in G) == (p in listed)


@settings(max_examples=40, deadline=None)
@given(signed_groups(), st.permutations(range(10)).map(tuple))
def test_chain_order_and_membership_match_sympy(G, p):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    n = G.degree
    gens = [combinatorics.Permutation(list(g)) for g in G.generators]
    theirs = combinatorics.PermutationGroup(gens or [combinatorics.Permutation(list(range(n)))])
    assert G.order == theirs.order()
    p = tuple(x for x in p if x < n)  # a random permutation of the n points
    assert (p in G) == theirs.contains(combinatorics.Permutation(list(p)))


@settings(max_examples=40, deadline=None)
@given(classify_cases(), st.data())
def test_chain_generators_match_the_greedy_over_the_listing(case, data):
    model, s, _, _ = case
    G = model.group
    for P in index2_point_sets(G) + [signature_block(model, s), frozenset({0})]:
        listed = block_subgroup(G, P)
        assert block_subgroup_doc(G, P) == (listing_generators(G, listed), len(listed))
        assert len(listed) == G.order * len(P) // G.degree
    dgens = data.draw(st.lists(st.sampled_from(elements_of(G)), max_size=3))
    D = StabChain(G.degree, dgens)
    assert subgroup_generators(D.reps) == subgroup_generators_by_listing(
        G, subgroup_closure(G, dgens))


def block_subgroup_doc(G, P) -> tuple:
    """(generators, order) of {g : g(1) in P} as a Weil-Tate entry's document gives them."""
    doc = _weil_tate_to_doc(WeilTateEntry(tuple(sorted(P)), False, False), G)
    return doc["subgroup_generators"], doc["subgroup_order"]


def listing_generators(G, listed) -> list:
    return [format_perm(p) for p in subgroup_generators_by_listing(G, listed)]


@st.composite
def small_generator_sets(draw):
    """(n, 0-3 generators) on n = 1..6 points: any, intransitive or imprimitive permutations.

    Intransitive generators keep the runs 0..a-1 and a..n-1 apart;
    imprimitive ones permute the runs of k points as blocks, k a proper
    divisor of n.  Every group lies in S_6, so |G| <= 720 and the
    oracles can list it.
    """
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("any", "intransitive", "imprimitive")))
    perms = st.permutations(range(n)).map(tuple)
    sizes = [k for k in range(2, n) if n % k == 0]
    if kind == "intransitive" and n > 1:
        a = draw(st.integers(1, n - 1))
        perms = st.builds(lambda p, q: tuple(p) + tuple(a + x for x in q),
                          st.permutations(range(a)), st.permutations(range(n - a)))
    elif kind == "imprimitive" and sizes:
        k = draw(st.sampled_from(sizes))
        m = n // k
        perms = st.builds(
            lambda blocks, inner: tuple(blocks[b] * k + inner[b][x]
                                        for b in range(m) for x in range(k)),
            st.permutations(range(m)), st.lists(st.permutations(range(k)), min_size=m, max_size=m))
    return n, draw(st.lists(perms, max_size=3))


@settings(max_examples=80, deadline=None)
@given(small_generator_sets())
@example((1, []))
@example((1, [(0,)]))
@example((5, []))
@example((5, [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)]))  # intransitive: S_2 x C_3
@example((4, [(1, 2, 3, 0), (0, 3, 2, 1)]))  # imprimitive: D_4
@example((6, [(2, 3, 4, 5, 0, 1), (1, 0, 2, 3, 4, 5)]))  # imprimitive: C_2 wr C_3
def test_chain_generators_match_the_greedy_on_small_generator_sets(drawn):
    """The greedy picks off a chain equal the oracle's over the listing, beyond CM models.

    A transitive draw also checks the chain of each of its index-2
    blocks, as the Weil-Tate entries read them.
    """
    n, gens = drawn
    G = build_group(n, gens)
    event(f"transitive: {len(point_orbits(gens, n)) == 1}")
    assert subgroup_generators(G.chain.reps) == subgroup_generators_by_listing(G, elements_of(G))
    if len(point_orbits(gens, n)) == 1:
        for P in index2_point_sets(G):
            listed = block_subgroup(G, P)
            assert block_subgroup_doc(G, P) == (listing_generators(G, listed), len(listed))


def test_weil_tate_generators_build_no_chain(monkeypatch):
    """`report_to_doc` reads each Weil-Tate subgroup's generators off the group's chain alone."""
    built = [scenario_main(6, 5), scenario_ramified(3, 5)]
    reports = [classify_orbits(scn.model, scn.slopes, phi=scn.phi) for scn in built]
    calls = Counter()
    count_calls(monkeypatch, StabChain, "__init__", calls)
    count_calls(monkeypatch, StabChain, "insert", calls)
    for scn, report in zip(built, reports):
        assert report_to_doc(report, scn.model.group)["weil_tate"]
    assert calls["__init__"] == calls["insert"] == 0
    StabChain(4, [cycles_to_perm(4, [(1, 2)])])  # the counters do see a chain being built
    assert calls == {"__init__": 1, "insert": 1}


def test_classify_and_honda_tate_list_no_group_element(monkeypatch):
    built = [scenario_main(6, 5), scenario_ramified(3, 5), scenario_split(3, 5)]
    reports = [classify_orbits(scn.model, scn.slopes, phi=scn.phi) for scn in built]
    expected = [(report, honda_tate_endomorphism(scn.model, scn.slopes, report.columns))
                for scn, report in zip(built, reports)]

    def refuse(*args, **kwargs):
        raise AssertionError("a subgroup was listed")

    for module in (weiltate.galois, weiltate.classifier):
        if hasattr(module, "build_group"):
            monkeypatch.setattr(module, "build_group", refuse)
    for scn, (report, end) in zip(built, expected):
        again = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
        assert again == report
        assert honda_tate_endomorphism(scn.model, scn.slopes, again.columns) == end


def count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_classify_builds_one_basis_and_computes_the_d_orbits_once(monkeypatch):
    from weiltate.cli import classify_scenario_doc

    calls = Counter()
    count_calls(monkeypatch, CMGaloisModel, "__post_init__", calls)  # the one D-orbit walk
    for module in (weiltate.classifier, weiltate.slopes):
        count_calls(monkeypatch, module, "conjugate_slope_basis", calls)
        count_calls(monkeypatch, module, "validate_slopes", calls)
    scn = scenario_ramified(3, 5)
    assert calls == {"__post_init__": 1}  # the preset's slopes are not checked yet
    # the whole document checks the slopes once and builds one basis, from which the report
    # carries the Frobenius rank and the packed columns that Honda-Tate reads
    classify_scenario_doc(scn)
    assert calls == {"__post_init__": 1, "conjugate_slope_basis": 1, "validate_slopes": 1}
    classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    assert calls == {"__post_init__": 1, "conjugate_slope_basis": 2, "validate_slopes": 2}


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
    rep = classify_orbits(scn.model, scn.slopes)
    assert closed_form_rho(scn.model, scn.slopes) == rep.tate_dims


@pytest.mark.parametrize("name", ["main8", "main10", "main12", "ramified5", "split5"])
def test_tate_counts_by_dp_match_the_orbit_ranks(name):
    """The scan oracle counts each weight's Tate subsets without listing one."""
    scn = {
        "main8": lambda: scenario_main(8, 5),
        "main10": lambda: scenario_main(10, 5, subset_cap=20),
        "main12": lambda: scenario_main(12, 5, subset_cap=24),
        "ramified5": PRESETS["ramified5"],
        "split5": PRESETS["split5"],
    }[name]()
    n = scn.model.group.degree
    report = classify_orbits(scn.model, scn.slopes)
    counts = tate_counts_by_dp(_packed_columns(tate_rows(scn.model, scn.slopes)))
    assert tuple(counts.get(w, 0) for w in range(0, n + 1, 2)) == report.tate_dims


@pytest.mark.parametrize("g", range(4, 17, 2))
def test_main_family_matches_its_closed_form(g):
    """Every orbit of main g = 4..16, member by member, against the formula (caps raised here)."""
    scn = scenario_main(g, 5, subset_cap=2 * g)
    report = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    rho, orbits = main_family_by_formula(g)
    assert report.tate_dims == rho
    assert len(report.orbits) == len(orbits) == g + 2
    for o in report.orbits:
        assert frozenset(member_points(o.orbit)) == orbits.pop((o.weight, o.is_exotic))
        assert o.rank == len(o.orbit.masks) and o.is_tate
        assert o.is_lefschetz_bearing != o.is_exotic
    assert orbits == {}


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
        (cm_product_model(3), ordinary_slopes(3)),
    ]
    for model, s in instances:
        for o in classify_orbits(model, s).exotic:
            assert o.rank >= 2


def test_lefschetz_flag_constant_across_orbit():
    scn = scenario_ramified(3, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    qp = q_pairs(scn.model, scn.slopes)
    for o in rep.orbits:
        flags = {has_qpair_matching(frozenset(m), qp) for m in member_points(o.orbit)}
        assert flags == {o.is_lefschetz_bearing}


def test_tau_stable_sets_bear_lefschetz_classes():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    for o in rep.orbits:
        members = [frozenset(m) for m in member_points(o.orbit)]
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
    ram = scenario_ramified(5, 5, subset_cap=20)
    end = honda_tate_endomorphism(ram.model, ram.slopes, columns_of(ram.model, ram.slopes))
    assert end.frobenius_field_degree == 10
    assert end.index == 2
    assert not end.commutative
    assert end.abelian_variety_dim == 10
    assert sorted(ratio_str(p.invariant_num, p.den) for p in end.local_invariants) == [
        "0/1", "1/2", "1/2"]
    entries = weil_tate_submotives(ram.model, ram.slopes)
    assert len(entries) == 2
    assert sorted(e.is_exotic for e in entries) == [False, True]
    lefschetz_entry = next(e for e in entries if not e.is_exotic)
    assert lefschetz_entry.is_tate and lefschetz_entry.is_lefschetz_bearing
    assert len(conjugate_slope_basis(ram.model, ram.slopes)) - 1 == 4  # rank g/2 - 1, g = 10

    spl = scenario_split(5, 5, subset_cap=20)
    end = honda_tate_endomorphism(spl.model, spl.slopes, columns_of(spl.model, spl.slopes))
    assert end.frobenius_field_degree == 20
    assert end.commutative
    assert end.abelian_variety_dim == 10
    entries = weil_tate_submotives(spl.model, spl.slopes)
    assert len(entries) == 2
    assert all(e.is_tate and e.is_exotic for e in entries)
    assert len(conjugate_slope_basis(spl.model, spl.slopes)) - 1 == 8  # rank g - 2, g = 10


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
    model = CMGaloisModel(build_group(4, [c]))
    s = SlopeVector(2, (1,) * 4)
    assert weil_tate_submotives(model, s) == ()


# --- honda_tate_endomorphism ----------------------------------------------------


def test_honda_tate_main4():
    scn = scenario_main(4, 5)
    end = honda_tate_endomorphism(scn.model, scn.slopes, columns_of(scn.model, scn.slopes))
    assert end.frobenius_field_degree == 8
    assert end.index == 1
    assert end.commutative
    assert end.abelian_variety_dim == 4


def test_honda_tate_ramified3():
    scn = scenario_ramified(3, 5)
    end = honda_tate_endomorphism(scn.model, scn.slopes, columns_of(scn.model, scn.slopes))
    assert end.frobenius_field_degree == 6
    assert sorted(ratio_str(p.invariant_num, p.den) for p in end.local_invariants) == [
        "0/1", "1/2", "1/2"]
    assert end.index == 2
    assert not end.commutative
    assert end.abelian_variety_dim == 6
    assert sorted(p.degree for p in end.local_invariants) == [2, 2, 2]


def test_honda_tate_split3():
    scn = scenario_split(3, 5)
    end = honda_tate_endomorphism(scn.model, scn.slopes, columns_of(scn.model, scn.slopes))
    assert end.frobenius_field_degree == 12
    assert end.commutative
    assert end.abelian_variety_dim == 6


def test_honda_tate_supersingular_shadow():
    model = supersingular_degree2_model()
    s = SlopeVector(2, (1, 1))
    end = honda_tate_endomorphism(model, s, columns_of(model, s))
    assert end.frobenius_field_degree == 1
    assert [(p.invariant_num, p.den) for p in end.local_invariants] == [(1, 2)]
    assert end.index == 2
    assert end.abelian_variety_dim == 1
    assert not end.commutative


def test_honda_tate_dimension_identity():
    for scn in (scenario_main(4, 5), scenario_ramified(3, 5), scenario_split(3, 5)):
        end = honda_tate_endomorphism(scn.model, scn.slopes, columns_of(scn.model, scn.slopes))
        assert 2 * end.abelian_variety_dim == end.index * end.frobenius_field_degree
        assert end.commutative == (end.index == 1)
        assert lcm(*(p.den // gcd(p.invariant_num, p.den) for p in end.local_invariants)
                   ) == end.index


@st.composite
def models_with_cm_types(draw):
    """A CM model (`cm_models`) of order at most 640, D generated by 1-2 random elements, a CM-type.

    The bound leaves out the g = 5 signed groups of order 1920 and 3840
    (C2 wr S5 and its subgroups of index 2), on which the element walks
    of `test_block_routes_match_the_element_walks` take 10-80 s a draw;
    `classify_cases` still draws them.
    """
    model = draw(cm_models().filter(lambda m: m.group.order <= 640))
    gens = draw(st.lists(st.sampled_from(elements_of(model.group)), min_size=1, max_size=2))
    model = CMGaloisModel(model.group, subgroup_closure(model.group, gens))
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
    D = subgroup_closure(model.group, model.D_generators)
    assert model.D_blocks == orbits_by_walk(D, model.group.degree)
    end = outcome(honda_tate_endomorphism, model, s, columns_of(model, s))
    assert end == outcome(honda_tate_by_cosets, model, s)
    S = signature_block(model, s)
    fix = block_subgroup(model.group, S)
    assert fix == fix_by_signatures_over_group(model, s)
    if model.g <= 4:  # the definition is a double loop over G
        assert fix == fixer_by_definition(model, s)
    assert max(column_classes(model, s)) + 1 == model.group.order // len(fix)
    if not isinstance(end, str):
        assert end.frobenius_field_degree == model.group.order // len(fix)
    H = block_subgroup(model.group, {0})
    overgroups = index2_overgroups(model.group, H)
    for Z in overgroups + [H, frozenset(elements_of(model.group))]:
        assert ({z[0] for z in Z} <= S) == (Z <= fix)
    sets = index2_point_sets(model.group)
    assert set(sets) == {frozenset(z[0] for z in Z) for Z in overgroups}
    # in generator-sign-pattern order: generator k has sign -1 iff it takes 1 out of the set
    gens = model.group.generators
    patterns = [sum(1 << k for k, gen in enumerate(gens) if gen[0] not in P) for P in sets]
    assert patterns == sorted(set(patterns))
    entries = weil_tate_submotives(model, s)
    assert {block_subgroup(model.group, e.determinant_set) for e in entries} == {
        Z for Z in overgroups if model.tau not in Z
    }


@settings(max_examples=60, deadline=None)
@given(cm_models().filter(lambda m: m.group.order <= 640), st.randoms(use_true_random=False))
def test_column_classes_are_the_signatures_over_the_group(model, rng):
    """Points share a packed column iff s∘e agrees at them for every listed e.

    The groups of `cm_models` lack the point reversal of the product group.
    """
    s = random_admissible_slopes(model, rng)
    cols = columns_of(model, s)
    listed = elements_of(model.group)
    sig = [tuple(s.nums[e[x]] for e in listed) for x in range(model.group.degree)]
    points = range(model.group.degree)
    assert all((cols[x] == cols[y]) == (sig[x] == sig[y]) for x in points for y in points)


TAU4 = tuple((i + 4) % 8 for i in range(8))
# |G| = 16: a walk taking each block through every generator before the next block
# orders both partitions otherwise
SIGNED16 = CMGaloisModel(
    build_group(8, [TAU4, (3, 0, 5, 6, 7, 4, 1, 2), (2, 3, 0, 1, 6, 7, 4, 5)]),
    [(2, 3, 0, 1, 6, 7, 4, 5)],
)


@settings(max_examples=80, deadline=None)
@given(models_with_cm_types(), st.booleans())
@example((SIGNED16, slopes_from_cm_type(SIGNED16, range(4))), False)
@example((SIGNED16, slopes_from_cm_type(SIGNED16, range(4))), True)
def test_blocks_come_in_the_coset_order_of_the_element_listing(case, discrete):
    """The level walk lists the blocks as the listing `elements_of` first meets their cosets.

    Element e meets the coset of the block holding e(1), label[e[0]];
    the partition is the signature partition (the column classes) or the discrete one.
    """
    model, s = case
    label = tuple(range(model.group.degree)) if discrete else column_classes(model, s)
    point = [label.index(b) for b in range(max(label) + 1)]
    listing = list(dict.fromkeys(label[e[0]] for e in elements_of(model.group)))
    assert _blocks_in_coset_order(model, label, point) == listing


@pytest.mark.parametrize("name", ["main4", "main6", "ramified3", "split3", "ramified5"])
def test_weil_tate_determinant_sets_match_the_overgroups(name):
    scn = PRESETS[name]()
    group = scn.model.group
    overgroups = index2_overgroups(group, block_subgroup(group, {0}))
    assert sorted(map(sorted, index2_point_sets(scn.model.group))) == sorted(
        sorted({z[0] for z in Z}) for Z in overgroups
    )
    entries = weil_tate_submotives(scn.model, scn.slopes)
    assert [block_subgroup(group, e.determinant_set) for e in entries] == sorted(
        (Z for Z in overgroups if scn.model.tau not in Z), key=lambda Z: sorted(z[0] for z in Z)
    )


@pytest.mark.parametrize("name", list(PRESETS))
def test_honda_tate_presets_match_the_coset_walk(name):
    scn = PRESETS[name]()
    end = honda_tate_endomorphism(scn.model, scn.slopes, columns_of(scn.model, scn.slopes))
    assert end == honda_tate_by_cosets(scn.model, scn.slopes)
    fix = block_subgroup(scn.model.group, signature_block(scn.model, scn.slopes))
    assert scn.model.group.order // len(fix) == end.frobenius_field_degree


# --- structure_check -------------------------------------------------------------


def test_structure_check_main4_commutative():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    end = honda_tate_endomorphism(scn.model, scn.slopes, rep.columns)
    verdict = structure_check(scn.model, rep, end)
    assert verdict.passed and verdict.branch == "commutative"


def test_structure_check_ramified_noncommutative():
    scn = scenario_ramified(3, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    end = honda_tate_endomorphism(scn.model, scn.slopes, rep.columns)
    verdict = structure_check(scn.model, rep, end)
    assert verdict.passed and verdict.branch == "noncommutative"


def test_structure_check_requires_mildly_exotic():
    model = cm_product_model(3)
    s = ordinary_slopes(3)
    model_d = CMGaloisModel(model.group, frozenset({tuple(range(6))}))
    rep = classify_orbits(model_d, s)
    end = honda_tate_endomorphism(model_d, s, rep.columns)
    with pytest.raises(ValueError):
        structure_check(model_d, rep, end)


def _mildly_exotic_parts(scn):
    """(model, report, end report) of a preset that passes structure_check."""
    model, s = scn.model, scn.slopes
    report = classify_orbits(model, s)
    return model, report, honda_tate_endomorphism(model, s, report.columns)


def test_structure_check_fails_on_odd_g():
    model = CMGaloisModel(cm_product_model(3).group, frozenset({tuple(range(6))}))
    s = ordinary_slopes(3)
    rep = classify_orbits(model, s)
    # the weight-0 orbit, of rank 1, forged exotic: the report is then mildly exotic
    first, *rest = rep.orbits
    rep = rep.replace(orbits=(first.replace(is_lefschetz_bearing=False), *rest))
    assert rep.mildly_exotic is True
    verdict = structure_check(model, rep, honda_tate_endomorphism(model, s, rep.columns))
    assert not verdict.passed and verdict.failed_clause == "dimension g is odd"


def test_structure_check_fails_on_an_exotic_orbit_outside_weil_tate():
    model, rep, end = _mildly_exotic_parts(scenario_main(4, 5))
    assert rep.exotic and end.commutative
    verdict = structure_check(model, rep.replace(weil_tate=()), end)
    first = [i + 1 for i in rep.exotic[0].representative]
    assert (verdict.passed, verdict.branch) == (False, "commutative")
    assert verdict.failed_clause == (
        f"exotic orbit with representative {first} is not a Weil-Tate determinant"
    )


def test_structure_check_fails_when_the_exotic_determinant_lies_in_another_orbit():
    model, rep, end = _mildly_exotic_parts(scenario_ramified(3, 5))
    (exotic,) = rep.exotic
    (outer,) = [e for e in rep.weil_tate if _mask(12, e.determinant_set) not in exotic.orbit.masks]
    assert outer.is_tate and not outer.is_exotic
    # the one exotic Weil-Tate entry now sits in an orbit of Lefschetz classes
    moved = outer.replace(is_lefschetz_bearing=False)
    assert moved.is_exotic
    verdict = structure_check(model, rep.replace(weil_tate=(moved,)), end)
    assert (verdict.passed, verdict.branch) == (False, "noncommutative")
    assert verdict.failed_clause == (
        f"exotic orbit with representative {[i + 1 for i in exotic.representative]} "
        "is not a Weil-Tate determinant"
    )


def test_structure_check_fails_on_noncommutative_index_other_than_two():
    model, rep, end = _mildly_exotic_parts(scenario_ramified(3, 5))
    assert (end.commutative, end.index) == (False, 2)
    # two places of degree 1 with invariants 1/4 and 3/4: index 4
    over4 = end.replace(local_invariants=(LocalInvariant(1, 4, 1), LocalInvariant(1, 4, 3)))
    assert (over4.commutative, over4.index) == (False, 4)
    verdict = structure_check(model, rep, over4)
    assert (verdict.passed, verdict.branch) == (False, "noncommutative")
    assert verdict.failed_clause == "noncommutative index m = 4 != 2"


def test_structure_check_fails_on_even_half_dimension():
    model, rep, end = _mildly_exotic_parts(scenario_main(4, 5))
    assert end.commutative
    # two places of degree 1 with invariant 1/2 each: index 2
    over2 = end.replace(local_invariants=(LocalInvariant(1, 2, 1),) * 2)
    assert (over2.commutative, over2.index) == (False, 2)
    verdict = structure_check(model, rep, over2)
    assert (verdict.passed, verdict.branch) == (False, "noncommutative")
    assert verdict.failed_clause == "g/2 is even"


def test_structure_check_fails_on_more_than_one_exotic_orbit():
    model, rep, end = _mildly_exotic_parts(scenario_ramified(3, 5))
    assert len(rep.exotic) == 1
    twice = rep.replace(orbits=rep.orbits + rep.exotic)
    assert len(twice.exotic) == 2 and twice.mildly_exotic is True
    verdict = structure_check(model, twice, end)
    assert (verdict.passed, verdict.branch) == (False, "noncommutative")
    assert verdict.failed_clause == "2 exotic orbits instead of a unique one"


@pytest.mark.parametrize("name", ["main4", "ramified3", "split3"])
def test_structure_check_reads_every_member_of_an_exotic_orbit(name):
    """The exotic determinant may be any member: the check passes with the masks in either order."""
    scn = PRESETS[name]()
    model, s = scn.model, scn.slopes
    rep = classify_orbits(model, s)
    end = honda_tate_endomorphism(model, s, rep.columns)
    for order in (1, -1):
        orbits = tuple(o.replace(orbit=MemberMasks(o.orbit.n, o.orbit.masks[::order]))
                       if o.is_exotic else o for o in rep.orbits)
        assert structure_check(model, rep.replace(orbits=orbits), end).passed


# --- predicted_signature ----------------------------------------------------------


def test_signature_main4():
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    assert rep.tate_dims[:3] == (1, 4, 8)
    assert rep.predicted_signature == (5, 3)


def test_signature_all_ones_hypothetical():
    rep = ClassifierReport(
        g=4,
        weights=(0, 2, 4, 6, 8),
        orbits=(),
        tate_dims=(1, 1, 1, 1, 1),
        weil_tate=(),
    )
    assert (rep.exotic, rep.mildly_exotic, rep.scht_verdict) == ((), False, SCHT_LEFSCHETZ_ONLY)
    assert rep.predicted_signature == (1, 0)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_mildly_exotic_needs_every_exotic_orbit_of_rank_at_most_two(rank):
    """A Lefschetz orbit of any rank beside it does not count."""
    exotic = MotiveOrbit(4, (0, 1, 2, 3), MemberMasks(8, range(rank, 0, -1)), False)
    lefschetz = MotiveOrbit(4, (0, 1, 4, 5), MemberMasks(8, range(5, 0, -1)), True)
    for tate_dims in ((1, 0, 6, 0, 1), None):
        rep = ClassifierReport(4, (4,), (exotic, lefschetz), tate_dims, ())
        assert rep.exotic == (exotic,)
        mildly = rank <= 2 if tate_dims else None
        assert (rep.mildly_exotic, rep.scht_verdict) == (
            mildly, SCHT_APPLICABLE if mildly else SCHT_NOT_DECIDED)


def test_signature_rho1_counts_the_g_pairs():
    scn = scenario_main(6, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    assert rep.tate_dims[0] == 1
    assert rep.tate_dims[1] == 6


def test_signature_main6():
    scn = scenario_main(6, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    assert rep.tate_dims[:4] == (1, 6, 15, 22)
    assert rep.predicted_signature == (10, 12)


@pytest.mark.parametrize("name", PRESETS)
def test_signature_is_nonnegative_on_presets(name):
    scn = PRESETS[name]()
    rep = classify_orbits(scn.model, scn.slopes)
    s_plus, s_minus = rep.predicted_signature
    assert s_plus >= 0 and s_minus >= 0
    assert s_plus + s_minus == rep.tate_dims[rep.g // 2]


def test_signature_rejects_odd_g():
    rep = classify_orbits(cm_product_model(3), ordinary_slopes(3))
    assert rep.g == 3 and rep.tate_dims is not None
    assert rep.predicted_signature is None


# --- lemma suite -------------------------------------------------------------------


def build_instances():
    return [scenario_main(4, 5), scenario_ramified(3, 5), scenario_split(3, 5)]


def test_lemma_suite_presets_all_pass():
    rows = [r for scn in build_instances()
            for r in verify_lemma_suite(scn, *classify_scenario(scn))]
    assert all(r.status in (PASS, NOT_APPLICABLE) for r in rows)
    by_key = {(r.instance, r.lemma): r.status for r in rows}
    assert by_key[("main-g4-p5", "exotic_partition")] == PASS
    assert by_key[("main-g4-p5", "main_family_unique_exotic")] == PASS
    assert by_key[("main-g4-p5", "half_weight_minimum")] == NOT_APPLICABLE
    assert by_key[("ramified-gp3-p5", "half_weight_minimum")] == PASS
    assert by_key[("ramified-gp3-p5", "exotic_uniqueness")] == PASS
    assert by_key[("split-gp3-p5", "exotic_partition")] == PASS
    assert by_key[("split-gp3-p5", "exotic_uniqueness")] == NOT_APPLICABLE


def test_unique_exotic_lemma_reads_every_mask_of_the_orbit():
    # ramified g'=3: the one exotic orbit is {I, tau I}, I = {1, 2, 3, 10, 11, 12};
    # a stray takes the place of tau I, the orbit's last mask, so its rank stays 2
    scn = scenario_ramified(3, 5)
    report = classify_orbits(scn.model, scn.slopes)
    (orbit,) = report.exotic
    members = MemberMasks(12, (orbit.orbit.masks[0], _mask(12, (0, 2, 4, 6, 8, 10))))
    forged = report.replace(orbits=tuple(
        o.replace(orbit=members) if o.is_exotic else o for o in report.orbits))
    assert forged.mildly_exotic is True and forged.columns is report.columns
    end = honda_tate_endomorphism(scn.model, scn.slopes, report.columns)
    (row,) = [r for r in verify_lemma_suite(scn, forged, end) if r.lemma == "exotic_uniqueness"]
    assert row.status == FAIL
    # the stray, as 1-based points
    assert row.detail == "exotic subset [1, 3, 5, 7, 9, 11] differs from I, tau I"


def _lemma_row(scn, report, end, lemma):
    (row,) = [r for r in verify_lemma_suite(scn, report, end) if r.lemma == lemma]
    return row.status, row.detail


def test_half_weight_lemma_names_the_first_short_subset():
    # ramified g'=3 is noncommutative, and its exotic representative is I = {1, 2, 3, 10, 11, 12}
    scn = scenario_ramified(3, 5)
    report, end = classify_scenario(scn)
    I = report.exotic[0].representative
    assert I == (0, 1, 2, 9, 10, 11) and not end.commutative
    cancel = list(report.columns)
    cancel[I[1]] = -cancel[I[0]]  # an even size: points 1 and 2 cancel
    zero = list(report.columns)
    zero[I[2]] = 0  # an odd size: point 3 alone
    assert _lemma_row(scn, report.replace(columns=cancel), end, "half_weight_minimum") == (
        FAIL, "J = [1, 2] has half-weight products but #J = 2 < g/2 = 3")
    assert _lemma_row(scn, report.replace(columns=zero), end, "half_weight_minimum") == (
        FAIL, "J = [3] has half-weight products but #J = 1 < g/2 = 3")


def test_partition_lemma_names_a_representative_that_misses_points():
    scn = scenario_ramified(3, 5)
    report, end = classify_scenario(scn)
    (orbit,) = report.exotic
    I = (0, 1, 2, 6, 7, 8)  # tau I is I again: points 4-6 and 10-12 are missed
    forged = orbit.replace(representative=I, orbit=MemberMasks(12, (_mask(12, I),)))
    orbits = tuple(forged if o.is_exotic else o for o in report.orbits)
    assert _lemma_row(scn, report.replace(orbits=orbits), end, "exotic_partition") == (
        FAIL, "I = [1, 2, 3, 7, 8, 9] has I ∪ tau I != all indices")


def test_uniqueness_lemmas_count_the_exotic_orbits():
    scn = scenario_ramified(3, 5)
    report, end = classify_scenario(scn)
    (orbit,) = report.exotic
    twice = report.replace(orbits=report.orbits + (orbit,))
    assert _lemma_row(scn, twice, end, "exotic_uniqueness") == (
        FAIL, "2 exotic orbits in the noncommutative setting")
    scn = scenario_main(4, 5)
    report, end = classify_scenario(scn)
    none = report.replace(orbits=tuple(
        o.replace(is_lefschetz_bearing=True) for o in report.orbits))
    assert _lemma_row(scn, none, end, "main_family_unique_exotic") == (
        FAIL, "exotic orbits: []")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=12, max_size=12))
@example([2, 3, 4, 0, 0, 0, 0, 0, 0, 5, 6, 7])  # the zero columns lie outside I: PASS
@example([1, 2, 3, 0, 0, 0, 0, 0, 0, -1, -2, 5])  # J = [1, 10], across the gap in I
def test_half_weight_lemma_matches_the_combinations_oracle(cols):
    """Ramified g'=3 with drawn columns: the row names the oracle's first short subset."""
    scn = scenario_ramified(3, 5)
    report, end = classify_scenario(scn)
    forged = report.replace(columns=cols)
    J = short_half_weight_by_combinations(forged)
    event("PASS" if J is None else f"#J = {len(J)}")
    expected = (PASS, "") if J is None else (
        FAIL, f"J = {[i + 1 for i in J]} has half-weight products but #J = {len(J)} < g/2 = 3")
    assert _lemma_row(scn, forged, end, "half_weight_minimum") == expected


def test_member_masks_compare_hash_and_show_their_masks():
    members = MemberMasks(6, [0b110000, 0b100010, 0b000011, 0])
    assert members == MemberMasks(6, members.masks) and hash(members) == hash((6, members.masks))
    assert members != MemberMasks(6, members.masks[:3]) and members != MemberMasks(8, members.masks)
    assert members != members.masks and members != ((0, 1), (0, 4), (4, 5), ())
    assert repr(members) == "MemberMasks(6, (48, 34, 3, 0))"
    assert member_points(members) == ((0, 1), (0, 4), (4, 5), ())


def test_lemma_suite_gates_on_hypotheses():
    model = CMGaloisModel(cm_product_model(3).group, [])  # ordinary: every place has degree 1
    scn = Scenario(name="ordinary", family=None, model=model, phi=frozenset(range(3, 6)))
    assert scn.slopes == ordinary_slopes(3)
    rows = verify_lemma_suite(scn, *classify_scenario(scn))
    assert {r.status for r in rows} == {NOT_APPLICABLE}
    assert not any(r.status == FAIL for r in rows)


def test_lemma_suite_classifies_nothing(monkeypatch):
    scn = scenario_ramified(3, 5)
    report, end = classify_scenario(scn)
    expected = verify_lemma_suite(scn, report, end)

    def refuse(*args, **kwargs):
        raise AssertionError("the lemma suite classified")

    for name in ("classify_orbits", "honda_tate_endomorphism", "classify_scenario"):
        monkeypatch.setattr(weiltate.classifier, name, refuse)
    rows = verify_lemma_suite(scn, report, end)
    assert rows == expected and len(rows) == 4
    assert {r.instance for r in rows} == {"ramified-gp3-p5"}


# --- serialization ------------------------------------------------------------------


def test_report_document_round_trip():
    scn = scenario_ramified(3, 5)
    rep = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    group = scn.model.group
    doc = json.loads(emitted_text(report_to_doc(rep, group=group)))
    assert doc_to_report(doc) == rep
    # the written generators close to the subgroup that the determinant set fixes
    for ed, e in zip(doc["weil_tate"], rep.weil_tate):
        Z = subgroup_closure(group, [parse_perm(t, group.degree) for t in ed["subgroup_generators"]])
        assert Z == block_subgroup(group, e.determinant_set)
        assert len(Z) == ed["subgroup_order"]

    end = honda_tate_endomorphism(scn.model, scn.slopes, rep.columns)
    end_doc = json.loads(json.dumps(end_report_to_doc(end)))
    assert doc_to_end_report(end_doc) == end
