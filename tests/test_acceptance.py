"""Acceptance suite: one test per criterion, exact values, stated runtime caps.

Every equality is exact rational arithmetic (tolerance zero).  Each test
prints a single PASS line when its criterion holds; assertion failures
mark the criterion failed.
"""

import random
import time
from oracles import (
    block_subgroup,
    cm_product_model,
    column_classes,
    columns_of,
    emitted_text,
    fixer_by_definition,
    index2_overgroups,
    member_points,
    potential_by_valuation_grouping,
    random_admissible_slopes,
    signature_block,
    weil_tate_submotives,
)

from weiltate.classifier import (
    NOT_APPLICABLE,
    PASS,
    SCHT_APPLICABLE,
    classify_orbits,
    classify_scenario,
    honda_tate_endomorphism,
    verify_lemma_suite,
)
from weiltate.cli import classify_scenario_doc, report_to_doc
from weiltate.forge import forge_totally_real, scenario_main, scenario_ramified, scenario_split
from weiltate.galois import index2_point_sets
from weiltate.slopes import ratio_str


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def slope_rows(g: int, count: int, seed: int) -> list:
    """Fix, the minimal field index and p-potential membership of seeded slopes, by the oracles.

    The program's routes: Fix is cut out by the signature block S, the
    index [G : Fix] is the number of column classes (the degree that
    Honda-Tate reports as [F:Q]), and the subgroup a block B cuts out
    lies in Fix iff B lies in S.  Membership is tested on the index-2
    blocks, {1}, all points and S; each block's subgroup is listed only
    for the oracles.
    """
    model = cm_product_model(g)
    G = model.group
    fixed = [(B, block_subgroup(G, B))
             for B in index2_point_sets(G) + [frozenset({0}), frozenset(range(G.degree))]]
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        s = random_admissible_slopes(model, rng)
        S = signature_block(model, s)
        fix = block_subgroup(G, S)
        index = max(column_classes(model, s)) + 1
        rows.append({
            "fixer_matches_definition": fix == fixer_by_definition(model, s),
            "minimal_index_is_the_index_of_fix": index * len(fix) == G.order,
            "minimal_index_divides_2g": (2 * g) % index == 0,
            "potential_matches_grouping": all(
                (B <= S) == potential_by_valuation_grouping(model, s, Z)
                for B, Z in fixed + [(S, fix)]
            ),
        })
    return rows


def test_criterion_1_main4_exotic_orbit():
    start = time.monotonic()
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    assert len(rep.exotic) == 1
    (exotic,) = rep.exotic
    assert exotic.weight == 4
    assert exotic.rank == 2
    assert (0, 1, 2, 3) in member_points(exotic.orbit)  # G-conjugate to {1,2,3,4}
    assert exotic.hodge_type == (3, 1)
    assert exotic.hodge_balanced is False
    assert rep.mildly_exotic is True
    assert rep.scht_verdict == SCHT_APPLICABLE
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"runtime {elapsed:.2f}s exceeds 10s"
    report("1 (main g=4: unique rank-2 exotic orbit, hodge (3,1), mildly exotic)")


def test_criterion_2_main6_exotic_orbit():
    start = time.monotonic()
    scn = scenario_main(6, 5)
    rep = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    assert len(rep.exotic) == 1
    (exotic,) = rep.exotic
    assert exotic.weight == 6
    assert exotic.rank == 2
    assert exotic.hodge_type == (4, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"runtime {elapsed:.2f}s exceeds 120s"
    report("2 (main g=6: unique rank-2 exotic orbit, hodge (4,2))")


def test_criterion_3_ramified3_invariants_and_exotic():
    scn = scenario_ramified(3, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    end = honda_tate_endomorphism(scn.model, scn.slopes, rep.columns)
    invariants = sorted(ratio_str(p.invariant_num, p.den) for p in end.local_invariants)
    assert invariants == ["0/1", "1/2", "1/2"]
    assert end.index == 2
    assert not end.commutative
    assert end.frobenius_field_degree == 6
    assert end.abelian_variety_dim == 6

    assert len(rep.exotic) == 1
    (exotic,) = rep.exotic

    entries = weil_tate_submotives(scn.model, scn.slopes)
    assert len(entries) == 2
    S = signature_block(scn.model, scn.slopes)
    in_frobenius_field = [e for e in entries if S <= set(e.determinant_set)]
    assert len(in_frobenius_field) == 1  # the unique imaginary quadratic subfield of F
    (inner,) = in_frobenius_field
    assert inner.is_tate and inner.is_exotic
    assert inner.determinant_set in member_points(exotic.orbit)

    (outer,) = [e for e in entries if not S <= set(e.determinant_set)]
    assert outer.is_tate and outer.is_lefschetz_bearing and not outer.is_exotic
    report("3 (ramified g'=3: invariants {1/2,1/2,0}, m=2, unique exotic = det over Q1, "
           "second determinant Tate but Lefschetz)")


def test_criterion_4_split3_two_exotic():
    scn = scenario_split(3, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    end = honda_tate_endomorphism(scn.model, scn.slopes, rep.columns)
    assert end.commutative
    assert end.frobenius_field_degree == 12
    assert len(rep.exotic) == 2
    assert all(o.rank == 2 for o in rep.exotic)
    report("4 (split g'=3: commutative, [F:Q]=12, two rank-2 exotic orbits)")


def test_criterion_5_frobenius_ranks():
    ranks = [
        classify_orbits(scn.model, scn.slopes).frobenius_rank
        for scn in (scenario_main(4, 5), scenario_main(6, 5), scenario_ramified(3, 5),
                    scenario_split(3, 5))
    ]
    assert ranks == [3, 5, 2, 4]
    report("5 (frobenius ranks g-1 / g-1 / g/2-1 / g-2)")


def test_criterion_6_slope_oracle_equivalence():
    # presets first
    for scn in (scenario_main(4, 5), scenario_main(6, 5), scenario_ramified(3, 5),
                scenario_split(3, 5)):
        model, s = scn.model, scn.slopes
        S = signature_block(model, s)
        fix = block_subgroup(model.group, S)
        assert fix == fixer_by_definition(model, s)
        index = honda_tate_endomorphism(model, s, columns_of(model, s)).frobenius_field_degree
        assert index * len(fix) == model.group.order
        assert model.group.degree % index == 0
        H = block_subgroup(model.group, {0})
        for Z in index2_overgroups(model.group, H) + [H, fix]:
            expected = potential_by_valuation_grouping(model, s, Z)
            assert ({z[0] for z in Z} <= S) == expected
    # 100 seeded random admissible slope vectors per degree
    mismatches = 0
    total = 0
    for g in (2, 3, 4):
        rows = slope_rows(g, 100, seed=29)
        total += len(rows)
        mismatches += sum(not all(r.values()) for r in rows)
    assert total == 300
    assert mismatches == 0
    report("6 (slope-machinery oracle equivalence: presets + 300 random instances, zero mismatches)")


def test_criterion_7_lemma_suite():
    rows = [r for scn in (scenario_main(4, 5), scenario_main(6, 5), scenario_ramified(3, 5),
                          scenario_split(3, 5))
            for r in verify_lemma_suite(scn, *classify_scenario(scn))]
    assert all(r.status in (PASS, NOT_APPLICABLE) for r in rows)
    by_key = {(r.instance, r.lemma): r.status for r in rows}
    # the partition lemma holds on every (mildly exotic) preset
    for scn_name in ("main-g4-p5", "main-g6-p5", "ramified-gp3-p5", "split-gp3-p5"):
        assert by_key[(scn_name, "exotic_partition")] == PASS
    # half-weight minimum and uniqueness hold in the noncommutative setting
    assert by_key[("ramified-gp3-p5", "half_weight_minimum")] == PASS
    assert by_key[("ramified-gp3-p5", "exotic_uniqueness")] == PASS
    # the main family has a unique exotic orbit
    assert by_key[("main-g4-p5", "main_family_unique_exotic")] == PASS
    assert by_key[("main-g6-p5", "main_family_unique_exotic")] == PASS
    report("7 (lemma suite: partition, half-weight minimum, uniqueness, main-family "
           "uniqueness all PASS)")


def test_criterion_8_duality_and_signature():
    for scn in (scenario_main(4, 5), scenario_main(6, 5), scenario_ramified(3, 5),
                scenario_split(3, 5)):
        rep = classify_orbits(scn.model, scn.slopes)
        assert rep.tate_dims == tuple(reversed(rep.tate_dims))
    scn = scenario_main(4, 5)
    rep = classify_orbits(scn.model, scn.slopes)
    assert rep.tate_dims[:3] == (1, 4, 8)
    assert rep.predicted_signature == (5, 3)
    assert any("Tate classes" in note for note in report_to_doc(rep, scn.model.group)["notes"])
    report("8 (rho_k = rho_{g-k} everywhere; main g=4 rho=(1,4,8), signature (5,3))")


def test_criterion_9_forge_certificates():
    for g, p, l, lp in ((4, 5, 7, 11), (6, 7, 11, 13)):
        seen = set()
        for seed in range(10):
            start = time.monotonic()
            f = forge_totally_real(g, p, l, lp, seed=seed)
            elapsed = time.monotonic() - start
            assert elapsed < 30, f"forging ({g},{p},{l},{lp}) seed {seed} took {elapsed:.1f}s"
            c = f.certificates
            assert c.pattern_at_p == ((g, 1),)
            assert c.pattern_at_l == ((g, 1),)
            assert c.roots_at_lp == g - 2
            assert c.pattern_at_lp == ((1, g - 2), (2, 1))
            assert c.real_root_count == g
            assert c.galois_is_sg
            seen.add(f.poly)
        assert len(seen) == 10, f"outputs for ({g},{p},{l},{lp}) are not pairwise distinct"
    report("9 (forge: 2 configurations x 10 seeds, all certificates pass, outputs distinct)")


def test_criterion_10_determinism():
    docs = [emitted_text(classify_scenario_doc(scenario_ramified(3, 5))) for _ in range(2)]
    assert docs[0] == docs[1]

    a = forge_totally_real(4, 5, 7, 11, seed=7)
    b = forge_totally_real(4, 5, 7, 11, seed=7)
    assert a == b
    report("10 (byte-identical structured reports across reruns)")
