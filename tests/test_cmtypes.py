"""CM-type enumeration and Hodge type tests."""

import random

import pytest
from oracles import cm_product_model

import weiltate.classifier
import weiltate.cmtypes
from weiltate.classifier import classify_orbits
from weiltate.cmtypes import (
    enumerate_cm_types,
    hodge_type,
    is_balanced,
    least_cm_type,
    measure_cm_type,
    tau_block_classes,
    validate_cm_type,
)
from weiltate.forge import scenario_main, scenario_ramified, scenario_split, serialize_scenario
from weiltate.slopes import slopes_from_cm_type, validate_slopes


def test_enumerate_main_scenario_count_and_order():
    scn = scenario_main(4, 5)
    phis = enumerate_cm_types(scn.model, (1, 3))
    assert len(phis) == 4
    as_lists = [sorted(phi) for phi in phis]
    assert as_lists == sorted(as_lists)
    # the preset is the least one
    assert phis[0] == scn.phi
    assert [i + 1 for i in sorted(phis[0])] == [1, 2, 4, 7]


def test_enumerate_forced_unique_choice():
    scn = scenario_main(4, 5)
    phis = enumerate_cm_types(scn.model, (0, 4))
    assert len(phis) == 1
    block1 = scn.model.D_blocks[1]
    assert phis[0] == frozenset(block1)


def test_enumerate_rejects_inconsistent_targets():
    scn = scenario_main(4, 5)
    with pytest.raises(ValueError, match="no CM-type exists"):
        enumerate_cm_types(scn.model, (1, 2))


@pytest.mark.parametrize("bad", [1.7, "3", None, 3.0])
def test_a_target_that_is_not_an_integer_is_refused(bad):
    # a float is not truncated and a string is not parsed: (1.7, 3.2) is not the preset's (1, 3)
    scn = scenario_main(4, 5)
    for targets in ((bad, 3), (1, bad)):
        for build in (least_cm_type, enumerate_cm_types):
            with pytest.raises(ValueError, match=f"target {bad!r} is not an integer in 0..4"):
                build(scn.model, targets)
    with pytest.raises(ValueError, match="is not an integer"):
        least_cm_type(scn.model, (1.7, 3.2))


@pytest.mark.parametrize("build, targets, classes", [
    (lambda: scenario_main(4, 5), (1, 3), [(0, 1)]),
    (lambda: scenario_ramified(3, 5), (1, 3, 2), [(0, 1), (2, 2)]),
    (lambda: scenario_split(3, 5), (0, 2, 1, 1, 1, 1), [(0, 1), (2, 2), (3, 4), (5, 5)]),
], ids=["main4", "ramified3", "split3"])
def test_a_preset_phi_is_the_least_type_of_its_measured_targets(build, targets, classes):
    scn = build()
    assert tau_block_classes(scn.model) == classes  # tau-swapped pairs, then tau-stable blocks
    assert measure_cm_type(scn.model, scn.phi) == targets
    assert least_cm_type(scn.model, targets) == scn.phi


def test_every_enumerated_type_is_valid_and_remeasures():
    scn = scenario_ramified(3, 5)
    targets = (1, 3, 2)
    for phi in enumerate_cm_types(scn.model, targets):
        validate_cm_type(scn.model, phi)
        assert measure_cm_type(scn.model, phi) == targets
        validate_slopes(scn.model, slopes_from_cm_type(scn.model, phi))


def test_least_matches_enumeration_head():
    scn = scenario_ramified(3, 5)
    for counts in ((1, 3, 2), (3, 1, 2), (0, 4, 2), (2, 2, 2)):
        assert least_cm_type(scn.model, counts) == enumerate_cm_types(scn.model, counts)[0]


def test_hodge_type_examples():
    scn = scenario_main(4, 5)
    i0 = frozenset({0, 1, 2, 3})
    assert hodge_type(scn.phi, i0) == (3, 1)
    assert hodge_type(scn.phi, scn.phi) == (4, 0)
    pair = frozenset({0, scn.model.tau[0]})
    assert hodge_type(scn.phi, pair) == (1, 1)


def test_hodge_types_of_set_and_complement_sum_to_g_g():
    scn = scenario_main(4, 5)
    rng = random.Random(2)
    points = set(range(8))
    for _ in range(20):
        subset = frozenset(rng.sample(sorted(points), rng.randint(0, 8)))
        p1, q1 = hodge_type(scn.phi, subset)
        p2, q2 = hodge_type(scn.phi, points - subset)
        assert (p1 + p2, q1 + q2) == (4, 4)


def test_classify_orbits_validates_phi_once(monkeypatch):
    calls = []
    validate = weiltate.cmtypes.validate_cm_type

    def counted(model, phi):
        calls.append(phi)
        return validate(model, phi)

    monkeypatch.setattr(weiltate.cmtypes, "validate_cm_type", counted)
    monkeypatch.setattr(weiltate.classifier, "validate_cm_type", counted)
    for scn in (scenario_main(6, 5), scenario_ramified(3, 5)):
        calls.clear()
        report = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
        assert len(report.orbits) > 1
        assert all(o.hodge_type is not None for o in report.orbits)
        assert calls == [scn.phi]


@pytest.mark.parametrize("phi, message", [
    ({0, 4, 1, 2}, "CM-type meets its own conjugate"),  # 0 and tau(0) = 4
    ({0, 1, 2}, "CM-type and its conjugate do not cover all indices"),
    ({0, 1, 2, 11}, "CM-type contains indices outside 1..2g"),
])
def test_classify_orbits_refuses_an_invalid_phi(phi, message):
    scn = scenario_main(4, 5)
    with pytest.raises(ValueError, match=message):
        classify_orbits(scn.model, scn.slopes, phi=frozenset(phi))


def test_is_balanced():
    assert not is_balanced((3, 1))
    assert is_balanced((2, 2))
    assert is_balanced((0, 0))


def test_cm_type_validation_errors():
    model = cm_product_model(2)
    with pytest.raises(ValueError):
        validate_cm_type(model, frozenset({0, 2}))  # meets its conjugate
    with pytest.raises(ValueError):
        validate_cm_type(model, frozenset({0}))  # does not cover


def test_cm_type_serialization():
    scn = scenario_main(4, 5)
    assert "phi = 1 2 4 7" in serialize_scenario(scn).splitlines()


def test_enumeration_cap(monkeypatch):
    import weiltate.cmtypes as cmtypes
    from weiltate.galois import CapExceededError

    scn = scenario_main(4, 5)
    monkeypatch.setattr(cmtypes, "DEFAULT_ENUM_CAP", 2)
    with pytest.raises(CapExceededError):
        enumerate_cm_types(scn.model, (1, 3))
