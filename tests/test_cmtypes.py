"""CM-type enumeration and Hodge type tests."""

import random

import pytest

import weiltate.classifier
import weiltate.cmtypes
from weiltate.classifier import classify_orbits
from weiltate.cmtypes import (
    CMType,
    PlacePrescription,
    enumerate_cm_types,
    hodge_type,
    is_balanced,
    least_cm_type,
    measure_cm_type,
    validate_cm_type,
)
from weiltate.forge import scenario_main, scenario_ramified
from weiltate.galois import cm_product_group
from weiltate.slopes import slopes_from_cm_type, validate_slopes


def test_enumerate_main_scenario_count_and_order():
    scn = scenario_main(4, 5)
    phis = enumerate_cm_types(scn.model, PlacePrescription.from_counts((1, 3)))
    assert len(phis) == 4
    as_lists = [phi.sorted_indices() for phi in phis]
    assert as_lists == sorted(as_lists)
    # the preset is the least one
    assert phis[0].phi == scn.phi.phi
    assert [i + 1 for i in phis[0].sorted_indices()] == [1, 2, 4, 7]


def test_enumerate_forced_unique_choice():
    scn = scenario_main(4, 5)
    phis = enumerate_cm_types(scn.model, PlacePrescription.from_counts((0, 4)))
    assert len(phis) == 1
    block1 = scn.model.D_blocks[1]
    assert phis[0].phi == frozenset(block1)


def test_enumerate_rejects_inconsistent_targets():
    scn = scenario_main(4, 5)
    with pytest.raises(ValueError, match="no CM-type exists"):
        enumerate_cm_types(scn.model, PlacePrescription.from_counts((1, 2)))


def test_enumerate_respects_limit():
    scn = scenario_main(4, 5)
    phis = enumerate_cm_types(scn.model, PlacePrescription.from_counts((1, 3)), limit=2)
    assert len(phis) == 2
    assert phis[0].phi == scn.phi.phi


def test_every_enumerated_type_is_valid_and_remeasures():
    scn = scenario_ramified(3, 5)
    prescription = PlacePrescription.from_counts((1, 3, 2))
    for phi in enumerate_cm_types(scn.model, prescription):
        validate_cm_type(scn.model, phi)
        assert measure_cm_type(scn.model, phi).targets == prescription.targets
        validate_slopes(scn.model, slopes_from_cm_type(scn.model, phi))


def test_least_matches_enumeration_head():
    scn = scenario_ramified(3, 5)
    for counts in ((1, 3, 2), (3, 1, 2), (0, 4, 2), (2, 2, 2)):
        prescription = PlacePrescription.from_counts(counts)
        assert (
            least_cm_type(scn.model, prescription).phi
            == enumerate_cm_types(scn.model, prescription)[0].phi
        )


def test_hodge_type_examples():
    scn = scenario_main(4, 5)
    i0 = frozenset({0, 1, 2, 3})
    assert hodge_type(scn.model, scn.phi, i0) == (3, 1)
    assert hodge_type(scn.model, scn.phi, scn.phi.phi) == (4, 0)
    pair = frozenset({0, scn.model.tau[0]})
    assert hodge_type(scn.model, scn.phi, pair) == (1, 1)


def test_hodge_types_of_set_and_complement_sum_to_g_g():
    scn = scenario_main(4, 5)
    rng = random.Random(2)
    points = set(range(8))
    for _ in range(20):
        subset = frozenset(rng.sample(sorted(points), rng.randint(0, 8)))
        p1, q1 = hodge_type(scn.model, scn.phi, subset)
        p2, q2 = hodge_type(scn.model, scn.phi, points - subset)
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
        classify_orbits(scn.model, scn.slopes, phi=CMType(phi=frozenset(phi)))


def test_is_balanced():
    assert not is_balanced((3, 1))
    assert is_balanced((2, 2))
    assert is_balanced((0, 0))


def test_cm_type_validation_errors():
    model = cm_product_group(2)
    with pytest.raises(ValueError):
        validate_cm_type(model, CMType(phi=frozenset({0, 2})))  # meets its conjugate
    with pytest.raises(ValueError):
        validate_cm_type(model, CMType(phi=frozenset({0})))  # does not cover


def test_cm_type_serialization():
    scn = scenario_main(4, 5)
    assert scn.phi.serialize() == "1 2 4 7"


def test_enumeration_cap(monkeypatch):
    import weiltate.cmtypes as cmtypes
    from weiltate.galois import CapExceededError

    scn = scenario_main(4, 5)
    monkeypatch.setattr(cmtypes, "DEFAULT_ENUM_CAP", 2)
    with pytest.raises(CapExceededError):
        enumerate_cm_types(scn.model, PlacePrescription.from_counts((1, 3)))
