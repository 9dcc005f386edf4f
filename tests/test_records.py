"""Frozen records: every value class of the package is a `galois.Record`.

Each record is checked for the semantics its class had as a frozen
dataclass: no assignment or deletion, equality and hashing over the
same fields, the same repr, and `replace` through `__init__`.
"""

import copy
import importlib
from pathlib import Path

import pytest
from oracles import cm_product_model

import weiltate
from weiltate import classifier, forge, galois, slopes
from weiltate.classifier import (
    classify_orbits,
    classify_scenario,
    honda_tate_endomorphism,
    structure_check,
    verify_lemma_suite,
)
from weiltate.forge import forge_totally_real, scenario_main
from weiltate.galois import CMGaloisModel, Record, StabChain, build_group

# class -> (the fields its repr lists, the fields equality and hashing read)
FIELDS = {
    galois.PermGroup: (("degree", "generators"), ("degree", "generators")),
    galois.CMGaloisModel: (
        ("g", "group", "tau", "D_generators", "D_blocks"), ("group", "D_generators"),
    ),
    slopes.SlopeVector: (("den", "nums"), ("den", "nums")),
    classifier.MotiveOrbit: ((
        "weight", "representative", "orbit", "is_lefschetz_bearing", "hodge_type",
    ),) * 2,
    classifier.WeilTateEntry: (("determinant_set", "is_tate", "is_lefschetz_bearing"),) * 2,
    classifier.ClassifierReport: (("g", "weights", "orbits", "tate_dims", "weil_tate"),) * 2,
    classifier.LocalInvariant: (("degree", "den", "slope_num"),) * 2,
    classifier.EndAlgebraReport: (("local_invariants",),) * 2,
    classifier.StructureVerdict: (("branch", "failed_clause"),) * 2,
    classifier.LemmaResult: (("instance", "lemma", "status", "detail"),) * 2,
    forge.Certificates: ((
        "pattern_at_p", "pattern_at_l", "pattern_at_lp", "pattern_at_lpp", "roots_at_lp",
        "real_root_count", "galois_is_sg",
    ),) * 2,
    forge.ForgedField: (("g", "p", "l", "lp", "lpp", "seed", "poly", "spread"),) * 2,
    forge.Scenario: (
        ("name", "family", "model", "phi", "slopes"), ("name", "family", "model", "phi"),
    ),
}


# class -> the names its `__post_init__` stores beside the fields, read off them
DERIVED = {
    galois.CMGaloisModel: {"g", "tau", "D_blocks"},
    classifier.MotiveOrbit: {"rank", "is_exotic", "hodge_balanced"},
    classifier.WeilTateEntry: {"is_exotic"},
    classifier.ClassifierReport: {"exotic", "mildly_exotic", "scht_verdict", "predicted_signature"},
    classifier.LocalInvariant: {"invariant_num"},
    classifier.EndAlgebraReport: {
        "frobenius_field_degree", "index", "commutative", "abelian_variety_dim"},
    classifier.StructureVerdict: {"passed"},
    forge.ForgedField: {"certificates"},
    forge.Scenario: {"slopes"},
}

# class -> its class constants, which are no fields either
CONSTANTS = {classifier.MotiveOrbit: {"is_tate"}}


def _one_of_each() -> dict:
    scn = scenario_main(4, 5)
    report = classify_orbits(scn.model, scn.slopes, phi=scn.phi)
    end = honda_tate_endomorphism(scn.model, scn.slopes, report.columns)
    field = forge_totally_real(4, 5, 7, 11, seed=0)
    records = [
        scn, scn.model, scn.model.group, scn.slopes,
        report, report.orbits[0], report.weil_tate[0], end, end.local_invariants[0],
        structure_check(scn.model, report, end), verify_lemma_suite(scn, report, end)[0],
        field, field.certificates,
    ]
    return {type(r): r for r in records}


RECORDS = _one_of_each()


def test_every_value_class_is_a_record_and_has_an_instance_here():
    # every module of the package, so a record added anywhere meets the checks below
    src = Path(weiltate.__file__).resolve().parent
    modules = [importlib.import_module(f"weiltate.{path.stem}") for path in src.glob("*.py")]
    found = {cls for module in modules
             for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record}
    assert found == set(FIELDS) == set(RECORDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_a_record_refuses_assignment_and_deletion(cls):
    record = RECORDS[cls]
    for name in FIELDS[cls][0] + ("anything",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record.replace() == record


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_a_record_repr_lists_the_dataclass_fields(cls):
    record = RECORDS[cls]
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in FIELDS[cls][0])
    assert repr(record) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_a_record_compares_and_hashes_by_its_compared_fields(cls):
    record = RECORDS[cls]
    again = record.replace()
    assert again is not record and again == record and hash(again) == hash(record)
    assert record != tuple(getattr(record, name) for name in FIELDS[cls][1])
    for name in cls._fields:
        other = copy.copy(record)
        other.__dict__[name] = object()  # past __init__, so no __post_init__ check runs
        assert (other == record) is (name not in FIELDS[cls][1]), name


def test_a_decomposition_changes_equality_and_a_chain_does_not():
    model = cm_product_model(4)
    with_d = CMGaloisModel(model.group, [model.tau])
    again = CMGaloisModel(model.group, [model.tau])
    assert with_d == again and hash(with_d) == hash(again)
    assert with_d != model and with_d != CMGaloisModel(model.group, [])
    assert with_d.D_blocks is not None and model.D_blocks is None
    group = model.group
    rebuilt = build_group(group.degree, group.generators)
    assert rebuilt.chain is not group.chain and rebuilt == group
    other = galois.PermGroup(group.degree, group.generators, StabChain(group.degree))
    assert other == group and hash(other) == hash(group)


def test_scenarios_whose_models_differ_only_in_d_differ():
    """Main g=4 and the same group and phi with D = <tau>: other slopes, another verdict."""
    scn = scenario_main(4, 5)
    other = scn.replace(model=CMGaloisModel(scn.model.group, [scn.model.tau]))
    assert other.model != scn.model and other != scn
    assert (scn.slopes.den, set(scn.slopes.nums)) == (4, {1, 3})
    assert (other.slopes.den, set(other.slopes.nums)) == (2, {1})
    verdicts = [classify_scenario(s)[0].scht_verdict for s in (scn, other)]
    assert verdicts == [classifier.SCHT_APPLICABLE, classifier.SCHT_LEFSCHETZ_ONLY]


def test_replace_runs_post_init_again_and_carries_derived_data():
    model = RECORDS[forge.Scenario].model
    assert model.D_blocks is not None
    again = model.replace()
    assert again == model
    assert (again.D_generators, again.D_blocks) == (model.D_generators, model.D_blocks)
    report = RECORDS[classifier.ClassifierReport]
    assert report.frobenius_rank == 3 and report.columns is not None
    again = report.replace()
    assert (again.frobenius_rank, again.columns) == (report.frobenius_rank, report.columns)
    for cls, record in RECORDS.items():
        again = record.replace()
        assert again == record and vars(again) == vars(record), cls.__name__
    for derived in ("g", "tau", "D_blocks"):  # read off the group and D_generators, not fields
        with pytest.raises(TypeError):
            model.replace(**{derived: None})
    assert model.replace(D_generators=None).D_blocks is None
    n = model.group.degree
    assert model.replace(D_generators=(model.tau,)).D_blocks == tuple(
        (i, i + n // 2) for i in range(n // 2))
    s = RECORDS[slopes.SlopeVector].replace(den=4, nums=(2,) * 8)
    assert (s.den, s.nums) == (2, (1,) * 8)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_a_record_from_every_field_by_keyword_or_position_is_the_record(cls):
    # a call that gives every field takes the short route of `__init__`;
    # `__post_init__` still runs, or a derived attribute would be missing
    record = RECORDS[cls]
    values = [getattr(record, name) for name in cls._fields]
    for again in (cls(**dict(zip(cls._fields, values))), cls(*values)):
        assert again == record and vars(again) == vars(record)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_a_record_refuses_what_it_reads_off_its_fields(cls):
    """A derived name or a class constant is no field: the constructor and `replace` refuse it."""
    record = RECORDS[cls]
    assert set(vars(record)) - set(cls._fields) == DERIVED.get(cls, set())
    values = {name: getattr(record, name) for name in cls._fields}
    for name in DERIVED.get(cls, set()) | CONSTANTS.get(cls, set()):
        for value in (getattr(record, name), None):  # even the value it would read
            with pytest.raises(TypeError):
                cls(**values, **{name: value})
            with pytest.raises(TypeError):
                record.replace(**{name: value})


def test_record_init_takes_fields_by_position_or_keyword_and_refuses_the_rest():
    entry = classifier.WeilTateEntry((0, 1), True, is_lefschetz_bearing=False)
    assert entry == classifier.WeilTateEntry(
        determinant_set=(0, 1), is_tate=True, is_lefschetz_bearing=False)
    assert entry.is_exotic is True
    assert classifier.LemmaResult("a", "b", "c").detail == ""
    for s in (slopes.SlopeVector(4, (2,) * 4), slopes.SlopeVector(nums=(2,) * 4, den=4)):
        assert (s.den, s.nums) == (2, (1,) * 4)
    with pytest.raises(TypeError):
        classifier.LemmaResult("a", "b")
    with pytest.raises(TypeError):
        classifier.LemmaResult("a", "b", "c", "d", "e")
    with pytest.raises(TypeError):
        classifier.LemmaResult("a", "b", "c", colour="red")
    with pytest.raises(TypeError):
        classifier.LemmaResult("a", "b", "c", instance="again")
    with pytest.raises(TypeError):
        classifier.LemmaResult("a", "b", "c").replace(colour="red")
