"""Slope combinatorics of abelian varieties over finite fields.

Builds Galois permutation models of CM fields, derives Frobenius slopes
from CM-types, classifies Tate / Lefschetz / exotic orbit summands,
computes endomorphism-algebra invariants, and forges number-field
certificates with prescribed local behavior.
"""

from .algebra import crt_poly
from .galois import (
    CMGaloisModel,
    CapExceededError,
    PermGroup,
    build_group,
    cm_product_group,
)
from .slopes import SlopeVector, slopes_from_cm_type
from .cmtypes import enumerate_cm_types, hodge_type, is_balanced
from .classifier import (
    ClassifierReport,
    EndAlgebraReport,
    MotiveOrbit,
    classify_orbits,
    classify_scenario,
    honda_tate_endomorphism,
    predicted_signature,
    structure_check,
    verify_lemma_suite,
)
from .forge import (
    ForgedField,
    HypothesisError,
    Scenario,
    forge_quadratic,
    forge_totally_real,
    parse_scenario,
    scenario_main,
    scenario_ramified,
    scenario_split,
    serialize_scenario,
)

__version__ = "0.1.0"
