"""Groups and the subgroups above H = Stab(1) as listed element sets, and the oracles on them.

The program carries a subgroup Z above H by its point block Z(1).  Only
the oracle rows of `verify --random` and the tests import this module,
so no `classify`, `forge` or `verify --presets` run lists a group.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .galois import (
    DEFAULT_GROUP_CAP,
    CMGaloisModel,
    PermGroup,
    _in_group,
    build_group,
    cm_product_group,
    compose,
    identity,
    index2_point_sets,
)
from .slopes import SlopeVector, is_p_potentially_in, minimal_field_index, signature_block


def elements(group: PermGroup) -> tuple:
    """Every element, breadth-first from the identity with the generators applied on the right."""
    ident = identity(group.degree)
    out = [ident]
    seen = {ident}
    for e in out:  # grows while it is walked
        for gen in group.generators:
            c = compose(e, gen)
            if c not in seen:
                seen.add(c)
                out.append(c)
    return tuple(out)


def subgroup_closure(group: PermGroup, generators) -> frozenset:
    """Closure of some group elements, verified to stay inside `group`."""
    sub = build_group(group.degree, _in_group(group, generators), cap=group.order)
    return frozenset(elements(sub))


def block_subgroup(group: PermGroup, points) -> frozenset:
    """The subgroup {e : e(1) in points} above Stab(1) that `points` cuts out.

    Precondition: `points` is a block of the transitive `group` that
    contains index 1 (0-based 0).  The subgroups Z >= Stab(1) are
    exactly these, Z the setwise stabilizer of its block Z(1).
    """
    return frozenset(e for e in elements(group) if e[0] in points)


def fixer_by_definition(model: CMGaloisModel, s: SlopeVector) -> frozenset:
    """Fix by its definition {sigma : s[g sigma(1)] = s[g(1)] for all g}, a double loop over G."""
    listed = elements(model.group)
    return frozenset(sigma for sigma in listed if all(s[g[sigma[0]]] == s[g[0]] for g in listed))


def potential_by_valuation_grouping(model: CMGaloisModel, s: SlopeVector, Z) -> bool:
    """p-potential membership by grouping valuations over the subfield fixed by Z.

    Partitions G into the double cosets D g Z (valuations of the closure
    refining a fixed valuation of the subfield cut out by Z) and demands
    the slope function g -> s[g(1)] be constant on each class.  Without
    a decomposition subgroup the classes degenerate to the cosets g Z,
    which tests the same condition since slopes are block-constant.
    """
    D = subgroup_closure(model.group, model.D_generators or ())
    anchors = sorted({z[0] for z in Z})
    for g in elements(model.group):
        base = s[g[0]]
        for d in D:
            dg = compose(d, g)
            for x in anchors:
                if s[dg[x]] != base:
                    return False
    return True


def random_admissible_slopes(model: CMGaloisModel, rng: random.Random) -> SlopeVector:
    """Random exact slopes with s_i + s_tau(i) = 1 (no D constraint)."""
    values = [None] * (2 * model.g)
    for i in range(model.g):
        den = rng.choice([1, 2, 3, 4, 6])
        values[i] = Fraction(rng.randint(0, den), den)
        values[model.tau[i]] = 1 - values[i]
    return SlopeVector(tuple(values))


def slope_oracle_rows(g: int, count: int, seed: int, group_cap: int = DEFAULT_GROUP_CAP):
    """Agreement of Fix and p-potential membership on point blocks with the definitional oracles.

    Membership is tested on the index-2 blocks, {1}, all points and the
    signature block S; each block's subgroup is listed only for the oracle.
    """
    model = cm_product_group(g, cap=group_cap)
    G = model.group
    fixed = [(B, block_subgroup(G, B))
             for B in index2_point_sets(G) + [frozenset({0}), frozenset(range(G.degree))]]
    rng = random.Random(seed)
    rows = []
    for k in range(count):
        s = random_admissible_slopes(model, rng)
        S = signature_block(model, s)
        fix = block_subgroup(G, S)
        checks = {
            "fixer_matches_definition": fix == fixer_by_definition(model, s),
            "minimal_index_divides_2g": (2 * g) % minimal_field_index(model, s) == 0,
            "potential_matches_grouping": all(
                is_p_potentially_in(model, s, B) == potential_by_valuation_grouping(model, s, Z)
                for B, Z in fixed + [(S, fix)]
            ),
        }
        rows.append({"instance": f"random-g{g}-{k}", "slopes": s.serialize().split(),
                     "checks": checks, "all_pass": all(checks.values())})
    return rows
