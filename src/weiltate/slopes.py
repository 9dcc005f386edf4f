"""Slope vectors: the torsion-free shadow of a Weil number.

A slope vector assigns to each of the 2g indices the normalized p-adic
valuation of the corresponding Frobenius conjugate at one anchored
valuation (v(q) = 1); every other valuation is reached through the
group action, so the function g -> s[g(1)] carries all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .galois import CMGaloisModel, blocks_of_subgroup, compose


@dataclass(frozen=True)
class SlopeVector:
    """Exact slopes s_i = v(pi_i) with v(q) = 1, indexed 0-based."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def __len__(self) -> int:
        return len(self.values)

    def multiset(self):
        return sorted(self.values)

    def serialize(self) -> str:
        return " ".join(f"{v.numerator}/{v.denominator}" for v in self.values)


def validate_slopes(model: CMGaloisModel, s: SlopeVector) -> None:
    """Check the slope axioms; block constancy only when D is present."""
    n = model.group.degree
    if len(s) != n:
        raise ValueError(f"slope vector has length {len(s)}, expected {n}")
    for i, v in enumerate(s.values):
        if not 0 <= v <= 1:
            raise ValueError(f"slope s_{i + 1} = {v} outside [0, 1]")
        if v + s[model.tau[i]] != 1:
            raise ValueError(f"s_{i + 1} + s_tau({i + 1}) != 1")
    if model.D is not None:
        for block in blocks_of_subgroup(model, model.D).blocks:
            vals = {s[i] for i in block}
            if len(vals) != 1:
                raise ValueError(f"slopes not constant on D-block {tuple(b + 1 for b in block)}")
            total = vals.pop() * len(block)
            if total.denominator != 1:
                raise ValueError(f"block {tuple(b + 1 for b in block)}: |B| * s is not an integer")


def slopes_from_cm_type(model: CMGaloisModel, phi) -> SlopeVector:
    """Shimura-Taniyama: s_i = #(phi ∩ B) / #B on the D-block B of i."""
    if model.D is None:
        raise ValueError("model has no decomposition subgroup D")
    phi_set = set(phi)
    values = [None] * model.group.degree
    for block in blocks_of_subgroup(model, model.D).blocks:
        v = Fraction(len(phi_set & set(block)), len(block))
        for i in block:
            values[i] = v
    s = SlopeVector(tuple(values))
    validate_slopes(model, s)
    return s


def signature_classes(model: CMGaloisModel, s: SlopeVector) -> tuple:
    """Class label of each index under x ~ y iff s[g(x)] = s[g(y)] for every g.

    The partition is the coarsest G-stable refinement of the level sets
    of s, found by refining under the generators until the class count
    stops growing: O(2g |gens|) per pass, at most 2g passes.  Labels are
    numbered by least index, so index 1 is in class 0.  For transitive G
    the classes are blocks of imprimitivity, and the class S of index 1
    is the orbit of index 1 under Fix.
    """
    gens = model.group.generators
    label = list(s.values)
    count = len(set(label))
    while True:
        ids = {}
        refined = [
            ids.setdefault((label[x],) + tuple(label[gen[x]] for gen in gens), len(ids))
            for x in range(len(label))
        ]
        if len(ids) == count:
            return tuple(refined)
        label, count = refined, len(ids)


def signature_block(model: CMGaloisModel, s: SlopeVector) -> frozenset:
    """The class S of index 1: the indices x with s[g(x)] = s[g(1)] for every g."""
    return frozenset(x for x, c in enumerate(signature_classes(model, s)) if c == 0)


def fix_of_slope(model: CMGaloisModel, s: SlopeVector) -> frozenset:
    """Subgroup fixing the valuation vector of pi: {sigma : s[g sigma(1)] = s[g(1)] for all g}.

    Only sigma(1) matters, so the fixer is {sigma : sigma(1) in S} for
    the signature block S of index 1 (`signature_block`).  Always a
    subgroup containing H.
    """
    validate_slopes(model, s)
    S = signature_block(model, s)
    return frozenset(sigma for sigma in model.group.elements if sigma[0] in S)


def is_p_potentially_in(model: CMGaloisModel, s: SlopeVector, Z) -> bool:
    """Whether some power of pi lies in the subfield fixed by Z (H <= Z).

    That is Z <= Fix, i.e. z(1) lies in the signature block of index 1
    for every z in Z.
    """
    Z = frozenset(tuple(z) for z in Z)
    if not model.H <= Z:
        raise ValueError("Z does not contain H, so it fixes no subfield of L")
    for z in Z:
        if z not in model.group:
            raise ValueError("Z is not a subset of the group")
    validate_slopes(model, s)
    S = signature_block(model, s)
    return all(z[0] in S for z in Z)


def minimal_field_index(model: CMGaloisModel, s: SlopeVector) -> int:
    """[G : Fix] = degree of the smallest field containing a power of pi.

    Fix is the setwise stabilizer of the signature block S, so the index
    is the number of blocks, 2g / |S|.
    """
    validate_slopes(model, s)
    return model.group.degree // len(signature_block(model, s))


def conjugate_slope_basis(model: CMGaloisModel, s: SlopeVector) -> tuple:
    """Basis of span{s∘g : g in G}, where (s∘g)[x] = s[g(x)].

    Span closure of s under the generators: the image b∘gen of each new
    basis vector is kept when it is independent of the basis so far.
    Each basis vector is an actual conjugate s∘g, and there are at most
    2g of them; no group element beyond the generators is visited.
    """
    n = len(s)
    scale = lcm(*(v.denominator for v in s.values))
    scaled = [int(v * scale) for v in s.values]
    echelon = []
    maps = [tuple(range(n))]  # b = s∘m for each point map m
    _extend_echelon(echelon, scaled)
    for m in maps:  # grows while it is walked
        for gen in model.group.generators:
            image = tuple(m[gen[x]] for x in range(n))
            if _extend_echelon(echelon, [scaled[image[x]] for x in range(n)]):
                maps.append(image)
    return tuple(tuple(s[m[x]] for x in range(n)) for m in maps)


def _extend_echelon(echelon: list, row: list) -> bool:
    """Append row to the integer echelon form if it is independent of it."""
    for pivot, e in echelon:
        if row[pivot]:
            a, b = e[pivot], row[pivot]
            row = [a * r - b * v for r, v in zip(row, e)]
    pivot = next((i for i, v in enumerate(row) if v), None)
    if pivot is None:
        return False
    d = gcd(*row)
    echelon.append((pivot, [v // d for v in row]))
    return True


def frobenius_rank(model: CMGaloisModel, s: SlopeVector) -> int:
    """Dimension of the span of the 2g slope functions, minus one."""
    validate_slopes(model, s)
    return len(conjugate_slope_basis(model, s)) - 1


# --- reference oracles (the definitional brute-force route) ---------------


def fixer_by_definition(model: CMGaloisModel, s: SlopeVector) -> frozenset:
    """Fix computed straight from the definition, one double loop over G."""
    out = []
    for sigma in model.group.elements:
        if all(s[compose(g, sigma)[0]] == s[g[0]] for g in model.group.elements):
            out.append(sigma)
    return frozenset(out)


def potential_by_valuation_grouping(model: CMGaloisModel, s: SlopeVector, Z) -> bool:
    """p-potential membership by grouping valuations over the subfield.

    Partitions G into the double cosets D g Z (valuations of the closure
    refining a fixed valuation of the subfield cut out by Z) and demands
    the slope function g -> s[g(1)] be constant on each class.  Without
    a decomposition subgroup the classes degenerate to the cosets g Z,
    which tests the same condition since slopes are block-constant.
    """
    Z = frozenset(tuple(z) for z in Z)
    D = model.D if model.D is not None else frozenset({tuple(range(model.group.degree))})
    anchors = sorted({z[0] for z in Z})
    for g in model.group.elements:
        base = s[g[0]]
        for d in D:
            dg = compose(d, g)
            for x in anchors:
                if s[dg[x]] != base:
                    return False
    return True
