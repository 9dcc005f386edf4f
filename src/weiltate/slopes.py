"""Slope vectors: the torsion-free shadow of a Weil number.

A slope vector assigns to each of the 2g indices the normalized p-adic
valuation of the corresponding Frobenius conjugate at one anchored
valuation (v(q) = 1); every other valuation is reached through the
group action, so the function g -> s[g(1)] carries all of them.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import itemgetter

from .galois import CMGaloisModel, Record


def lowest_terms(den: int, nums: tuple) -> tuple:
    """(den, nums) over the least common denominator of the ratios nums[i] / den."""
    d = gcd(den, *nums)
    return den // d, tuple(a // d for a in nums)


def ratio_str(num: int, den: int) -> str:
    """num / den in lowest terms as "a/b", as the documents write a slope or an invariant."""
    d = gcd(num, den)
    return f"{num // d}/{den // d}"


class SlopeVector(Record):
    """Exact slopes s_i = nums[i] / den with v(q) = 1, indexed 0-based.

    The record holds the integers in lowest terms, `den` the least
    common denominator, so equal slopes make equal records.
    """

    den: int
    nums: tuple

    def __post_init__(self):
        den, nums = lowest_terms(self.den, self.nums)
        self.__dict__.update(den=den, nums=nums)

    def __len__(self) -> int:
        return len(self.nums)

    def serialize(self) -> str:
        return " ".join(ratio_str(a, self.den) for a in self.nums)


def validate_slopes(model: CMGaloisModel, s: SlopeVector) -> None:
    """Check the slope axioms on the numerators; block constancy only when D is present."""
    n = model.group.degree
    if len(s) != n:
        raise ValueError(f"slope vector has length {len(s)}, expected {n}")
    den, nums, tau = s.den, s.nums, model.tau
    for i, a in enumerate(nums):
        if not 0 <= a <= den:
            d = gcd(a, den)  # a / den in lowest terms as "a/b", or as "a" when b = 1
            text = f"{a // d}" if d == den else f"{a // d}/{den // d}"
            raise ValueError(f"slope s_{i + 1} = {text} outside [0, 1]")
        if a + nums[tau[i]] != den:
            raise ValueError(f"s_{i + 1} + s_tau({i + 1}) != 1")
    if model.D_blocks is not None:
        for block in model.D_blocks:
            a = nums[block[0]]
            if any(nums[i] != a for i in block):
                raise ValueError(f"slopes not constant on D-block {tuple(b + 1 for b in block)}")
            if len(block) * a % den:
                raise ValueError(f"block {tuple(b + 1 for b in block)}: |B| * s is not an integer")


def slopes_from_cm_type(model: CMGaloisModel, phi) -> SlopeVector:
    """Shimura-Taniyama: s_i = #(phi ∩ B) / #B on the D-block B of i.

    Precondition: a validated CM-type phi; tau then permutes the blocks and
    swaps phi with its complement, so the slopes meet `validate_slopes` unchecked.
    """
    if model.D_blocks is None:
        raise ValueError("model has no decomposition subgroup D")
    phi_set = set(phi)
    den = lcm(*(len(block) for block in model.D_blocks))
    nums = [0] * model.group.degree
    for block in model.D_blocks:
        a = len(phi_set.intersection(block)) * (den // len(block))
        for i in block:
            nums[i] = a
    return SlopeVector(den, tuple(nums))


def conjugate_slope_basis(model: CMGaloisModel, s: SlopeVector) -> tuple:
    """Basis of span{s∘g : g in G}, where (s∘g)[x] = s[g(x)], as numerators over `s.den`.

    Span closure of s under the generators: the image b∘gen of each new
    basis vector is kept when it is independent of the basis so far.
    Each basis vector is an actual conjugate s∘g, and there are at most
    2g of them; no group element beyond the generators is visited.
    Each image, row and conjugate is one `itemgetter` gather, which
    returns a tuple because a CM model has n = 2g >= 2 points.
    """
    nums = s.nums
    echelon = []
    maps = [tuple(range(len(s)))]  # b = s∘m for each point map m
    _extend_echelon(echelon, nums)
    gathers = [itemgetter(*gen) for gen in model.group.generators]
    for m in maps:  # grows while it is walked
        for gather in gathers:
            image = gather(m)
            if _extend_echelon(echelon, itemgetter(*image)(nums)):
                maps.append(image)
    return tuple(itemgetter(*m)(nums) for m in maps)


def _extend_echelon(echelon: list, row: tuple) -> bool:
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
