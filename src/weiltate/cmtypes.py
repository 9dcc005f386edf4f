"""CM-type combinatorics: prescribed place sizes and Hodge types."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .galois import CMGaloisModel, CapExceededError, blocks_of_subgroup

DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class CMType:
    """Half of the 2g indices, one from each conjugate pair {i, tau(i)}."""

    phi: frozenset

    def __post_init__(self):
        object.__setattr__(self, "phi", frozenset(self.phi))

    def __iter__(self):
        return iter(sorted(self.phi))

    def __len__(self) -> int:
        return len(self.phi)

    def __contains__(self, i) -> bool:
        return i in self.phi

    def sorted_indices(self):
        return tuple(sorted(self.phi))

    def serialize(self) -> str:
        return " ".join(str(i + 1) for i in self.sorted_indices())


def validate_cm_type(model: CMGaloisModel, phi: CMType) -> None:
    points = set(range(model.group.degree))
    if not phi.phi <= points:
        raise ValueError("CM-type contains indices outside 1..2g")
    conj = {model.tau[i] for i in phi.phi}
    if phi.phi & conj:
        raise ValueError("CM-type meets its own conjugate")
    if phi.phi | conj != points:
        raise ValueError("CM-type and its conjugate do not cover all indices")


def _tau_block_classes(model: CMGaloisModel):
    """Pair up D-blocks swapped by tau; tau-stable blocks pair with themselves."""
    blocks = blocks_of_subgroup(model, model.D).blocks
    index_of = {}
    for k, b in enumerate(blocks):
        for i in b:
            index_of[i] = k
    classes = []
    seen = set()
    for k, b in enumerate(blocks):
        if k in seen:
            continue
        kk = index_of[model.tau[b[0]]]
        tau_image = {model.tau[i] for i in b}
        if tau_image != set(blocks[kk]):
            raise ValueError("tau does not permute the D-blocks")
        seen.update({k, kk})
        classes.append((k, kk))
    return blocks, classes


@dataclass(frozen=True)
class PlacePrescription:
    """Target #(phi ∩ B) for each D-block B, keyed by block position."""

    targets: tuple

    @staticmethod
    def from_counts(counts) -> "PlacePrescription":
        return PlacePrescription(targets=tuple(int(c) for c in counts))


def validate_prescription(model: CMGaloisModel, prescription: PlacePrescription):
    blocks, classes = _tau_block_classes(model)
    targets = prescription.targets
    if len(targets) != len(blocks):
        raise ValueError(f"{len(targets)} targets for {len(blocks)} blocks")
    for k, b in enumerate(blocks):
        if not 0 <= targets[k] <= len(b):
            raise ValueError(f"target {targets[k]} outside 0..{len(b)} for block {k}")
    for k, kk in classes:
        if targets[k] + targets[kk] != len(blocks[k]):
            raise ValueError(
                "no CM-type exists: targets "
                f"{targets[k]} + {targets[kk]} != {len(blocks[k])} on a conjugate block pair"
            )
    return blocks, classes


def enumerate_cm_types(model: CMGaloisModel, prescription: PlacePrescription, limit=None):
    """All CM-types meeting the prescription, lexicographically sorted.

    Within a tau-swapped block pair (B, B') each conjugate pair of
    indices contributes its B element or its B' element; tau-stable
    blocks admit one free choice per internal conjugate pair.
    """
    if model.D is None:
        raise ValueError("model has no decomposition subgroup D")
    blocks, classes = validate_prescription(model, prescription)

    total = 1
    for k, kk in classes:
        b = blocks[k]
        total *= 2 ** (len(b) // 2) if k == kk else comb(len(b), prescription.targets[k])
    if total > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"CM-type enumeration would produce {total} > {DEFAULT_ENUM_CAP}")

    per_class_choices = []
    for k, kk in classes:
        b = blocks[k]
        if k == kk:
            pairs = sorted({frozenset({i, model.tau[i]}) for i in b}, key=min)
            options = [frozenset(picks) for picks in _binary_choices(pairs)]
        else:
            pairs = [(i, model.tau[i]) for i in b]
            nb = prescription.targets[k]
            options = []
            for chosen in combinations(range(len(pairs)), nb):
                chosen = set(chosen)
                pick = {pairs[j][0] if j in chosen else pairs[j][1] for j in range(len(pairs))}
                options.append(frozenset(pick))
        per_class_choices.append(options)

    stack = [frozenset()]
    for options in per_class_choices:
        stack = [partial | opt for partial in stack for opt in options]
    results = sorted(stack, key=lambda s: sorted(s))
    if limit is not None:
        results = results[:limit]
    out = []
    for phi_set in results:
        phi = CMType(phi=phi_set)
        validate_cm_type(model, phi)
        out.append(phi)
    return out


def _binary_choices(pairs):
    """Both-element choices for tau-stable blocks: one index per pair."""
    if not pairs:
        yield ()
        return
    first, rest = sorted(pairs[0]), pairs[1:]
    for tail in _binary_choices(rest):
        yield (first[0],) + tail
        yield (first[1],) + tail


def least_cm_type(model: CMGaloisModel, prescription: PlacePrescription) -> CMType:
    """Lexicographically least CM-type meeting the prescription.

    Greedy: walk the indices in increasing order, keep an index whenever
    the block quota allows it, otherwise take its conjugate.
    """
    if model.D is None:
        raise ValueError("model has no decomposition subgroup D")
    blocks, classes = validate_prescription(model, prescription)
    block_index = {}
    for k, b in enumerate(blocks):
        for i in b:
            block_index[i] = k
    tau_stable = {k for k, kk in classes if k == kk}
    quota = list(prescription.targets)
    chosen = set()
    assigned = set()
    for i in range(model.group.degree):
        if i in assigned:
            continue
        j = model.tau[i]
        assigned.update({i, j})
        k = block_index[i]
        if k in tau_stable or quota[k] >= 1:
            chosen.add(i)
            quota[k] -= 1
        else:
            chosen.add(j)
            quota[block_index[j]] -= 1
    phi = CMType(phi=frozenset(chosen))
    validate_cm_type(model, phi)
    measured = measure_cm_type(model, phi)
    if measured.targets != prescription.targets:
        raise ValueError("greedy CM-type construction failed to meet the prescription")
    return phi


def measure_cm_type(model: CMGaloisModel, phi: CMType) -> PlacePrescription:
    """Re-measure #(phi ∩ B) per block."""
    blocks = blocks_of_subgroup(model, model.D).blocks
    return PlacePrescription(targets=tuple(len(set(b) & phi.phi) for b in blocks))


def hodge_type(model: CMGaloisModel, phi: CMType, subset) -> tuple:
    """(p, q) = (#(I ∩ phi), #(I ∩ tau phi)); p + q = #I."""
    validate_cm_type(model, phi)
    I = set(subset)
    tau_phi = {model.tau[i] for i in phi.phi}
    return (len(I & phi.phi), len(I & tau_phi))


def is_balanced(pq) -> bool:
    """Hodge classes need p = q; unbalanced types carry none."""
    p, q = pq
    return p == q
