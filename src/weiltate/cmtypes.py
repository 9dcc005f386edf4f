"""CM-type combinatorics: prescribed place sizes and Hodge types."""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import index

from .galois import CMGaloisModel, CapExceededError

DEFAULT_ENUM_CAP = 10**6


def validate_cm_type(model: CMGaloisModel, phi: frozenset) -> None:
    """A CM-type is a frozenset of 0-based indices, one from each conjugate pair {i, tau(i)}."""
    points = set(range(model.group.degree))
    if not phi <= points:
        raise ValueError("CM-type contains indices outside 1..2g")
    conj = {model.tau[i] for i in phi}
    if phi & conj:
        raise ValueError("CM-type meets its own conjugate")
    if phi | conj != points:
        raise ValueError("CM-type and its conjugate do not cover all indices")


def tau_block_classes(model: CMGaloisModel) -> list:
    """Pair up D-blocks swapped by tau; tau-stable blocks pair with themselves.

    tau is central and D lies in G, so tau maps the D-block of x onto that of tau(x).
    """
    blocks = model.D_blocks
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
        seen.update({k, kk})
        classes.append((k, kk))
    return classes


def validate_prescription(model: CMGaloisModel, targets: tuple) -> list:
    """Check targets #(phi ∩ B), one int per D-block B by block position.

    Returns the tau classes.
    """
    blocks, classes = model.D_blocks, tau_block_classes(model)
    if len(targets) != len(blocks):
        raise ValueError(f"{len(targets)} targets for {len(blocks)} blocks")
    for k, b in enumerate(blocks):
        try:
            index(targets[k])
        except TypeError:
            raise ValueError(
                f"target {targets[k]!r} is not an integer in 0..{len(b)} for block {k}"
            ) from None
        if not 0 <= targets[k] <= len(b):
            raise ValueError(f"target {targets[k]} outside 0..{len(b)} for block {k}")
    for k, kk in classes:
        if targets[k] + targets[kk] != len(blocks[k]):
            raise ValueError(
                "no CM-type exists: targets "
                f"{targets[k]} + {targets[kk]} != {len(blocks[k])} on a conjugate block pair"
            )
    return classes


def enumerate_cm_types(model: CMGaloisModel, targets: tuple) -> list:
    """All CM-types meeting the prescription, lexicographically sorted.

    Within a tau-swapped block pair (B, B') each conjugate pair of
    indices contributes its B element or its B' element; tau-stable
    blocks admit one free choice per internal conjugate pair.
    """
    if model.D_blocks is None:
        raise ValueError("model has no decomposition subgroup D")
    classes = validate_prescription(model, targets)
    blocks = model.D_blocks

    total = 1
    for k, kk in classes:
        b = blocks[k]
        total *= 2 ** (len(b) // 2) if k == kk else comb(len(b), targets[k])
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
            options = []
            for chosen in combinations(range(len(pairs)), targets[k]):
                chosen = set(chosen)
                pick = {pairs[j][0] if j in chosen else pairs[j][1] for j in range(len(pairs))}
                options.append(frozenset(pick))
        per_class_choices.append(options)

    stack = [frozenset()]
    for options in per_class_choices:
        stack = [partial | opt for partial in stack for opt in options]
    results = sorted(stack, key=sorted)
    for phi in results:
        validate_cm_type(model, phi)
    return results


def _binary_choices(pairs):
    """Both-element choices for tau-stable blocks: one index per pair."""
    if not pairs:
        yield ()
        return
    first, rest = sorted(pairs[0]), pairs[1:]
    for tail in _binary_choices(rest):
        yield (first[0],) + tail
        yield (first[1],) + tail


def least_cm_type(model: CMGaloisModel, targets: tuple) -> frozenset:
    """Lexicographically least CM-type meeting the prescription.

    Greedy: walk the indices in increasing order, keep an index whenever
    the block quota allows it, otherwise take its conjugate.
    """
    if model.D_blocks is None:
        raise ValueError("model has no decomposition subgroup D")
    classes = validate_prescription(model, targets)
    block_index = {}
    for k, b in enumerate(model.D_blocks):
        for i in b:
            block_index[i] = k
    tau_stable = {k for k, kk in classes if k == kk}
    quota = list(targets)
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
    phi = frozenset(chosen)
    validate_cm_type(model, phi)
    if measure_cm_type(model, phi) != tuple(targets):
        raise ValueError("greedy CM-type construction failed to meet the prescription")
    return phi


def measure_cm_type(model: CMGaloisModel, phi: frozenset) -> tuple:
    """Re-measure #(phi ∩ B) per block."""
    return tuple(len(phi.intersection(b)) for b in model.D_blocks)


def hodge_type(phi: frozenset, subset) -> tuple:
    """(p, q) = (#(I ∩ phi), #(I ∩ tau phi)); p + q = #I.

    Precondition: phi is a validated CM-type (`validate_cm_type`), so
    tau phi is its complement, and `subset` holds distinct points.
    """
    p = len(phi.intersection(subset))
    return (p, len(subset) - p)


def is_balanced(pq) -> bool:
    """Hodge classes need p = q; unbalanced types carry none."""
    p, q = pq
    return p == q
