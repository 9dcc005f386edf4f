"""Permutation model of Gal(Ltilde/Q) acting on the 2g Frobenius indices.

Points are 0-based internally; every serialized form (cycle notation,
index lists) is 1-based.  Groups are materialized as full element lists
in breadth-first discovery order from the identity, which fixes every
canonical order.  A subgroup is carried by the smallest data that fixes
it: one above Stab(1) by its point block, the decomposition group D by
its generators.  The classification works on the action of the
generators on the 2g points (orbits, sign labellings, block systems);
element lists are walked only for the subgroup generators of a
document, the element-set API of Fix and p-potential membership, and
the brute-force oracles.  The CM structure is the central involution
tau with tau(i) = i + g mod 2g.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

DEFAULT_GROUP_CAP = 10**6

Perm = tuple


class CapExceededError(RuntimeError):
    """A configured enumeration cap was hit."""


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def cycles_to_perm(n: int, cycles) -> Perm:
    """Build a permutation from 1-based cycles, e.g. [(1, 2, 3, 4)]."""
    out = list(range(n))
    for cycle in cycles:
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"repeated point in cycle {cycle}")
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if not 1 <= a <= n:
                raise ValueError(f"point {a} outside 1..{n}")
            out[a - 1] = b - 1
    if sorted(out) != list(range(n)):
        raise ValueError("cycles overlap: not a permutation")
    return tuple(out)


def perm_to_cycles(p: Perm):
    """Nontrivial cycles of p, 1-based, each rotated to start at its minimum."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        cycles.append(tuple(cyc))
    return cycles


def format_perm(p: Perm) -> str:
    cycles = perm_to_cycles(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


def parse_perm(text: str, n: int) -> Perm:
    text = text.strip()
    if text in ("()", "", "id"):
        return identity(n)
    if not text.startswith("(") or not text.endswith(")"):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        points = chunk.replace(",", " ").split()
        if not points:
            raise ValueError(f"empty cycle in {text!r}")
        cycles.append(tuple(int(x) for x in points))
    return cycles_to_perm(n, cycles)


def sym_generators(g: int) -> list:
    """The g-cycle (1 2 ... g) and the transposition (1 2), which generate S_g."""
    return [cycles_to_perm(g, [tuple(range(1, g + 1))]), cycles_to_perm(g, [(1, 2)])]


def diagonal_lift(sigma: Perm, copies: int) -> Perm:
    """sigma acting alike on each of `copies` consecutive runs of len(sigma) points."""
    m = len(sigma)
    return tuple(sigma[i] + k * m for k in range(copies) for i in range(m))


@dataclass(frozen=True)
class PermGroup:
    """A fully materialized permutation group on {1..n} (0-based inside)."""

    degree: int
    elements: tuple
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self._members


def point_orbits(perms, n: int) -> tuple:
    """The orbits of <perms> on the points 0..n-1, as sorted tuples ordered by their least point."""
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:  # grows while it is walked
            for p in perms:
                if not seen[p[x]]:
                    seen[p[x]] = True
                    orbit.append(p[x])
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def build_group(n: int, generators, cap: int = DEFAULT_GROUP_CAP) -> PermGroup:
    """Close generators under composition, breadth-first from the identity.

    Element order is deterministic: discovery order with the generators
    applied on the right, in the order given.
    """
    gens = []
    for g in generators:
        g = tuple(g)
        if sorted(g) != list(range(n)):
            raise ValueError(f"generator {g} is not a bijection of 0..{n - 1}")
        gens.append(g)
    ident = identity(n)
    elements = [ident]
    seen = {ident}
    queue = [ident]
    while queue:
        nxt = []
        for e in queue:
            for g in gens:
                c = compose(e, g)
                if c not in seen:
                    seen.add(c)
                    elements.append(c)
                    nxt.append(c)
                    if len(elements) > cap:
                        raise CapExceededError(f"group closure exceeds cap {cap}")
        queue = nxt
    return PermGroup(degree=n, elements=tuple(elements), generators=tuple(gens))


def _in_group(group: PermGroup, generators) -> tuple:
    """The generators as tuples, each verified to be an element of `group`."""
    gens = tuple(tuple(g) for g in generators)
    for g in gens:
        if g not in group:
            raise ValueError(f"generator {format_perm(g)} is not in the group")
    return gens


def subgroup_closure(group: PermGroup, generators) -> frozenset:
    """Closure of some group elements, verified to stay inside `group`."""
    sub = build_group(group.degree, _in_group(group, generators), cap=group.order)
    return frozenset(sub.elements)


def block_subgroup(group: PermGroup, points) -> frozenset:
    """The subgroup {e : e(1) in points} above Stab(1) that `points` cuts out.

    Precondition: `points` is a block of the transitive `group` that
    contains index 1 (0-based 0).  The subgroups Z >= Stab(1) are
    exactly these, Z the setwise stabilizer of its block Z(1).
    """
    return frozenset(e for e in group.elements if e[0] in points)


def subgroup_generators(group: PermGroup, sub) -> list:
    """Small deterministic generating set for a subgroup.

    Greedy over the sorted elements: an element joins when the closure
    of the generators so far misses it.
    """
    gens = []
    closure = {identity(group.degree)}
    for e in sorted(sub):
        if e not in closure:
            gens.append(e)
            closure = set(subgroup_closure(group, gens))
    return gens


@dataclass(frozen=True)
class CMGaloisModel:
    """G acting on the 2g Frobenius-eigenvalue indices with CM structure.

    tau is the central conjugation i -> i + g mod 2g.  The decomposition
    subgroup D at the anchored valuation is carried by D_generators
    (None until `with_decomposition` supplies them), and D_blocks holds
    the D-orbits on the indices, the places of L above p.  Neither D
    field takes part in model equality.
    """

    g: int
    group: PermGroup
    tau: Perm
    D_generators: tuple = field(init=False, compare=False, default=None)
    D_blocks: tuple = field(init=False, compare=False, default=None)

    def __post_init__(self):
        n = self.group.degree
        if n != 2 * self.g:
            raise ValueError(f"group degree {n} is not 2g = {2 * self.g}")
        if len(point_orbits(self.group.generators, n)) != 1:
            raise ValueError("group does not act transitively on the 2g indices")
        if self.tau not in self.group:
            raise ValueError("tau is not a group element")
        expected = tuple((i + self.g) % n for i in range(n))
        if self.tau != expected:
            raise ValueError("tau does not act as i -> i + g mod 2g")
        # tau commutes with every element iff it commutes with the generators
        for gen in self.group.generators:
            if compose(gen, self.tau) != compose(self.tau, gen):
                raise ValueError(f"tau is not central: fails against generator {format_perm(gen)}")

    def with_decomposition(self, generators) -> "CMGaloisModel":
        """The same model with D = <generators>; the group checks already held."""
        gens = _in_group(self.group, generators)
        model = copy.copy(self)
        object.__setattr__(model, "D_generators", gens)
        object.__setattr__(model, "D_blocks", point_orbits(gens, self.group.degree))
        return model


def cm_product_group(g: int, cap: int = DEFAULT_GROUP_CAP) -> CMGaloisModel:
    """The mu2 x S_g model on 2g points.

    (eps, sigma) sends i to sigma(i), shifted across the conjugation
    split when eps = -1; tau is (-1, id).  D is left unset.
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    n = 2 * g
    tau = tuple((i + g) % n for i in range(n))
    group = build_group(n, [tau] + [diagonal_lift(s, 2) for s in sym_generators(g)], cap=cap)
    return CMGaloisModel(g=g, group=group, tau=tau)


def index2_point_sets(group: PermGroup) -> list:
    """The index-2 subgroups Z >= Stab(1) of a transitive group, as point sets {z(1) : z in Z}.

    A homomorphism chi: G -> {+-1} whose kernel contains Stab(1) is a
    sign labelling c of the points with c(1) = +1 and
    c(gen(x)) = chi(gen) c(x); Z = ker chi is {z : c(z(1)) = +1}.  Each
    generator sign pattern is propagated over the points and kept when
    it is consistent, so no group element is visited.  The + sets come
    in generator-sign-pattern order.
    """
    gens = group.generators
    found = []
    for bits in range(1, 2 ** len(gens)):
        signs = [-1 if (bits >> k) & 1 else 1 for k in range(len(gens))]
        label = [0] * group.degree
        label[0] = 1
        stack = [0]
        consistent = True
        while stack and consistent:
            x = stack.pop()
            for gen, sign in zip(gens, signs):
                y, c = gen[x], label[x] * sign
                if not label[y]:
                    label[y] = c
                    stack.append(y)
                elif label[y] != c:
                    consistent = False
                    break
        if consistent:
            found.append(frozenset(x for x, c in enumerate(label) if c == 1))
    return found
