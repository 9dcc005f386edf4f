"""Permutation model of Gal(Ltilde/Q) acting on the 2g Frobenius indices.

Points are 0-based internally; every serialized form (cycle notation,
index lists) is 1-based.  Groups are materialized as full element lists
in breadth-first discovery order from the identity, which fixes every
canonical order.  The classification itself works on the action of the
generators on the 2g points (orbits, sign labellings, block systems);
the element lists serve subgroup listings and the brute-force oracles.
The CM structure is the central involution tau with tau(i) = i + g mod 2g.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from math import gcd

DEFAULT_GROUP_CAP = 10**6

Perm = tuple


class CapExceededError(RuntimeError):
    """A configured enumeration cap was hit."""


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p*q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length > 1:
            order = order * length // gcd(order, length)
    return order


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


@dataclass(frozen=True)
class PermGroup:
    """A fully materialized permutation group on {1..n} (0-based inside)."""

    degree: int
    elements: tuple
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.elements)})

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self._index

    def is_transitive(self) -> bool:
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for gen in self.generators or self.elements:
                y = gen[x]
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        return len(reached) == self.degree

    def stabilizer(self, point0: int) -> frozenset:
        """Stabilizer of an internal (0-based) point."""
        return frozenset(p for p in self.elements if p[point0] == point0)


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


def verify_subgroup(group: PermGroup, elements) -> frozenset:
    """Check subgroup axioms inside `group`; returns the verified frozenset."""
    sub = frozenset(tuple(e) for e in elements)
    if identity(group.degree) not in sub:
        raise ValueError("subgroup does not contain the identity")
    for a in sub:
        if a not in group:
            raise ValueError("subgroup element lies outside the group")
        if inverse(a) not in sub:
            raise ValueError("subgroup is not closed under inverse")
        for b in sub:
            if compose(a, b) not in sub:
                raise ValueError("subgroup is not closed under composition")
    return sub


def subgroup_closure(group: PermGroup, generators) -> frozenset:
    """Closure of some group elements, verified to stay inside `group`."""
    gens = [tuple(g) for g in generators]
    for g in gens:
        if g not in group:
            raise ValueError(f"generator {format_perm(g)} is not in the group")
    sub = build_group(group.degree, gens, cap=group.order)
    return frozenset(sub.elements)


@dataclass(frozen=True)
class CMGaloisModel:
    """G acting on the 2g Frobenius-eigenvalue indices with CM structure.

    tau is the central conjugation i -> i + g mod 2g, H the stabilizer of
    index 1, and D the decomposition subgroup at the anchored valuation
    (None until a scenario supplies it).
    """

    g: int
    group: PermGroup
    tau: Perm
    H: frozenset = field(default=None)
    D: frozenset = field(default=None)

    def __post_init__(self):
        n = self.group.degree
        if n != 2 * self.g:
            raise ValueError(f"group degree {n} is not 2g = {2 * self.g}")
        if not self.group.is_transitive():
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
        if self.H is None:
            object.__setattr__(self, "H", self.group.stabilizer(0))
        elif self.H != self.group.stabilizer(0):
            raise ValueError("H is not the stabilizer of index 1")
        if self.D is not None:
            object.__setattr__(self, "D", verify_subgroup(self.group, self.D))

    def with_decomposition(self, D) -> "CMGaloisModel":
        """The same model with D set; only D is verified, the group checks already held."""
        model = copy.copy(self)
        object.__setattr__(model, "D", verify_subgroup(self.group, D))
        return model


def cm_product_group(g: int, cap: int = DEFAULT_GROUP_CAP) -> CMGaloisModel:
    """The mu2 x S_g model on 2g points.

    (eps, sigma) sends i to sigma(i), shifted across the conjugation
    split when eps = -1; tau is (-1, id).  D is left unset.
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    n = 2 * g

    def lifted(sigma):
        # sigma is a permutation of 0..g-1 acting diagonally on both halves
        return tuple(sigma[i] if i < g else sigma[i - g] + g for i in range(n))

    tau = tuple((i + g) % n for i in range(n))
    gens = [tau, lifted(cycles_to_perm(g, [tuple(range(1, g + 1))]))]
    if g >= 2:
        gens.append(lifted(cycles_to_perm(g, [(1, 2)])))
    group = build_group(n, gens, cap=cap)
    return CMGaloisModel(g=g, group=group, tau=tau)


def orbit_of_subset(model: CMGaloisModel, subset) -> list:
    """Full G-orbit of a subset of indices, in sorted deterministic order."""
    start = frozenset(subset)
    gens = model.group.generators
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for gen in gens:
            img = frozenset(gen[x] for x in cur)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return sorted(seen, key=lambda s: sorted(s))


def index2_overgroups(group: PermGroup, H) -> list:
    """All subgroups Z with H <= Z <= G of index 2, for any subgroup H.

    Found by assigning signs to the generators, validating that the
    assignment extends to a homomorphism G -> {+-1} over all |G|
    elements, and keeping the kernels that contain H.  For H = Stab(1)
    `index2_point_sets` finds the same subgroups on the points alone.
    """
    H = frozenset(tuple(h) for h in H)
    gens = group.generators
    ident = identity(group.degree)
    found = []
    for bits in range(1, 2 ** len(gens)):
        signs = {ident: 1}
        gen_sign = {g: (-1 if (bits >> k) & 1 else 1) for k, g in enumerate(gens)}
        queue = [ident]
        consistent = True
        while queue and consistent:
            nxt = []
            for e in queue:
                for g in gens:
                    c = compose(e, g)
                    s = signs[e] * gen_sign[g]
                    if c in signs:
                        if signs[c] != s:
                            consistent = False
                            break
                    else:
                        signs[c] = s
                        nxt.append(c)
                if not consistent:
                    break
            queue = nxt
        if not consistent:
            continue
        kernel = frozenset(e for e, s in signs.items() if s == 1)
        if len(kernel) * 2 != group.order:
            continue
        if H <= kernel and kernel not in found:
            found.append(kernel)
    return sorted(found, key=lambda z: sorted(z))


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


@dataclass(frozen=True)
class BlockPartition:
    """D-orbits on the 2g indices; the places of L above p."""

    blocks: tuple

    def block_of(self, point0: int):
        for b in self.blocks:
            if point0 in b:
                return b
        raise KeyError(point0)


def blocks_of_subgroup(model: CMGaloisModel, D) -> BlockPartition:
    """Orbits of a verified subgroup D on the indices, ordered by minimum.

    The model's own D was verified when the model was built, so only
    another D is verified here.
    """
    if D is not model.D:
        D = verify_subgroup(model.group, D)
    n = model.group.degree
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = set()
        frontier = [start]
        while frontier:
            x = frontier.pop()
            if x in orbit:
                continue
            orbit.add(x)
            seen[x] = True
            for d in D:
                if d[x] not in orbit:
                    frontier.append(d[x])
        blocks.append(tuple(sorted(orbit)))
    return BlockPartition(blocks=tuple(blocks))
