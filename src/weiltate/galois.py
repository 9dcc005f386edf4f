"""Permutation model of Gal(Ltilde/Q) acting on the 2g Frobenius indices.

Points are 0-based internally; every serialized form (cycle notation,
index lists) is 1-based.  A group is carried by its generators and a
stabilizer chain on the base 1..2g (`StabChain`), which gives its order
and membership without listing it: a preset's chain is read off a known
strong generating set (`signed_symmetric_group`), and a scenario file's
goes through Schreier-Sims (`build_group`).
No group is listed, and no builder here refuses a group for its size:
a chain costs what its degree does, and the subset cap that `forge`
checks where a scenario is admitted bounds the degree.
A subgroup is carried by the smallest data that fixes it: one above
Stab(1) by its point block, the decomposition group D by its
generators; the generator lists of a document are read off their
chains' transversals.  The classification works on the
action of the generators on the 2g points (orbits, sign labellings,
block systems).  The CM structure is the central involution tau with
tau(i) = i + g mod 2g, which a model reads off its group's degree.
`Record` is the frozen base of the package's value classes.
"""

from __future__ import annotations

Perm = tuple


class CapExceededError(RuntimeError):
    """A configured enumeration cap was hit."""


class Record:
    """A frozen value: its fields are the class annotations, in order.

    A field's default is its class attribute.  `__init__` takes the
    fields positionally or by keyword, then calls `__post_init__`; a
    call that gives every field, all by position or all by keyword,
    stores them with no per-field lookup.
    Equality and hashing read the fields named in `_compare` (all of
    them unless a class names fewer), and repr reads those named in
    `_shown` (`_compare` unless a class names others); data derived
    from the fields lives outside them.  Assigning or deleting an
    attribute raises `AttributeError`; `replace` builds a new record
    through `__init__`.
    """

    _fields = ()
    _field_set = frozenset()
    _compare = ()
    _shown = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if "_compare" not in cls.__dict__:
            cls._compare = cls._fields
        if "_shown" not in cls.__dict__:
            cls._shown = cls._compare

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = self.__dict__
        if not kwargs and len(args) == len(fields):
            values.update(zip(fields, args))
        elif not args and kwargs.keys() == self._field_set:
            values.update(kwargs)
        else:
            if len(args) > len(fields):
                raise TypeError(
                    f"{type(self).__name__} takes {len(fields)} fields, not {len(args)}")
            values.update(zip(fields, args))
            for name in fields[len(args):]:
                if name in kwargs:
                    values[name] = kwargs.pop(name)
                elif name in self._defaults:
                    values[name] = self._defaults[name]
                else:
                    raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            if kwargs:
                raise TypeError(f"{type(self).__name__} has no further field {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compare])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def replace(self, **changes):
        """A new record with `changes` to its fields; `__post_init__` runs again."""
        values = {name: getattr(self, name) for name in self._fields}
        values.update(changes)
        return type(self)(**values)


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p*q)(i) = p(q(i))."""
    return tuple([p[x] for x in q])


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
    """The g-cycle (1 2 ... g) and the transposition (1 2), which generate S_g (g >= 2)."""
    return [tuple(range(1, g)) + (0,), (1, 0) + tuple(range(2, g))]


def adjacent_transpositions(g: int) -> list:
    """The transpositions (i i+1), i = 1..g-1: a strong generating set of S_g on the base 1..g."""
    return [tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, g)) for i in range(g - 1)]


def diagonal_lift(sigma: Perm, copies: int) -> Perm:
    """sigma acting alike on each of `copies` consecutive runs of len(sigma) points."""
    m = len(sigma)
    return tuple([x + k * m for k in range(copies) for x in sigma])


def conjugation(n: int) -> Perm:
    """The CM conjugation on n = 2g points: i -> i + g mod 2g."""
    g = n // 2
    return tuple(range(g, n)) + tuple(range(g))


def _inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class StabChain:
    """A stabilizer chain of a permutation group on the base 0..n-1.

    Level i describes G^(i), the elements that fix the points 0..i-1:
    its generators `gens[i]`, and for each point x of the orbit of i
    under G^(i) a coset representative `reps[i][x]` taking i to x, with
    its inverse `invs[i][x]`.  Each element of G is u_0 u_1 ... u_{n-1}
    for exactly one choice of representatives, so |G| is the product of
    the orbit lengths and sifting decides membership.  Generators join
    one at a time by deterministic Schreier-Sims (Sims 1970; Seress,
    Permutation Group Algorithms, 2003, ch. 4): every Schreier generator
    of a level is sifted through the levels below it, and a residue
    other than the identity joins them.  `from_strong` builds the chain
    of a group whose strong generating set is known, with no Schreier
    generator.  `order`, the product of the orbit lengths, is kept up to
    date as `insert` adds each representative.  Nothing caps |G|: the
    chain holds at most n(n+1)/2 representatives.
    """

    def __init__(self, n: int, generators=()):
        ident = identity(n)
        self.degree = n
        self.order = 1
        self.gens = [[] for _ in range(n)]
        self.reps = [{i: ident} for i in range(n)]
        self.invs = [{i: ident} for i in range(n)]
        for gen in generators:
            self.insert(gen)

    @classmethod
    def from_strong(cls, n: int, strong) -> "StabChain":
        """The chain of <strong>, for a strong generating set `strong` on the base 0..n-1.

        Precondition: for every i, the members of `strong` that fix
        0..i-1 generate the stabilizer of 0..i-1 in <strong> (Seress,
        Permutation Group Algorithms, 2003, ch. 4).  Those members are
        the generators of level i, and its orbit is their breadth-first
        walk from i; no Schreier generator is formed and nothing is
        sifted.
        """
        chain = cls(n)
        gens = list(strong)
        for i in range(n):
            if not gens:
                break
            chain.gens[i] = gens
            reps, invs = chain.reps[i], chain.invs[i]
            orbit = [i]
            for x in orbit:  # grows while it is walked
                ux = reps[x]
                for s in gens:
                    y = s[x]
                    if y not in reps:
                        uy = tuple([s[a] for a in ux])
                        reps[y] = uy
                        invs[y] = _inverse(uy)
                        orbit.append(y)
            chain.order *= len(orbit)
            gens = [s for s in gens if s[i] == i]
        return chain

    def sift(self, p: Perm, level: int = 0) -> tuple:
        """(k, r): p stripped of its representatives from `level` on; k = n iff p is in G^(level).

        Otherwise the image of k under r has no representative at level k.
        """
        invs = self.invs
        for i in range(level, self.degree):
            x = p[i]
            if x != i:
                inv = invs[i].get(x)
                if inv is None:
                    return i, p
                p = tuple([inv[y] for y in p])
        return self.degree, p

    def __contains__(self, p: Perm) -> bool:
        return self.sift(p)[0] == self.degree

    def insert(self, p: Perm) -> None:
        """Add p to the group and close the chain again.

        A pending element s of G^(k) is sifted from level k; when it
        stops at level j, its residue joins the generators of levels
        k..j, and each of those levels extends its orbit.  Each pair
        (orbit point x, generator s) of a level is met once: the new
        generator with the old orbit, then every generator with each new
        point.  Its Schreier generator u_y^-1 s u_x is built in one pass
        and, unless it is the identity, waits on a stack for the level
        below, so no recursion grows with the length of the base.
        """
        n = self.degree
        ident = identity(n)
        pending = [(0, p)]
        while pending:
            k, gen = pending.pop()
            j, gen = self.sift(gen, k)
            for i in range(k, j + 1) if j < n else ():
                gens, reps, invs = self.gens[i], self.reps[i], self.invs[i]
                gens.append(gen)
                work = [(x, (gen,)) for x in reps]
                for x, movers in work:  # grows while it is walked
                    ux = reps[x]
                    for s in movers:
                        y = s[x]
                        inv = invs.get(y)
                        if inv is None:
                            uy = tuple([s[a] for a in ux])
                            reps[y] = uy
                            invs[y] = _inverse(uy)
                            self.order = self.order // (len(reps) - 1) * len(reps)
                            work.append((y, gens))
                            continue
                        schreier = tuple([inv[s[a]] for a in ux])
                        if schreier != ident:
                            pending.append((i + 1, schreier))


class PermGroup(Record):
    """A permutation group on {1..n} (0-based inside), carried by its stabilizer chain.

    `order` and membership come from the chain.
    """

    degree: int
    generators: tuple
    chain: StabChain
    _compare = ("degree", "generators")

    @property
    def order(self) -> int:
        return self.chain.order

    def __contains__(self, p) -> bool:
        p = tuple(p)
        return len(p) == self.degree and set(p) == set(range(self.degree)) and p in self.chain


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


def build_group(n: int, generators) -> PermGroup:
    """The group generated by `generators` on the points 0..n-1, with its stabilizer chain."""
    gens = []
    for g in generators:
        g = tuple(g)
        if sorted(g) != list(range(n)):
            raise ValueError(f"generator {g} is not a bijection of 0..{n - 1}")
        gens.append(g)
    return PermGroup(degree=n, generators=tuple(gens), chain=StabChain(n, gens))


def _in_group(group: PermGroup, generators) -> tuple:
    """The generators as tuples, each verified to be an element of `group`."""
    gens = tuple(tuple(g) for g in generators)
    for g in gens:
        if g not in group:
            raise ValueError(f"generator {format_perm(g)} is not in the group")
    return gens


def subgroup_generators(transversals) -> list:
    """Small deterministic generating set of a group Z from its chain's transversals, listing none.

    Precondition: `transversals[i]` maps each point x of the orbit of i
    under Z^(i), the elements of Z that fix 0..i-1, to an element of
    Z^(i) taking i to x (a `StabChain`'s `reps`), for i in 0..n-1.  A
    subgroup of G above the stabilizer G^(1) keeps the transversals of
    G below level 0 and, at level 0, those of the points of its block.
    Greedy in lexicographic order: each pick is the least element of Z
    outside the closure K of the picks before it.  Lex order is the
    order of the base images, so an element of Z^(j) precedes every
    element outside it, and the picks fill the non-trivial levels from
    the deepest upward: while level i is being filled,
    Z^(i+1) <= K <= Z^(i).  Such a K holds the whole stabilizer Z^(i+1)
    of i in Z^(i), so it is determined by O, the orbit of i under the picks:
    |K| = |O| |Z^(i+1)|, and u in Z^(i) lies in K exactly when u(i) is
    in O.  The next pick is therefore the least element of the coset
    u_y Z^(i+1), y the least orbit point of level i outside O: below
    level i, the representative at each non-trivial level j is the one
    that minimises the running element's image of j.  No chain is built
    and nothing is sifted.
    """
    # trivial levels add no pick
    levels = [i for i, reps in enumerate(transversals) if len(reps) > 1]
    picks = []
    for k, i in reversed(list(enumerate(levels))):
        reps = transversals[i]
        orbit = [i]
        while len(orbit) < len(reps):
            t = reps[min(y for y in reps if y not in orbit)]
            for j in levels[k + 1:]:
                below = transversals[j]
                t = tuple([t[a] for a in below[min(below, key=t.__getitem__)]])
            picks.append(t)
            orbit = [i]
            for x in orbit:  # grows while it is walked
                for p in picks:
                    if p[x] not in orbit:
                        orbit.append(p[x])
    return picks


class CMGaloisModel(Record):
    """G acting on the 2g Frobenius-eigenvalue indices with CM structure.

    The group fixes the rest: g is half its degree, and tau is the
    conjugation i -> i + g mod 2g (`conjugation`), which must be a
    central element of G.  The decomposition subgroup D at the anchored
    valuation is carried by D_generators (None for a model without D),
    which are checked to lie in the group and kept as a tuple of tuples;
    D_blocks, derived from them, holds the D-orbits on the indices, the
    places of L above p (None without D).  g, tau and D_blocks are
    stored beside the fields; equality reads the group and the D
    generators, so models that differ in D differ.
    """

    group: PermGroup
    D_generators: tuple = None
    _shown = ("g", "group", "tau", "D_generators", "D_blocks")

    def __post_init__(self):
        n = self.group.degree
        if n % 2 != 0:
            raise ValueError(f"group degree {n} is odd, not 2g")
        tau = conjugation(n)
        if len(point_orbits(self.group.generators, n)) != 1:
            raise ValueError("group does not act transitively on the 2g indices")
        if tau not in self.group:
            raise ValueError("tau is not a group element")
        # tau commutes with every element iff it commutes with the generators
        for gen in self.group.generators:
            if compose(gen, tau) != compose(tau, gen):
                raise ValueError(f"tau is not central: fails against generator {format_perm(gen)}")
        gens = blocks = None
        if self.D_generators is not None:
            gens = _in_group(self.group, self.D_generators)
            blocks = point_orbits(gens, n)
        self.__dict__.update(g=n // 2, tau=tau, D_generators=gens, D_blocks=blocks)


def signed_symmetric_group(g: int, flips) -> PermGroup:
    """Sign flips times S_g on copies of the g points, S_g acting alike on each copy.

    Flip f moves copy k of the points 0..g-1 to copy f[k]; the flips
    must generate a group that acts regularly on the len(f) copies, so
    the stabilizer of a point fixes every copy.  The generators are the
    flips, then the lifts of `sym_generators(g)` (`diagonal_lift`).  The
    chain comes from the strong generating set of the flips and the
    lifted adjacent transpositions: the stabilizer of 1..i is S_{g-i} on
    i+1..g, lifted.  One flip (1, 0) gives mu2 x S_g, whose flip is tau;
    (1, 0, 3, 2) and (3, 2, 1, 0) give (mu2 x mu2) x S_g.
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    copies = len(flips[0])
    n = copies * g
    signs = [tuple([f[x // g] * g + x % g for x in range(n)]) for f in flips]
    strong = signs + [diagonal_lift(t, copies) for t in adjacent_transpositions(g)]
    return PermGroup(
        degree=n,
        generators=(*signs, *[diagonal_lift(s, copies) for s in sym_generators(g)]),
        chain=StabChain.from_strong(n, strong),
    )


def index2_point_sets(group: PermGroup) -> list:
    """The index-2 subgroups Z >= Stab(1) of a transitive group, as point sets {z(1) : z in Z}.

    A homomorphism chi: G -> {+-1} whose kernel contains Stab(1) is a
    sign labelling c of the points with c(1) = +1 and
    c(gen(x)) = chi(gen) c(x); Z = ker chi is {z : c(z(1)) = +1}.  One
    walk from 1 over the generators gives each point x the mask w(x) of
    the generators on a path to it, and each step x -> gen(x) to a point
    already reached closes a cycle, w(x) ^ gen ^ w(gen(x)).  A generator
    sign pattern (bit k set: generator k has sign -1) is consistent when
    it meets every cycle in an even number of generators, and then
    c(x) = (-1)^|w(x) & pattern|, so no group element is visited.  The
    + sets come in generator-sign-pattern order.
    """
    gens = group.generators
    word = {0: 0}
    walk = [0]
    cycles = set()
    for x in walk:  # grows while it is walked
        for k, gen in enumerate(gens):
            y, w = gen[x], word[x] ^ (1 << k)
            if y in word:
                cycles.add(w ^ word[y])
            else:
                word[y] = w
                walk.append(y)
    cycles.discard(0)
    return [
        frozenset(x for x, w in word.items() if not (w & bits).bit_count() & 1)
        for bits in range(1, 2 ** len(gens))
        if not any((c & bits).bit_count() & 1 for c in cycles)
    ]
