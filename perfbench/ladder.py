"""The fixed ladder of scenarios and the three workloads built from it.

A rung is one user command, run as ``weiltate <argv>``.  Classify rungs
are the fixed preset scenarios; forge rungs draw a pool of forge seeds
from the workload seed.

Where g/2 is odd, a full-scan classify document carries a negative
``predicted_signature`` (the program's known signature bug), so those
rungs pass the explicit list of every even weight instead.  The program
then does the same scan, orbit grouping, Weil-Tate and Honda-Tate work,
but derives neither rho nor the signature.  The full-scan commands stay
in the ``defects`` workload, with main g=8, which times out; the checks
fail them for as long as the program is at fault.

Each workload is a closed loop with one client: ``repeat`` rungs run in
rounds (each round runs every repeat rung once, in a seeded order) until
the measuring time is used; ``once`` rungs run once per measured run,
after the rounds, because a single op of theirs takes seconds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORGE_P = 5
FORGE_POOL = 20  # forge seeds per forge rung and run


@dataclass(frozen=True)
class Rung:
    name: str
    metric: str  # per-rung median, e.g. "doc_s.main6" or "forge_s.g12"
    kind: str  # "classify" or "forge"
    family: str  # preset family for classify rungs, "forge" otherwise
    g: int  # dimension of the abelian variety, or degree of the forged field
    limit_s: float  # per-op time limit; an op that reaches it is a "timeout"
    argv: tuple = ()  # fixed argv of a classify rung


def _classify(name, family, flag, value, limit_s, cap=None, weights=False):
    argv = ("classify", "--preset", family, flag, str(value))
    if cap is not None:
        argv += ("--cap", str(cap))
    g = value if family == "main" else 2 * value
    if weights:
        argv += ("--weights", ",".join(str(w) for w in range(0, 2 * g + 1, 2)))
    return Rung(name, f"doc_s.{name}", "classify", family, g, limit_s, argv + ("--format", "json"))


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def forge_primes(g: int, p: int = FORGE_P) -> tuple:
    """l and l': the two smallest primes above g other than p."""
    out = []
    q = g + 1
    while len(out) < 2:
        if _is_prime(q) and q != p:
            out.append(q)
        q += 1
    return tuple(out)


def _forge(g, limit_s):
    return Rung(f"g{g}", f"forge_s.g{g}", "forge", "forge", g, limit_s)


RUNGS = {
    r.name: r
    for r in (
        _classify("main4", "main", "--g", 4, 10),
        _classify("main6", "main", "--g", 6, 20, weights=True),
        _classify("ramified3", "ramified", "--gp", 3, 10, weights=True),
        _classify("split3", "split", "--gp", 3, 10, weights=True),
        _classify("ramified5", "ramified", "--gp", 5, 45, cap=20, weights=True),
        _classify("split5", "split", "--gp", 5, 45, cap=20, weights=True),
        # full scans: the known signature bug fails them (defects workload)
        _classify("main6.full", "main", "--g", 6, 20),
        _classify("ramified3.full", "ramified", "--gp", 3, 10),
        _classify("split3.full", "split", "--gp", 3, 10),
        _classify("ramified5.full", "ramified", "--gp", 5, 45, cap=20),
        _classify("split5.full", "split", "--gp", 5, 45, cap=20),
        # far beyond the limit today (Honda-Tate over |G| = 80640)
        _classify("main8", "main", "--g", 8, 20),
        _forge(4, 10),
        _forge(6, 10),
        _forge(8, 10),
        _forge(10, 10),
        _forge(12, 20),
    )
}


DEFECTS = "defects"  # run by hand; not a workload of BENCHMARK.json


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    repeat: tuple
    once: tuple = ()

    @property
    def rungs(self) -> tuple:
        return self.repeat + self.once


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "groups",
            "large groups, small subset scans: element-walking layers (Honda-Tate, "
            "index-2 overgroups, Frobenius rank) dominate",
            repeat=("main4", "main6"),
        ),
        Workload(
            "subsets",
            "tiny groups, 2^(2g) subsets: the candidate scan and orbit BFS dominate; "
            "the most memory",
            repeat=("ramified3", "split3"),
            once=("ramified5", "split5"),
        ),
        Workload(
            "forge",
            "forge and algebra only (Sturm, CRT, degree patterns over big integers): "
            "the control for classifier, galois and slopes changes",
            repeat=("g4", "g6", "g8", "g10", "g12"),
        ),
        Workload(
            DEFECTS,
            "the ladder's failing commands, kept out of the measured workloads: full "
            "scans hit the signature bug where g/2 is odd, and main g=8 times out",
            repeat=("main6.full", "ramified3.full", "split3.full"),
            once=("main8", "ramified5.full", "split5.full"),
        ),
    )
}


@dataclass(frozen=True)
class Op:
    rung: Rung
    argv: tuple


def make_op(rung: Rung, rng: random.Random) -> Op:
    if rung.kind == "classify":
        return Op(rung, rung.argv)
    l, lp = forge_primes(rung.g)
    seed = rng.randrange(2**31)
    argv = ("forge", "--g", str(rung.g), "--p", str(FORGE_P), "--l", str(l), "--lp", str(lp),
            "--seed", str(seed), "--format", "json")
    return Op(rung, argv)


class WorkList:
    """All inputs of one run, drawn from the workload seed alone.

    Each repeat rung has a pool of inputs: one for a classify rung,
    FORGE_POOL forge seeds for a forge rung.  Round r runs input r mod
    pool size of every repeat rung, so each input runs several times,
    rounds apart.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        rng = random.Random(f"{workload}:{seed}:inputs")
        self.pools = {
            name: [make_op(RUNGS[name], rng)
                   for _ in range(FORGE_POOL if RUNGS[name].kind == "forge" else 1)]
            for name in self.workload.repeat
        }
        names = list(self.workload.once)
        rng.shuffle(names)
        self.once = [make_op(RUNGS[name], rng) for name in names]
        self._order_rng = random.Random(f"{workload}:{seed}:order")
        self._rounds = 0

    def next_round(self) -> list:
        names = list(self.workload.repeat)
        self._order_rng.shuffle(names)
        ops = [self.pools[name][self._rounds % len(self.pools[name])] for name in names]
        self._rounds += 1
        return ops
