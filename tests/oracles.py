"""Definitional reference routes that the fast paths are tested against.

Each one follows the definition directly: it walks orbits or builds one
matrix column per group element, with no linear shortcut.
"""

from fractions import Fraction

from weiltate.galois import orbit_of_subset


def tate_by_orbit_walk(model, s, subset) -> bool:
    """#I even and slope sum #I/2 at every member of the G-orbit of I."""
    I = frozenset(subset)
    if len(I) % 2 != 0:
        return False
    target = Fraction(len(I), 2)
    return all(sum((s[i] for i in member), Fraction(0)) == target
               for member in orbit_of_subset(model, I))


def rational_rank(matrix) -> int:
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [v / inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def frobenius_rank_by_matrix(model, s) -> int:
    """Rank of the matrix with one column s∘g per distinct conjugate, minus one."""
    n = model.group.degree
    columns = sorted({tuple(s[g[x]] for x in range(n)) for g in model.group.elements})
    return rational_rank([[col[x] for col in columns] for x in range(n)]) - 1
