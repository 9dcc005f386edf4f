"""Exact arithmetic kernel.

Polynomials are coefficient tuples, lowest degree first; the zero
polynomial is the empty tuple.  Integer polynomials carry arbitrary
precision Python ints, rational ones `fractions.Fraction`.  Polynomials
over a prime field GF(l) keep their coefficients reduced into
[0, l) and require l < 2**31 so single-word modular arithmetic stays
exact (coefficient growth is unbounded everywhere else).

Nothing here rounds: root counting is by Sturm sequences over the
rationals, factorization shapes come from squarefree decomposition plus
distinct-degree splitting (no equal-degree step: only degree patterns
are ever needed as certificates).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

BigRational = Fraction

MAX_PRIME = 2**31


class NotSquarefreeError(ValueError):
    """Raised when an operation requires a squarefree polynomial."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(l: int) -> None:
    if not isinstance(l, int) or not is_prime(l):
        raise ValueError(f"modulus {l!r} is not prime")
    if l >= MAX_PRIME:
        raise ValueError(f"prime {l} exceeds the 2**31 single-word cap")


# ---------------------------------------------------------------------------
# generic dense polynomials (works for int and Fraction coefficients)
# ---------------------------------------------------------------------------

def poly_trim(f):
    f = tuple(f)
    n = len(f)
    while n > 0 and f[n - 1] == 0:
        n -= 1
    return f[:n]


def poly_degree(f) -> int:
    """Degree of a trimmed polynomial; the zero polynomial has degree -1."""
    return len(f) - 1


def poly_add(f, g):
    n = max(len(f), len(g))
    return poly_trim(
        tuple((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n))
    )


def poly_neg(f):
    return tuple(-c for c in f)


def poly_sub(f, g):
    return poly_add(f, poly_neg(g))


def poly_mul(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return poly_trim(out)


def poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_derivative(f):
    return poly_trim(tuple(i * f[i] for i in range(1, len(f))))


def poly_is_monic(f) -> bool:
    return bool(f) and f[-1] == 1


def format_poly(f, var: str = "x") -> str:
    """Human-readable form, highest degree first, e.g. 'x^2 + 5x + 2'."""
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            body = f"{mag}{var}" if i == 1 else f"{mag}{var}^{i}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# GF(l) polynomials
# ---------------------------------------------------------------------------

def gf_reduce(f, l):
    return poly_trim(tuple(c % l for c in f))


def gf_add(f, g, l):
    n = max(len(f), len(g))
    return poly_trim(
        tuple(((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % l for i in range(n))
    )


def gf_sub(f, g, l):
    n = max(len(f), len(g))
    return poly_trim(
        tuple(((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)) % l for i in range(n))
    )


def gf_mul(f, g, l):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % l
    return poly_trim(out)


def gf_divmod(f, g, l):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    inv = pow(g[-1], -1, l)
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return (), poly_trim(rem)
    quo = [0] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + len(g) - 1] % l
        if c:
            c = (c * inv) % l
            quo[i] = c
            for j, b in enumerate(g):
                rem[i + j] = (rem[i + j] - c * b) % l
    return poly_trim(quo), poly_trim(rem)


def gf_quo(f, g, l):
    return gf_divmod(f, g, l)[0]


def gf_rem(f, g, l):
    return gf_divmod(f, g, l)[1]


def gf_monic(f, l):
    f = gf_reduce(f, l)
    if not f or f[-1] == 1:
        return f
    inv = pow(f[-1], -1, l)
    return tuple((c * inv) % l for c in f)


def gf_gcd(f, g, l):
    a, b = gf_reduce(f, l), gf_reduce(g, l)
    while b:
        a, b = b, gf_rem(a, b, l)
    return gf_monic(a, l)


def gf_pow_mod(base, e, mod, l):
    result = (1,)
    base = gf_rem(base, mod, l)
    while e > 0:
        if e & 1:
            result = gf_rem(gf_mul(result, base, l), mod, l)
        base = gf_rem(gf_mul(base, base, l), mod, l)
        e >>= 1
    return result


def gf_derivative(f, l):
    return poly_trim(tuple((i * f[i]) % l for i in range(1, len(f))))


def gf_squarefree_decomposition(f, l):
    """Monic squarefree decomposition over GF(l).

    Returns a list of (multiplicity, factor) with the factors monic,
    squarefree, pairwise coprime, and prod(factor**mult) = monic(f).
    Handles the characteristic-l collapse f' = 0 via l-th roots
    (Frobenius is the identity on GF(l) coefficients).
    """
    f = gf_monic(f, l)
    if poly_degree(f) < 1:
        return []
    out = []
    n = 1
    while True:
        deriv = gf_derivative(f, l)
        if deriv:
            g = gf_gcd(f, deriv, l)
            h = gf_quo(f, g, l)
            i = 1
            while h != (1,):
                gh = gf_gcd(g, h, l)
                piece = gf_quo(h, gh, l)
                if poly_degree(piece) > 0:
                    out.append((i * n, piece))
                g, h, i = gf_quo(g, gh, l), gh, i + 1
            if g == (1,):
                break
            f = g
        # here f is an l-th power: f(x) = u(x**l); its l-th root reuses
        # the same coefficients since a**l = a in GF(l)
        f = tuple(f[i * l] for i in range(poly_degree(f) // l + 1))
        n *= l
    return out


def gf_distinct_degree(f, l):
    """Distinct-degree split of a monic squarefree f over GF(l).

    Returns a list of (d, product-of-degree-d-irreducible-factors) with
    trivial entries omitted, in increasing d.
    """
    out = []
    h = (0, 1)  # x
    d = 0
    while poly_degree(f) > 0:
        d += 1
        if 2 * d > poly_degree(f):
            out.append((poly_degree(f), f))
            break
        h = gf_pow_mod(h, l, f, l)
        g = gf_gcd(f, gf_sub(h, (0, 1), l), l)
        if poly_degree(g) > 0:
            out.append((d, g))
            f = gf_quo(f, g, l)
            h = gf_rem(h, f, l)
    return out


def factor_degree_pattern(f, l):
    """Degree pattern of f mod l: ([(degree, count), ...], squarefree).

    Counts carry multiplicity from the squarefree decomposition; the
    pairs are sorted by degree and satisfy sum(d*c) = deg(f mod l).
    """
    require_prime(l)
    fbar = gf_reduce(f, l)
    if not f:
        raise ValueError("zero polynomial has no factorization pattern")
    if poly_degree(fbar) != poly_degree(poly_trim(f)):
        raise ValueError(f"leading coefficient of f vanishes mod {l}")
    counts: dict[int, int] = {}
    squarefree = True
    for mult, part in gf_squarefree_decomposition(fbar, l):
        if mult > 1:
            squarefree = False
        for d, prod in gf_distinct_degree(part, l):
            counts[d] = counts.get(d, 0) + (poly_degree(prod) // d) * mult
    return sorted(counts.items()), squarefree


def count_distinct_roots_mod(f, l):
    """Number of distinct roots of f in GF(l), as deg gcd(f, x**l - x)."""
    require_prime(l)
    fbar = gf_reduce(f, l)
    if not f:
        raise ValueError("zero polynomial rejected")
    if poly_degree(fbar) != poly_degree(poly_trim(f)):
        raise ValueError(f"leading coefficient of f vanishes mod {l}")
    if poly_degree(fbar) == 0:
        return 0
    xl = gf_pow_mod((0, 1), l, fbar, l)
    g = gf_gcd(fbar, gf_sub(xl, (0, 1), l), l)
    return poly_degree(g)


def gf_is_irreducible(f, l):
    pattern, _ = factor_degree_pattern(f, l)
    d = poly_degree(gf_reduce(f, l))
    return d >= 1 and pattern == [(d, 1)]


# ---------------------------------------------------------------------------
# Sturm sequences over Q
# ---------------------------------------------------------------------------

def _qpoly(f):
    return poly_trim(tuple(Fraction(c) for c in f))


def _qpoly_rem(f, g):
    rem = list(f)
    dq = len(f) - len(g)
    if dq < 0:
        return poly_trim(rem)
    for i in range(dq, -1, -1):
        c = rem[i + len(g) - 1]
        if c:
            c = c / g[-1]
            for j, b in enumerate(g):
                rem[i + j] -= c * b
    return poly_trim(rem[: len(g) - 1])


def _sign_at_infinity(f, positive: bool) -> int:
    lead = f[-1]
    if positive or (poly_degree(f) % 2 == 0):
        return 1 if lead > 0 else -1
    return -1 if lead > 0 else 1


def _sign_changes(signs) -> int:
    changes = 0
    prev = None
    for s in signs:
        if s == 0:
            continue
        if prev is not None and s != prev:
            changes += 1
        prev = s
    return changes


def sturm_real_roots(f):
    """Exact count of distinct real roots of a squarefree integer polynomial.

    The Sturm chain is evaluated at -oo and +oo through leading-term
    signs; everything runs in Fraction arithmetic.  A nonzero gcd(f, f')
    raises NotSquarefreeError.
    """
    f = _qpoly(f)
    if not f:
        raise ValueError("zero polynomial rejected")
    if poly_degree(f) == 0:
        return 0
    chain = [f, _qpoly(poly_derivative(f))]
    while chain[-1] and poly_degree(chain[-1]) > 0:
        chain.append(poly_trim(tuple(-c for c in _qpoly_rem(chain[-2], chain[-1]))))
    if chain[-1] == ():
        raise NotSquarefreeError("polynomial is not squarefree over Q")
    neg = [_sign_at_infinity(p, positive=False) for p in chain if p]
    pos = [_sign_at_infinity(p, positive=True) for p in chain if p]
    return _sign_changes(neg) - _sign_changes(pos)


# ---------------------------------------------------------------------------
# CRT for monic integer polynomials
# ---------------------------------------------------------------------------

def crt_integers(residues, moduli) -> int:
    """Combine integer congruences with pairwise coprime moduli into [0, M)."""
    total, modulus = 0, 1
    for r, m in zip(residues, moduli):
        if gcd(modulus, m) != 1:
            raise ValueError("moduli are not pairwise coprime")
        # x = total + modulus * t with t = (r - total)/modulus mod m
        t = ((r - total) * pow(modulus % m, -1, m)) % m
        total += modulus * t
        modulus *= m
    return total % modulus


def crt_poly(constraints, degree: int):
    """Unique monic degree-`degree` polynomial matching each residue.

    `constraints` is a list of (modulus >= 2, residue polynomial); the
    residues must look like reductions of a monic degree-`degree`
    polynomial (their x**degree coefficient must be 1 mod the modulus),
    and non-leading coefficients land in the canonical range [0, prod).
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    moduli = []
    residues = []
    for m, r in constraints:
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"modulus {m!r} must be an integer >= 2")
        r = poly_trim(r)
        if poly_degree(r) > degree:
            raise ValueError(f"residue degree {poly_degree(r)} exceeds target degree {degree}")
        lead = r[degree] if len(r) > degree else 0
        if (lead - 1) % m != 0:
            raise ValueError(f"residue {r} is not monic of degree {degree} mod {m}")
        moduli.append(m)
        residues.append(r)
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[j]) != 1:
                raise ValueError("moduli are not pairwise coprime")
    coeffs = []
    for k in range(degree):
        coeffs.append(crt_integers([(r[k] if k < len(r) else 0) for r in residues], moduli))
    coeffs.append(1)
    return poly_trim(coeffs)
