"""Exact arithmetic kernel.

Polynomials are coefficient sequences, lowest degree first; the zero
polynomial is empty.  Integer polynomials are tuples of arbitrary
precision Python ints.  Over a prime field GF(l) the kernel works on
lists with coefficients in [0, l), for a prime l that the caller has
checked once, any prime below `MR_BOUND`; Euclid divides such lists by
non-monic remainders, one inverse a step.

Nothing here rounds: irreducibility is Ben-Or's test, which stops at
the first factor of degree at most half.

Ben-Or's d = 1 stage asks whether f has a root in GF(l).  For
l < 2 deg f it is answered by Horner's rule at every a in GF(l), with
no product mod f and no gcd; only an f without a root goes on, and
only if d = 2 is reached (deg f >= 4).  Past that bound the d = 1
stage is gcd(f, x**l - x), like every later one.
Each later stage needs x**(l**d) mod f.  It comes from the Frobenius
rows x**(l*i) mod f: a**l = a in GF(l), so h**l mod f is
sum_i h_i * x**(l*i) mod f, one matrix-vector product per d.  Only
x**l mod f itself comes from squaring, about log2 l products mod f.
The other rows each come from the one before (shifted l places when
l < 2 deg f, else times x**l mod f).
That computation runs on packed ints (Kronecker substitution): a
polynomial mod f is one int with coefficient i in slot i of w bits, so
a product is one bigint multiply, a shift by x is one bigint shift,
and the matrix-vector product is deg f bigint multiply-adds.  Slots may
go unreduced mod l; `_packed_modulus` derives w from l and deg f so
that none carries into the next.  Each x**(l**d) mod f is unpacked
once, into the list that Euclid takes.
"""

from __future__ import annotations

from math import gcd
from operator import mul


# Miller-Rabin with these bases is exact below the bounds: the first four
# below 3,215,031,751 (Pomerance, Selfridge and Wagstaff 1980), all
# thirteen below 3,317,044,064,679,887,385,961,981 (Sorenson and Webster 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_FOUR_BASE_BOUND = 3_215_031_751
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above MR_BOUND is refused, not guessed."""
    if n >= MR_BOUND:
        raise ValueError(f"{n} is too large for the deterministic primality test "
                         f"(bound {MR_BOUND})")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    return _strong_probable_prime(n, _MR_BASES[:4] if n < _FOUR_BASE_BOUND else _MR_BASES)


def _strong_probable_prime(n: int, bases) -> bool:
    """Whether the odd n > 2 passes the strong Fermat test to every base."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# generic dense polynomials (any ring of Python numbers)
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


def format_poly(f) -> str:
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
            body = f"{mag}x" if i == 1 else f"{mag}x^{i}"
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


def _euclid(a, b, l):
    """Monic gcd over GF(l) of two lists of coefficients in [0, l), b trimmed.

    Euclid runs on the lists, which it consumes.  Each step folds
    pow(lc b, -1, l) into the quotient coefficients, and leaves the
    remainder in place, read mod l only at the top, where it is
    trimmed; the gcd is reduced and made monic at the end.  Both zero gives [].
    """
    while b:
        inv = pow(b[-1], -1, l)
        nb = len(b) - 1
        for k in range(len(a) - 1, nb - 1, -1):
            c = a[k] * inv % l
            if c:
                for j, bj in enumerate(b, k - nb):
                    a[j] -= c * bj
        del a[nb:]
        while a and not a[-1] % l:
            a.pop()
        a, b = b, a
    if a:
        inv = pow(a[-1], -1, l)
        a = [c * inv % l for c in a]
    return a


def _packed_modulus(f, l):
    """(l, n, w, negf) for the monic list f of degree n >= 1 over GF(l).

    A packed polynomial is one int with coefficient i in bits
    [w*i, w*(i+1)), its slot.  Slots are non-negative and may exceed l:
    only their residues mod l mean anything, so w must keep every slot
    below 2**(w-1), or a carry into the slot above would change a
    coefficient and Ben-Or could accept a reducible f.  negf packs
    -f_i mod l for i < n, so adding c * negf << w*k clears c * x**(n+k)
    mod f without making a slot negative; each clear adds at most
    (l-1)**2 to a slot.  The largest slots are those of
      - a shifted Frobenius row: the n - 2 rows past x**l take l*(n-2)
        shifts from a reduced x**l, so a row slot stays below
        R = l + n*l*(l-1)**2;
      - the matrix-vector product sum_i h_i * row_i, h_i < l: below
        n*(l-1)*R + R;
      - a product of two reduced operands, cleared from the top: below
        2*n*l**2 (at most n terms in a slot of the convolution, then
        at most n clears that reach it).
    w is one more than the bit length of the largest of these: 23 bits
    at l = 13 and n = 12, 133 to 137 at l = 2**31 - 1 and n = 12 to 60,
    253 to 257 at l = 2**61 - 1, and 334 to 339 at the largest prime
    below `MR_BOUND` (82 bits).
    """
    n = len(f) - 1
    row = l + n * l * (l - 1) ** 2
    w = 1 + max(n * (l - 1) * row + row, 2 * n * l * l).bit_length()
    return l, n, w, _pack([-c % l for c in f[:n]], w)


def _pack(coeffs, w):
    """The int with coeffs[i] in slot i of w bits, each in [0, 2**w)."""
    h = 0
    for c in reversed(coeffs):
        h = h << w | c
    return h


def _unpack(h, modulus):
    """The n slots of the packed h, each reduced mod l, as a list."""
    l, n, w, _ = modulus
    mask = (1 << w) - 1
    return [(h >> s & mask) % l for s in range(0, n * w, w)]


def _product_mod(a, b, modulus):
    """a * b mod f, for packed a and b with reduced slots and at most 2n slots
    in their product, packed with its n slots reduced.

    One bigint product does the convolution; its slots from 2n - 1 down
    to n are then read mod l and cleared, each by one c * negf.
    """
    l, n, w, negf = modulus
    h = a * b
    low = n * w
    for s in range(low + (n - 1) * w, low - 1, -w):
        top = h >> s
        h -= top << s
        c = top % l
        if c:
            h += (c * negf) << (s - low)
    return _pack(_unpack(h, modulus), w)


def _x_to_the_l(modulus):
    """x**l mod f, packed with reduced slots.

    Left-to-right squaring, one product mod f per remaining bit of l,
    from x**k with k the leading bits of l that keep it below x**n (its
    own remainder).  A 1 bit multiplies by x too, as a shift of one of
    the two factors.
    """
    l, n, w, _ = modulus
    s = 0
    while l >> s >= n:
        s += 1
    h = 1 << w * (l >> s)
    for i in range(s - 1, -1, -1):
        h = _product_mod(h, h << w if l >> i & 1 else h, modulus)
    return h


def _frobenius_rows(modulus, xl):
    """The packed Frobenius rows x**(l*i) mod f for i < n, each from the one before.

    For l < 2n the row before is shifted one slot l times; each shift
    reads the slot above the n kept ones mod l, masks it off and adds
    c * negf.  No row is reduced, which `_packed_modulus` bounds.
    Else each row is the one before times x**l = xl mod f, a product.
    """
    l, n, w, negf = modulus
    rows = [1, xl]
    if l < 2 * n:
        top = n * w
        mask = (1 << top) - 1
        row = xl
        for _ in range(n - 2):
            for _ in range(l):
                row <<= w
                row = (row & mask) + (row >> top) % l * negf
            rows.append(row)
    else:
        while len(rows) < n:
            rows.append(_product_mod(rows[-1], xl, modulus))
    return rows[:n]


def _frobenius_powers_of_x(f, l):
    """x**(l**d) mod the monic list f over GF(l), deg f >= 1, for d = 1, 2, ...

    Each power is a list of deg f coefficients in [0, l).  Since a**l = a
    for every a in GF(l), h**l = sum_i h_i * x**(l*i) mod f: one
    matrix-vector product with the packed Frobenius rows, unpacked
    once.  Nothing is computed before the first power is asked for,
    x**l by squaring; the other rows are built when the second is.
    """
    modulus = _packed_modulus(f, l)
    xl = _x_to_the_l(modulus)
    h = _unpack(xl, modulus)
    yield h
    rows = _frobenius_rows(modulus, xl)
    while True:
        h = _unpack(sum(map(mul, h, rows)), modulus)
        yield h


def _gcd_minus_x(f, h, l):
    """gcd(f, h - x) over GF(l) as a list, h a list of coefficients in [0, l)."""
    g = h + [0] * (2 - len(h))
    g[1] = (g[1] - 1) % l
    while g and not g[-1]:
        g.pop()
    return _euclid(list(f), g, l)


def _has_root(f, l):
    """Whether the list f has a root in GF(l), by Horner's rule at each a in turn."""
    top = f[::-1]
    for a in range(l):
        value = 0
        for c in top:
            value = (value * a + c) % l
        if not value:
            return True
    return False


def gf_ben_or(f, l):
    """Ben-Or's test: a monic list f of degree n >= 1 with coefficients in
    [0, l) is irreducible mod l iff gcd(f, x**(l**d) - x) = 1 for every
    d <= n/2.  Neither l nor f is checked.

    The first nontrivial gcd rejects f; no factorization pattern is
    formed.  At d = 1 the gcd is nontrivial iff f has a root in GF(l);
    for l < 2n that is decided by evaluation at every a, so an f with a
    root costs no product mod f and no Euclid, and x**l mod f is
    computed only for an f that reaches d = 2.  x**(l**d) mod f comes
    from the Frobenius rows of f, built only for an f that passes d = 1.
    """
    n = len(f) - 1
    powers = _frobenius_powers_of_x(f, l)
    stages = n // 2
    if l < 2 * n:
        if _has_root(f, l):
            return False
        stages -= 1
        if stages:
            next(powers)  # x**l, which the rows for d = 2 are built from
    for _ in range(stages):
        if len(_gcd_minus_x(f, next(powers), l)) != 1:
            return False
    return n >= 1


# ---------------------------------------------------------------------------
# CRT for monic integer polynomials
# ---------------------------------------------------------------------------

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
    modulus = 1
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
        modulus *= m
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[j]) != 1:
                raise ValueError("moduli are not pairwise coprime")
    # the CRT basis: e_i = 1 mod m_i and 0 mod every other modulus
    basis = [modulus // m * pow(modulus // m, -1, m) for m in moduli]
    coeffs = tuple(
        sum(r[k] * e for r, e in zip(residues, basis) if k < len(r)) % modulus
        for k in range(degree)
    )
    return coeffs + (1,)
