"""Exact factorisation of polynomials over K = Q(zeta_L), with no sampling.

Trager's norm method reduces factoring over K to factoring over Z.  For a
squarefree g, the shift s runs through 0, 1, -1, 2, -2, ... until the norm
N(x) = prod_a sigma_a(g(x + s zeta)), over the automorphisms
sigma_a: zeta -> zeta^a, is squarefree; then the irreducible factors of g
are gcd_K(g(x + s zeta), N_j)(x - s zeta) over the irreducible factors N_j
of N in Z[x].  Over Z, Berlekamp's algorithm factors N modulo the prime
with the fewest factors among the first three good ones, linear Hensel
lifting raises those factors past twice the Mignotte bound, and
Zassenhaus's recombination tries subsets of them in order of size.

``factor`` takes only squarefree polynomials: the minimal polynomial of
a central element of a semisimple algebra in characteristic 0, the one
kind the block analysis factors, has no repeated root.

Polynomials are coefficient lists, lowest degree first: over K of
CycloNumbers, over Q of Fractions, over Z and Z/m of ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import gcd, isqrt, lcm

from .cyclo import (CycloNumber, _exquo_z, _galois_group, _poly_divmod,
                    _poly_mul, _poly_trim, conjugate, zeta)


# ------------------------------------------------------------ K[x] and Q[x]

def as_cyclo(a, L: int) -> list:
    """The polynomial a with every coefficient a CycloNumber at conductor L."""
    return [c if isinstance(c, CycloNumber) else CycloNumber.from_rational(c, L)
            for c in a]


def monic(a) -> list:
    inv = 1 / a[-1]
    return [c * inv for c in a]


def derivative(a) -> list:
    return [c * i for i, c in enumerate(a)][1:]


def gcd_monic(a, b) -> list:
    """The monic gcd of a and b, not both zero, by Euclid's algorithm with
    each remainder made monic, which keeps the coefficients from growing."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
        b = monic(b) if b else b
    return monic(a)


def exquo(a, b) -> list:
    q, r = _poly_divmod(a, b)
    if r:
        raise ArithmeticError("nonzero remainder in exact division")
    return q


def shift(g, c) -> list:
    """g(x + c), by Horner's rule."""
    out: list = []
    for a in reversed(g):
        nxt = [a] + out
        for i, b in enumerate(out):
            nxt[i] += c * b
        out = nxt
    return out


def norm(g, L: int) -> list:
    """prod_a sigma_a(g) over a in (Z/L)^*: a polynomial over Q.
    ``as_fraction`` raises if a coefficient is not rational."""
    out = [Fraction(1)]
    for a in _galois_group(L):
        out = _poly_mul(out, [conjugate(c, a) for c in g])
    return [c.as_fraction() for c in as_cyclo(out, L)]


def _shifts():
    yield 0
    for s in count(1):
        yield s
        yield -s


def _factor_squarefree(g, L: int) -> list:
    """The monic irreducible factors over Q(zeta_L) of a monic squarefree g.

    The norm of g(x + s zeta) is squarefree exactly when its factors
    sigma_a(g(x + s zeta)) have no common root, that is when
    g(x + s zeta) is coprime to each of its conjugates; those gcds have
    the degree of g, not of the norm.
    """
    if len(g) <= 2:
        return [g]
    z = zeta(L)
    others = _galois_group(L)[1:]
    for s in _shifts():
        gs = shift(g, z * s)
        if all(len(gcd_monic(gs, [conjugate(c, a) for c in gs])) == 1 for a in others):
            break
    N = norm(gs, L)
    den = lcm(*(c.denominator for c in N))
    parts = factor_integer([int(c * den) for c in N])
    if len(parts) == 1:
        return [g]
    return [shift(gcd_monic(gs, as_cyclo(h, L)), z * -s) for h in parts]


def factor(f, L: int) -> list:
    """The monic irreducible factors over Q(zeta_L) of a monic squarefree f
    of positive degree, each once, in the order the recombination finds
    them.

    Raises ArithmeticError if f has a repeated factor, that is if
    gcd(f, f') is not 1, or unless the factors multiply back to f."""
    f = as_cyclo(f, L)
    if len(gcd_monic(f, derivative(f))) > 1:
        raise ArithmeticError("f has a repeated factor")
    out = [as_cyclo(h, L) for h in _factor_squarefree(f, L)]
    back = [Fraction(1)]
    for h in out:
        back = _poly_mul(back, h)
    if as_cyclo(back, L) != f:
        raise ArithmeticError("the factors do not multiply back to f")
    return out


# ------------------------------------------------------------ Z/m[x] and Z[x]

def _mul_mod(a, b, m: int) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % m for c in out]


def _add_mod(a, b, m: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _poly_trim([(x + (b[i] if i < len(b) else 0)) % m for i, x in enumerate(a)])


def _divmod_p(a, b, p: int):
    """Quotient and remainder mod the prime p, b with nonzero leading term."""
    a = [c % p for c in a]
    inv, db = pow(b[-1], -1, p), len(b) - 1
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            q[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return q, _poly_trim(a[:db])


def _xgcd_p(a, b, p: int):
    """(g, s, t): the monic gcd g of a and b mod p, and s a + t b = g."""
    r0, r1 = _poly_trim([c % p for c in a]), _poly_trim([c % p for c in b])
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _divmod_p(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add_mod(s0, [-c for c in _mul_mod(q, s1, p)], p)
        t0, t1 = t1, _add_mod(t0, [-c for c in _mul_mod(q, t1, p)], p)
    inv = pow(r0[-1], -1, p)
    return tuple([c * inv % p for c in x] for x in (r0, s0, t0))


def _kernel_p(rows, p: int) -> list:
    """A basis of {v : sum_i v_i rows[i] = 0 mod p}, by row reduction."""
    n = len(rows)
    A = [list(col) for col in zip(*rows)]
    pivots: list = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, n) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(n):
            if i != r and A[i][c]:
                A[i] = [(x - A[i][c] * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = -A[i][free] % p
        basis.append(v)
    return basis


def berlekamp(f, p: int) -> list:
    """A basis of the v with v**p = v mod f, for a monic f squarefree mod p.

    They form the kernel of Q - I, Q the matrix of v -> v**p, and its
    dimension is the number of irreducible factors of f mod p.  The
    first basis vector is the constant 1.
    """
    n = len(f) - 1
    xp = _divmod_p([0] * p + [1], f, p)[1]
    rows, cur = [], [1]
    for i in range(n):
        row = cur + [0] * (n - len(cur))
        row[i] -= 1
        rows.append([c % p for c in row])
        cur = _divmod_p(_mul_mod(cur, xp, p), f, p)[1]
    return _kernel_p(rows, p)


def _split_p(f, basis, p: int) -> list:
    """The monic irreducible factors of f mod p, from its Berlekamp basis.

    For v in the Berlekamp algebra of a factor u, u is the product of its
    gcds with v - c over c in Z/p, so the scan of c stops once the gcds
    found add up to the degree of u: the c left give only constants.
    """
    factors = [f]
    for v in basis[1:]:
        if len(factors) == len(basis):
            break
        split = []
        for u in factors:
            left = len(u) - 1
            for c in range(p):
                g = _xgcd_p(u, _add_mod(v, [-c], p), p)[0]
                if len(g) > 1:
                    split.append(g)
                    left -= len(g) - 1
                    if not left:
                        break
        factors = split
    return factors


def _hensel_pair(f, g, h, p: int, k: int):
    """Lift f = g h mod p, g monic and coprime to h mod p, to mod p**k.

    A step from mod m to mod m p adds m r to g and m (s e + q h) to h,
    where e = (f - g h)/m, s g + t h = 1 and t e = q g + r mod p.
    """
    _, s, t = _xgcd_p(g, h, p)
    m = p
    for _ in range(k - 1):
        e = [(x - y) % (m * p) // m for x, y in zip(f, _mul_mod(g, h, m * p))]
        q, r = _divmod_p(_mul_mod(t, e, p), g, p)
        dh = _add_mod(_mul_mod(s, e, p), _mul_mod(q, h, p), p)
        g = [x + m * y for x, y in zip(g, r + [0] * len(g))]
        h = [x + m * y for x, y in zip(h, dh + [0] * len(h))]
        m *= p
    return g, h


def hensel(f, us, p: int, k: int) -> list:
    """The monic factors us of f mod p (f = lc * prod us), lifted to mod p**k."""
    out = []
    for i, u in enumerate(us[:-1]):
        rest = [f[-1] % p]
        for v in us[i + 1:]:
            rest = _mul_mod(rest, v, p)
        g, f = _hensel_pair(f, u, rest, p, k)
        out.append(g)
    inv = pow(f[-1], -1, p ** k)
    return out + [[c * inv % p ** k for c in f]]


def factor_integer(f) -> list:
    """The irreducible factors in Z[x] of a squarefree f with f[-1] > 0 and
    content 1, each with content 1 and a positive leading coefficient.

    Any factor of f, times lc(f)/its own leading coefficient, has every
    coefficient below B = lc(f) 2^n ceil(|f|_2) in size (Mignotte), so the
    symmetric residues mod p**k > 2B of lc(f) prod_S u_i are exact for
    every subset S that belongs to a true factor.
    """
    n = len(f) - 1
    if n <= 1:
        return [f]
    best, tried = None, 0
    for p in (p for p in count(3, 2) if all(p % d for d in range(3, isqrt(p) + 1, 2))):
        if f[-1] % p == 0 or len(_xgcd_p(f, derivative(f), p)[0]) > 1:
            continue
        inv = pow(f[-1], -1, p)
        fp = [c * inv % p for c in f]
        basis = berlekamp(fp, p)
        if best is None or len(basis) < len(best[2]):
            best = p, fp, basis
        tried += 1
        if tried == 3 or len(basis) == 1:
            break
    p, fp, basis = best
    if len(basis) == 1:
        return [f]
    norm2 = sum(c * c for c in f)
    bound = 2 * f[-1] * 2 ** n * (isqrt(norm2) + (isqrt(norm2) ** 2 < norm2))
    k = 1
    while p ** k <= bound:
        k += 1
    return _recombine(f, hensel(f, _split_p(fp, basis, p), p, k), p ** k)


def _recombine(f, us, pk: int) -> list:
    """Zassenhaus: the irreducible factors of f from its monic factors us
    mod pk, lifted past twice the bound of ``factor_integer``.

    Subsets S of us are tried by size, and one is accepted only when the
    primitive part of lc(f) prod_S u_i divides f in Z[x]; a factor of it
    would have come from a smaller subset, so it is irreducible, and so
    is what is left once no subset of at most half the remaining u_i
    divides.
    """
    out, size = [], 1
    while 2 * size <= len(us):
        for S in combinations(range(len(us)), size):
            g = [f[-1]]
            for i in S:
                g = _mul_mod(g, us[i], pk)
            g = [c - pk if 2 * c > pk else c for c in g]
            content = gcd(*g)
            g = [c // content for c in g]
            q = _exquo_z(f, g)
            if q is not None:
                out.append(g)
                f = q
                us = [u for i, u in enumerate(us) if i not in S]
                break
        else:
            size += 1
    return out + [f]
