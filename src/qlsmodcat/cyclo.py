"""Exact arithmetic in cyclotomic fields Q(zeta_L) on the power basis.

Every element carries its conductor L.  Binary operations on mismatched
conductors rebase both sides into the compositum Q(zeta_lcm) first, so
mixed expressions just work.  Instances are deliberately unhashable:
equal values can live at different conductors, so hashing would need a
minimal-conductor normal form that nothing here requires.  Use the
``raw()`` pair at a fixed conductor when a dictionary key is needed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from qlsmodcat import _kernel as _K


def _exquo_z(f, g):
    """f / g in Z[x], or None when g does not divide f there."""
    f, dg = list(f), len(g) - 1
    q = [0] * (len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c, r = divmod(f[i], g[-1])
        if r:
            return None
        q[i - dg] = c
        for j in range(dg + 1):
            f[i - dg + j] -= c * g[j]
    return None if any(f) else q


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation of n >= 1 by trial division."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(L: int) -> int:
    """Euler's phi(L), the degree of Q(zeta_L), from L's factorisation;
    unlike ``context(L).degree`` it builds no table at conductor L."""
    out = L
    for p in factorize(L):
        out = out // p * (p - 1)
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Integer coefficients of the L-th cyclotomic polynomial, constant first."""
    if L < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (L - 1) + [1]
    for d in range(1, L):
        if L % d == 0:
            num = _exquo_z(num, cyclotomic_polynomial(d))
    return tuple(num)


class FieldContext(NamedTuple):
    L: int
    degree: int
    phi: tuple[int, ...]
    reduction: tuple[tuple[int, ...], ...]
    zeta_pows: tuple[tuple[int, ...], ...]


def _shift_reduce(cur: tuple[int, ...], xd_row: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of x*cur, reduced with the row for x**d."""
    d = len(cur)
    nxt = [0] * d
    for k in range(1, d):
        nxt[k] = cur[k - 1]
    top = cur[d - 1]
    if top:
        for k in range(d):
            nxt[k] += top * xd_row[k]
    return tuple(nxt)


@lru_cache(maxsize=None)
def context(L: int) -> FieldContext:
    """Reduction rows and root-of-unity coordinate table for Q(zeta_L)."""
    phi = cyclotomic_polynomial(L)
    d = len(phi) - 1
    xd_row = tuple(-c for c in phi[:d])
    rows = []
    if d >= 2:
        cur = xd_row
        rows.append(cur)
        for _ in range(d - 2):
            cur = _shift_reduce(cur, xd_row)
            rows.append(cur)
    pows = []
    cur = (1,) + (0,) * (d - 1)
    for _ in range(L):
        pows.append(cur)
        cur = _shift_reduce(cur, xd_row)
    return FieldContext(L, d, phi, tuple(rows), tuple(pows))


class CycloNumber:
    """An element of Q(zeta_L) with exact rational coordinates."""

    __slots__ = ("L", "nums", "den")
    __hash__ = None

    def __init__(self, L: int, nums, den: int = 1):
        ctx = context(L)
        nums = tuple(nums)
        if len(nums) != ctx.degree:
            raise ValueError(
                f"expected {ctx.degree} coordinates at conductor {L}, got {len(nums)}"
            )
        self.L = L
        self.nums, self.den = _K.norm_pair(nums, den)

    @classmethod
    def _make(cls, L: int, pair) -> "CycloNumber":
        """Wrap an already-normalized kernel pair without rechecking."""
        obj = object.__new__(cls)
        obj.L = L
        obj.nums, obj.den = pair
        return obj

    @classmethod
    def zero(cls, L: int) -> "CycloNumber":
        return cls._make(L, ((0,) * context(L).degree, 1))

    @classmethod
    def one(cls, L: int) -> "CycloNumber":
        return cls._make(L, ((1,) + (0,) * (context(L).degree - 1), 1))

    @classmethod
    def from_rational(cls, value, L: int = 1) -> "CycloNumber":
        f = Fraction(value)
        d = context(L).degree
        return cls(L, (f.numerator,) + (0,) * (d - 1), f.denominator)

    @classmethod
    def coerce(cls, value, L: int) -> "CycloNumber":
        """value at conductor L: a CycloNumber rebased (L a multiple of its
        conductor), or a rational (int, Fraction or decimal string)."""
        if isinstance(value, CycloNumber):
            return value.rebase(L)
        return cls.from_rational(value, L)

    def raw(self):
        return self.nums, self.den

    def rebase(self, M: int) -> "CycloNumber":
        """The same number viewed in Q(zeta_M), M a multiple of the conductor."""
        if M == self.L:
            return self
        if M % self.L:
            raise ValueError(f"cannot rebase conductor {self.L} into {M}")
        ctx = context(M)
        step = M // self.L
        acc = [0] * ctx.degree
        for i, c in enumerate(self.nums):
            if c:
                row = ctx.zeta_pows[(step * i) % M]
                for k in range(ctx.degree):
                    acc[k] += c * row[k]
        return CycloNumber._make(M, _K.norm_pair(tuple(acc), self.den))

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other, self.L)
        elif not isinstance(other, CycloNumber):
            return None
        if other.L == self.L:
            return self, other
        M = lcm(self.L, other.L)
        return self.rebase(M), other.rebase(M)

    def __add__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return CycloNumber._make(a.L, _K.add(a.raw(), b.raw()))

    __radd__ = __add__

    def __sub__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return CycloNumber._make(a.L, _K.sub(a.raw(), b.raw()))

    def __rsub__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return CycloNumber._make(a.L, _K.sub(b.raw(), a.raw()))

    def __mul__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return CycloNumber._make(a.L, _K.mul(a.raw(), b.raw(), context(a.L).reduction))

    __rmul__ = __mul__

    def __truediv__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return a * b.inv()

    def __rtruediv__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return b * a.inv()

    def __neg__(self):
        return CycloNumber._make(self.L, _K.neg(self.raw()))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self.inv() if n < 0 else self
        n = abs(n)
        out = CycloNumber.one(self.L)
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        pr = self._pair(other)
        if pr is None:
            return NotImplemented
        a, b = pr
        return a.nums == b.nums and a.den == b.den

    def __bool__(self):
        return any(self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_one(self) -> bool:
        return self.den == 1 and self.nums[0] == 1 and not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if any(self.nums[1:]):
            raise ValueError("not a rational number")
        return Fraction(self.nums[0], self.den)

    def inv(self) -> "CycloNumber":
        """Multiplicative inverse, with no gcd over Q.

        A rational number inverts in Q, and +-zeta**k inverts to
        +-zeta**(L - k), read from the table of powers of zeta.  Any
        other x has x**-1 = P / N(x), where P is the product of the
        conjugates sigma_a(x) over the a != 1 prime to L and the norm
        N(x) = x P is rational.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        L, nums, den = self.L, self.nums, self.den
        if not any(nums[1:]):
            # n/den is in lowest terms, so den/n needs only its sign moved
            n = nums[0]
            sign = 1 if n > 0 else -1
            return CycloNumber._make(L, ((sign * den,) + nums[1:], sign * n))
        if den == 1:
            logs = _zeta_logs(L)
            k = logs.get(nums)
            if k is not None:
                return zeta(L, -k)
            k = logs.get(tuple(-c for c in nums))
            if k is not None:
                return -zeta(L, -k)
        ctx = context(L)
        pair = self.raw()
        prod = None
        for a in _galois_group(L)[1:]:
            s = _conjugate_pair(pair, a, ctx)
            prod = s if prod is None else _K.mul(prod, s, ctx.reduction)
        norm = _K.mul(pair, prod, ctx.reduction)
        if any(norm[0][1:]):
            raise ArithmeticError("the norm is not rational")
        out = CycloNumber._make(L, _K.rat_mul(norm[1], norm[0][0], prod))
        if not (self * out).is_one():
            raise ArithmeticError("computed inverse fails the product check")
        return out

    def order(self):
        """Multiplicative order when this is a root of unity, else None."""
        if self.den != 1 or self.is_zero():
            return None
        bound = lcm(2, self.L)
        p = self
        for n in range(1, bound + 1):
            if p.is_one():
                return n
            p = p * self
        return None

    def __repr__(self):
        if self.is_zero():
            return f"Cyclo[{self.L}](0)"
        terms = []
        for i, c in enumerate(self.nums):
            if not c:
                continue
            f = Fraction(c, self.den)
            if i == 0:
                terms.append(str(f))
            else:
                z = "z" if i == 1 else f"z^{i}"
                if f == 1:
                    terms.append(z)
                elif f == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{f}*{z}")
        return f"Cyclo[{self.L}](" + " + ".join(terms).replace("+ -", "- ") + ")"


def zeta(L: int, k: int = 1) -> CycloNumber:
    """The root of unity zeta_L**k."""
    return CycloNumber._make(L, (context(L).zeta_pows[k % L], 1))


@lru_cache(maxsize=None)
def _zeta_logs(L: int) -> dict:
    """{coordinates of zeta_L**k: k} for k in range(L)."""
    return {row: k for k, row in enumerate(context(L).zeta_pows)}


@lru_cache(maxsize=None)
def _galois_group(L: int) -> tuple[int, ...]:
    """The a in range(1, L + 1) prime to L: sigma_a is zeta -> zeta**a."""
    return tuple(a for a in range(1, L + 1) if gcd(a, L) == 1)


def _conjugate_pair(pair, a: int, ctx: FieldContext):
    """sigma_a of a pair at conductor ctx.L, read from the table of powers
    of zeta."""
    nums, den = pair
    acc = [0] * ctx.degree
    for k, num in enumerate(nums):
        if num:
            for j, r in enumerate(ctx.zeta_pows[a * k % ctx.L]):
                acc[j] += num * r
    return _K.norm_pair(tuple(acc), den)


def conjugate(c: CycloNumber, a: int) -> CycloNumber:
    """sigma_a(c): the automorphism zeta -> zeta**a of Q(zeta_L), for a
    prime to L."""
    return CycloNumber._make(c.L, _conjugate_pair(c.raw(), a, context(c.L)))


def _poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    z = Fraction(0)
    return [(a[i] if i < len(a) else z) - (b[i] if i < len(b) else z) for i in range(n)]


def _poly_divmod(num, den):
    num = list(num)
    den = _poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    dd = len(den) - 1
    inv = Fraction(1) / den[dd]
    q = [Fraction(0)] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] * inv
        if c:
            q[i - dd] = c
            num[i] = Fraction(0)
            for j in range(dd):
                num[i - dd + j] -= c * den[j]
    return q, _poly_trim(num[:dd] if dd else [])


def _poly_xgcd(a, b):
    """Return (g, s) with g = gcd(a, b) and s*a = g modulo b."""
    r0, r1 = _poly_trim(a), _poly_trim(b)
    s0, s1 = [Fraction(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    return r0, s0
