"""Pure-Python arithmetic kernel.

A scalar is a pair ``(nums, den)``: ``nums`` a tuple of integers holding
power-basis coordinates, ``den`` a positive integer, normalized so the gcd
of all coordinates together with ``den`` is 1.  Products are reduced with
precomputed rows: ``red[j]`` is the fully reduced coordinate vector of the
basis power ``d + j`` where ``d = len(nums)``.

Every pair that enters or leaves the kernel is canonical (``norm_pair``
output), so a number has exactly one pair.  ``mul`` relies on this: a
factor whose pair is that of 1 or -1 returns the other factor or its
negation as it stands, which is the pair the full product would
normalize to.  Structure constants here are products of roots of unity,
so most products in a table are by one of these two.  A rational factor
(every coordinate past the first zero) scales the other pair, with no
convolution and no reduction.
"""

from __future__ import annotations

from math import gcd
from operator import add as _add, neg as _neg, sub as _sub

__all__ = [
    "BACKEND",
    "add",
    "is_zero",
    "mul",
    "neg",
    "norm_pair",
    "rat_mul",
    "sub",
    "submul",
]

BACKEND = "pure"


def norm_pair(nums, den):
    """Canonical form: positive denominator, content coprime to it."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        den = -den
        nums = tuple(-c for c in nums)
    g = den
    for c in nums:
        if g == 1:
            return nums, den
        g = gcd(g, c)
    if g > 1:
        den //= g
        nums = tuple(c // g for c in nums)
    return nums, den


def is_zero(a):
    return not any(a[0])


def neg(a):
    nums, den = a
    return tuple(map(_neg, nums)), den


def add(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        if ad == 1:
            return tuple(map(_add, an, bn)), 1
        return norm_pair(tuple(map(_add, an, bn)), ad)
    return norm_pair(tuple(x * bd + y * ad for x, y in zip(an, bn)), ad * bd)


def sub(a, b):
    an, ad = a
    bn, bd = b
    if ad == bd:
        if ad == 1:
            return tuple(map(_sub, an, bn)), 1
        return norm_pair(tuple(map(_sub, an, bn)), ad)
    return norm_pair(tuple(x * bd - y * ad for x, y in zip(an, bn)), ad * bd)


def rat_mul(p, q, a):
    """Multiply by the rational number p/q."""
    nums, den = a
    if p == 0:
        return (0,) * len(nums), 1
    return norm_pair(tuple(p * c for c in nums), den * q)


# _UNITS[d] holds the canonical pairs of 1 and of -1 in degree d >= 1
_UNITS: list = [None]


def units(d):
    """The canonical pairs of 1 and of -1 in degree d.

    A pair is 1 or -1 exactly when it equals one of these, since every
    pair is canonical.
    """
    while len(_UNITS) <= d:
        k = len(_UNITS)
        one = (1,) + (0,) * (k - 1)
        _UNITS.append(((one, 1), ((-1,) + one[1:], 1)))
    return _UNITS[d]


def mul(a, b, red):
    an, ad = a
    bn, bd = b
    d = len(an)
    if ad == 1 or bd == 1:
        one, minus_one = _UNITS[d] if d < len(_UNITS) else units(d)
        if a == one:
            return b
        if a == minus_one:
            return neg(b)
        if b == one:
            return a
        if b == minus_one:
            return neg(a)
    # a rational factor x/den scales the other pair: no convolution and
    # no reduction, and the product of two integer pairs is canonical;
    # the denominators enter only as ad * bd, so swapping nums is safe
    if not any(bn[1:]):
        an, bn = bn, an
    if not any(an[1:]):
        x = an[0]
        nums = tuple([x * c for c in bn])
        return (nums, 1) if ad == 1 and bd == 1 else norm_pair(nums, ad * bd)
    prod = [0] * (2 * d - 1)
    for i in range(d):
        x = an[i]
        if x:
            for j in range(d):
                y = bn[j]
                if y:
                    prod[i + j] += x * y
    for j in range(2 * d - 2, d - 1, -1):
        c = prod[j]
        if c:
            row = red[j - d]
            for k in range(d):
                r = row[k]
                if r:
                    prod[k] += c * r
    return norm_pair(tuple(prod[:d]), ad * bd)


def submul(a, f, b, red):
    """Return a - f*b in one step (the inner operation of row elimination)."""
    return sub(a, mul(f, b, red))
