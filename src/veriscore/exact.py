"""Exact sums of floats through integer slices.

``slices`` cuts finite floats into integer-valued float slices, each
level on one power-of-two grid shared by all the values: the error-free
extraction of Rump, Ogita & Oishi, "Accurate floating-point summation,
part I", SIAM J. Sci. Comput. 31(1), 2008.  For sums of up to n terms a
slice holds integers below 2**bits, bits = 53 - bit_length(n).  So any
sum of up to n slice entries, and any dot product of a slice with
nonnegative integer counts that add up to at most n, is an integer
below 2**53: exact in float64 in any summation order, BLAS included.
``as_int`` turns such integer-valued sums into Python integers, where
the levels recombine without rounding; one int / int division then
gives a correctly rounded mean.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["slices", "as_int", "dyadic"]


def slices(values, n: int) -> tuple[np.ndarray, list[int]]:
    """(q, exps) with values == sum over k of q[k] * 2**exps[k], exactly.

    q stacks one slice per level, each of the shape of values and
    holding integers below 2**bits in magnitude, bits = 53 -
    bit_length(n); a level's exponent is taken from the largest value
    left, so no level is empty.  Values that are all zero have no levels.

    Memory: the stack is allocated once, and nothing else of its size.
    The rest still to be cut lives in its last level, which is cut in
    place once the levels before it are full; if the rest runs out
    sooner, the unused levels are given back.  The depth is bounded from
    the data.  Every value is a multiple of u, the unit in the last place
    of the smallest nonzero magnitude (at least 2**-1074), and so is
    every rest.  A level at exponent b leaves a rest below 2**b, so the
    next exponent lies at least bits below b (a level at 2**-1074 leaves
    no rest), and a nonzero rest is at least u.  Hence at most
    (e_top - log2(u) - 1) // bits + 1 levels, where 2**(e_top - 1) <=
    max |values| < 2**e_top.
    """
    values = np.asarray(values, dtype=float)
    hi, lo = (values.max(), values.min()) if values.size else (0.0, 0.0)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValueError("exact slices need finite values")
    top = max(hi, -lo)
    if top == 0:
        return np.zeros((0, *values.shape)), []
    bits = 53 - int(n).bit_length()
    least = min(  # the smallest nonzero magnitude, with no temporary of floats
        np.min(values, where=values > 0, initial=np.inf),
        -np.max(values, where=values < 0, initial=-np.inf),
    )
    unit = max(math.frexp(least)[1] - 53, -1074)
    stack = np.empty(((math.frexp(top)[1] - unit - 1) // bits + 1, *values.shape))
    rest = stack[-1, ...]
    rest[...] = values
    exps = []
    for k in range(len(stack)):
        b = max(math.frexp(top)[1] - bits, -1074)
        exps.append(b)
        q = stack[k, ...]
        np.trunc(np.ldexp(rest, -b, out=q), out=q)
        if k == len(stack) - 1:  # q is the rest, and by the bound the last level
            break
        rest -= np.ldexp(q, b, out=q)  # q * 2**b and the difference are exact
        np.ldexp(q, -b, out=q)
        top = max(rest.max(), -rest.min())
        if top == 0:
            break
    if len(exps) < len(stack):
        del q, rest  # the only views of the stack: it can shrink in place
        stack.resize((len(exps), *values.shape), refcheck=False)
    return stack, exps


def as_int(values, shift):
    """Integer-valued floats as Python ints, shifted left elementwise."""
    return values.astype(np.int64).astype(object) << shift


def dyadic(values, unit: int = 0) -> tuple[np.ndarray, int]:
    """(w, u) with values == w * 2**u exactly: Python ints w, and u <= unit."""
    mant, texp = np.frexp(values)
    unit = min(unit, int(texp.min()) - 53)
    return as_int(np.ldexp(mant, 53), texp - 53 - unit), unit
