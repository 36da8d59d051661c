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

import numpy as np

__all__ = ["slices", "as_int", "dyadic"]


def slices(values, n: int) -> tuple[np.ndarray, list[int]]:
    """(q, exps) with values == sum over k of q[k] * 2**exps[k], exactly.

    q stacks one slice per level, each of the shape of values and
    holding integers below 2**bits in magnitude, bits = 53 -
    bit_length(n); a level's exponent is taken from the largest value
    left, so no level is empty.  Values that are all zero have no levels.
    """
    rest = np.array(values, dtype=float)
    if not np.all(np.isfinite(rest)):
        raise ValueError("exact slices need finite values")
    bits = 53 - int(n).bit_length()
    qs, exps = [], []
    while rest.any():
        b = max(int(np.frexp(np.abs(rest).max())[1]) - bits, -1074)
        q = np.trunc(np.ldexp(rest, -b))
        rest -= np.ldexp(q, b)
        qs.append(q)
        exps.append(b)
    return np.array(qs).reshape(len(qs), *rest.shape), exps


def as_int(values, shift):
    """Integer-valued floats as Python ints, shifted left elementwise."""
    return values.astype(np.int64).astype(object) << shift


def dyadic(values, unit: int = 0) -> tuple[np.ndarray, int]:
    """(w, u) with values == w * 2**u exactly: Python ints w, and u <= unit."""
    mant, texp = np.frexp(values)
    unit = min(unit, int(texp.min()) - 53)
    return as_int(np.ldexp(mant, 53), texp - 53 - unit), unit
