"""Leaky kernels, each with one known value escape.

Each kernel computes tanh through the real protected core and adds one
leak: an op sequence that depends on the input through a route by which a
value reaches Python control flow.  The per-point trace loop flags each of
them on a grid that straddles the leak.  A guarded array run must raise on
each, including the branches on a reduction, which a plain array run
misses because it records one trace for the whole array, and the one that
first strips the array to a plain one.  One, swapped_op, keeps the trace
length and changes only an opcode, so a check that compared lengths alone
would miss it.  Every kernel also runs on a binary32 scalar, as the
per-point loop calls it.
"""

import numpy as np

from ctact._ops import f_add, f_mul
from ctact.activations import SPECS, ActivationKind, _halvings

_tanh = SPECS[ActivationKind.TANH].core
_T = np.float32(4.0)
_HALF = np.float32(0.5)


def early_exit(x):
    """Skips the core beyond |x| > t: one multiply instead of 59 ops."""
    if abs(x) > _T:
        return f_mul(np.sign(x), np.float32(1.0))
    return _tanh(x)


def data_loop(x):
    """One extra multiply per halving of x: a trip count that depends on x."""
    y = _tanh(x)
    for _ in range(_halvings(x)):
        f_mul(x, _HALF)
    return y


def element_test(x):
    """An extra add where the first element, a numpy scalar per point, is positive."""
    y = _tanh(x)
    if x.reshape(-1)[0] > 0:
        f_add(y, y)
    return y


def scalar_truth(x):
    """An extra add unless x is zero: the truth value of x itself."""
    y = _tanh(x)
    if x:
        f_add(y, y)
    return y


def any_branch(x):
    """An extra add where any |x| > t: one trace for a whole plain array."""
    y = _tanh(x)
    if (abs(x) > _T).any():
        f_add(y, y)
    return y


def stripped_any(x):
    """An extra add where any |x| > t, tested on the mask as a plain array."""
    y = _tanh(x)
    if np.asarray(abs(x) > _T).any():
        f_add(y, y)
    return y


def float_of_max(x):
    """An extra add where float(max |x|) > t."""
    y = _tanh(x)
    if float(abs(x).max()) > _T:
        f_add(y, y)
    return y


def swapped_op(x):
    """A multiply where x > 0 and an add elsewhere: the same length on every input."""
    y = _tanh(x)
    if x > 0:
        f_mul(y, y)
    else:
        f_add(y, y)
    return y


def iterate(x):
    """An extra add for each negative element, met by iterating over x."""
    y = _tanh(x)
    for v in x.reshape(-1):
        if v < 0:
            f_add(y, y)
    return y


ZOO = {kernel.__name__: kernel for kernel in (
    early_exit, data_loop, element_test, scalar_truth, any_branch, stripped_any, float_of_max,
    swapped_op, iterate)}
