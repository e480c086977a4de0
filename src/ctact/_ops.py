"""Instrumented binary32 arithmetic layer.

Every arithmetic and bit operation performed by the constant-time kernels is
routed through the helpers and leaf ops of this module, or through a leaf op
that records with this module's recorder.  Each of them does two things:

* computes its result in IEEE 754 binary32 (one rounding per operation,
  round-to-nearest-even; no fused multiply-add is ever introduced, which is
  the pinned behaviour for the whole project), and
* appends its opcode tags to the active recording context, if there is one:
  one tag per operation, so a leaf op (below) that does several appends
  several.

Recording uses a ``contextvars.ContextVar`` so concurrent evaluations in
different threads or tasks never share a trace buffer.  Each op reads the
variable inline, so when no recording is active the per-op overhead is one
context-variable read and a ``None`` test, with no extra call frame.

Values flowing through this layer are ``numpy.float32`` / ``numpy.uint32``
scalars, or arrays of the same dtypes.  Array inputs follow the exact same
code path and emit the exact same opcode sequence as scalars; elementwise
results are bit-identical to repeated scalar calls.

Each fixed-shape block the kernels share is written twice, side by side:
its program spells it out on values in one-tag ops (``f_add``, ``f_mul``
and the private ones below, whose bitcasts are numpy views), and its leaf
op, which the kernels call, records the tags the program recorded once at
import, with one ``extend``, and computes the same bits with plain numpy.
So each op sequence is stated once, in its program; ``pade`` and
``activations`` write the rational core, the pads and the kernels the
same way, and ``TestLeafOps`` in ``tests/test_ops.py`` checks every leaf
op and kernel against its program.  The leaf ops on encodings take and
return bit words, not values:

* ``_select_above(a, b, x, t)``: the word ``b`` where x > t and ``a``
  elsewhere, a compare of values spread into an all-ones or all-zeros lane
  mask, then a branchless two-way select of two words;
* ``_saturate(w, x, bound, low, high)``: two such selects on x, the word
  ``low`` where x is below a ``Bound`` and ``high`` where it is above; a
  kernel's saturation tail, and, with the bound's own ends as ``low`` and
  ``high``, its clamp;
* ``_abs(w)`` and ``_sign(w)``: sign-bit clear and sign transfer.

Each of them records the bitcasts of its program, in and out, but its
body does no cast: the kernel casts through the one ``(bits, value)``
pair ``_casts`` picks for its operands, at most once per value and once per
word, and hands the words on.  So x is cast once, however many blocks read
its word; a ``Bound`` holds its endpoints' words, built once per interval
rather than once per call; and a word that feeds another select or a
saturation tail is never turned into a value in between.

Each leaf body of a constant-time kernel is straight-line code: it never
branches on a value.  No model of an unprotected reference runs under the
recorder: a reference's trace is one cached tag tuple of the branchy code
it models (``activations.SPECS``), picked by its exp's halving count,
``SPECS[kind].halvings(x)``.  Every
cast is picked, scalar or array, by the operands' types, never by their
values.  On a scalar, numpy's ``view`` and ``frombuffer`` build a
temporary array, which costs several times a float32 multiply, so the scalar
bitcasts move the four bytes themselves: ``_scalar_bits`` reads them with
``struct``, and ``_scalar_float`` packs the word with ``struct`` and hands
the bytes to numpy's own scalar constructor, the callable numpy's pickling
uses.  Neither goes through a Python float, so NaN payloads survive, and
neither shares a buffer, so both are thread-safe.  Between the bitcasts a
bit word is a ``numpy.uint32``, never a Python int: a fixed-width word costs
the same for every value, while a Python int's cost grows with its number of
digits, which a timing test such as dudect would see.
"""

from __future__ import annotations

import contextvars
import functools
import operator
import struct
from typing import NamedTuple

import numpy as np

__all__ = [
    "OP_ADD", "OP_MUL", "OP_DIV", "OP_NEG", "OP_CMP", "OP_AND", "OP_BITCAST",
    "OP_BRANCH", "recording", "f_add", "f_mul", "Bound",
]

# Opcode vocabulary.  BRANCH is the only control-flow tag; it never appears
# in the trace of a constant-time kernel.
OP_ADD = "ADD"
OP_MUL = "MUL"
OP_DIV = "DIV"
OP_NEG = "NEG"
OP_CMP = "CMP"
OP_MASK = "MASK"
OP_SELECT = "SELECT"
OP_AND = "AND"
OP_OR = "OR"
OP_NOT = "NOT"
OP_BITCAST = "BITCAST"
OP_BRANCH = "BRANCH"

U32_ALL_ONES = np.uint32(0xFFFFFFFF)
U32_SIGN_BIT = np.uint32(0x80000000)
U32_ABS_MASK = np.uint32(0x7FFFFFFF)

_recorder: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "ctact_op_recorder", default=None
)
_active = _recorder.get  # each op calls this inline: one frame fewer than a helper

_U32 = np.dtype(np.uint32)
_F32 = np.dtype(np.float32)
_pack_u32 = struct.Struct("=I").pack
_unpack_u32 = struct.Struct("=I").unpack
# numpy.core.multiarray.scalar (numpy._core on 2.x): builds a scalar of a
# dtype from its raw bytes.  Reached through __reduce__, which is public on
# every numpy version, rather than through the private module path.
_scalar_from_bytes = np.float32(0).__reduce__()[0]
_F32_SCALAR = np.float32
_ZERO_BITS = np.uint32(0)  # encoding of +0.0
_ONE_BITS = np.uint32(0x3F800000)  # encoding of +1.0
_ZERO = np.float32(0.0)


class recording:
    """Collect opcode tags emitted while the context is active.

    ``with recording() as ops:`` binds the (initially empty) list that
    receives the tags.  Contexts may nest; the inner context shadows the
    outer one until it exits.
    """

    __slots__ = ("_token",)

    def __enter__(self) -> list:
        buf: list = []
        self._token = _recorder.set(buf)
        return buf

    def __exit__(self, *exc_info) -> None:
        _recorder.reset(self._token)


def _tags(program, *args) -> tuple:
    """The tags ``program`` records on ``args``: straight-line code records them on any."""
    with recording() as ops:
        program(*args)
    return tuple(ops)


# -- binary32 arithmetic ----------------------------------------------------

def f_add(a, b):
    if (buf := _active()) is not None:
        buf.append(OP_ADD)
    return a + b


def f_mul(a, b):
    if (buf := _active()) is not None:
        buf.append(OP_MUL)
    return a * b


# -- bit-level operations ---------------------------------------------------

def _scalar_bits(x):
    # struct reads the scalar's four bytes as a Python int; OR-ing that into
    # a uint32 zero gives a numpy uint32 faster than np.uint32(word) does.
    return _ZERO_BITS | _unpack_u32(x)[0]


def _scalar_float(u):
    # Not struct alone: its route through a Python float would not keep NaN
    # payloads, so the packed bytes go to numpy's scalar constructor instead.
    return _scalar_from_bytes(_F32, _pack_u32(u))


def _array_bits(x):
    return x.view(_U32)


def _array_float(u):
    return u.view(_F32)


# (float -> word, word -> float) reinterpretations.  A numpy scalar has a
# view too, so the array pair also serves a mix of scalars and arrays.
_SCALAR_CASTS = (_scalar_bits, _scalar_float)
_ARRAY_CASTS = (_array_bits, _array_float)


def _casts(x, t=np.float32(0)):
    """The (bits, value) reinterpretation pair for operands ``x`` and ``t``.

    The scalar pair when both are binary32 scalars, else the array pair;
    ``_casts(x)`` picks by x alone.  A kernel picks it once, from its input
    and its bound's upper end, by their types, and casts with it wherever it
    needs a word or a value.
    """
    return _SCALAR_CASTS if type(x) is type(t) is _F32_SCALAR else _ARRAY_CASTS


class Bound(NamedTuple):
    """An interval [lo, hi] with the encodings of its ends, built once."""

    lo: object
    hi: object
    lo_bits: object
    hi_bits: object


def _bound(lo, hi) -> Bound:
    """The Bound of binary32 ``lo`` and ``hi``, scalars or arrays."""
    bits, _ = _casts(lo, hi)
    return Bound(lo, hi, bits(lo), bits(hi))


# -- one-tag ops, besides f_add and f_mul: one tag, one numpy operation ------

def _one_tag(tag, op):
    def one_tag_op(*args):
        if (buf := _active()) is not None:
            buf.append(tag)
        return op(*args)
    return one_tag_op


_f_div = _one_tag(OP_DIV, operator.truediv)
_f_gt = _one_tag(OP_CMP, operator.gt)
_f_lt = _one_tag(OP_CMP, operator.lt)
_to_bits = _one_tag(OP_BITCAST, _array_bits)
_from_bits = _one_tag(OP_BITCAST, _array_float)
_u_and = _one_tag(OP_AND, operator.and_)
_u_or = _one_tag(OP_OR, operator.or_)
_u_not = _one_tag(OP_NOT, operator.invert)
# A 0-or-1 comparison result spread into the all-zeros or all-ones word.
_to_mask = _one_tag(OP_MASK, functools.partial(operator.mul, U32_ALL_ONES))


# -- the leaf blocks: each program, its derived tags, then the leaf op ------

def _select_program(a, b, mask):
    ua = _to_bits(a)
    ub = _to_bits(b)
    keep_a = _u_and(ua, _u_not(mask))
    keep_b = _u_and(ub, mask)
    return _from_bits(_u_or(keep_a, keep_b))


def _select_above_program(a, b, x, t):
    return _select_program(a, b, _to_mask(_f_gt(x, t)))


_SELECT_ABOVE_OPS = _tags(_select_above_program, _ZERO, _ZERO, _ZERO, _ZERO)


def _select_above(a, b, x, t):
    """The word ``b`` where x > t, and the word ``a`` elsewhere.

    A compare spread into an all-ones or all-zeros mask, then the
    branchless select ``(a & ~mask) | (b & mask)`` on encodings, so -0.0,
    subnormals and NaN payloads come through bit for bit.  Records the
    compare, the mask, and the select's two casts in and one out.
    """
    if (buf := _active()) is not None:
        buf.extend(_SELECT_ABOVE_OPS)
    # All-ones times the 0-or-1 flag, so nothing wraps and nothing branches.
    # The uint32 operand goes first: numpy's scalar multiply is fast on that
    # order, and both ``flag * U32_ALL_ONES`` and ``flag.astype`` take a path
    # that is more than ten times slower on scalars.
    mask = U32_ALL_ONES * (x > t)
    return (a & ~mask) | (b & mask)


def _abs_program(x):
    return _from_bits(_u_and(_to_bits(x), U32_ABS_MASK))


_ABS_OPS = _tags(_abs_program, _ZERO)


def _abs(w):
    """The word of |x| from the word of x: the sign bit cleared."""
    if (buf := _active()) is not None:
        buf.extend(_ABS_OPS)
    return w & U32_ABS_MASK


def _sign_program(x):
    return _from_bits(_u_or(_u_and(_to_bits(x), U32_SIGN_BIT), _ONE_BITS))


_SIGN_OPS = _tags(_sign_program, _ZERO)


def _sign(w):
    """The word of sign(x) from the word of x: x's sign bit on 1.0, zeros included."""
    if (buf := _active()) is not None:
        buf.extend(_SIGN_OPS)
    return (w & U32_SIGN_BIT) | _ONE_BITS


def _saturate_program(y, x, lo, hi, low, high):
    y = _select_program(y, low, _to_mask(_f_lt(x, lo)))
    return _select_program(y, high, _to_mask(_f_gt(x, hi)))


_SATURATE_OPS = _tags(_saturate_program, *(_ZERO,) * 6)


def _saturate(w, x, bound: Bound, low, high):
    """The word ``w``, with word ``low`` where x < lo and ``high`` where x > hi.

    Two compare-then-selects as one op, which records the tags of both in
    that order.  The first select's word feeds the second, and both
    compares read x, not the selected value.  With the bound's own words
    as ``low`` and ``high`` this is the clamp of x: where x was replaced by
    lo, ``lo > hi`` is false for an ordered bound (lo <= hi, or either end
    NaN), so comparing x with hi gives the clamp's bits.
    """
    if (buf := _active()) is not None:
        buf.extend(_SATURATE_OPS)
    below = U32_ALL_ONES * (x < bound.lo)
    above = U32_ALL_ONES * (x > bound.hi)
    w = (w & ~below) | (low & below)
    return (w & ~above) | (high & above)
