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

The fixed-shape blocks the kernels share are leaf ops: each records its
fixed tag tuple with one ``extend`` and computes its result with plain numpy
arithmetic, rather than making one recorded call per operation.  The blocks
that work on encodings take and return bit words, not values:

* ``_select(a, b, mask)``: branchless two-way select of two words (7 tags);
* ``_abs(w)`` and ``_sign(w)``: sign-bit clear and sign transfer (3 and 4);
* ``_gt_mask(x, t)``: a compare of values spread into an all-ones or
  all-zeros lane mask (CMP, MASK);
* ``_clamp(x, w, bound)``: x, given with its word, clamped to a ``Bound``
  by the lower-bound mask select, then the upper-bound one (18 tags);
* ``_saturate(w, x, bound, low, high)``: a kernel's saturation tail, the
  word ``low`` selected where x is below the bound, then ``high`` where it
  is above (the same 18 tags: mask, select, mask, select).

Each of them records the bitcasts of the block it models, in and out, but
its body does no cast: the kernel casts through the one ``(bits, value)``
pair ``_casts`` picks for its operands, at most once per value and once per
word, and hands the words on.  So x is cast once, however many blocks read
its word; a ``Bound`` holds its endpoints' words, built once per interval
rather than once per call; and a word that feeds another select or a
saturation tail is never turned into a value in between.

The rational core (``pade._rational_tanh``), the kernels' dummy arithmetic
(``activations._burn``) and the hot blocks of the instrumented reference
models (``activations._model_exp``'s halving, polynomial and squaring steps,
and ``_model_erf``'s fixed chains) are leaf ops too; they live with the code
they serve and record through this module's recorder, ``_active``.  The tags
and result bits of every leaf op equal those of its composition of one-tag
operations in the test reference module, ``tests/reference_ops.py``, which
``TestLeafOps`` in ``tests/test_ops.py`` checks on scalars and arrays.
Each leaf body of a constant-time kernel is straight-line code: it never
branches on a value (the models' exp keeps its data-dependent loop, whose
every step records its own tags, as the branchy code it models).  Every
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
import struct
from typing import NamedTuple

import numpy as np

__all__ = [
    "OP_ADD", "OP_MUL", "OP_DIV", "OP_NEG", "OP_CMP", "OP_AND", "OP_BITCAST",
    "OP_BRANCH", "recording", "f_add", "f_mul", "f_div", "f_neg", "f_gt",
    "cond_move", "Bound",
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
_U32_ZERO = np.uint32(0)
_pack_u32 = struct.Struct("=I").pack
_unpack_u32 = struct.Struct("=I").unpack
# numpy.core.multiarray.scalar (numpy._core on 2.x): builds a scalar of a
# dtype from its raw bytes.  Reached through __reduce__, which is public on
# every numpy version, rather than through the private module path.
_scalar_from_bytes = np.float32(0).__reduce__()[0]
_F32_SCALAR = np.float32
_ONE_BITS = np.uint32(0x3F800000)  # encoding of +1.0

# Tag tuples of the leaf ops: one tag per bitcast and bit operation, in order.
_SELECT_OPS = (OP_BITCAST, OP_BITCAST, OP_NOT, OP_AND, OP_AND, OP_OR, OP_BITCAST)
_ABS_OPS = (OP_BITCAST, OP_AND, OP_BITCAST)
_SIGN_OPS = (OP_BITCAST, OP_AND, OP_OR, OP_BITCAST)
_MASK_OPS = (OP_CMP, OP_MASK)
# A clamp and a saturation tail are each two mask selects.
_CLAMP_OPS = _SATURATE_OPS = (_MASK_OPS + _SELECT_OPS) * 2


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


# -- binary32 arithmetic ----------------------------------------------------

def f_add(a, b):
    if (buf := _active()) is not None:
        buf.append(OP_ADD)
    return a + b


def f_mul(a, b):
    if (buf := _active()) is not None:
        buf.append(OP_MUL)
    return a * b


def f_div(a, b):
    if (buf := _active()) is not None:
        buf.append(OP_DIV)
    return a / b


def f_neg(a):
    if (buf := _active()) is not None:
        buf.append(OP_NEG)
    return -a


def f_gt(a, b):
    if (buf := _active()) is not None:
        buf.append(OP_CMP)
    return a > b


# -- bit-level operations ---------------------------------------------------

def _scalar_bits(x):
    # struct reads the scalar's four bytes as a Python int; OR-ing that into
    # a uint32 zero gives a numpy uint32 faster than np.uint32(word) does.
    return _U32_ZERO | _unpack_u32(x)[0]


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
    """An interval [lo, hi] with the encodings a clamp reads, built once.

    ``inverted`` is the mask of ``lo > hi``: all-ones where the bounds are
    crossed, zero where they are ordered or either is NaN.
    """

    lo: object
    hi: object
    lo_bits: object
    hi_bits: object
    inverted: object


def _bound(lo, hi) -> Bound:
    """The Bound of binary32 ``lo`` and ``hi``, scalars or arrays."""
    bits, _ = _casts(lo, hi)
    return Bound(lo, hi, bits(lo), bits(hi), U32_ALL_ONES * (lo > hi))


def _select(a, b, mask):
    """Branchless two-way select on encodings: ``b`` where mask is all-ones.

    Takes the words of ``a`` and ``b`` and returns the word
    ``(a & ~mask) | (b & mask)``, so -0.0, subnormals and NaN payloads come
    through bit for bit.  Records the two casts in and the one out.
    """
    if (buf := _active()) is not None:
        buf.extend(_SELECT_OPS)
    return (a & ~mask) | (b & mask)


def _abs(w):
    """The word of |x| from the word of x: the sign bit cleared."""
    if (buf := _active()) is not None:
        buf.extend(_ABS_OPS)
    return w & U32_ABS_MASK


def _sign(w):
    """The word of sign(x) from the word of x: x's sign bit on 1.0, zeros included."""
    if (buf := _active()) is not None:
        buf.extend(_SIGN_OPS)
    return (w & U32_SIGN_BIT) | _ONE_BITS


def _gt_mask(x, threshold):
    """All-ones where x > threshold, else zero: a compare spread into a mask."""
    if (buf := _active()) is not None:
        buf.extend(_MASK_OPS)
    # All-ones times the 0-or-1 flag, so nothing wraps and nothing branches.
    # The uint32 operand goes first: numpy's scalar multiply is fast on that
    # order, and both ``flag * U32_ALL_ONES`` and ``flag.astype`` take a path
    # that is more than ten times slower on scalars.
    return U32_ALL_ONES * (x > threshold)


def _clamp(x, w, bound: Bound):
    """The word of x clamped to ``bound`` by two mask selects, lower bound first.

    ``x`` and its word ``w`` in, a word out: the ``_select`` of ``lo`` under
    the mask of ``x < lo``, then of ``hi`` under ``_gt_mask`` of that result,
    as one op.  The first result is x or lo, so its compare with ``hi`` is
    ``x > hi`` where x was kept and ``lo > hi``, the bound's ``inverted``
    mask, where lo was taken; there ``x < lo`` and ``x > hi`` together imply
    ``lo > hi``, so OR-ing the two masks gives the same bits with no value
    built in between.
    """
    if (buf := _active()) is not None:
        buf.extend(_CLAMP_OPS)
    lo, hi, lo_bits, hi_bits, inverted = bound
    below = U32_ALL_ONES * (x < lo)
    above = (U32_ALL_ONES * (x > hi)) | (inverted & below)
    w = (w & ~below) | (lo_bits & below)
    return (w & ~above) | (hi_bits & above)


def _saturate(w, x, bound: Bound, low, high):
    """The word ``w``, with word ``low`` where x < lo and ``high`` where x > hi.

    A kernel's saturation tail: the ``_select`` of ``low`` under the mask
    of ``x < lo``, then of ``high`` under ``_gt_mask(x, hi)``, as one op
    that records the tags of both masks and both selects in that order.
    The first select's word feeds the second, and both compares read x, not
    the selected value.
    """
    if (buf := _active()) is not None:
        buf.extend(_SATURATE_OPS)
    below = U32_ALL_ONES * (x < bound.lo)
    above = U32_ALL_ONES * (x > bound.hi)
    w = (w & ~below) | (low & below)
    return (w & ~above) | (high & above)


def cond_move(condition, if_true, if_false):
    """Predicated move: the hardware-style conditional select.

    Used only by the *unprotected* reference models (a compiler lowers a
    short ternary to a predicated move).  Constant-time kernels use explicit
    mask arithmetic instead.  ``np.where`` gives a 0-d array for scalar
    operands; indexing it with ``()`` turns that into a scalar and leaves
    any other array as it is.
    """
    if (buf := _active()) is not None:
        buf.append(OP_SELECT)
    return np.where(condition, if_true, if_false)[()]
