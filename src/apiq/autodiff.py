"""Tape-based reverse-mode differentiation over a fixed set of primitives.

Ops compute with numpy and, while a Tape is active, append a backward
closure to it; `backward` replays the closures in exact reverse recording
order, so gradients are deterministic. With no active tape the same ops
run as plain (cheap) forward computation. Each entry's closure is released
once it has run (its op name stays), so the arrays it saved and the grads
of the Vars only it held are freed as the walk goes back.

`round_ste` is the straight-through estimator: forward rounds, backward is
the identity. For finite-difference verification the `surrogate_round`
context makes its *forward* the identity too, which turns any expression
containing it into the smooth surrogate that the STE gradient is the exact
gradient of.

`causal_attention` is attention as one op with one tape entry. Up to
ATTN_BLOCK_MAX_T positions it runs per block of query rows, taped or not,
with the bits of the one-block computation: masked blocks cost nothing,
and the backward keeps only each block's probabilities.

`gram_mse` is the mean squared error of X @ W against Y taken from the
second moments X^T X and X^T Y, with no product over the rows of X.
`quant.ste_fake_quant` records its own single entry through `_record`.

A taped op keeps its inputs and output and little more: attention its
probabilities, `cross_entropy` its shifted exponentials and their row
sums; rotated q and k and the sigmoid of `silu` are recomputed. One
rotary kernel serves `rope_rotate` and attention, on the layout each has:
y = x*C + swap_pairs(x)*S, C = (cos, cos) and S = (-sin, sin) per pair,
and g*C - swap_pairs(g)*S backward. It has the bits of the pairwise
(ev cos - od sin, ev sin + od cos) and its transpose, as a - b is
a + (-b), -(a * b) is (-a) * b and addition commutes.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ShapeError, StateError

_active_tape = None
_surrogate_round = False


class Tape:
    """Ordered record of primitive applications; a context manager."""

    def __init__(self):
        self.entries: list[tuple[str, object]] = []
        self.consumed = False
        self._prev = None

    def __enter__(self):
        global _active_tape
        self._prev = _active_tape
        _active_tape = self
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = self._prev
        return False


@contextlib.contextmanager
def surrogate_round():
    """Make round_ste the identity in the forward pass (gradcheck mode)."""
    global _surrogate_round
    saved = _surrogate_round
    _surrogate_round = True
    try:
        yield
    finally:
        _surrogate_round = saved


class Var:
    """A tensor node: value, accumulated grad, requires-grad flag."""

    __slots__ = ("value", "grad", "requires_grad")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value)
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.value.shape

    def accum(self, g: np.ndarray):
        self.grad = g if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Var(shape={self.value.shape}, requires_grad={self.requires_grad})"


def param(value) -> Var:
    return Var(value, requires_grad=True)


def _wrap(x) -> Var:
    return x if isinstance(x, Var) else Var(np.asarray(x))


def _record(name: str, out: Var, inputs: tuple[Var, ...], backward_fn):
    if _active_tape is not None and any(v.requires_grad for v in inputs):
        out.requires_grad = True
        _active_tape.entries.append((name, backward_fn))
    return out


def backward(tape: Tape, loss: Var):
    """Accumulate d(loss)/d(leaf) on every requires-grad Var the tape saw."""
    if tape.consumed:
        raise StateError("tape already consumed by a previous backward")
    if not tape.entries:
        raise StateError("backward called before any forward was recorded")
    if loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    tape.consumed = True
    loss.accum(np.ones_like(loss.value))
    for i in reversed(range(len(tape.entries))):
        name, fn = tape.entries[i]
        tape.entries[i] = (name, None)
        fn()


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a, b) -> Var:
    a, b = _wrap(a), _wrap(b)
    out = Var(linalg.matmul(a.value, b.value))

    def back():
        g = out.grad
        if a.requires_grad:
            a.accum(g @ np.swapaxes(b.value, -1, -2))
        if b.requires_grad:
            if b.value.ndim == 2 and a.value.ndim > 2:
                k = a.value.shape[-1]
                n = g.shape[-1]
                b.accum(a.value.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                b.accum(np.swapaxes(a.value, -1, -2) @ g)

    return _record("matmul", out, (a, b), back)


def add(a, b) -> Var:
    a, b = _wrap(a), _wrap(b)
    out = Var(a.value + b.value)

    def back():
        if a.requires_grad:
            a.accum(_unbroadcast(out.grad, a.value.shape))
        if b.requires_grad:
            b.accum(_unbroadcast(out.grad, b.value.shape))

    return _record("add", out, (a, b), back)


def sub(a, b) -> Var:
    a, b = _wrap(a), _wrap(b)
    out = Var(a.value - b.value)

    def back():
        if a.requires_grad:
            a.accum(_unbroadcast(out.grad, a.value.shape))
        if b.requires_grad:
            b.accum(_unbroadcast(-out.grad, b.value.shape))

    return _record("sub", out, (a, b), back)


def mul(a, b) -> Var:
    a, b = _wrap(a), _wrap(b)
    out = Var(a.value * b.value)

    def back():
        if a.requires_grad:
            a.accum(_unbroadcast(out.grad * b.value, a.value.shape))
        if b.requires_grad:
            b.accum(_unbroadcast(out.grad * a.value, b.value.shape))

    return _record("mul", out, (a, b), back)


def div(a, b) -> Var:
    a, b = _wrap(a), _wrap(b)
    out = Var(a.value / b.value)

    def back():
        g = out.grad
        if a.requires_grad:
            a.accum(_unbroadcast(g / b.value, a.value.shape))
        if b.requires_grad:
            b.accum(_unbroadcast(-g * a.value / (b.value * b.value), b.value.shape))

    return _record("div", out, (a, b), back)


def neg(a) -> Var:
    a = _wrap(a)
    out = Var(-a.value)

    def back():
        if a.requires_grad:
            a.accum(-out.grad)

    return _record("neg", out, (a,), back)


def scale(a, c: float) -> Var:
    a = _wrap(a)
    out = Var(a.value * c)

    def back():
        if a.requires_grad:
            a.accum(out.grad * c)

    return _record("scale", out, (a,), back)


def exp(a) -> Var:
    a = _wrap(a)
    out = Var(np.exp(a.value))

    def back():
        if a.requires_grad:
            a.accum(out.grad * out.value)

    return _record("exp", out, (a,), back)


def sigmoid_fwd(x: np.ndarray) -> np.ndarray:
    """The logistic function, as `sigmoid` and `silu` compute it."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Var:
    a = _wrap(a)
    y = sigmoid_fwd(a.value)
    out = Var(y)

    def back():
        if a.requires_grad:
            a.accum(out.grad * y * (1.0 - y))

    return _record("sigmoid", out, (a,), back)


def silu(a) -> Var:
    a = _wrap(a)
    out = Var(a.value * sigmoid_fwd(a.value))

    def back():
        if a.requires_grad:
            sig = sigmoid_fwd(a.value)
            d = np.subtract(1.0, sig)  # g * (sig * (1 + x * (1 - sig)))
            d *= a.value
            d += 1.0
            d *= sig
            a.accum(np.multiply(d, out.grad, out=d))

    return _record("silu", out, (a,), back)


def _softmax_back(g: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Softmax backward over the last axis: y * (g - sum(g * y)); written
    into `out` when given (which may be `g` itself)."""
    dot = (g * y).sum(axis=-1, keepdims=True)
    out = np.subtract(g, dot, out=out)
    out *= y
    return out


def softmax(a) -> Var:
    """Softmax over the last axis."""
    a = _wrap(a)
    m = a.value.max(axis=-1, keepdims=True)
    e = np.exp(a.value - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Var(y)

    def back():
        a.accum(_softmax_back(out.grad, y))

    return _record("softmax", out, (a,), back)


@functools.lru_cache(maxsize=16)
def _causal_mask(t: int) -> np.ndarray:
    """Read-only (t, t) boolean mask of the slots position i may not attend
    to (j > i); one shared array per length."""
    upper = np.triu(np.ones((t, t), dtype=bool), k=1)
    upper.setflags(write=False)
    return upper


def _causal_softmax_(s: np.ndarray) -> np.ndarray:
    """Causal softmax of (..., r, t) scores computed in place in `s`: the
    rows are the last r query positions of t, so a square `s` is the whole
    sequence."""
    np.copyto(s, -np.inf, where=_causal_mask(s.shape[-1])[-s.shape[-2]:])
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def causal_softmax(a) -> Var:
    """Softmax over the last axis of (..., t, t) scores, position i
    attending to j <= i only; masked probabilities are exactly zero."""
    a = _wrap(a)
    t = a.value.shape[-1]
    if a.value.shape[-2] != t:
        raise ShapeError(f"causal softmax needs square trailing dims, got {a.value.shape}")
    y = _causal_softmax_(np.array(a.value))
    out = Var(y)

    def back():
        a.accum(_softmax_back(out.grad, y))

    return _record("causal_softmax", out, (a,), back)


RMSNORM_EPS = 1e-5


def rmsnorm(a, gain) -> Var:
    """y = gain * x / sqrt(mean(x^2, last axis) + eps)."""
    a, gain = _wrap(a), _wrap(gain)
    x = a.value
    ms = (x * x).mean(axis=-1, keepdims=True)
    r = 1.0 / np.sqrt(ms + np.asarray(RMSNORM_EPS, dtype=x.dtype))
    out = Var(x * r * gain.value)

    def back():
        g = out.grad
        if a.requires_grad:  # u * r - x * r**3 * (sum(u * x) / d), u = g * gain
            u = g * gain.value
            t = u * x
            dot = t.sum(axis=-1, keepdims=True) / x.shape[-1]
            np.multiply(np.multiply(x, r ** 3, out=t), dot, out=t)
            u *= r
            u -= t
            a.accum(u)
        if gain.requires_grad:
            gg = g * x
            gg *= r
            gain.accum(gg.reshape(-1, gg.shape[-1]).sum(axis=0))

    return _record("rmsnorm", out, (a, gain), back)


def embedding(table, ids: np.ndarray) -> Var:
    """Gather rows of `table` (vocab, d) by integer `ids` (...)."""
    table = _wrap(table)
    ids = np.asarray(ids)
    out = Var(table.value[ids])

    def back():
        if table.requires_grad:
            g = out.grad
            dt = np.zeros_like(table.value)
            np.add.at(dt, ids.reshape(-1), g.reshape(-1, g.shape[-1]))
            table.accum(dt)

    return _record("embedding", out, (table,), back)


def _pair_tables(cos: np.ndarray, sin: np.ndarray, reps: int = 1):
    """(t, reps * 2 * pairs) tables C and S of `_rotate_pairs` for the
    (t, pairs) cos and sin: each pair of C is (cos, cos) and of S
    (-sin, sin), tiled `reps` times (once per head)."""
    c = np.tile(np.repeat(cos, 2, axis=-1), reps)
    s = np.tile(np.stack((-sin, sin), axis=-1).reshape(c.shape[:-1] + (-1,)), reps)
    return c, s


def _rotate_pairs(x: np.ndarray, c: np.ndarray, s: np.ndarray, op) -> np.ndarray:
    """op(x * C, swap_pairs(x) * S) in x's dtype: the rotary kernel."""
    sw = np.empty_like(x, dtype=np.result_type(x, s))
    sw[..., 0::2] = x[..., 1::2]
    sw[..., 1::2] = x[..., 0::2]
    sw *= s
    y = x * c
    op(y, sw, out=y)
    return y.astype(x.dtype, copy=False)


def rope_rotate(a, cos: np.ndarray, sin: np.ndarray) -> Var:
    """Rotate interleaved (even, odd) pairs of the last axis by per-position
    angles; cos/sin are (t, d/2) constants broadcast over leading dims."""
    a = _wrap(a)
    c, s = _pair_tables(cos, sin)
    out = Var(_rotate_pairs(a.value, c, s, np.add))

    def back():
        a.accum(_rotate_pairs(out.grad, c, s, np.subtract))

    return _record("rope_rotate", out, (a,), back)


# Attention of at most ATTN_BLOCK_MAX_T positions runs per block of
# ATTN_BLOCK query rows, with and without a tape. Bits equal the one-block
# (full) path's because every key prefix but the last is a multiple of 8 and
# at most 128 long, which numpy sums in the order of the zero-tailed full
# row, and no block has a single row (a one-row product takes another BLAS
# kernel). Longer sequences are one block.
ATTN_BLOCK = 32
ATTN_BLOCK_MAX_T = 128


def _attention_blocks(t: int) -> list[tuple[int, int]]:
    """Query row ranges [i0, i1) of a length-t sequence; a one-row tail
    joins the block before it."""
    if t > ATTN_BLOCK_MAX_T:
        return [(0, t)]
    ends = list(range(ATTN_BLOCK, t, ATTN_BLOCK)) + [t]
    if len(ends) > 1 and ends[-1] - ends[-2] == 1:
        del ends[-2]
    return list(zip([0] + ends[:-1], ends))


def _key_slab(blocks: list[np.ndarray], b: int, j0: int, j1: int) -> np.ndarray:
    """Columns [j0, j1) of the per-block (n, h, r, i1) arrays from block b
    on: query rows [j0, t) as one contiguous operand, so a contraction over
    them is a single product, as in the one-block path."""
    parts = [blk[..., j0:j1] for blk in blocks[b:]]
    if len(parts) == 1:
        return np.ascontiguousarray(parts[0])
    return np.concatenate(parts, axis=-2)


def causal_attention(q, k, v, n_heads: int, cos: np.ndarray,
                     sin: np.ndarray) -> Var:
    """Multi-head causal self-attention with rotary positions, one tape entry.

    q, k, v are (n, t, d); each is split into `n_heads` heads of size
    hd = d / n_heads, q and k are rotated by cos/sin (t, hd/2), and the
    result softmax(q k^T / sqrt(hd), causal) v is merged back to (n, t, d).

    For t <= ATTN_BLOCK_MAX_T the scores, softmax and p @ v run per block
    of query rows [i0, i1) over the keys [0, i1) it may see, so fully
    masked blocks are never computed; under a tape each block keeps its
    probabilities (n, h, i1 - i0, i1) for the backward. The backward takes
    dp, the softmax backward and dq per query block, and dv and dk per key
    block [j0, j1) as one product over the query rows [j0, t). The numpy
    operations and operand layouts are those of the equivalent chain of
    reshape/transpose/rope_rotate/matmul/scale/causal_softmax primitives,
    so values and gradients are bitwise the same. A non-finite value in v
    reaches no row of an earlier block, where the chain spreads it to
    every earlier row through 0 * nan.
    """
    q, k, v = _wrap(q), _wrap(k), _wrap(v)
    shape = q.value.shape
    if len(shape) != 3 or k.value.shape != shape or v.value.shape != shape:
        raise ShapeError(f"attention needs equal (n, t, d) q/k/v, got "
                         f"{q.value.shape}, {k.value.shape}, {v.value.shape}")
    n, t, d = shape
    if d % n_heads:
        raise ShapeError(f"d {d} not divisible by {n_heads} heads")
    hd = d // n_heads
    if cos.shape != (t, hd // 2) or sin.shape != cos.shape:
        raise ShapeError(f"rope tables must be {(t, hd // 2)}, got {cos.shape}")
    c = 1.0 / math.sqrt(hd)

    def heads(x):
        return x.reshape(n, t, n_heads, hd).transpose(0, 2, 1, 3)

    def merged(dtype):
        """An (n, t, d) buffer and its (n, h, t, hd) heads view."""
        buf = np.empty((n, t, d), dtype=dtype)
        return buf, heads(buf)

    tables = _pair_tables(cos, sin, n_heads)

    def rotated(x):
        return heads(_rotate_pairs(x.value, *tables, np.add))

    qr, kr = rotated(q), rotated(k)
    vh = heads(v.value)
    taped = _active_tape is not None and any(x.requires_grad for x in (q, k, v))
    blocks = _attention_blocks(t)
    probs = []
    out, out_h = merged(np.result_type(qr, kr, vh))
    for i0, i1 in blocks:
        s = qr[:, :, i0:i1] @ np.swapaxes(kr[:, :, :i1], -1, -2)
        s *= c
        p = _causal_softmax_(s)
        out_h[:, :, i0:i1] = p @ vh[:, :, :i1]
        if taped:
            probs.append(p)
    out = Var(out)

    def back():
        g = heads(out.grad)
        if v.requires_grad:
            dv, dv_h = merged(np.result_type(probs[0], g))
            for b, (j0, j1) in enumerate(blocks):
                dv_h[:, :, j0:j1] = (np.swapaxes(_key_slab(probs, b, j0, j1), -1, -2)
                                     @ g[:, :, j0:])
            v.accum(dv)
        if not (q.requires_grad or k.requires_grad):
            return
        ds = []
        for (i0, i1), p in zip(blocks, probs):
            dp = g[:, :, i0:i1] @ np.swapaxes(vh[:, :, :i1], -1, -2)
            _softmax_back(dp, p, out=dp)
            dp *= c
            ds.append(dp)
        if k.requires_grad:
            qr = rotated(q)
            dk, dk_h = merged(np.result_type(qr, ds[0]))
            for b, (j0, j1) in enumerate(blocks):
                dk_h[:, :, j0:j1] = np.swapaxes(
                    np.swapaxes(qr[:, :, j0:], -1, -2) @ _key_slab(ds, b, j0, j1),
                    -1, -2)
            k.accum(_rotate_pairs(dk, *tables, np.subtract))
        if q.requires_grad:
            kr = rotated(k)
            dq, dq_h = merged(np.result_type(ds[0], kr))
            for (i0, i1), dsb in zip(blocks, ds):
                dq_h[:, :, i0:i1] = dsb @ kr[:, :, :i1]
            q.accum(_rotate_pairs(dq, *tables, np.subtract))

    return _record("causal_attention", out, (q, k, v), back)


def clamp(a, lo, hi) -> Var:
    """Clamp to [lo, hi]; gradient passes only strictly inside the interval."""
    a = _wrap(a)
    out = Var(np.clip(a.value, lo, hi))

    def back():
        if a.requires_grad:
            gate = (a.value > lo) & (a.value < hi)
            a.accum(out.grad * gate)

    return _record("clamp", out, (a,), back)


def rint(x: np.ndarray) -> np.ndarray:
    """Round half-to-even, or the identity under `surrogate_round`: the
    forward of `round_ste` and of every straight-through round."""
    return x if _surrogate_round else np.rint(x)


def round_ste(a) -> Var:
    """Round half-to-even; backward is the identity (straight-through)."""
    a = _wrap(a)
    out = Var(rint(a.value))

    def back():
        if a.requires_grad:
            a.accum(out.grad)

    return _record("round_ste", out, (a,), back)


def maximum(a, floor) -> Var:
    """max(a, floor) against a constant; gradient passes where a > floor."""
    a = _wrap(a)
    out = Var(np.maximum(a.value, floor))

    def back():
        if a.requires_grad:
            a.accum(out.grad * (a.value > floor))

    return _record("maximum", out, (a,), back)


def transpose(a, axes=None) -> Var:
    a = _wrap(a)
    if axes is None:
        axes = tuple(reversed(range(a.value.ndim)))
    out = Var(np.transpose(a.value, axes))
    inv = np.argsort(axes)

    def back():
        if a.requires_grad:
            a.accum(np.transpose(out.grad, inv))

    return _record("transpose", out, (a,), back)


def swap_last(a) -> Var:
    n = _wrap(a).value.ndim
    return transpose(a, tuple(range(n - 2)) + (n - 1, n - 2))


def reshape(a, shape) -> Var:
    a = _wrap(a)
    out = Var(a.value.reshape(shape))

    def back():
        if a.requires_grad:
            a.accum(out.grad.reshape(a.value.shape))

    return _record("reshape", out, (a,), back)


def mse(a, b) -> Var:
    """Mean squared error over all elements; scalar output."""
    a, b = _wrap(a), _wrap(b)
    d = a.value - b.value
    n = d.size
    out = Var(np.asarray((d * d).mean(), dtype=d.dtype))

    def back():
        g = out.grad * (2.0 / n) * d
        if a.requires_grad:
            a.accum(g)
        if b.requires_grad:
            b.accum(-g)

    return _record("mse", out, (a, b), back)


def gram_mse(w, gram: np.ndarray, cross: np.ndarray, yy: float, n: int) -> Var:
    """mse(X @ W, Y) over its n = N * d2 elements from the second moments
    gram = X^T X (d1, d1), cross = X^T Y (d1, d2) and yy = |Y|^2, all f64:
    (sum(W * (gram @ W)) - 2 sum(W * cross) + yy) / n, taken in f64 and given
    in W's dtype, as `mse` gives its own. Backward is 2 (gram @ W - cross) / n,
    cast to W's dtype. Forward and backward cost d1 * d1 * d2 multiply-adds,
    where those of mse(X @ W, Y) cost 2 N d1 d2."""
    w = _wrap(w)
    w64 = w.value.astype(np.float64)
    gw = gram @ w64
    loss = (np.vdot(w64, gw) - 2.0 * np.vdot(w64, cross) + yy) / n
    out = Var(np.asarray(loss, dtype=w.value.dtype))

    def back():
        g = np.subtract(gw, cross, out=gw)
        g *= 2.0 * float(out.grad) / n
        w.accum(g.astype(w.value.dtype))

    return _record("gram_mse", out, (w,), back)


def _softmax_nll(logits: np.ndarray, targets: np.ndarray, overwrite: bool = False):
    """Per-row negative log-likelihood (N,) from raw logits (N, V) and int
    targets (N,) by a max-subtracted log-sum-exp, in the logits dtype, with
    the shifted exponentials (N, V) and their row sums (N,) it came from.
    With `overwrite` the logits are the scratch buffer."""
    z = np.subtract(logits, logits.max(axis=-1, keepdims=True),
                    out=logits if overwrite else None)
    picked = z[np.arange(z.shape[0]), targets]
    sums = np.exp(z, out=z).sum(axis=-1)
    return np.log(sums) - picked, z, sums


def log_softmax_nll(logits: np.ndarray, targets: np.ndarray, overwrite: bool = False):
    """The per-row negative log-likelihood of `_softmax_nll`."""
    return _softmax_nll(logits, targets, overwrite)[0]


def cross_entropy(logits, targets: np.ndarray) -> Var:
    """Mean token-level cross-entropy; logits (..., V), int targets (...)."""
    logits = _wrap(logits)
    v = logits.value.shape[-1]
    tgt = np.asarray(targets).reshape(-1)
    nll, e, sums = _softmax_nll(logits.value.reshape(-1, v), tgt)
    out = Var(np.asarray(nll.mean(), dtype=e.dtype))

    def back():
        if logits.requires_grad:
            np.divide(e, sums[:, None], out=e)
            e[np.arange(e.shape[0]), tgt] -= 1.0
            np.multiply(e, out.grad, out=e)
            logits.accum(np.divide(e, e.shape[0], out=e).reshape(logits.value.shape))

    return _record("cross_entropy", out, (logits,), back)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradcheckReport:
    max_rel_err: float

    def ok(self, tol: float) -> bool:
        return self.max_rel_err <= tol


def gradcheck(f, inputs: list[Var], step: float = 1e-4) -> GradcheckReport:
    """Compare tape gradients of scalar-valued f against central finite
    differences, elementwise, in whatever dtype the inputs carry (use f64).

    The relative error per input is max|g_tape - g_fd| / max(1, max|g_fd|).
    """
    for v in inputs:
        v.grad = None
        v.requires_grad = True
    with Tape() as tape:
        loss = f(*inputs)
    backward(tape, loss)
    tape_grads = [np.zeros_like(v.value) if v.grad is None else np.array(v.grad)
                  for v in inputs]

    errs = []
    for v, gt in zip(inputs, tape_grads):
        flat = v.value.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            h = step * max(1.0, abs(float(flat[i])))
            orig = flat[i]
            flat[i] = orig + h
            hi = float(f(*inputs).value)
            flat[i] = orig - h
            lo = float(f(*inputs).value)
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * h)
        fd = fd.reshape(v.value.shape)
        denom = max(1.0, float(np.abs(fd).max()) if fd.size else 0.0)
        errs.append(float(np.abs(gt - fd).max()) / denom if fd.size else 0.0)
    return GradcheckReport(max_rel_err=max(errs) if errs else 0.0)
