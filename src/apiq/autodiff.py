"""Tape-based reverse-mode differentiation over a fixed set of primitives.

Ops compute with numpy and, while a Tape is active, append a backward
closure to it; `backward` replays the closures in exact reverse recording
order, so gradients are deterministic. With no active tape the same ops
run as plain (cheap) forward computation.

`round_ste` is the straight-through estimator: forward rounds, backward is
the identity. For finite-difference verification the `surrogate_round`
context makes its *forward* the identity too, which turns any expression
containing it into the smooth surrogate that the STE gradient is the exact
gradient of.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

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
    for _, fn in reversed(tape.entries):
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
    """Shared forward so tape and plain-numpy quantizer paths agree bitwise."""
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
    sig = sigmoid_fwd(a.value)
    out = Var(a.value * sig)

    def back():
        if a.requires_grad:
            a.accum(out.grad * (sig * (1.0 + a.value * (1.0 - sig))))

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
        if a.requires_grad:
            u = g * gain.value
            d = x.shape[-1]
            a.accum(u * r - x * (r ** 3) * ((u * x).sum(axis=-1, keepdims=True) / d))
        if gain.requires_grad:
            gg = g * x * r
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


def _rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    ev, od = x[..., 0::2], x[..., 1::2]
    y = np.empty_like(x)
    y[..., 0::2] = ev * cos - od * sin
    y[..., 1::2] = ev * sin + od * cos
    return y


def _rope_back(g: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    ge, go = g[..., 0::2], g[..., 1::2]
    da = np.empty_like(g)
    da[..., 0::2] = ge * cos + go * sin
    da[..., 1::2] = -ge * sin + go * cos
    return da


def rope_rotate(a, cos: np.ndarray, sin: np.ndarray) -> Var:
    """Rotate interleaved (even, odd) pairs of the last axis by per-position
    angles; cos/sin are (t, d/2) constants broadcast over leading dims."""
    a = _wrap(a)
    out = Var(_rope(a.value, cos, sin))

    def back():
        a.accum(_rope_back(out.grad, cos, sin))

    return _record("rope_rotate", out, (a,), back)


# Untaped attention of at most ATTN_BLOCK_MAX_T positions runs per block of
# ATTN_BLOCK query rows. Bits equal the full path's because every key prefix
# but the last is a multiple of 8 and at most 128 long, which numpy sums in
# the order of the zero-tailed full row, and no block has a single row (a
# one-row product takes another BLAS kernel).
ATTN_BLOCK = 32
ATTN_BLOCK_MAX_T = 128


def _blocked_attention(qr: np.ndarray, kr: np.ndarray, vh: np.ndarray,
                       c: float) -> np.ndarray:
    """softmax(qr kr^T * c, causal) vh of rotated (n, h, t, hd) heads,
    merged to (n, t, h * hd), for query rows [i0, i1) over the keys [0, i1)
    one block at a time, so fully masked blocks are never computed."""
    n, h, t, hd = qr.shape
    out = np.empty((n, t, h, hd), dtype=np.result_type(qr, vh))
    heads_out = out.transpose(0, 2, 1, 3)
    ends = list(range(ATTN_BLOCK, t, ATTN_BLOCK)) + [t]
    if len(ends) > 1 and ends[-1] - ends[-2] == 1:
        del ends[-2]
    i0 = 0
    for i1 in ends:
        s = qr[:, :, i0:i1] @ np.swapaxes(kr[:, :, :i1], -1, -2)
        s *= c
        heads_out[:, :, i0:i1] = _causal_softmax_(s) @ vh[:, :, :i1]
        i0 = i1
    return out.reshape(n, t, h * hd)


def causal_attention(q, k, v, n_heads: int, cos: np.ndarray,
                     sin: np.ndarray) -> Var:
    """Multi-head causal self-attention with rotary positions, one tape entry.

    q, k, v are (n, t, d); each is split into `n_heads` heads of size
    hd = d / n_heads, q and k are rotated by cos/sin (t, hd/2), and the
    result softmax(q k^T / sqrt(hd), causal) v is merged back to (n, t, d).
    The numpy operations and operand layouts are those of the equivalent
    chain of reshape/transpose/rope_rotate/matmul/scale/causal_softmax
    primitives, so values and gradients are bitwise the same; of the
    (t, t) score arrays only the softmax output is kept for the backward.

    When nothing will be differentiated and t <= ATTN_BLOCK_MAX_T, the same
    operations run per block of query rows over the keys it may see (see
    `_blocked_attention`), with the full path's output bits. A non-finite
    value in v then reaches no row of an earlier block, where the full
    path spreads it to every earlier row through 0 * nan.
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

    def merge(x):
        return x.transpose(0, 2, 1, 3).reshape(n, t, d)

    qr = _rope(heads(q.value), cos, sin)
    kr = _rope(heads(k.value), cos, sin)
    vh = heads(v.value)
    taped = _active_tape is not None and any(x.requires_grad for x in (q, k, v))
    if not taped and t <= ATTN_BLOCK_MAX_T:
        return Var(_blocked_attention(qr, kr, vh, c))
    s = qr @ np.swapaxes(kr, -1, -2)
    s *= c
    p = _causal_softmax_(s)
    out = Var(merge(p @ vh))

    def back():
        g = heads(out.grad)
        if v.requires_grad:
            v.accum(merge(np.swapaxes(p, -1, -2) @ g))
        if q.requires_grad or k.requires_grad:
            dp = g @ np.swapaxes(vh, -1, -2)
            ds = _softmax_back(dp, p, out=dp)
            ds *= c
            if k.requires_grad:
                k.accum(merge(_rope_back(np.swapaxes(np.swapaxes(qr, -1, -2) @ ds,
                                                     -1, -2), cos, sin)))
            if q.requires_grad:
                q.accum(merge(_rope_back(ds @ kr, cos, sin)))

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


def round_ste(a) -> Var:
    """Round half-to-even; backward is the identity (straight-through)."""
    a = _wrap(a)
    out = Var(a.value if _surrogate_round else np.rint(a.value))

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


def log_softmax_nll(logits: np.ndarray, targets: np.ndarray,
                    overwrite: bool = False) -> np.ndarray:
    """Per-row negative log-likelihood from raw logits (max-subtracted
    log-sum-exp). logits (N, V), targets (N,) ints; returns (N,) in the
    logits dtype. With `overwrite` the logits are the scratch buffer."""
    z = np.subtract(logits, logits.max(axis=-1, keepdims=True),
                    out=logits if overwrite else None)
    picked = z[np.arange(z.shape[0]), targets]
    lse = np.log(np.exp(z, out=z).sum(axis=-1))
    return lse - picked


def cross_entropy(logits, targets: np.ndarray) -> Var:
    """Mean token-level cross-entropy; logits (..., V), int targets (...)."""
    logits = _wrap(logits)
    v = logits.value.shape[-1]
    flat = logits.value.reshape(-1, v)
    tgt = np.asarray(targets).reshape(-1)
    nll = log_softmax_nll(flat, tgt)
    out = Var(np.asarray(nll.mean(), dtype=flat.dtype))

    def back():
        if logits.requires_grad:
            p = flat - flat.max(axis=-1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=-1, keepdims=True)
            p[np.arange(p.shape[0]), tgt] -= 1.0
            logits.accum((out.grad * p / p.shape[0]).reshape(logits.value.shape))

    return _record("cross_entropy", out, (logits,), back)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradcheckReport:
    max_rel_err: float
    per_input: list[float] = field(default_factory=list)

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
    return GradcheckReport(max_rel_err=max(errs) if errs else 0.0, per_input=errs)
