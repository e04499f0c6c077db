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


def softmax(a) -> Var:
    """Softmax over the last axis."""
    a = _wrap(a)
    m = a.value.max(axis=-1, keepdims=True)
    e = np.exp(a.value - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Var(y)

    def back():
        g = out.grad
        dot = (g * y).sum(axis=-1, keepdims=True)
        a.accum(y * (g - dot))

    return _record("softmax", out, (a,), back)


def causal_softmax(a) -> Var:
    """Softmax over the last axis of (..., t, t) scores, position i
    attending to j <= i only; masked probabilities are exactly zero."""
    a = _wrap(a)
    t = a.value.shape[-1]
    if a.value.shape[-2] != t:
        raise ShapeError(f"causal softmax needs square trailing dims, got {a.value.shape}")
    allowed = np.tril(np.ones((t, t), dtype=bool))
    masked = np.where(allowed, a.value, -np.inf)
    m = masked.max(axis=-1, keepdims=True)
    e = np.exp(masked - m)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Var(y)

    def back():
        g = out.grad
        dot = (g * y).sum(axis=-1, keepdims=True)
        a.accum(y * (g - dot))

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


def rope_rotate(a, cos: np.ndarray, sin: np.ndarray) -> Var:
    """Rotate interleaved (even, odd) pairs of the last axis by per-position
    angles; cos/sin are (t, d/2) constants broadcast over leading dims."""
    a = _wrap(a)
    x = a.value
    ev, od = x[..., 0::2], x[..., 1::2]
    y = np.empty_like(x)
    y[..., 0::2] = ev * cos - od * sin
    y[..., 1::2] = ev * sin + od * cos
    out = Var(y)

    def back():
        g = out.grad
        ge, go = g[..., 0::2], g[..., 1::2]
        da = np.empty_like(g)
        da[..., 0::2] = ge * cos + go * sin
        da[..., 1::2] = -ge * sin + go * cos
        a.accum(da)

    return _record("rope_rotate", out, (a,), back)


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


def log_softmax_nll(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row negative log-likelihood from raw logits (max-subtracted
    log-sum-exp). logits (N, V), targets (N,) ints; returns (N,) in the
    logits dtype."""
    m = logits.max(axis=-1, keepdims=True)
    z = logits - m
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse - z[np.arange(z.shape[0]), targets]


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
            m = flat.max(axis=-1, keepdims=True)
            e = np.exp(flat - m)
            p = e / e.sum(axis=-1, keepdims=True)
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
