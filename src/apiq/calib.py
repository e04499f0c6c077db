"""The quantization step: RTN / QLoRA-default, LoftQ, and the two
activation-preserving calibrations (layer-wise and block-wise).

Layer-wise calibration minimizes, per linear layer and in dataflow order,

    MSE( X W  -  X^q (Q + A B^T) )

over the adapter factors and the clipping logits, where X is the
full-precision input to the layer, X^q the input propagated through the
already-quantized prefix of the network, and Q the fake-quantized weight
(straight-through rounding, scale and zero-point recomputed from the
current clipping logits on every batch). The block-wise variant optimizes
all seven projections of a transformer block jointly against the
full-precision block output. Both track the epoch-end loss on the whole
calibration set and keep the best-seen parameter state, so the retained
loss never exceeds the value at initialization.

Adapters start from the standard low-rank-adapter default (A uniform in
+-1/sqrt(d1), B = 0) so the initial loss equals the pure-quantization
loss; clipping logits start at 4 (sigmoid ~ 0.98). All randomness derives
from a single seed split per layer, so runs are bitwise reproducible.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericError
from .linalg import group_minmax, truncated_svd
from .model import (Block, Capture, Linear, LoraPair, QuantState,
                    TinyTransformer, forward_block, lora_delta)
from .quant import (ClipParams, QuantSpec, clip_to_params, dequantize,
                    pack, quantize, ste_fake_quant)
from .rng import RngState

METHODS = ("apiq-lw", "apiq-bw", "loftq", "rtn", "qlora")


@dataclass
class CalibPlan:
    method: str = "apiq-bw"
    epochs: int = 20
    batch_size: int = 4
    lr_theta: float = 0.005
    lr_lora: float = 0.001
    weight_decay: float = 0.1
    loftq_iters: int = 5
    seed: int = 0
    clip_init: float = 4.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.method in ("apiq-lw", "apiq-bw") and self.epochs < 1:
            raise ConfigError("gradient-based methods need epochs >= 1")
        if self.lr_theta <= 0 or self.lr_lora <= 0:
            raise ConfigError("learning rates must be positive")


@dataclass
class CalibSet:
    """Token windows driving the activation-matching optimization."""

    tokens: np.ndarray  # (n_samples, seq_len)
    seed: int


def sample_calib(corpus_tokens: np.ndarray, n_samples: int, seq_len: int,
                 seed: int) -> CalibSet:
    """Deterministically sample fixed-length windows from the corpus."""
    corpus_tokens = np.asarray(corpus_tokens)
    if len(corpus_tokens) < seq_len:
        raise ConfigError(f"corpus shorter than one window ({seq_len} tokens)")
    rng = RngState(seed).derive(0xCA11B)
    starts = rng.randint(0, len(corpus_tokens) - seq_len + 1, (n_samples,))
    rows = np.stack([corpus_tokens[s:s + seq_len] for s in starts])
    return CalibSet(tokens=rows, seed=seed)


class AdamW:
    """Decoupled-weight-decay Adam updating numpy arrays in place.

    beta1 = 0.9, beta2 = 0.999, eps = 1e-8; each group is
    (params, lr, weight_decay) and grads are passed aligned with it.
    """

    def __init__(self, groups: list[tuple[list[np.ndarray], float, float]],
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.groups = groups
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [[np.zeros_like(p) for p in params] for params, _, _ in groups]
        self.v = [[np.zeros_like(p) for p in params] for params, _, _ in groups]

    def step(self, grads: list[list[np.ndarray | None]], lr_scale: float = 1.0) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for (params, base_lr, wd), ms, vs, gs in zip(self.groups, self.m, self.v, grads):
            lr = base_lr * lr_scale
            for p, m, v, g in zip(params, ms, vs, gs):
                if wd:
                    p *= (1.0 - lr * wd)
                if g is None:
                    continue
                m += (1.0 - self.beta1) * (g - m)
                v += (1.0 - self.beta2) * (g * g - v)
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# ---------------------------------------------------------------------------
# data-free initializations
# ---------------------------------------------------------------------------

def _freeze(layer: Linear, codes: np.ndarray, params, clip, spec: QuantSpec,
            lora: LoraPair | None) -> None:
    layer.qstate = QuantState(codes=pack(codes, spec), params=params,
                              clip=clip, spec=spec)
    layer.weight = None
    layer.lora = lora


def _lora_default(d1: int, d2: int, rank: int, stream: RngState) -> LoraPair | None:
    if rank == 0:
        return None
    bound = 1.0 / math.sqrt(d1)
    a = stream.uniform((d1, rank), -bound, bound).astype(np.float32)
    return LoraPair(a=a, b=np.zeros((d2, rank), dtype=np.float32), alpha=float(rank))


def rtn_or_qlora_init(layer: Linear, spec: QuantSpec, rank: int,
                      stream: RngState) -> None:
    """Round-to-nearest codes (clip factors exactly 1); adapter starts at
    the low-rank default (B = 0), so the effective weight is f(W)."""
    w = layer.weight
    mins, maxs = group_minmax(w, spec.group)
    params = clip_to_params(mins, maxs, None, spec)
    codes = quantize(w, params, spec)
    _freeze(layer, codes, params, None, spec,
            _lora_default(layer.d1, layer.d2, rank, stream))


def loftq_init(layer: Linear, spec: QuantSpec, rank: int, iters: int) -> None:
    """Alternate Q <- f(W - A B^T) and (A, B) <- top-r SVD of (W - Q),
    starting from A = B = 0, ending on the SVD step."""
    w = layer.weight
    a = np.zeros((layer.d1, rank), dtype=np.float32)
    b = np.zeros((layer.d2, rank), dtype=np.float32)
    codes = params = None
    for _ in range(max(1, iters)):
        target = w - a @ b.T if rank else w
        mins, maxs = group_minmax(target, spec.group)
        params = clip_to_params(mins, maxs, None, spec)
        codes = quantize(target, params, spec)
        q = dequantize(codes, params)
        residual = w - q
        if rank == 0 or not residual.any():
            break
        res = truncated_svd(residual.astype(np.float64), rank)
        a = (res.u * res.s).astype(np.float32)
        b = res.v.astype(np.float32)
    lora = LoraPair(a=a, b=b, alpha=float(rank)) if rank else None
    _freeze(layer, codes, params, None, spec, lora)


# ---------------------------------------------------------------------------
# gradient-based calibration
# ---------------------------------------------------------------------------

@dataclass
class CalibLogRow:
    unit: str
    epoch: int
    loss: float


@dataclass
class _TrainableQuant:
    """Per-layer trainable state shared by the lw and bw loops."""

    layer: Linear
    mins: np.ndarray
    maxs: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    lora_a: np.ndarray | None
    lora_b: np.ndarray | None

    @classmethod
    def create(cls, layer: Linear, spec: QuantSpec, rank: int,
               stream: RngState, clip_init: float) -> "_TrainableQuant":
        mins, maxs = group_minmax(layer.weight, spec.group)
        clip = ClipParams.init(spec, layer.d1, layer.d2, value=clip_init)
        lora = _lora_default(layer.d1, layer.d2, rank, stream)
        return cls(layer=layer, mins=mins, maxs=maxs,
                   gamma=clip.gamma, beta=clip.beta,
                   lora_a=None if lora is None else lora.a,
                   lora_b=None if lora is None else lora.b)

    def params(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        lora = [] if self.lora_a is None else [self.lora_a, self.lora_b]
        return lora, [self.gamma, self.beta]

    def effective_var(self, spec: QuantSpec) -> ad.Var:
        """Tape expression Q(gamma, beta) + A B^T for the current state."""
        vg, vb = ad.param(self.gamma), ad.param(self.beta)
        self._vars = [vg, vb]
        eff = ste_fake_quant(self.layer.weight, vg, vb, spec, self.mins, self.maxs)
        if self.lora_a is not None:
            va, vbf = ad.param(self.lora_a), ad.param(self.lora_b)
            self._vars += [va, vbf]
            # alpha = r, so the trained quantity is Q + A B^T
            eff = ad.add(eff, lora_delta(va, vbf, float(self.lora_a.shape[1])))
        return eff

    def grads(self) -> tuple[list, list]:
        vs = self._vars
        theta = [vs[0].grad, vs[1].grad]
        lora = [vs[2].grad, vs[3].grad] if len(vs) > 2 else []
        return lora, theta

    def snapshot(self) -> list[np.ndarray]:
        lora, theta = self.params()
        return [p.copy() for p in lora + theta]

    def restore(self, saved: list[np.ndarray]) -> None:
        lora, theta = self.params()
        for dst, src in zip(lora + theta, saved):
            np.copyto(dst, src)

    def freeze(self, spec: QuantSpec) -> None:
        clip = ClipParams(gamma=self.gamma, beta=self.beta)
        params = clip_to_params(self.mins, self.maxs, clip, spec)
        codes = quantize(self.layer.weight, params, spec)
        lora = None
        if self.lora_a is not None:
            lora = LoraPair(a=self.lora_a, b=self.lora_b,
                            alpha=float(self.lora_a.shape[1]))
        _freeze(self.layer, codes, params, clip, spec, lora)


def _optimizer(states: list[_TrainableQuant], plan: CalibPlan) -> AdamW:
    lora, theta = [], []
    for st in states:
        lg, tg = st.params()
        lora += lg
        theta += tg
    groups = []
    if lora:
        groups.append((lora, plan.lr_lora, plan.weight_decay))
    groups.append((theta, plan.lr_theta, plan.weight_decay))
    return AdamW(groups)


def _collect_grads(states: list[_TrainableQuant], has_lora: bool) -> list[list]:
    lora, theta = [], []
    for st in states:
        lg, tg = st.grads()
        lora += lg
        theta += tg
    return [lora, theta] if has_lora else [theta]


def _batches(n: int, size: int):
    for start in range(0, n, size):
        yield start, min(start + size, n)


def apiq_lw_layer(layer: Linear, x_full: np.ndarray, x_q: np.ndarray,
                  plan: CalibPlan, spec: QuantSpec, rank: int,
                  stream: RngState) -> tuple[np.ndarray, np.ndarray, list[CalibLogRow]]:
    """Calibrate one linear layer in place; returns (Y, Y^q, log rows).

    Y is the full-precision output X W (saved for the next layer of the
    full path); Y^q is X^q (Q + A B^T) with the retained parameters, i.e.
    exactly what the frozen layer will produce at inference.
    """
    w = layer.weight
    y_full = x_full @ w
    state = _TrainableQuant.create(layer, spec, rank, stream, plan.clip_init)
    opt = _optimizer([state], plan)
    has_lora = rank > 0

    def full_loss() -> float:
        eff = state.effective_var(spec).value
        d = x_q @ eff - y_full
        return float((d.astype(np.float64) ** 2).mean())

    best = full_loss()
    best_state = state.snapshot()
    rows = [CalibLogRow(unit=layer.name, epoch=0, loss=best)]

    n = x_full.shape[0]
    for epoch in range(1, plan.epochs + 1):
        for bi, (lo, hi) in enumerate(_batches(n, plan.batch_size)):
            with ad.Tape() as tape:
                eff = state.effective_var(spec)
                yq = ad.matmul(ad.Var(x_q[lo:hi]), eff)
                loss = ad.mse(yq, y_full[lo:hi])
            if not np.isfinite(loss.value):
                raise NumericError(
                    f"non-finite loss at layer {layer.name}, epoch {epoch}, batch {bi}")
            ad.backward(tape, loss)
            opt.step(_collect_grads([state], has_lora))
        end = full_loss()
        rows.append(CalibLogRow(unit=layer.name, epoch=epoch, loss=end))
        if end < best:
            best = end
            best_state = state.snapshot()

    state.restore(best_state)
    state.freeze(spec)
    y_q = x_q @ layer.effective_weight()
    return y_full, y_q, rows


def apiq_bw_block(block: Block, x_full: np.ndarray, x_q: np.ndarray,
                  plan: CalibPlan, spec: QuantSpec, rank: int,
                  stream: RngState, rope_cos: np.ndarray, rope_sin: np.ndarray,
                  n_heads: int, unit: str) -> tuple[np.ndarray, np.ndarray, list[CalibLogRow]]:
    """Calibrate all seven projections of one block jointly, in place."""
    y_full = forward_block(block, ad.Var(x_full), rope_cos, rope_sin, n_heads).value
    ordered = [_TrainableQuant.create(lay, spec, rank, stream.derive(j), plan.clip_init)
               for j, lay in enumerate(block.layers.values())]
    opt = _optimizer(ordered, plan)
    has_lora = rank > 0

    def quant_forward(x: np.ndarray) -> ad.Var:
        effs = {st.layer.name: st.effective_var(spec) for st in ordered}

        def hook(layer: Linear, xv: ad.Var) -> ad.Var:
            return ad.matmul(xv, effs[layer.name])

        return forward_block(block, ad.Var(x), rope_cos, rope_sin, n_heads, hook=hook)

    def full_loss() -> float:
        d = quant_forward(x_q).value.astype(np.float64) - y_full
        return float((d * d).mean())

    best = full_loss()
    best_state = [st.snapshot() for st in ordered]
    rows = [CalibLogRow(unit=unit, epoch=0, loss=best)]

    n = x_full.shape[0]
    for epoch in range(1, plan.epochs + 1):
        for bi, (lo, hi) in enumerate(_batches(n, plan.batch_size)):
            with ad.Tape() as tape:
                out = quant_forward(x_q[lo:hi])
                loss = ad.mse(out, y_full[lo:hi])
            if not np.isfinite(loss.value):
                raise NumericError(
                    f"non-finite loss at block {unit}, epoch {epoch}, batch {bi}")
            ad.backward(tape, loss)
            opt.step(_collect_grads(ordered, has_lora))
        end = full_loss()
        rows.append(CalibLogRow(unit=unit, epoch=epoch, loss=end))
        if end < best:
            best = end
            best_state = [st.snapshot() for st in ordered]

    for st, saved in zip(ordered, best_state):
        st.restore(saved)
        st.freeze(spec)
    y_q = forward_block(block, ad.Var(x_q), rope_cos, rope_sin, n_heads).value
    return y_full, y_q, rows


# ---------------------------------------------------------------------------
# whole-model orchestration
# ---------------------------------------------------------------------------

def quantize_model(model: TinyTransformer, calib: CalibSet, plan: CalibPlan,
                   spec: QuantSpec, rank: int) -> tuple[TinyTransformer, list[CalibLogRow]]:
    """Quantize a full-precision model with the plan's method.

    The input model is left untouched; a quantized copy is returned along
    with the per-layer (or per-block) calibration log.
    """
    for lay in model.iter_layers():
        if lay.qstate is not None:
            raise ConfigError("model is already quantized")
        if lay.d1 % spec.group != 0:
            raise ConfigError(
                f"group size {spec.group} does not divide layer {lay.name} input dim")
        if rank > min(lay.d1, lay.d2):
            raise ConfigError(
                f"rank {rank} exceeds min dim of layer {lay.name}")

    student = copy.deepcopy(model)
    rng = RngState(plan.seed)
    rows: list[CalibLogRow] = []

    if plan.method in ("rtn", "qlora"):
        eff_rank = 0 if plan.method == "rtn" else rank
        for idx, lay in enumerate(student.iter_layers()):
            rtn_or_qlora_init(lay, spec, eff_rank, rng.derive(idx))
        return student, rows

    if plan.method == "loftq":
        for lay in student.iter_layers():
            loftq_init(lay, spec, rank, plan.loftq_iters)
        return student, rows

    capture = Capture()
    model.forward(calib.tokens, capture=capture)

    x_q = capture.block_inputs[0]
    if plan.method == "apiq-lw":
        taps = capture.by_name()
        stream_index = {name: idx for idx, name in enumerate(student.layers)}

        def hook(layer: Linear, xv: ad.Var) -> ad.Var:
            _, y_q, lrows = apiq_lw_layer(
                layer, taps[layer.name].x, xv.value, plan, spec, rank,
                rng.derive(stream_index[layer.name]))
            rows.extend(lrows)
            return ad.Var(y_q)

        for block in student.blocks:
            x_q = forward_block(block, ad.Var(x_q), student.rope_cos,
                                student.rope_sin, student.config.n_heads,
                                hook=hook).value
        return student, rows

    if plan.method == "apiq-bw":
        for i, block in enumerate(student.blocks):
            _, x_q, brows = apiq_bw_block(
                block, capture.block_inputs[i], x_q, plan, spec, rank,
                rng.derive(100 + i), student.rope_cos, student.rope_sin,
                student.config.n_heads, unit=block.name)
            rows.extend(brows)
        return student, rows

    raise ConfigError(f"unknown method {plan.method!r}")
