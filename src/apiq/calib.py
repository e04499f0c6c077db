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
full-precision block output. Both variants run one shared AdamW loop
(`_calibrate`) that tracks the epoch-end loss on the whole calibration set
(forwarded batch by batch, with the weights of that epoch's end) and keeps
the best-seen parameter state, so the retained loss never exceeds the
value at initialization. A non-finite batch or epoch-end loss is an error.

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
from .model import (Block, Linear, LoraPair, ModelConfig, QuantState,
                    TinyTransformer, forward_block, linear_apply, lora_delta)
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
        for name in ("lr_theta", "lr_lora"):
            lr = getattr(self, name)
            if not (math.isfinite(lr) and lr > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {lr!r}")


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
    """One layer's clip logits and adapter, with its weight's group extrema."""

    layer: Linear
    mins: np.ndarray
    maxs: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    lora: LoraPair | None

    @classmethod
    def create(cls, layer: Linear, spec: QuantSpec, rank: int,
               stream: RngState, clip_init: float) -> "_TrainableQuant":
        mins, maxs = group_minmax(layer.weight, spec.group)
        clip = ClipParams.init(spec, layer.d1, layer.d2, value=clip_init)
        return cls(layer=layer, mins=mins, maxs=maxs, gamma=clip.gamma,
                   beta=clip.beta, lora=_lora_default(layer.d1, layer.d2, rank, stream))

    def effective_var(self, spec: QuantSpec, leaves: dict[int, ad.Var]) -> ad.Var:
        """Tape expression Q(gamma, beta) + A B^T over the leaf Vars that
        `leaves` maps each trainable array's `id` to."""
        eff = ste_fake_quant(self.layer.weight, leaves[id(self.gamma)],
                             leaves[id(self.beta)], spec, self.mins, self.maxs)
        if self.lora is not None:
            a, b = leaves[id(self.lora.a)], leaves[id(self.lora.b)]
            eff = ad.add(eff, lora_delta(a, b, self.lora.alpha))
        return eff

    def freeze(self, spec: QuantSpec) -> None:
        clip = ClipParams(gamma=self.gamma, beta=self.beta)
        params = clip_to_params(self.mins, self.maxs, clip, spec)
        codes = quantize(self.layer.weight, params, spec)
        _freeze(self.layer, codes, params, clip, spec, self.lora)


def _calibrate(states: list[_TrainableQuant], forward, x_q: np.ndarray,
               y_full: np.ndarray, plan: CalibPlan, spec: QuantSpec,
               unit: str) -> list[CalibLogRow]:
    """Minimize MSE(forward(X^q) - Y) over the states' clip logits and
    adapters with AdamW; the loop both calibration variants share.

    `forward(x, effs)` maps a batch and one effective-weight expression
    per state to the unit's output. The loss on the whole set is taken
    after every epoch, one batch at a time into one f64 buffer; the best
    state seen (strictly lower loss) is restored and every state frozen. A
    non-finite loss raises NumericError naming the unit and epoch (and
    batch). Returns the per-epoch log.
    """
    lora = [p for st in states if st.lora is not None for p in (st.lora.a, st.lora.b)]
    theta = [p for st in states for p in (st.gamma, st.beta)]
    groups = [(ps, lr, plan.weight_decay)
              for ps, lr in ((lora, plan.lr_lora), (theta, plan.lr_theta)) if ps]
    opt = AdamW(groups)
    params = lora + theta
    batches = [slice(lo, lo + plan.batch_size)
               for lo in range(0, len(x_q), plan.batch_size)]
    diff = np.empty(y_full.shape, dtype=np.float64)

    def effective(leaf) -> tuple[list[ad.Var], dict[int, ad.Var]]:
        leaves = {id(p): leaf(p) for p in params}
        return [st.effective_var(spec, leaves) for st in states], leaves

    def full_loss(epoch: int) -> float:
        # per batch into one f64 buffer, squared in place: the values are
        # those of a whole-set forward, without its whole-set temporaries
        effs = effective(ad.Var)[0]
        for b in batches:
            diff[b] = forward(x_q[b], effs).value
        np.subtract(diff, y_full, out=diff)
        np.multiply(diff, diff, out=diff)
        loss = float(diff.mean())
        if not math.isfinite(loss):
            raise NumericError(f"non-finite loss at {unit}, epoch {epoch}")
        return loss

    best, best_state = full_loss(0), [p.copy() for p in params]
    rows = [CalibLogRow(unit=unit, epoch=0, loss=best)]
    for epoch in range(1, plan.epochs + 1):
        for bi, b in enumerate(batches):
            with ad.Tape() as tape:
                effs, leaves = effective(ad.param)
                loss = ad.mse(forward(x_q[b], effs), y_full[b])
            if not np.isfinite(loss.value):
                raise NumericError(f"non-finite loss at {unit}, epoch {epoch}, batch {bi}")
            ad.backward(tape, loss)
            opt.step([[leaves[id(p)].grad for p in ps] for ps, _, _ in groups])
        end = full_loss(epoch)
        rows.append(CalibLogRow(unit=unit, epoch=epoch, loss=end))
        if end < best:
            best, best_state = end, [p.copy() for p in params]

    for dst, src in zip(params, best_state):
        np.copyto(dst, src)
    for st in states:
        st.freeze(spec)
    return rows


def apiq_lw_layer(layer: Linear, x_full: np.ndarray, x_q: np.ndarray,
                  plan: CalibPlan, spec: QuantSpec, rank: int,
                  stream: RngState) -> tuple[np.ndarray, np.ndarray, list[CalibLogRow]]:
    """Calibrate one linear layer in place; returns (Y, Y^q, log rows).

    Y is the full-precision output X W (saved for the next layer of the
    full path); Y^q is X^q (Q + A B^T) with the retained parameters, i.e.
    exactly what the frozen layer will produce at inference.
    """
    y_full = x_full @ layer.weight
    state = _TrainableQuant.create(layer, spec, rank, stream, plan.clip_init)
    rows = _calibrate([state], lambda x, effs: ad.matmul(ad.Var(x), effs[0]),
                      x_q, y_full, plan, spec, layer.name)
    return y_full, x_q @ layer.effective_weight(), rows


def apiq_bw_block(block: Block, x_full: np.ndarray, x_q: np.ndarray,
                  plan: CalibPlan, spec: QuantSpec, rank: int, stream: RngState,
                  cfg: ModelConfig, unit: str) -> tuple[np.ndarray, np.ndarray, list[CalibLogRow]]:
    """Calibrate all seven projections of one block jointly, in place;
    returns (Y, Y^q, log rows), the block's full-precision output and its
    frozen output on X^q."""
    y_full = forward_block(block, ad.Var(x_full), cfg).value
    states = [_TrainableQuant.create(lay, spec, rank, stream.derive(j), plan.clip_init)
              for j, lay in enumerate(block.layers.values())]

    def forward(x: np.ndarray, effs: list[ad.Var]) -> ad.Var:
        by_name = {st.layer.name: eff for st, eff in zip(states, effs)}
        return forward_block(block, ad.Var(x), cfg,
                             hook=lambda layer, xv: ad.matmul(xv, by_name[layer.name]))

    rows = _calibrate(states, forward, x_q, y_full, plan, spec, unit)
    y_q = forward_block(block, ad.Var(x_q), cfg).value
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
        if not np.isfinite(lay.weight).all():
            raise NumericError(f"non-finite weight in layer {lay.name}")
        if lay.d1 % spec.group != 0:
            raise ConfigError(
                f"group size {spec.group} does not divide layer {lay.name} input dim")
        if rank > min(lay.d1, lay.d2):
            raise ConfigError(
                f"rank {rank} exceeds min dim of layer {lay.name}")
    for name, owner, attr in model.named_tensors():
        if not isinstance(owner, Linear) and not np.isfinite(getattr(owner, attr)).all():
            raise NumericError(f"non-finite tensor {name}")

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

    # X and X^q walk the blocks together; each block is still full
    # precision when it computes the next X
    x_full = x_q = model.embed_tokens(calib.tokens).value
    cfg = student.config
    if plan.method == "apiq-lw":
        stream_index = {name: idx for idx, name in enumerate(student.layers)}
        x_in: dict[str, np.ndarray] = {}

        def record(layer: Linear, xv: ad.Var) -> ad.Var:
            x_in[layer.name] = xv.value
            return linear_apply(layer, xv)

        def calibrate(layer: Linear, xv: ad.Var) -> ad.Var:
            _, y_q, lrows = apiq_lw_layer(
                layer, x_in[layer.name], xv.value, plan, spec, rank,
                rng.derive(stream_index[layer.name]))
            rows.extend(lrows)
            return ad.Var(y_q)

        for block in student.blocks:
            x_full = forward_block(block, ad.Var(x_full), cfg, hook=record).value
            x_q = forward_block(block, ad.Var(x_q), cfg, hook=calibrate).value
        return student, rows

    if plan.method == "apiq-bw":
        for i, block in enumerate(student.blocks):
            x_full, x_q, brows = apiq_bw_block(
                block, x_full, x_q, plan, spec, rank, rng.derive(100 + i), cfg,
                unit=block.name)
            rows.extend(brows)
        return student, rows

    raise ConfigError(f"unknown method {plan.method!r}")
