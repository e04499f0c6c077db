"""The quantization step: LoftQ, whose first step from A B^T = 0 is
round-to-nearest (`rtn` is `loftq_init` at rank 0, and `qlora` those codes
with the default adapter), and the two activation-preserving calibrations
(layer-wise and block-wise).

Layer-wise calibration minimizes, per linear layer and in dataflow order,

    MSE( X W  -  X^q (Q + A B^T) )

over the adapter factors and the clipping logits, where X is the
full-precision input to the layer, X^q the input propagated through the
already-quantized prefix of the network, and Q the fake-quantized weight
(straight-through rounding, scale and zero-point recomputed from the
current clipping logits on every batch). A layer-wise step takes this
loss and its gradient in W_eff = Q + A B^T from the batch's second
moments X^q^T X^q and X^q^T X W (`ad.gram_mse`), with no forward over the
batch. The block-wise variant optimizes all seven projections of a
transformer block jointly against the full-precision block output. Both
variants run one shared AdamW loop (`_calibrate`) that tracks the
epoch-end loss on the whole calibration set (taken directly, with the
weights of that epoch's end) and keeps the best-seen parameter state, so
the retained loss never exceeds the value at initialization. Each batch
is one `AdamW.minimize`, the step training takes too; a non-finite step
or epoch-end loss is an error.

Adapters start from the standard low-rank-adapter default (A uniform in
+-1/sqrt(d1), B = 0) so the initial loss equals the pure-quantization
loss; clipping logits start at 4 (sigmoid ~ 0.98). All randomness derives
from a single seed split per layer, so runs are bitwise reproducible.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InputError, NumericError, check_fields
from .linalg import group_minmax, truncated_svd
from .model import (Block, Linear, LoraPair, ModelConfig, QuantState,
                    TinyTransformer, _bound, forward_block, linear_apply, w_eff)
from .quant import (ClipParams, QuantSpec, clip_to_params, dequantize,
                    pack, quantize, ste_fake_quant)
from .rng import RngState

METHODS = ("apiq-lw", "apiq-bw", "loftq", "rtn", "qlora")


@dataclass
class CalibPlan:
    method: str = field(default="apiq-bw", metadata={"choices": METHODS})
    epochs: int = field(default=20, metadata={"lo": 0})
    batch: int = field(default=4, metadata={"lo": 1})
    lr_theta: float = field(default=0.005, metadata={"above": 0})
    lr_lora: float = field(default=0.001, metadata={"above": 0})
    weight_decay: float = field(default=0.1, metadata={"lo": 0})
    loftq_iters: int = field(default=5, metadata={"lo": 0})
    samples: int = field(default=16, metadata={"lo": 1})
    seq_len: int = field(default=128, metadata={"lo": 1})
    seed: int = 0
    clip_init: float = 4.0

    def __post_init__(self):
        check_fields(self)
        if self.method in ("apiq-lw", "apiq-bw") and self.epochs < 1:
            raise ConfigError(f"method {self.method} needs epochs >= 1, got {self.epochs}")


@dataclass
class CalibSet:
    """Token windows driving the activation-matching optimization."""

    tokens: np.ndarray  # (n_samples, seq_len)


def sample_calib(corpus_tokens: np.ndarray, n_samples: int, seq_len: int,
                 seed: int) -> CalibSet:
    """Deterministically sample fixed-length windows from the corpus. The
    set may hold no more tokens than the corpus, which bounds the buffers
    that calibration allocates per sample."""
    corpus_tokens = np.asarray(corpus_tokens)
    if len(corpus_tokens) < seq_len:
        raise InputError(f"corpus shorter than one window ({seq_len} tokens)")
    if n_samples * seq_len > len(corpus_tokens):
        raise InputError(f"{n_samples} samples of {seq_len} tokens exceed the "
                         f"corpus of {len(corpus_tokens)} tokens")
    rng = RngState(seed).derive(0xCA11B)
    starts = rng.randint(0, len(corpus_tokens) - seq_len + 1, (n_samples,))
    rows = np.stack([corpus_tokens[s:s + seq_len] for s in starts])
    return CalibSet(tokens=rows)


class AdamW:
    """Decoupled-weight-decay Adam updating numpy arrays in place.

    Each group is (params, lr, weight_decay) and grads are passed aligned
    with it; `minimize` is the one taped step.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, groups: list[tuple[list[np.ndarray], float, float]]):
        self.groups = groups
        self.t = 0
        self.m = [[np.zeros_like(p) for p in params] for params, _, _ in groups]
        self.v = [[np.zeros_like(p) for p in params] for params, _, _ in groups]

    def step(self, grads: list[list[np.ndarray | None]], lr_scale: float = 1.0) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for (params, base_lr, wd), ms, vs, gs in zip(self.groups, self.m, self.v, grads):
            lr = base_lr * lr_scale
            for p, m, v, g in zip(params, ms, vs, gs):
                if wd:
                    p *= (1.0 - lr * wd)
                if g is None:
                    continue
                m += (1.0 - self.BETA1) * (g - m)
                v += (1.0 - self.BETA2) * (g * g - v)
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)

    def minimize(self, loss_of, where: str, lr_scale: float = 1.0) -> float:
        """One step on the scalar `loss_of(bound)` recorded on a tape, `bound`
        mapping id(array) to the Var read in place of each optimizer array
        (see `model._bound`); returns the loss. A loss or gradient that is not
        finite, or whose square (the second moment) is not, raises
        NumericError naming `where` before numpy warns or any array changes.
        Only the tape holds the forward's intermediates, it keeps none that
        its backward recomputes cheaply (rotated q/k, the SiLU gate's
        sigmoid), and `backward` frees each entry's saved arrays as it goes
        back, so a pretraining step at the default shapes peaks at about
        14.5 MiB; `cli.main` keeps freed heap memory in the process, so the
        next step reuses it instead of faulting it back in.
        """
        bound = {id(p): ad.param(p) for params, _, _ in self.groups for p in params}
        with np.errstate(over="ignore", invalid="ignore"):
            with ad.Tape() as tape:
                loss = loss_of(bound)
            finite = np.isfinite(loss.value)
            if finite:
                ad.backward(tape, loss)
                grads = [[bound[id(p)].grad for p in params] for params, _, _ in self.groups]
                # g * g is finite where its peak's square is (rounding is monotone)
                finite = all(np.isfinite(np.square(np.maximum(-g.min(), g.max())))
                             for gs in grads for g in gs if g is not None)
        if not finite:
            raise NumericError(f"non-finite loss or gradient at {where}")
        self.step(grads, lr_scale)
        return float(loss.value)


# ---------------------------------------------------------------------------
# data-free initializations
# ---------------------------------------------------------------------------

def _freeze(layer: Linear, codes: np.ndarray, params, clip, spec: QuantSpec,
            lora: LoraPair | None) -> None:
    layer.qstate = QuantState(codes=pack(codes, spec), params=params, clip=clip)
    layer.weight = None
    layer.lora = lora


def _lora_default(d1: int, d2: int, rank: int, stream: RngState) -> LoraPair | None:
    if rank == 0:
        return None
    bound = 1.0 / math.sqrt(d1)
    a = stream.uniform((d1, rank), -bound, bound).astype(np.float32)
    return LoraPair(a=a, b=np.zeros((d2, rank), dtype=np.float32))


def loftq_init(layer: Linear, spec: QuantSpec, rank: int, iters: int) -> None:
    """Alternate Q <- f(W - A B^T) and (A, B) <- top-r SVD of (W - Q),
    starting from A = B = 0, ending on the SVD step. The first step
    quantizes W itself: at rank 0 it is the last, and leaves the
    round-to-nearest codes with no adapter."""
    w = layer.weight
    a = np.zeros((layer.d1, rank), dtype=np.float32)
    b = np.zeros((layer.d2, rank), dtype=np.float32)
    for _ in range(max(1, iters)):
        target = w - a @ b.T if rank else w
        mins, maxs = group_minmax(target, spec.group)
        params = clip_to_params(mins, maxs, None, spec)
        codes = quantize(target, params, spec)
        if rank == 0:
            break
        residual = w - dequantize(codes, params)
        if not residual.any():
            break
        res = truncated_svd(residual.astype(np.float64), rank)
        a = (res.u * res.s).astype(np.float32)
        b = res.v.astype(np.float32)
    lora = LoraPair(a=a, b=b) if rank else None
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
    """One layer's clip logits and its weight's group extrema; the layer
    carries its adapter while it calibrates."""

    layer: Linear
    mins: np.ndarray
    maxs: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray

    @classmethod
    def create(cls, layer: Linear, spec: QuantSpec, rank: int,
               stream: RngState, clip_init: float) -> "_TrainableQuant":
        """Clip logits for `layer`, and its default adapter attached."""
        mins, maxs = group_minmax(layer.weight, spec.group)
        clip = ClipParams.init(spec, layer.d1, layer.d2, value=clip_init)
        layer.lora = _lora_default(layer.d1, layer.d2, rank, stream)
        return cls(layer=layer, mins=mins, maxs=maxs, gamma=clip.gamma, beta=clip.beta)

    def freeze(self, spec: QuantSpec) -> None:
        clip = ClipParams(gamma=self.gamma, beta=self.beta)
        params = clip_to_params(self.mins, self.maxs, clip, spec)
        codes = quantize(self.layer.weight, params, spec)
        _freeze(self.layer, codes, params, clip, spec, self.layer.lora)


def _batches(n: int, size: int) -> list[slice]:
    return [slice(lo, lo + size) for lo in range(0, n, size)]


def _set_loss(forward, x_q: np.ndarray, y_full: np.ndarray, batches: list[slice]):
    """The loss on the whole set, mean((forward(X^q, bound) - Y)^2) in f64
    as a function of `bound`: each batch's difference is taken in f64 into
    one buffer and squared in place, the values of a whole-set forward
    without its whole-set temporaries."""
    diff = np.empty(y_full.shape, dtype=np.float64)

    def loss(bound) -> float:
        for b in batches:
            d = np.subtract(forward(x_q[b], bound).value, y_full[b], out=diff[b],
                            dtype=np.float64)
            np.multiply(d, d, out=d)
        return float(diff.mean())

    return loss


def _calibrate(states: list[_TrainableQuant], step_loss, set_loss, n_batches: int,
               plan: CalibPlan, spec: QuantSpec, unit: str) -> list[CalibLogRow]:
    """Minimize the unit's output MSE over the states' clip logits and
    adapters with AdamW; the loop both calibration variants share.

    `step_loss(i, trainable)` is batch i's loss, one `AdamW.minimize` step
    each, and `set_loss(trainable)` the loss on the whole set as a float;
    `bind` adds each state's weight, as its fake-quant expression, to the
    `trainable` it is given (see `model.w_eff`), an empty one for the set
    loss. The set loss is taken after every epoch; the best state seen
    (strictly lower loss) is restored and every state frozen. A non-finite
    set loss, or a step whose loss or gradients are non-finite, raises
    NumericError naming the unit and epoch (and batch), before numpy
    warns. Returns the per-epoch log.
    """
    adapters = [st.layer.lora for st in states if st.layer.lora is not None]
    lora = [p for pair in adapters for p in (pair.a, pair.b)]
    theta = [p for st in states for p in (st.gamma, st.beta)]
    opt = AdamW([(ps, lr, plan.weight_decay)
                 for ps, lr in ((lora, plan.lr_lora), (theta, plan.lr_theta)) if ps])
    params = lora + theta

    def bind(bound: dict[int, ad.Var]) -> dict[int, ad.Var]:
        for st in states:
            bound[id(st.layer.weight)] = ste_fake_quant(
                st.layer.weight, _bound(st.gamma, bound), _bound(st.beta, bound), spec,
                st.mins, st.maxs)
        return bound

    def full_loss(epoch: int) -> float:
        loss = set_loss(bind({}))
        if not math.isfinite(loss):
            raise NumericError(f"non-finite loss at {unit}, epoch {epoch}")
        return loss

    best, best_state = full_loss(0), [p.copy() for p in params]
    rows = [CalibLogRow(unit=unit, epoch=0, loss=best)]
    for epoch in range(1, plan.epochs + 1):
        for i in range(n_batches):
            opt.minimize(lambda bound: step_loss(i, bind(bound)),
                         f"{unit}, epoch {epoch}, batch {i}")
        end = full_loss(epoch)
        rows.append(CalibLogRow(unit=unit, epoch=epoch, loss=end))
        if end < best:
            best, best_state = end, [p.copy() for p in params]

    for dst, src in zip(params, best_state):
        np.copyto(dst, src)
    for st in states:
        st.freeze(spec)
    return rows


def _second_moments(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, int]:
    """(X^T X, X^T Y, |Y|^2, Y.size) in f64 of one batch of layer inputs X
    and targets Y, the arguments of `ad.gram_mse` after W."""
    x = x.reshape(-1, x.shape[-1]).astype(np.float64)
    y = y.reshape(-1, y.shape[-1]).astype(np.float64)
    return x.T @ x, x.T @ y, float(np.vdot(y, y)), y.size


def apiq_lw_layer(layer: Linear, y_full: np.ndarray, x_q: np.ndarray,
                  plan: CalibPlan, spec: QuantSpec, rank: int,
                  stream: RngState) -> tuple[np.ndarray, list[CalibLogRow]]:
    """Calibrate one linear layer in place against its full-precision
    output Y = X W; returns (Y^q, log rows).

    A step's loss mse(X^q_b W_eff, Y_b) comes from batch b's second moments
    (`ad.gram_mse`), so it runs no forward over the batch; the epoch-end
    loss is the direct one, X^q W_eff in one product. Y^q is X^q (Q + A B^T)
    with the retained parameters, i.e. exactly what the frozen layer will
    produce at inference.
    """
    state = _TrainableQuant.create(layer, spec, rank, stream, plan.clip_init)
    batches = _batches(len(x_q), plan.batch)
    moments = [_second_moments(x_q[b], y_full[b]) for b in batches]
    rows = _calibrate(
        [state], lambda i, bound: ad.gram_mse(w_eff(layer, bound), *moments[i]),
        _set_loss(lambda x, bound: linear_apply(layer, ad.Var(x), bound),
                  x_q, y_full, [slice(None)]),
        len(batches), plan, spec, layer.name)
    return x_q @ layer.effective_weight(), rows


def apiq_bw_block(block: Block, x_full: np.ndarray, x_q: np.ndarray,
                  plan: CalibPlan, spec: QuantSpec, rank: int, stream: RngState,
                  cfg: ModelConfig, unit: str) -> tuple[np.ndarray, np.ndarray, list[CalibLogRow]]:
    """Calibrate all seven projections of one block jointly, in place;
    returns (Y, Y^q, log rows), the block's full-precision output and its
    frozen output on X^q."""
    y_full = forward_block(block, ad.Var(x_full), cfg).value
    states = [_TrainableQuant.create(lay, spec, rank, stream.derive(j), plan.clip_init)
              for j, lay in enumerate(block.layers.values())]
    batches = _batches(len(x_q), plan.batch)

    def forward(x, bound):
        return forward_block(block, ad.Var(x), cfg, trainable=bound)

    rows = _calibrate(
        states, lambda i, bound: ad.mse(forward(x_q[batches[i]], bound), y_full[batches[i]]),
        _set_loss(forward, x_q, y_full, batches), len(batches), plan, spec, unit)
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
    student.quant = spec
    rng = RngState(plan.seed)
    rows: list[CalibLogRow] = []

    if plan.method in ("rtn", "qlora", "loftq"):
        # rtn and qlora: LoftQ's first step, then qlora's default adapter
        loftq_rank = rank if plan.method == "loftq" else 0
        for idx, lay in enumerate(student.iter_layers()):
            loftq_init(lay, spec, loftq_rank, plan.loftq_iters)
            if plan.method == "qlora":
                lay.lora = _lora_default(lay.d1, lay.d2, rank, rng.derive(idx))
        return student, rows

    # X and X^q walk the blocks together; each block is still full
    # precision when it computes the next X
    x_full = x_q = model.embed_tokens(calib.tokens).value
    cfg = student.config
    if plan.method == "apiq-lw":
        stream_index = {name: idx for idx, name in enumerate(student.layers)}
        y_out: dict[str, np.ndarray] = {}

        def record(layer: Linear, xv: ad.Var) -> ad.Var:
            y = linear_apply(layer, xv)
            y_out[layer.name] = y.value
            return y

        def calibrate(layer: Linear, xv: ad.Var) -> ad.Var:
            y_q, lrows = apiq_lw_layer(
                layer, y_out.pop(layer.name), xv.value, plan, spec, rank,
                rng.derive(stream_index[layer.name]))
            rows.extend(lrows)
            return ad.Var(y_q)

        for block in student.blocks:
            x_full = forward_block(block, ad.Var(x_full), cfg, hook=record).value
            x_q = forward_block(block, ad.Var(x_q), cfg, hook=calibrate).value
        return student, rows

    # apiq-bw, the one method left of `METHODS`
    for i, block in enumerate(student.blocks):
        x_full, x_q, brows = apiq_bw_block(
            block, x_full, x_q, plan, spec, rank, rng.derive(100 + i), cfg,
            unit=block.name)
        rows.extend(brows)
    return student, rows
