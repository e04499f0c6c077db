"""Toy language-model training: byte-level pretraining of the full model
and adapter-only finetuning of a quantized model.

Finetuning trains the low-rank adapters at the selected positions only
(attn = q/k/v/o, ffn = gate/up/down); everything else, in particular the
packed codes and their scales/zero-points, is never touched. Both take
each step through `AdamW.minimize` on the next-token cross-entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .calib import AdamW
from .errors import ConfigError, InputError, check_fields
from .evals import perplexity
from .model import ATTN_LAYERS, MLP_LAYERS, TinyTransformer
from .rng import RngState

POSITIONS = {"all": ATTN_LAYERS + MLP_LAYERS, "attn": ATTN_LAYERS, "ffn": MLP_LAYERS}
SCHEDULES = ("static", "cosine")


# a batch or length below 1 fails in numpy, a negative count, rate or decay is pointless
@dataclass
class PretrainPlan:
    steps: int = field(default=2000, metadata={"lo": 0})
    lr: float = field(default=0.001, metadata={"lo": 0})
    batch: int = field(default=8, metadata={"lo": 1})
    seq_len: int = field(default=128, metadata={"lo": 1})
    weight_decay: float = field(default=0.1, metadata={"lo": 0})
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


@dataclass
class FinetunePlan:
    epochs: int = field(default=3, metadata={"lo": 0})
    lr: float = field(default=0.001, metadata={"lo": 0})
    batch: int = field(default=8, metadata={"lo": 1})
    seq_len: int = field(default=128, metadata={"lo": 1})
    lora_position: str = field(default="all", metadata={"choices": POSITIONS})
    weight_decay: float = field(default=0.1, metadata={"lo": 0})
    schedule: str = field(default="static", metadata={"choices": SCHEDULES})
    warmup: float = field(default=0.03, metadata={"lo": 0, "hi": 1})  # of all steps
    seed: int = 0

    def __post_init__(self):
        check_fields(self)


@dataclass
class TrainLogRow:
    epoch: int
    step: int
    loss: float
    ppl: float | None = None


def pretrain(model: TinyTransformer, corpus: np.ndarray,
             plan: PretrainPlan) -> list[TrainLogRow]:
    """AdamW + cross-entropy next-token training on random corpus windows."""
    if len(corpus) < 4 * plan.seq_len:
        raise InputError(
            f"corpus has {len(corpus)} bytes, need at least {4 * plan.seq_len}")
    params = [getattr(owner, attr) for _, owner, attr in model.named_tensors()]
    opt = AdamW([(params, plan.lr, plan.weight_decay)])
    rng = RngState(plan.seed).derive(0x7121)

    rows = []
    for step in range(plan.steps):
        starts = rng.randint(0, len(corpus) - plan.seq_len, (plan.batch,))
        window = np.stack([corpus[s: s + plan.seq_len + 1] for s in starts])
        loss = opt.minimize(_next_token_loss(model, window), f"pretraining step {step}")
        rows.append(TrainLogRow(epoch=0, step=step, loss=loss))
    return rows


def finetune(model: TinyTransformer, corpus: np.ndarray, eval_corpus: np.ndarray,
             plan: FinetunePlan, chunk_len: int, on_epoch=None) -> list[TrainLogRow]:
    """Adapter-only finetuning; quantized codes stay frozen by construction.

    Each epoch visits all non-overlapping (seq_len + 1)-byte windows in a
    seeded shuffled order; the per-epoch perplexity on `eval_corpus` is
    recorded (and passed to `on_epoch` when given).
    """
    seq_len, batch, schedule = plan.seq_len, plan.batch, plan.schedule
    adapters = [block.layers[lname].lora for block in model.blocks
                for lname in POSITIONS[plan.lora_position]
                if block.layers[lname].lora is not None]
    if not adapters:
        raise ConfigError(f"no trainable adapters at position {plan.lora_position!r}")
    params = [p for pair in adapters for p in (pair.a, pair.b)]
    opt = AdamW([(params, plan.lr, plan.weight_decay)])
    rng = RngState(plan.seed).derive(0xF17E)

    n_windows = (len(corpus) - 1) // seq_len
    if n_windows < 1:
        raise InputError("corpus shorter than one finetuning window")
    steps_per_epoch = math.ceil(n_windows / batch)
    total_steps = plan.epochs * steps_per_epoch
    warm_steps = max(1, int(round(plan.warmup * total_steps))) if schedule == "cosine" else 0

    rows = []
    step = 0
    for epoch in range(1, plan.epochs + 1):
        order = np.argsort(rng.uniform((n_windows,)), kind="stable")
        for lo in range(0, n_windows, batch):
            idx = order[lo: lo + batch]
            window = np.stack([corpus[i * seq_len: i * seq_len + seq_len + 1]
                               for i in idx])
            loss = opt.minimize(_next_token_loss(model, window),
                                f"finetuning epoch {epoch}, step {step}",
                                _lr_factor(schedule, step, total_steps, warm_steps))
            rows.append(TrainLogRow(epoch=epoch, step=step, loss=loss))
            step += 1
        ppl = perplexity(model, eval_corpus, chunk_len)
        rows.append(TrainLogRow(epoch=epoch, step=step, loss=float("nan"), ppl=ppl))
        if on_epoch is not None:
            on_epoch(epoch, ppl)
    return rows


def _next_token_loss(model: TinyTransformer, window: np.ndarray):
    """The cross-entropy of each window's next byte, as a function of the
    arrays the optimizer binds."""
    return lambda bound: ad.cross_entropy(model.forward(window[:, :-1], trainable=bound),
                                          window[:, 1:])


def _lr_factor(schedule: str, step: int, total: int, warm: int) -> float:
    if schedule != "cosine":
        return 1.0
    if step < warm:
        return (step + 1) / warm
    span = max(1, total - warm)
    return 0.5 * (1.0 + math.cos(math.pi * (step - warm) / span))
