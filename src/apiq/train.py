"""Toy language-model training: byte-level pretraining of the full model
and adapter-only finetuning of a quantized model.

Finetuning trains the low-rank adapters at the selected positions only
(attn = q/k/v/o, ffn = gate/up/down); everything else, in particular the
packed codes and their scales/zero-points, is never touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .calib import AdamW
from .errors import ConfigError, InputError, NumericError
from .evals import perplexity
from .model import ATTN_LAYERS, MLP_LAYERS, TinyTransformer
from .rng import RngState

POSITIONS = {"all": ATTN_LAYERS + MLP_LAYERS, "attn": ATTN_LAYERS, "ffn": MLP_LAYERS}


@dataclass
class TrainLogRow:
    epoch: int
    step: int
    loss: float
    ppl: float | None = None


def pretrain(model: TinyTransformer, corpus: np.ndarray, steps: int,
             lr: float, batch: int, seq_len: int, weight_decay: float,
             seed: int) -> list[TrainLogRow]:
    """AdamW + cross-entropy next-token training on random corpus windows."""
    if len(corpus) < 4 * seq_len:
        raise InputError(
            f"corpus has {len(corpus)} bytes, need at least {4 * seq_len}")
    if seq_len + 1 > len(corpus):
        raise InputError("corpus shorter than one training window")
    params = {name: getattr(owner, attr) for name, owner, attr in model.named_tensors()}
    opt = AdamW([(list(params.values()), lr, weight_decay)])
    rng = RngState(seed).derive(0x7121)

    rows = []
    for step in range(steps):
        starts = rng.randint(0, len(corpus) - seq_len - 1 + 1, (batch,))
        window = np.stack([corpus[s: s + seq_len + 1] for s in starts])
        inputs, targets = window[:, :-1], window[:, 1:]
        trainable = {n: ad.param(a) for n, a in params.items()}
        with ad.Tape() as tape:
            logits = model.forward(inputs, trainable=trainable)
            loss = ad.cross_entropy(logits, targets)
        if not np.isfinite(loss.value):
            raise NumericError(f"non-finite pretraining loss at step {step}")
        ad.backward(tape, loss)
        opt.step([[v.grad for v in trainable.values()]])
        rows.append(TrainLogRow(epoch=0, step=step, loss=float(loss.value)))
    return rows


def finetune(model: TinyTransformer, corpus: np.ndarray, eval_corpus: np.ndarray,
             epochs: int, lr: float, batch: int, seq_len: int,
             weight_decay: float, position: str, schedule: str,
             warmup: float, seed: int, chunk_len: int,
             on_epoch=None) -> list[TrainLogRow]:
    """Adapter-only finetuning; quantized codes stay frozen by construction.

    Each epoch visits all non-overlapping (seq_len + 1)-byte windows in a
    seeded shuffled order; the per-epoch perplexity on `eval_corpus` is
    recorded (and passed to `on_epoch` when given).
    """
    if position not in POSITIONS:
        raise ConfigError(f"unknown lora position {position!r}")
    params = {}
    for block in model.blocks:
        for lname in POSITIONS[position]:
            lay = block.layers[lname]
            if lay.lora is not None and lay.lora.rank > 0:
                params[f"{lay.name}.lora_a"] = lay.lora.a
                params[f"{lay.name}.lora_b"] = lay.lora.b
    if not params:
        raise ConfigError(f"no trainable adapters at position {position!r}")
    opt = AdamW([(list(params.values()), lr, weight_decay)])
    rng = RngState(seed).derive(0xF17E)

    n_windows = (len(corpus) - 1) // seq_len
    if n_windows < 1:
        raise InputError("corpus shorter than one finetuning window")
    steps_per_epoch = math.ceil(n_windows / batch)
    total_steps = epochs * steps_per_epoch
    warm_steps = max(1, int(round(warmup * total_steps))) if schedule == "cosine" else 0

    rows = []
    step = 0
    for epoch in range(1, epochs + 1):
        order = np.argsort(rng.uniform((n_windows,)), kind="stable")
        for lo in range(0, n_windows, batch):
            idx = order[lo: lo + batch]
            window = np.stack([corpus[i * seq_len: i * seq_len + seq_len + 1]
                               for i in idx])
            inputs, targets = window[:, :-1], window[:, 1:]
            trainable = {n: ad.param(a) for n, a in params.items()}
            with ad.Tape() as tape:
                logits = model.forward(inputs, trainable=trainable)
                loss = ad.cross_entropy(logits, targets)
            if not np.isfinite(loss.value):
                raise NumericError(
                    f"non-finite finetuning loss at epoch {epoch}, step {step}")
            ad.backward(tape, loss)
            factor = _lr_factor(schedule, step, total_steps, warm_steps)
            opt.step([[v.grad for v in trainable.values()]], lr_scale=factor)
            rows.append(TrainLogRow(epoch=epoch, step=step, loss=float(loss.value)))
            step += 1
        ppl = perplexity(model, eval_corpus, chunk_len)
        rows.append(TrainLogRow(epoch=epoch, step=step, loss=float("nan"), ppl=ppl))
        if on_epoch is not None:
            on_epoch(epoch, ppl)
    return rows


def _lr_factor(schedule: str, step: int, total: int, warm: int) -> float:
    if schedule != "cosine":
        return 1.0
    if step < warm:
        return (step + 1) / warm
    span = max(1, total - warm)
    return 0.5 * (1.0 + math.cos(math.pi * (step - warm) / span))
