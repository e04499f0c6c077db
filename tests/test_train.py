import tracemalloc

import numpy as np
import pytest

from apiq import train
from apiq.calib import AdamW, CalibPlan, CalibSet, quantize_model
from apiq.errors import NumericError
from apiq.model import ModelConfig, TinyTransformer
from apiq.quant import QuantSpec
from apiq.rng import RngState


def _default_shape_step_peak() -> int:
    """tracemalloc peak of one pretraining step (`AdamW.minimize`) at the
    default model and batch shapes, after a warm-up step fills the
    per-length caches."""
    model = TinyTransformer.init(ModelConfig(), seed=0)
    params = [getattr(owner, attr) for _, owner, attr in model.named_tensors()]
    opt = AdamW([(params, 1e-3, 0.1)])
    window = RngState(1).randint(0, 256, (8, 129))
    opt.minimize(train._next_token_loss(model, window), "warm-up step")
    tracemalloc.start()
    try:
        opt.minimize(train._next_token_loss(model, window), "measured step")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_default_shape_step_peak_memory():
    """One pretraining step at the default model and batch shapes peaks
    below 20 MiB: the backward frees each tape entry's saved arrays as it
    goes back. It peaked at 26.5 MiB when they all lived until the
    optimizer step returned."""
    peak = _default_shape_step_peak()
    assert peak < 20 * 2**20, peak


def test_default_shape_step_keeps_no_recomputable_arrays():
    """The same step peaks below 17 MiB (about 14.5 MiB): attention keeps no
    rotated q/k, `silu` no sigmoid, and the cross-entropy backward writes
    its gradient over the forward's exponentials. It peaked at 18.05 MiB
    with those arrays kept and the softmax recomputed."""
    peak = _default_shape_step_peak()
    assert peak < 17 * 2**20, peak


def test_squared_gradient_overflow_aborts_before_numpy_warns(corpus_tokens,
                                                            optimized_arrays):
    """An adapter factor of 3e38 keeps the loss and every gradient finite
    (B = 0), but B's gradient squares past f32's range in AdamW's second
    moment: the step raises NumericError naming it and changes no array."""
    model = TinyTransformer.init(ModelConfig(d_model=16, n_heads=2, d_ff=32,
                                             n_blocks=1, max_seq=32), seed=0)
    qmodel, _ = quantize_model(model, CalibSet(tokens=np.zeros((1, 4), np.int64)),
                               CalibPlan(method="qlora"), QuantSpec(group=8, rank=2))
    qmodel.blocks[0].layers["q"].lora.a[0, 0] = 3e38
    corpus = corpus_tokens[:2000]
    plan = train.FinetunePlan(epochs=1, batch=4, seq_len=16)
    with pytest.raises(NumericError, match="at finetuning epoch 1, step 0$"):
        train.finetune(qmodel, corpus, corpus, plan, chunk_len=16)
    assert len(optimized_arrays) == 2 * 7
    assert all(np.array_equal(p, before) for p, before in optimized_arrays)
