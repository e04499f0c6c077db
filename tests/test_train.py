import tracemalloc

from apiq import train
from apiq.calib import AdamW
from apiq.model import ModelConfig, TinyTransformer
from apiq.rng import RngState


def _default_shape_step_peak() -> int:
    """tracemalloc peak of one pretraining step at the default model and
    batch shapes, after a warm-up step fills the per-length caches."""
    model = TinyTransformer.init(ModelConfig(), seed=0)
    params = [getattr(owner, attr) for _, owner, attr in model.named_tensors()]
    opt = AdamW([(params, 1e-3, 0.1)])
    window = RngState(1).randint(0, 256, (8, 129))
    train._step(model, opt, params, window, "warm-up step")
    tracemalloc.start()
    try:
        train._step(model, opt, params, window, "measured step")
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
