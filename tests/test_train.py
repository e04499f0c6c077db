import tracemalloc

from apiq import train
from apiq.calib import AdamW
from apiq.model import ModelConfig, TinyTransformer
from apiq.rng import RngState


def test_default_shape_step_peak_memory():
    """One pretraining step at the default model and batch shapes peaks
    below 20 MiB (about 18 MiB): the backward frees each tape entry's saved
    arrays as it goes back. It peaked at 26.5 MiB when they all lived until
    the optimizer step returned."""
    model = TinyTransformer.init(ModelConfig(), seed=0)
    params = [getattr(owner, attr) for _, owner, attr in model.named_tensors()]
    opt = AdamW([(params, 1e-3, 0.1)])
    window = RngState(1).randint(0, 256, (8, 129))
    train._step(model, opt, params, window, "warm-up step")  # per-length caches
    tracemalloc.start()
    try:
        train._step(model, opt, params, window, "measured step")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20, peak
