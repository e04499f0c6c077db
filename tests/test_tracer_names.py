"""The benchmark tracer (perfbench/tracer.py) patches apiq functions by name;
a refactor that removes or renames one must fail here, not only in a traced
benchmark run."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

# every module `Tracer.install` imports, so the bindings compared below are
# all loaded before it runs
from apiq import autodiff, calib, evals, linalg, model, model_io, quant, train  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_named_primitives_and_functions_exist(tracer):
    for prim in tracer.PRIMITIVES + tracer.OTHER_PRIMITIVES:
        assert callable(getattr(autodiff, prim, None)), f"autodiff.{prim}"
    for fn in tracer.QUANT_FUNCS:
        assert callable(getattr(quant, fn, None)), f"quant.{fn}"
    for fn in tracer.CALIB_UNITS:
        assert callable(getattr(calib, fn, None)), f"calib.{fn}"


def _apiq_bindings():
    return {(name, key): value
            for name, mod in sys.modules.items()
            if mod is not None and (name == "apiq" or name.startswith("apiq."))
            for key, value in vars(mod).items()
            if inspect.isfunction(value) or inspect.isclass(value)}


def test_install_finds_every_name_and_restores(tracer):
    """install() looks up every function and method it wraps (an
    AttributeError or KeyError if one is gone); restore() puts all back."""
    before = _apiq_bindings()
    methods = (calib.AdamW.step, model.TinyTransformer.forward)
    t = tracer.Tracer()
    try:
        t.install()
        assert autodiff.causal_softmax is not before[("apiq.autodiff", "causal_softmax")]
    finally:
        t.restore()
    assert _apiq_bindings() == before
    assert (calib.AdamW.step, model.TinyTransformer.forward) == methods
