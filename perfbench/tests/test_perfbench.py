"""Tests of the benchmark itself: the tracer leaves the program as it
found it, tracing does not change output bytes, and a reduced run of
each workload passes its gates.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._pin_threads()
sys.path.insert(0, str(run.SRC))

import apiq.cli  # noqa: E402,F401  (imports every apiq module)
import pytest  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Session, WORKLOADS  # noqa: E402

# Enough pretraining for the calib-sweep ordering gate (see workloads.py);
# the other workloads have no quality gate that needs a trained model.
SMOKE_PRETRAIN = {"pipeline": 3, "eval-reports": 3, "calib-sweep": None}


def _bindings():
    """Every module-level name and class attribute in the apiq package."""
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod is None or not (mod_name == "apiq" or mod_name.startswith("apiq.")):
            continue
        for key, value in vars(mod).items():
            out[(mod_name, key)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, key, attr)] = member
    return out


def test_tracer_restores_every_binding():
    before = _bindings()
    tracer = Tracer().install()
    patched = {k for k, v in _bindings().items() if before.get(k) is not v}
    tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # the bindings other modules import by name are among the patched ones
    for key in [("apiq.cli", "perplexity"), ("apiq.train", "perplexity"),
                ("apiq.calib", "truncated_svd"), ("apiq.calib", "forward_block"),
                ("apiq.calib", "ste_fake_quant"), ("apiq.cli", "quantize_model"),
                ("apiq.autodiff", "backward"), ("apiq.calib", "AdamW", "step"),
                ("apiq.model", "TinyTransformer", "forward")]:
        assert key in patched


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.timed("inner", lambda: sum(range(20000)))
    outer = tracer.timed("outer", lambda: [inner() for _ in range(3)])
    outer()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert all(s[3] == 0 for s in tracer.spans[1:]) and tracer.spans[0][3] == -1
    assert tracer.calls["inner"] == 3
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"])


def test_traced_outputs_are_byte_identical(tmp_path):
    manifests = []
    for traced in (False, True):
        work = tmp_path / f"traced{int(traced)}"
        work.mkdir()
        s = Session(str(work), seed=5, pretrain_steps=3)
        WORKLOADS["pipeline"].setup(s)
        if traced:
            tracer = Tracer()
            with tracer:
                WORKLOADS["pipeline"].run(s)
            assert tracer.counts["autodiff.tape_entries"] > 0
        else:
            WORKLOADS["pipeline"].run(s)
        manifests.append(s.manifest())
    assert manifests[0] == manifests[1]
    assert {"base.ckpt", "bw2.ckpt", "ft.ckpt", "ft.act.tsv"} <= set(manifests[0])


def test_untraced_run_prints_the_end_to_end_metrics(tmp_path):
    reports = [run.run("pipeline", seed=2, seconds=0, trace=trace,
                       state=tmp_path, pretrain_steps=3) for trace in (False, True)]
    assert all(r["errors"] == [] and r["result"]["correct"] for r in reports)
    metrics = reports[0]["result"]["metrics"]
    assert set(metrics) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in metrics.values())
    # one stored manifest, which the later runs were checked against
    assert len(os.listdir(tmp_path / "manifests")) == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_passes_gates(workload, tmp_path):
    steps = SMOKE_PRETRAIN[workload]
    kwargs = {} if steps is None else {"pretrain_steps": steps}
    report = run.run(workload, seed=2, seconds=0, trace=True, state=tmp_path,
                     **kwargs)
    assert report["errors"] == []
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    assert all(report["metrics"][k]["value"] > 0 for k in run.END_TO_END)
    metrics = result["metrics"]
    svd_calls = metrics["linalg.truncated_svd.calls"]["value"]
    assert (svd_calls > 0) == (workload == "calib-sweep")
    if workload == "eval-reports":
        assert metrics["autodiff.backward.calls"]["value"] == 0
        assert all(v["value"] == 0 for k, v in metrics.items()
                   if k.startswith("autodiff.bwd."))
    else:
        assert metrics["autodiff.tape_entries"]["value"] > 0
