"""Outside-in tracer for the apiq modules.

The tracer times calls into each module's public functions from outside:
it rebinds every name under which a traced function is reachable in the
`apiq.*` modules (so `from .calib import quantize_model` in `cli` is
wrapped as well as `calib.quantize_model`) and puts every original back on
`restore()`. Nothing in `src/apiq` is edited.

Each call is a span (name, start, end, parent). A span's self time is its
duration minus the time its child spans cover. Spans stay in memory and
are written as JSONL by `write_jsonl`. Next to the timings the tracer keeps
exact counters (tape entries, matmul FLOP from shapes, SVD shapes,
checkpoint bytes from file sizes, tokens scored) that repeat bit for bit
across runs of one seed.

Backward closures are timed by a wrapper around `autodiff.backward` that
re-wraps `tape.entries` by op name before the original replays them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

# The primitives the per-layer metrics name one by one.
PRIMITIVES = ("matmul", "causal_softmax", "rope_rotate", "rmsnorm", "scale",
              "silu", "add", "mul", "reshape", "transpose", "embedding",
              "cross_entropy", "mse", "round_ste", "clamp")
# Also recorded on the tape (mostly by `quant.ste_fake_quant`). They are
# wrapped so their time is not charged to the caller's self time, and are
# reported together as `other`.
OTHER_PRIMITIVES = ("sub", "div", "neg", "exp", "sigmoid", "softmax", "maximum")

QUANT_FUNCS = ("ste_fake_quant", "quantize", "pack", "unpack", "dequantize")
CALIB_UNITS = {"apiq_lw_layer": "apiq-lw", "apiq_bw_block": "apiq-bw",
               "loftq_init": "loftq"}


def _value(x):
    return getattr(x, "value", x)


class Tracer:
    """Span recorder plus the patches that feed it; a context manager."""

    def __init__(self):
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.svd_shapes: Counter = Counter()
        self._stack: list = []
        self._restore: list = []
        self._bwd_names: dict = {}

    # -- spans ---------------------------------------------------------------

    def timed(self, name, fn, after=None):
        """`fn` wrapped in a span called `name` (a string, or a callable
        returning one at call time); `after(out, args, kwargs)` updates
        counters once the call returned."""
        clock = time.perf_counter
        spans, stack = self.spans, self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        errors = self.errors
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            label = name() if dynamic else name
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                errors[label] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (label, t0, t1, parent)
                calls[label] += 1
                total_s[label] += dur
                self_s[label] += dur - frame[1]
            if after is not None:
                after(out, args, kwargs)
            return out

        return wrapper

    def write_jsonl(self, path) -> int:
        """Write the spans as one JSON object per line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")
        return len(self.spans)

    # -- patching --------------------------------------------------------------

    def _rebind(self, original, replacement):
        """Point every apiq module name bound to `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "apiq" or mod_name.startswith("apiq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, replacement)

    def _patch_function(self, module, attr, name, after=None):
        original = getattr(module, attr)
        self._rebind(original, self.timed(name, original, after))

    def _patch_method(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.timed(name, original, after))

    def install(self) -> "Tracer":
        from apiq import (autodiff, calib, evals, linalg, model, model_io,
                          quant, train)

        for prim in PRIMITIVES + OTHER_PRIMITIVES:
            label = prim if prim in PRIMITIVES else "other"
            after = self._count_matmul if prim == "matmul" else None
            self._patch_function(autodiff, prim, f"autodiff.fwd.{label}", after)
        timed_backward = self.timed("autodiff.backward", autodiff.backward)

        def backward(tape, loss):
            self.counts["autodiff.tape_entries"] += len(tape.entries)
            tape.entries = [(op, self._timed_closure(op, fn))
                            for op, fn in tape.entries]
            return timed_backward(tape, loss)

        self._rebind(autodiff.backward, backward)

        self._patch_function(linalg, "truncated_svd", "linalg.truncated_svd",
                             self._count_svd)
        for fn in QUANT_FUNCS:
            self._patch_function(quant, fn, f"quant.{fn}")
        for fn, method in CALIB_UNITS.items():
            self._patch_function(calib, fn, f"calib.unit.{method}")
        self._patch_method(calib.AdamW, "step", "calib.adamw_step")
        self._patch_function(calib, "quantize_model", "calib.quantize_model",
                             self._count_epochs)
        self._patch_method(model.TinyTransformer, "forward",
                           lambda: ("model.forward.taped"
                                    if autodiff._active_tape is not None
                                    else "model.forward.untaped"))
        self._patch_function(model, "forward_block", "model.forward_block")
        self._patch_function(train, "pretrain", "train.pretrain",
                             self._count_steps("pretrain"))
        self._patch_function(train, "finetune", "train.finetune",
                             self._count_steps("finetune"))
        self._patch_function(evals, "perplexity", "evals.perplexity",
                             self._count_tokens)
        for fn in ("activation_error_profile", "weight_error_report",
                   "histogram_export"):
            self._patch_function(evals, fn, f"evals.{fn}")
        self._patch_function(model_io, "load_model", "model_io.load_model",
                             self._count_bytes("checkpoint.bytes_read"))
        self._patch_function(model_io, "save_model", "model_io.save_model",
                             self._count_bytes("checkpoint.bytes_written", 1))
        return self

    def restore(self) -> None:
        """Put every patched binding back, last patch first."""
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- per-layer metrics -------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        calls, self_s, total_s, counts = (self.calls, self.self_s,
                                          self.total_s, self.counts)
        m: dict[str, tuple[float, str]] = {}

        def per(total, n):
            return total / n if n else 0.0

        for p in PRIMITIVES + ("other",):
            m[f"autodiff.fwd.{p}.calls"] = (calls[f"autodiff.fwd.{p}"], "count")
            m[f"autodiff.fwd.{p}.self_s"] = (self_s[f"autodiff.fwd.{p}"], "s")
        for p in PRIMITIVES + ("other",):
            m[f"autodiff.bwd.{p}.self_s"] = (self_s[f"autodiff.bwd.{p}"], "s")
        m["autodiff.backward.calls"] = (calls["autodiff.backward"], "count")
        m["autodiff.backward.self_s"] = (self_s["autodiff.backward"], "s")
        m["autodiff.tape_entries"] = (counts["autodiff.tape_entries"], "count")
        gflop = counts["autodiff.matmul.flop"] / 1e9
        m["autodiff.matmul.gflop"] = (gflop, "GFLOP")
        m["autodiff.matmul.gflops"] = (per(gflop, self_s["autodiff.fwd.matmul"]),
                                       "GFLOP/s")

        n_svd = calls["linalg.truncated_svd"]
        m["linalg.truncated_svd.calls"] = (n_svd, "count")
        m["linalg.truncated_svd.self_s"] = (self_s["linalg.truncated_svd"], "s")
        m["linalg.truncated_svd.ms_per_call"] = (
            per(1e3 * total_s["linalg.truncated_svd"], n_svd), "ms")

        for fn in QUANT_FUNCS:
            m[f"quant.{fn}.calls"] = (calls[f"quant.{fn}"], "count")
            m[f"quant.{fn}.self_s"] = (self_s[f"quant.{fn}"], "s")

        for method in CALIB_UNITS.values():
            key = f"calib.unit.{method}"
            m[f"{key}.calls"] = (calls[key], "count")
            m[f"{key}.s_per_unit"] = (per(total_s[key], calls[key]), "s")
        m["calib.adamw_step.calls"] = (calls["calib.adamw_step"], "count")
        m["calib.adamw_step.self_s"] = (self_s["calib.adamw_step"], "s")
        m["calib.useful_epoch_ratio"] = (
            per(counts["calib.useful_epochs"], counts["calib.epochs"]), "ratio")

        for kind in ("taped", "untaped"):
            key = f"model.forward.{kind}"
            m[f"{key}.calls"] = (calls[key], "count")
            m[f"{key}.self_s"] = (self_s[key], "s")
        m["model.forward_block.calls"] = (calls["model.forward_block"], "count")
        m["model.forward_block.self_s"] = (self_s["model.forward_block"], "s")

        # A finetune step excludes the perplexity run at the end of each epoch.
        eval_in_finetune = self._child_time("train.finetune", "evals.perplexity")
        for kind, extra in (("pretrain", 0.0), ("finetune", eval_in_finetune)):
            steps = counts[f"train.{kind}.steps"]
            m[f"train.{kind}.steps"] = (steps, "count")
            m[f"train.{kind}.s_per_step"] = (
                per(total_s[f"train.{kind}"] - extra, steps), "s")

        m["evals.perplexity.calls"] = (calls["evals.perplexity"], "count")
        m["evals.perplexity.self_s"] = (self_s["evals.perplexity"], "s")
        m["evals.perplexity.tokens"] = (counts["evals.perplexity.tokens"], "count")
        for fn in ("activation_error_profile", "weight_error_report",
                   "histogram_export"):
            m[f"evals.{fn}.self_s"] = (self_s[f"evals.{fn}"], "s")

        for fn in ("load_model", "save_model"):
            m[f"model_io.{fn}.calls"] = (calls[f"model_io.{fn}"], "count")
            m[f"model_io.{fn}.self_s"] = (self_s[f"model_io.{fn}"], "s")
        m["checkpoint.bytes_read"] = (counts["checkpoint.bytes_read"], "B")
        m["checkpoint.bytes_written"] = (counts["checkpoint.bytes_written"], "B")
        return m

    def _child_time(self, parent_name: str, child_name: str) -> float:
        """Total duration of `child_name` spans directly under a
        `parent_name` span."""
        spans = self.spans
        return sum(t1 - t0 for name, t0, t1, parent in spans
                   if name == child_name and parent >= 0
                   and spans[parent][0] == parent_name)

    # -- backward closures and counters ---------------------------------------

    def _timed_closure(self, op, fn):
        label = self._bwd_names.get(op)
        if label is None:
            label = f"autodiff.bwd.{op if op in PRIMITIVES else 'other'}"
            self._bwd_names[op] = label
        return self.timed(label, fn)

    def _count_matmul(self, out, args, kwargs):
        a = _value(args[0])
        self.counts["autodiff.matmul.flop"] += 2 * out.value.size * a.shape[-1]

    def _count_svd(self, out, args, kwargs):
        m, rank = _value(args[0]), args[1] if len(args) > 1 else kwargs["rank"]
        self.svd_shapes[f"{m.shape[0]}x{m.shape[1]}:r{rank}"] += 1

    def _count_epochs(self, out, args, kwargs):
        _, rows = out
        best = {}
        for row in rows:
            if row.epoch == 0:
                best[row.unit] = row.loss
                continue
            self.counts["calib.epochs"] += 1
            if row.loss < best[row.unit]:
                best[row.unit] = row.loss
                self.counts["calib.useful_epochs"] += 1

    def _count_steps(self, kind):
        def after(rows, args, kwargs):
            self.counts[f"train.{kind}.steps"] += sum(r.ppl is None for r in rows)
        return after

    def _count_tokens(self, out, args, kwargs):
        tokens, chunk_len = args[1], args[2]
        n_chunks = tokens.size // chunk_len
        self.counts["evals.perplexity.tokens"] += n_chunks * (chunk_len - 1)

    def _count_bytes(self, key, path_arg=0):
        def after(out, args, kwargs):
            self.counts[key] += os.path.getsize(args[path_arg])
        return after
