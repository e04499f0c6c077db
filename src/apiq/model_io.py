"""Model <-> checkpoint mapping.

A checkpoint holds "config", optional "quant.meta", then the model's
tensors in the order of `TinyTransformer.named_tensors()`, the one place
that defines their names and order. "quant.meta", written when a layer is
quantized, holds the model's `quant` (bits, group, clip granularity index)
and the rank its adapters share (-1 with none): W_eff = base + A @ B^T has
no adapter scaling to store. A quantized layer contributes
"<layer>.qcodes" / ".scale" / ".zero" (plus ".gamma" / ".beta" when its
clipping was learned) instead of "<layer>.weight"; an attached adapter
adds ".lora_a" / ".lora_b". `model_entries` is the one statement of this
layout.

One rule: `load_model` accepts exactly the files `save_model` writes. It
builds the model the headers and stored names describe, zero-filled, then
walks the stored entries beside `model_entries(model)`: the first whose
name, kind (dtype, or bit width of packed codes), shape or header value
differs fails the load (`FormatError`), so a loaded model saves the same
bytes. First `_check_sizes` checks the header sizes against the stored
block names and the extents of the embedding and each block's q and gate,
so the model allocated is bounded by a multiple of the file's size.

Non-finite values: the headers must be finite, and so must a layer's
"scale" and "zero", which must also be values `quantize` writes (a scale
>= SCALE_FLOOR, an integer zero in [0, qmax]); any other value fails the
load (`FormatError`). A weight, norm, adapter or clipping logit may hold
any value and loads as stored: a non-finite one fails, as a numeric
error, the computation that reads it.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from .checkpoint import Entry, load_tensors, write_tensors
from .errors import ConfigError, FormatError
from .model import Linear, LoraPair, ModelConfig, QuantState, TinyTransformer
from .quant import (GRANULARITIES, SCALE_FLOOR, ClipParams, GroupParams, PackedCodes,
                    QuantSpec)


def model_entries(model: TinyTransformer) -> list[Entry]:
    entries: list[Entry] = [("config", np.array(dataclasses.astuple(model.config),
                                                dtype=np.float64))]

    if any(lay.qstate is not None for lay in model.iter_layers()):
        spec = model.quant
        gran = GRANULARITIES.index(spec.clip_granularity)
        entries.append(("quant.meta", np.array(
            [spec.bits, spec.group, gran, model.adapter_rank() or -1], dtype=np.float64)))

    for name, owner, attr in model.named_tensors():
        if isinstance(owner, Linear):
            entries.extend(_layer_entries(owner))
        else:
            entries.append((name, getattr(owner, attr)))
    return entries


def _layer_entries(layer: Linear) -> list[Entry]:
    n = layer.name
    out: list[Entry] = []
    if layer.qstate is not None:
        qs = layer.qstate
        out.append((f"{n}.qcodes", qs.codes))
        out.append((f"{n}.scale", qs.params.scale))
        out.append((f"{n}.zero", qs.params.zero))
        if qs.clip is not None:
            out.append((f"{n}.gamma", qs.clip.gamma))
            out.append((f"{n}.beta", qs.clip.beta))
    else:
        out.append((f"{n}.weight", layer.weight))
    if layer.lora is not None:
        out.append((f"{n}.lora_a", layer.lora.a))
        out.append((f"{n}.lora_b", layer.lora.b))
    return out


def save_model(model: TinyTransformer, path) -> None:
    """Write `model` to `path` itself; a command writes the temp path
    `checkpoint.atomic_write` yields."""
    write_tensors(path, model_entries(model))


def load_model(path) -> TinyTransformer:
    """Rebuild a model from a checkpoint `save_model` could have written;
    any other file raises `FormatError`."""
    stored = load_tensors(path)
    tensors = dict(stored)
    fields = dataclasses.fields(ModelConfig)
    c = _header(tensors, "config", len(fields))
    m = _header(tensors, "quant.meta", 4) if "quant.meta" in tensors else None
    values = {f.name: _integral("header", f.name, v) if isinstance(f.default, int) else v
              for f, v in zip(fields, c.tolist())}
    spec = None
    try:
        cfg = ModelConfig(**values)
        if m is not None:
            bits, group, gran, _ = m.tolist()  # the walk checks the adapter rank
            if gran not in (0.0, 1.0):
                raise FormatError(f"quant.meta granularity flag {gran!r} is not 0 or 1")
            spec = QuantSpec(bits=_integral("quant.meta", "bits", bits),
                             group=_integral("quant.meta", "group", group),
                             clip_granularity=GRANULARITIES[int(gran)])
    except ConfigError as exc:
        raise FormatError(f"checkpoint header is invalid: {exc}") from exc

    _check_sizes(tensors, cfg)
    model = TinyTransformer(cfg)
    model.quant = spec
    for layer in model.iter_layers():
        _init_layer(layer, tensors, spec)
    try:
        expected = model_entries(model)
    except ValueError as exc:
        raise FormatError(f"checkpoint cannot be saved again: {exc}") from exc
    for i, (got, want) in enumerate(itertools.zip_longest(stored, expected)):
        if _signature(got) != _signature(want):
            raise FormatError(f"tensor {i} is {_signature(got)}, where save_model "
                              f"writes {_signature(want)}")
        if isinstance(want[1], PackedCodes):
            want[1].data = got[1].data
        else:  # same dtype and shape, so nothing is cast or broadcast
            np.copyto(want[1], got[1])
    for n, qs in ((lay.name, lay.qstate) for lay in model.iter_layers() if lay.qstate):
        s, z = qs.params.scale, qs.params.zero
        if not (np.isfinite(s) & (s >= SCALE_FLOOR)).all():
            raise FormatError(f"tensor '{n}.scale' holds a value below {SCALE_FLOOR} "
                              f"or not finite")
        if not ((z == np.rint(z)) & (z >= 0) & (z <= spec.qmax)).all():
            raise FormatError(f"tensor '{n}.zero' holds a value that is not an "
                              f"integer in [0, {spec.qmax}]")
    return model


def _signature(entry) -> str:
    """What the walk compares: name, kind, shape and a header's values, whose
    float reprs differ wherever the (finite) values' bits do."""
    if entry is None:
        return "nothing"
    name, t = entry
    if isinstance(t, PackedCodes):
        return f"{name!r} {t.bits}-bit codes {t.shape}"
    values = f" {t.tolist()}" if name in ("config", "quant.meta") else ""
    return f"{name!r} {t.dtype.name} {t.shape}{values}"


def _integral(header: str, name: str, v: float) -> int:
    if not v.is_integer():
        raise FormatError(f"{header} {name} {v!r} is not an integer")
    return int(v)


def _header(tensors: dict, name: str, size: int) -> np.ndarray:
    t = tensors.get(name)
    if t is None:
        raise FormatError(f"checkpoint has no {name!r} tensor")
    if not isinstance(t, np.ndarray) or t.shape != (size,) or not np.isfinite(t).all():
        raise FormatError(f"{name!r} tensor must hold {size} finite values")
    return t


def _check_sizes(tensors: dict, cfg: ModelConfig) -> None:
    """Check the header sizes against the stored tensors before a model of
    those sizes is allocated (`max_seq` has no tensor to check against)."""
    present = {name.split(".")[1] for name in tensors if name.startswith("blocks.")}
    if len(present) != cfg.n_blocks or present != {str(i) for i in range(len(present))}:
        raise FormatError(f"header n_blocks {cfg.n_blocks} does not match the stored "
                          f"blocks {sorted(present)}")
    d, f = cfg.d_model, cfg.d_ff
    checks = [("embed", (cfg.vocab, d), f"vocab {cfg.vocab}, d_model {d}")]
    for i in range(cfg.n_blocks):
        checks += [(f"blocks.{i}.attn.q", (d, d), f"d_model {d}"),
                   (f"blocks.{i}.mlp.gate", (d, f), f"d_ff {f}")]
    for layer, shape, sizes in checks:
        name = f"{layer}.qcodes" if f"{layer}.qcodes" in tensors else f"{layer}.weight"
        if getattr(tensors.get(name), "shape", None) != shape:
            raise FormatError(f"header {sizes} does not match the stored {name!r}")


def _init_layer(layer: Linear, tensors: dict, spec: QuantSpec | None) -> None:
    """Give `layer` the zero-filled state that its stored names describe."""
    n, d1, d2 = layer.name, layer.d1, layer.d2
    if spec is not None and f"{n}.qcodes" in tensors:
        if d1 % spec.group:
            raise FormatError(f"group size {spec.group} does not divide {n!r} rows {d1}")
        groups = (d1 // spec.group, d2)
        layer.weight = None
        layer.qstate = QuantState(
            codes=PackedCodes(data=b"", shape=(d1, d2), bits=spec.bits),
            params=GroupParams(scale=np.zeros(groups, np.float32),
                               zero=np.zeros(groups, np.float32)),
            clip=ClipParams.init(spec, d1, d2) if f"{n}.gamma" in tensors else None)
    # the one value read: the rank of a (d1, r) float lora_a, bounded by the
    # file's size; with any other, rank 0 included, the layer gets no adapter
    # and the walk fails at the stored one
    a = tensors.get(f"{n}.lora_a")
    shape = a.shape if isinstance(a, np.ndarray) else ()
    if len(shape) == 2 and shape[0] == d1 and shape[1]:
        layer.lora = LoraPair(a=np.zeros((d1, shape[1]), np.float32),
                              b=np.zeros((d2, shape[1]), np.float32))
