"""Model <-> checkpoint mapping.

A checkpoint holds "config", optional "quant.meta", then the model's
tensors in the order of `TinyTransformer.named_tensors()`, the one place
that defines their names and order. "quant.meta", written when a layer is
quantized, holds the model's `quant`: bits, group, clip granularity index
and adapter rank (-1 for rank 0); W_eff = base + A @ B^T has no adapter
scaling to store. A quantized layer contributes "<layer>.qcodes" /
".scale" / ".zero" (plus ".gamma" / ".beta" when its clipping was
learned) instead of "<layer>.weight", then, at a rank above 0, its
adapter's ".lora_a" / ".lora_b"; no other layer has an adapter.
`model_entries` is the one statement of this layout, and refuses a model
that breaks it.

One rule: `load_model` accepts exactly the files `save_model` writes. It
builds the model the headers and stored names describe, zero-filled, then
walks the stored entries beside `model_entries(model)`: the first whose
name, kind (dtype, or bit width of packed codes), shape or header value
differs fails the load (`FormatError`), so a loaded model saves the same
bytes. First `_check_sizes` checks the header sizes against the stored
block names and the extents of the embedding and each block's q and gate,
and `QuantSpec.check_fits` the group and rank against each quantized
layer, so the model allocated is bounded by a multiple of the file's size.

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
    spec = model.quant
    for lay in model.iter_layers():
        held = None if lay.lora is None else lay.lora.a.shape[1]
        given = (spec.rank if lay.qstate is not None else 0) or None
        if held != given:
            raise ValueError(f"layer {lay.name} has adapter rank {held}, where the "
                             f"model's quant gives it {given}")
    entries: list[Entry] = [("config", np.array(dataclasses.astuple(model.config),
                                                dtype=np.float64))]

    if any(lay.qstate is not None for lay in model.iter_layers()):
        gran = GRANULARITIES.index(spec.clip_granularity)
        entries.append(("quant.meta", np.array(
            [spec.bits, spec.group, gran, spec.rank or -1], dtype=np.float64)))

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
            bits, group, gran, rank = m.tolist()
            if gran not in (0.0, 1.0):
                raise FormatError(f"quant.meta granularity flag {gran!r} is not 0 or 1")
            # -1 is rank 0; the walk rejects any rank save_model would not write
            spec = QuantSpec(bits=_integral("quant.meta", "bits", bits),
                             group=_integral("quant.meta", "group", group),
                             clip_granularity=GRANULARITIES[int(gran)],
                             rank=max(int(rank), 0))
        _check_sizes(tensors, cfg)
        model = TinyTransformer(cfg)
        model.quant = spec
        for layer in model.iter_layers():
            _init_layer(layer, tensors, spec)
    except ConfigError as exc:
        raise FormatError(f"checkpoint header is invalid: {exc}") from exc

    given = "" if m is None else f", given 'quant.meta' {m.tolist()}"
    for i, (got, want) in enumerate(itertools.zip_longest(stored, model_entries(model))):
        if _signature(got) != _signature(want):
            raise FormatError(f"tensor {i} is {_signature(got)}, where save_model "
                              f"writes {_signature(want)}{given}")
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
    """Give `layer` the zero-filled state its stored names and `spec`
    describe: with its codes stored, it is quantized under `spec`, which
    must fit it, with clip logits if its gamma is stored and an adapter of
    `spec.rank` (none at rank 0)."""
    n, d1, d2 = layer.name, layer.d1, layer.d2
    if spec is None or f"{n}.qcodes" not in tensors:
        return
    spec.check_fits(n, d1, d2)
    groups = (d1 // spec.group, d2)
    layer.weight = None
    layer.qstate = QuantState(
        codes=PackedCodes(data=b"", shape=(d1, d2), bits=spec.bits),
        params=GroupParams(scale=np.zeros(groups, np.float32),
                           zero=np.zeros(groups, np.float32)),
        clip=ClipParams.init(spec, d1, d2) if f"{n}.gamma" in tensors else None)
    if spec.rank:
        layer.lora = LoraPair(a=np.zeros((d1, spec.rank), np.float32),
                              b=np.zeros((d2, spec.rank), np.float32))
