"""Model <-> checkpoint mapping.

A checkpoint holds "config", optional "quant.meta", then the model's
tensors in the order of `TinyTransformer.named_tensors()`, the one place
that defines their names and order. A quantized layer contributes
"<layer>.qcodes" / ".scale" / ".zero" (plus ".gamma" / ".beta" when its
clipping was learned) instead of "<layer>.weight"; an attached adapter
adds ".lora_a" / ".lora_b".
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .checkpoint import Entry, load_tensors, save_tensors
from .errors import ConfigError, FormatError
from .model import Linear, LoraPair, ModelConfig, QuantState, TinyTransformer
from .quant import ClipParams, GroupParams, PackedCodes, QuantSpec


def model_entries(model: TinyTransformer) -> list[Entry]:
    entries: list[Entry] = [("config", np.array(dataclasses.astuple(model.config),
                                                dtype=np.float64))]

    quantized = [lay for lay in model.iter_layers() if lay.qstate is not None]
    if quantized:
        spec = quantized[0].qstate.spec
        if any(lay.qstate.spec != spec for lay in quantized):
            raise ValueError("mixed quantization specs are not persistable")
        alphas = {lay.lora.alpha for lay in quantized if lay.lora is not None}
        if len(alphas) > 1:
            raise ValueError("mixed adapter alphas are not persistable")
        alpha = alphas.pop() if alphas else -1.0
        gran = 1.0 if spec.clip_granularity == "per-group" else 0.0
        entries.append(("quant.meta", np.array(
            [spec.bits, spec.group, gran, alpha], dtype=np.float64)))

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
    if layer.lora is not None and layer.lora.rank > 0:
        out.append((f"{n}.lora_a", layer.lora.a))
        out.append((f"{n}.lora_b", layer.lora.b))
    return out


def save_model(model: TinyTransformer, path) -> None:
    save_tensors(path, model_entries(model))


def load_model(path) -> TinyTransformer:
    """Rebuild a model from a checkpoint, checking every tensor against the
    shape its config implies; any mismatch raises `FormatError`."""
    tensors = dict(load_tensors(path))
    fields = dataclasses.fields(ModelConfig)
    c = _header(tensors, "config", len(fields))
    m = _header(tensors, "quant.meta", 4) if "quant.meta" in tensors else None
    values = {}
    for f, v in zip(fields, c.tolist()):
        if isinstance(f.default, int):
            if not v.is_integer():
                raise FormatError(f"header {f.name} {v!r} is not an integer")
            v = int(v)
        values[f.name] = v
    try:
        cfg = ModelConfig(**values)
        spec = None
        alpha = -1.0
        if m is not None:
            spec = QuantSpec(bits=int(m[0]), group=int(m[1]),
                             clip_granularity="per-group" if m[2] else "per-matrix")
            alpha = float(m[3])
    except ConfigError as exc:
        raise FormatError(f"checkpoint header is invalid: {exc}") from exc

    _check_sizes(tensors, cfg)
    model = TinyTransformer(cfg)
    for name, owner, attr in model.named_tensors():
        if isinstance(owner, Linear):
            _load_layer(owner, tensors, spec, alpha)
        else:
            setattr(owner, attr, _req(tensors, name, getattr(owner, attr).shape))
    return model


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
    _req(tensors, "embed.weight", (cfg.vocab, cfg.d_model))
    gate = "blocks.0.mlp.gate"
    stored = tensors.get(f"{gate}.weight", tensors.get(f"{gate}.qcodes"))
    if getattr(stored, "shape", None) != (cfg.d_model, cfg.d_ff):
        raise FormatError(f"header d_ff {cfg.d_ff} does not match the stored "
                          f"{gate!r} layer")
    present = {name.split(".")[1] for name in tensors if name.startswith("blocks.")}
    if len(present) != cfg.n_blocks or present != {str(i) for i in range(len(present))}:
        raise FormatError(f"header n_blocks {cfg.n_blocks} does not match the stored "
                          f"blocks {sorted(present)}")


def _req(tensors: dict, name: str, shape: tuple) -> np.ndarray:
    """Float tensor `name` as f32; a None in `shape` matches any extent."""
    if name not in tensors:
        raise FormatError(f"checkpoint is missing tensor {name!r}")
    t = tensors[name]
    if not (isinstance(t, np.ndarray) and t.ndim == len(shape)
            and all(w is None or g == w for g, w in zip(t.shape, shape))):
        raise FormatError(f"tensor {name!r} must be a float array of shape {shape}, "
                          f"got {type(t).__name__} {t.shape}")
    return t.astype(np.float32, copy=False)


def _load_layer(layer: Linear, tensors: dict, spec: QuantSpec | None,
                alpha: float) -> None:
    n, d1, d2 = layer.name, layer.d1, layer.d2
    if f"{n}.qcodes" in tensors:
        if spec is None:
            raise FormatError(f"layer {n!r} has codes but no 'quant.meta'")
        if d1 % spec.group:
            raise FormatError(f"group size {spec.group} does not divide {n!r} rows {d1}")
        codes = tensors[f"{n}.qcodes"]
        if not (isinstance(codes, PackedCodes) and codes.shape == (d1, d2)
                and codes.bits == spec.bits):
            raise FormatError(f"{n!r} codes must be {spec.bits}-bit packed ({d1}, {d2})")
        groups = (d1 // spec.group, d2)
        params = GroupParams(scale=_req(tensors, f"{n}.scale", groups),
                             zero=_req(tensors, f"{n}.zero", groups))
        clip = None
        if f"{n}.gamma" in tensors:
            clip_shape = ClipParams.init(spec, d1, d2).gamma.shape
            clip = ClipParams(gamma=_req(tensors, f"{n}.gamma", clip_shape),
                              beta=_req(tensors, f"{n}.beta", clip_shape))
        layer.weight = None
        layer.qstate = QuantState(codes=codes, params=params, clip=clip, spec=spec)
    else:
        layer.weight = _req(tensors, f"{n}.weight", (d1, d2))
        layer.qstate = None
    if f"{n}.lora_a" in tensors:
        a = _req(tensors, f"{n}.lora_a", (d1, None))
        b = _req(tensors, f"{n}.lora_b", (d2, a.shape[1]))
        layer.lora = LoraPair(a=a, b=b, alpha=alpha if alpha >= 0 else a.shape[1])
    else:
        layer.lora = None
