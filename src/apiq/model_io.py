"""Model <-> checkpoint mapping.

A checkpoint holds "config", optional "quant.meta", then the model's
tensors in the order of `TinyTransformer.named_tensors()`, the one place
that defines their names and order. A quantized layer contributes
"<layer>.qcodes" / ".scale" / ".zero" (plus ".gamma" / ".beta" when its
clipping was learned) instead of "<layer>.weight"; an attached adapter
adds ".lora_a" / ".lora_b".
"""

from __future__ import annotations

import numpy as np

from .checkpoint import Entry, load_tensors, save_tensors
from .errors import ConfigError, FormatError
from .model import Linear, LoraPair, ModelConfig, QuantState, TinyTransformer
from .quant import ClipParams, GroupParams, PackedCodes, QuantSpec


def model_entries(model: TinyTransformer) -> list[Entry]:
    cfg = model.config
    entries: list[Entry] = [("config", np.array(
        [cfg.vocab, cfg.d_model, cfg.n_heads, cfg.d_ff, cfg.n_blocks,
         cfg.max_seq, cfg.rope_theta], dtype=np.float64))]

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
    entries = load_tensors(path)
    tensors = dict(entries)
    if "config" not in tensors:
        raise FormatError("checkpoint has no 'config' tensor")
    c = tensors["config"]
    try:
        cfg = ModelConfig(vocab=int(c[0]), d_model=int(c[1]), n_heads=int(c[2]),
                          d_ff=int(c[3]), n_blocks=int(c[4]), max_seq=int(c[5]),
                          rope_theta=float(c[6]))
        spec = None
        alpha = -1.0
        if "quant.meta" in tensors:
            m = tensors["quant.meta"]
            spec = QuantSpec(bits=int(m[0]), group=int(m[1]),
                             clip_granularity="per-group" if m[2] else "per-matrix")
            alpha = float(m[3])
    except ConfigError as exc:
        raise FormatError(f"checkpoint header is invalid: {exc}") from exc

    model = TinyTransformer(cfg)
    for name, owner, attr in model.named_tensors():
        if isinstance(owner, Linear):
            _load_layer(owner, tensors, spec, alpha)
        else:
            setattr(owner, attr, _req(tensors, name).astype(np.float32, copy=False))
    return model


def _req(tensors: dict, name: str):
    if name not in tensors:
        raise FormatError(f"checkpoint is missing tensor {name!r}")
    return tensors[name]


def _load_layer(layer: Linear, tensors: dict, spec: QuantSpec | None,
                alpha: float) -> None:
    n = layer.name
    if f"{n}.qcodes" in tensors:
        if spec is None:
            raise FormatError(f"layer {n!r} has codes but no 'quant.meta'")
        codes: PackedCodes = tensors[f"{n}.qcodes"]
        params = GroupParams(scale=_req(tensors, f"{n}.scale").astype(np.float32, copy=False),
                             zero=_req(tensors, f"{n}.zero").astype(np.float32, copy=False))
        clip = None
        if f"{n}.gamma" in tensors:
            clip = ClipParams(gamma=tensors[f"{n}.gamma"].astype(np.float32, copy=False),
                              beta=_req(tensors, f"{n}.beta").astype(np.float32, copy=False))
        layer.weight = None
        layer.qstate = QuantState(codes=codes, params=params, clip=clip, spec=spec)
    else:
        layer.weight = _req(tensors, f"{n}.weight").astype(np.float32, copy=False)
        layer.qstate = None
    if f"{n}.lora_a" in tensors:
        a = tensors[f"{n}.lora_a"].astype(np.float32, copy=False)
        b = _req(tensors, f"{n}.lora_b").astype(np.float32, copy=False)
        layer.lora = LoraPair(a=a, b=b, alpha=alpha if alpha >= 0 else a.shape[1])
    else:
        layer.lora = None
