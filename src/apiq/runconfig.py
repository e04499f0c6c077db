"""Flat key=value run configuration and byte-level corpus handling.

Config files are UTF-8 text, one `key = value` per line, `#` starts a
comment. Keys are dotted and validated against the schema below; unknown
keys are rejected so typos fail loudly. Every command echoes its fully
resolved configuration as the first line of its TSV log.

The corpus is any UTF-8 file; tokenization is the identity on bytes
(vocab 256) and documents may be separated by the 0x00 byte.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ConfigError, InputError
from .model import ModelConfig

_CHOICES = {
    "calib.method": ("apiq-lw", "apiq-bw", "loftq", "rtn", "qlora"),
    "quant.clip_granularity": ("per-matrix", "per-group"),
    "finetune.lora_position": ("all", "attn", "ffn"),
    "finetune.schedule": ("static", "cosine"),
}

# key -> (type, default); the model.* keys are the ModelConfig fields
SCHEMA: dict[str, tuple[type, object]] = {
    "seed": (int, 0),
    **{f"model.{f.name}": (type(f.default), f.default)
       for f in dataclasses.fields(ModelConfig)},
    "quant.bits": (int, 2),
    "quant.group": (int, 64),
    "quant.clip_granularity": (str, "per-matrix"),
    "quant.rank": (int, 8),
    "calib.method": (str, "apiq-bw"),
    "calib.epochs": (int, 20),
    "calib.batch": (int, 4),
    "calib.lr_theta": (float, 0.005),
    "calib.lr_lora": (float, 0.001),
    "calib.weight_decay": (float, 0.1),
    "calib.samples": (int, 16),
    "calib.seq_len": (int, 128),
    "calib.loftq_iters": (int, 5),
    "calib.clip_init": (float, 4.0),
    "pretrain.steps": (int, 2000),
    "pretrain.lr": (float, 0.001),
    "pretrain.batch": (int, 8),
    "pretrain.seq_len": (int, 128),
    "pretrain.weight_decay": (float, 0.1),
    "finetune.lr": (float, 0.001),
    "finetune.epochs": (int, 3),
    "finetune.batch": (int, 8),
    "finetune.seq_len": (int, 128),
    "finetune.lora_position": (str, "all"),
    "finetune.weight_decay": (float, 0.1),
    "finetune.schedule": (str, "static"),
    "finetune.warmup": (float, 0.03),
    "eval.chunk_len": (int, 128),
}


def default_config() -> dict:
    return {k: v for k, (_, v) in SCHEMA.items()}


def _convert(key: str, raw: str):
    typ, _ = SCHEMA[key]
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(
            f"{key} must be one of {', '.join(_CHOICES[key])}, got {value!r}")
    return value


def parse_config(text: str) -> dict:
    """Parse config text over the schema defaults; unknown keys reject."""
    cfg = default_config()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        cfg[key] = _convert(key, raw)
    return cfg


def load_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def canonical_config(cfg: dict) -> str:
    """Single-line deterministic rendering of a resolved config."""
    parts = []
    for key in sorted(cfg):
        v = cfg[key]
        parts.append(f"{key}={repr(v) if isinstance(v, float) else v}")
    return " ".join(parts)


def load_corpus(path) -> np.ndarray:
    """Read a corpus file as int64 byte tokens (identity tokenizer)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read corpus {path}: {exc}") from exc
    if not data:
        raise InputError(f"corpus {path} is empty")
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


def default_corpus_path() -> str:
    from importlib import resources

    return str(resources.files("apiq").joinpath("data/corpus.txt"))
