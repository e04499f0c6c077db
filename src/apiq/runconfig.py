"""Flat key=value run configuration and byte-level corpus handling.

Config files are UTF-8 text, one `key = value` per line, `#` starts a
comment. Keys are dotted and validated against the schema below; unknown
keys are rejected so typos fail loudly. A command-line flag overrides one
key and is checked as its line in the file would be. Every command echoes
its fully resolved configuration as the first line of its TSV log.

The corpus is any UTF-8 file; tokenization is the identity on bytes
(vocab 256) and documents may be separated by the 0x00 byte.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .calib import METHODS, CalibPlan
from .errors import ConfigError, InputError
from .model import ModelConfig
from .quant import BITS, GRANULARITIES, QuantSpec
from .train import POSITIONS

_CHOICES = {
    "calib.method": METHODS,
    "quant.bits": BITS,
    "quant.clip_granularity": GRANULARITIES,
    "finetune.lora_position": tuple(POSITIONS),
    "finetune.schedule": ("static", "cosine"),
}

# key -> (smallest, largest) valid value; a count or length below it fails
# deep in numpy, a negative seed, count, rate or decay runs to no purpose,
# and the warmup is a fraction of the finetune steps, so a value out of
# range is rejected when the config loads
_RANGE = {
    **dict.fromkeys(("seed", "quant.rank", "calib.epochs", "calib.loftq_iters",
                     "calib.weight_decay", "pretrain.steps", "pretrain.lr",
                     "pretrain.weight_decay", "finetune.epochs", "finetune.lr",
                     "finetune.weight_decay"), (0, math.inf)),
    **dict.fromkeys(("calib.batch", "calib.samples", "calib.seq_len", "pretrain.batch",
                     "pretrain.seq_len", "finetune.batch", "finetune.seq_len"),
                    (1, math.inf)),
    "eval.chunk_len": (2, math.inf),
    "finetune.warmup": (0, 1),
}


def _fields(prefix: str, cls) -> dict:
    """A row per field of `cls`; a `seed` field is the shared `seed` key."""
    return {f"{prefix}.{f.name}": (type(f.default), f.default)
            for f in dataclasses.fields(cls) if f.name != "seed"}


# key -> (type, default); the model.*, quant.* and calib.* keys are the
# fields of the classes `section` builds from them
SCHEMA: dict[str, tuple[type, object]] = {
    "seed": (int, 0),
    **_fields("model", ModelConfig),
    **_fields("quant", QuantSpec),
    "quant.rank": (int, 8),
    **_fields("calib", CalibPlan),
    "calib.samples": (int, 16),
    "calib.seq_len": (int, 128),
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
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigError(f"{key} must be one of "
                          f"{', '.join(map(str, _CHOICES[key]))}, got {value!r}")
    if key in _RANGE:
        lo, hi = _RANGE[key]
        if not lo <= value <= hi:
            bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
            raise ConfigError(f"{key} must be {bound}, got {value!r}")
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


def load_config(path: str | None, overrides: dict[str, str] | None = None) -> dict:
    """The config file at `path` (defaults when None), then `overrides`
    (key -> raw text, such as a command-line flag), each checked as a line
    of the file is."""
    text = ""
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config(text)
    for key, raw in (overrides or {}).items():
        cfg[key] = _convert(key, raw)
    return cfg


def section(cfg: dict, prefix: str, cls=None):
    """The `<prefix>.*` keys of `cfg` named without their prefix, with the
    unprefixed keys (`seed`) every section shares: keyword arguments, or
    with `cls` the instance built from those of its fields."""
    kwargs = {key.rpartition(".")[2]: value for key, value in cfg.items()
              if key.startswith(f"{prefix}.") or "." not in key}
    if cls is None:
        return kwargs
    return cls(**{f.name: kwargs[f.name] for f in dataclasses.fields(cls)})


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
