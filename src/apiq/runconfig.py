"""Flat key=value run configuration and byte-level corpus handling.

Config files are UTF-8 text, one `key = value` per line, `#` starts a
comment. Keys are dotted and validated against the schema below; unknown
keys are rejected so typos fail loudly. A command-line flag overrides one
key and is checked as its line in the file would be. Every command echoes
its fully resolved configuration as the first line of its TSV log.

The corpus is any file of bytes; tokenization is the identity on bytes
(vocab 256) and documents may be separated by the 0x00 byte.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .calib import CalibPlan
from .errors import ConfigError, InputError, check
from .evals import CHUNK_LEN
from .model import ModelConfig
from .quant import QuantSpec
from .train import POSITIONS


# the model.*, quant.* and calib.* keys name the fields of the classes
# `section` builds from them; a `seed` field is the shared `seed` key
_CLASSES = (("model", ModelConfig), ("quant", QuantSpec), ("calib", CalibPlan))
_OWNED = {f"{prefix}.{f.name}": f for prefix, cls in _CLASSES
          for f in dataclasses.fields(cls) if f.name != "seed"}

# key -> (type, default)
SCHEMA: dict[str, tuple[type, object]] = {
    "seed": (int, 0),
    **{key: (type(f.default), f.default) for key, f in _OWNED.items()},
    "quant.rank": (int, 8),
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

# key -> bound (the keyword arguments of `check`): an owned key's is its
# field's. A count or length below its bound fails deep in numpy, a
# negative seed, count, rate or decay runs to no purpose, and the warmup
# is a fraction of the finetune steps, so a value out of bounds is
# rejected when the config loads
_BOUNDS = {
    **{key: f.metadata for key, f in _OWNED.items()},
    **dict.fromkeys(("seed", "quant.rank", "pretrain.steps", "pretrain.lr",
                     "pretrain.weight_decay", "finetune.epochs", "finetune.lr",
                     "finetune.weight_decay"), {"lo": 0}),
    **dict.fromkeys(("calib.samples", "calib.seq_len", "pretrain.batch",
                     "pretrain.seq_len", "finetune.batch", "finetune.seq_len"),
                    {"lo": 1}),
    "finetune.lora_position": {"choices": POSITIONS},
    "finetune.schedule": {"choices": ("static", "cosine")},
    "finetune.warmup": {"lo": 0, "hi": 1},
    "eval.chunk_len": CHUNK_LEN,
}


def default_config() -> dict:
    return {k: v for k, (_, v) in SCHEMA.items()}


def _convert(key: str, raw: str):
    typ, _ = SCHEMA[key]
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    check(key, value, **_BOUNDS.get(key, {}))
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
    of the file is. The resolved keys then build each class they name, so a
    rule over several fields of one class (`d_model % n_heads`) holds for
    every command, whether or not it uses the class."""
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
    for prefix, cls in _CLASSES:
        section(cfg, prefix, cls)
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
