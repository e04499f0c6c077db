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
from .train import FinetunePlan, PretrainPlan


# each key but the three of `SCHEMA`'s last rows names a field of the class
# `section` builds from its prefix; a `seed` field is the shared `seed` key
_CLASSES = (("model", ModelConfig), ("quant", QuantSpec), ("calib", CalibPlan),
            ("pretrain", PretrainPlan), ("finetune", FinetunePlan))

# key -> (type, default, bound), a bound being the keyword arguments of
# `check`: an owned key's are its field's, so a value the class would
# reject is rejected when the config loads
SCHEMA: dict[str, tuple[type, object, dict]] = {
    **{f"{prefix}.{f.name}": (type(f.default), f.default, f.metadata)
       for prefix, cls in _CLASSES for f in dataclasses.fields(cls) if f.name != "seed"},
    "seed": (int, 0, {"lo": 0}),
    "quant.rank": (int, 8, {"lo": 0}),
    "eval.chunk_len": (int, 128, CHUNK_LEN),
}


def default_config() -> dict:
    return {k: v for k, (_, v, _) in SCHEMA.items()}


def _convert(key: str, raw: str):
    typ, _, bound = SCHEMA[key]
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    check(key, value, **bound)
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


def section(cfg: dict, prefix: str, cls):
    """The `cls` built from the `<prefix>.*` keys of `cfg`, each the field
    named without its prefix; a `seed` field takes the shared `seed` key."""
    return cls(**{f.name: cfg["seed" if f.name == "seed" else f"{prefix}.{f.name}"]
                  for f in dataclasses.fields(cls)})


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
