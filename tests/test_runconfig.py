import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apiq.calib import CalibPlan
from apiq.errors import ConfigError, InputError
from apiq.runconfig import (_CLASSES, SCHEMA, canonical_config, default_config,
                            load_config, load_corpus, parse_config, section)
from apiq.train import FinetunePlan, PretrainPlan

NUMERIC_KEYS = [k for k, (typ, *_) in SCHEMA.items() if typ in (int, float)]
FLOAT_KEYS = [k for k, (typ, *_) in SCHEMA.items() if typ is float]
# the keys no one class owns
UNOWNED = ("seed", "eval.chunk_len")


def test_defaults_complete():
    cfg = default_config()
    assert cfg["model.d_model"] == 64
    assert cfg["calib.lr_theta"] == 0.005
    assert cfg["calib.lr_lora"] == 0.001
    assert cfg["calib.epochs"] == 20
    assert cfg["calib.weight_decay"] == 0.1
    assert cfg["quant.group"] == 64


def test_parse_overrides_and_comments():
    text = """
    # a comment
    seed = 3
    model.d_model = 32   # inline comment
    calib.method = loftq

    quant.bits=4
    """
    cfg = parse_config(text)
    assert cfg["seed"] == 3
    assert cfg["model.d_model"] == 32
    assert cfg["calib.method"] == "loftq"
    assert cfg["quant.bits"] == 4
    assert cfg["model.n_heads"] == 4  # untouched default


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("model.dmodel = 32")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config("model.d_model = fast")
    with pytest.raises(ConfigError):
        parse_config("calib.method = gptq")
    with pytest.raises(ConfigError):
        parse_config("just a line")


def test_canonical_is_sorted_single_line_deterministic():
    a = canonical_config(parse_config("seed = 5\nquant.bits = 4"))
    b = canonical_config(parse_config("quant.bits = 4\nseed = 5"))
    assert a == b
    assert "\n" not in a
    assert a.index("calib.batch=") < a.index("seed=")


def test_default_canonical_config_is_pinned():
    # the first line of every TSV log: a change here changes every log's bytes
    assert canonical_config(default_config()) == (
        "calib.batch=4 calib.clip_init=4.0 calib.epochs=20 calib.loftq_iters=5 "
        "calib.lr_lora=0.001 calib.lr_theta=0.005 calib.method=apiq-bw "
        "calib.samples=16 calib.seq_len=128 calib.weight_decay=0.1 "
        "eval.chunk_len=128 finetune.batch=8 finetune.epochs=3 "
        "finetune.lora_position=all finetune.lr=0.001 finetune.schedule=static "
        "finetune.seq_len=128 finetune.warmup=0.03 finetune.weight_decay=0.1 "
        "model.d_ff=128 model.d_model=64 model.max_seq=128 model.n_blocks=2 "
        "model.n_heads=4 model.rope_theta=10000.0 model.vocab=256 "
        "pretrain.batch=8 pretrain.lr=0.001 pretrain.seq_len=128 "
        "pretrain.steps=2000 pretrain.weight_decay=0.1 quant.bits=2 "
        "quant.clip_granularity=per-matrix quant.group=64 quant.rank=8 seed=0")


def test_sections_build_their_consumers():
    cfg = default_config()
    for prefix, cls in _CLASSES:
        assert section(cfg, prefix, cls) == cls()
    cfg.update({"seed": 7, "calib.batch": 2, "calib.samples": 3,
                "pretrain.steps": 5, "finetune.lora_position": "ffn"})
    assert section(cfg, "calib", CalibPlan) == CalibPlan(batch=2, samples=3, seed=7)
    assert section(cfg, "pretrain", PretrainPlan) == PretrainPlan(steps=5, seed=7)
    assert (section(cfg, "finetune", FinetunePlan)
            == FinetunePlan(lora_position="ffn", seed=7))


def test_every_key_but_two_is_one_class_field():
    owned = [f"{prefix}.{f.name}" for prefix, cls in _CLASSES
             for f in dataclasses.fields(cls) if f.name != "seed"]
    assert sorted(owned + list(UNOWNED)) == sorted(SCHEMA)


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(key, raw):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(f"{key} = {raw}")


@pytest.mark.parametrize("key", NUMERIC_KEYS)
@pytest.mark.parametrize("raw", ["0", "-1", "nan", "inf"])
def test_numeric_key_returns_or_raises_config_error(key, raw):
    try:
        cfg = parse_config(f"{key} = {raw}")
    except ConfigError as exc:
        assert key in str(exc)
    else:
        assert cfg[key] == SCHEMA[key][0](raw)


# each declared bound, a class field's or one of the three unowned keys,
# at its edge: (key, the value just past the bound, the bound itself, or
# for a strict bound the least float above it); a range has two rows
BOUND_EDGES = [
    *((f"model.{name}", "0", "1")
      for name in ("vocab", "d_model", "n_heads", "d_ff", "n_blocks", "max_seq")),
    ("model.rope_theta", "0", "5e-324"),
    ("quant.bits", "5", "8"),
    ("quant.group", "0", "1"),
    ("quant.clip_granularity", "per-row", "per-group"),
    ("calib.method", "gptq", "qlora"),
    ("calib.epochs", "-1", "0"),
    ("calib.batch", "0", "1"),
    ("calib.lr_theta", "0", "5e-324"),
    ("calib.lr_lora", "0", "5e-324"),
    ("calib.weight_decay", "-5e-324", "0"),
    ("calib.loftq_iters", "-1", "0"),
    ("calib.samples", "0", "1"),
    ("calib.seq_len", "0", "1"),
    ("pretrain.steps", "-1", "0"),
    ("pretrain.lr", "-5e-324", "0"),
    ("pretrain.batch", "0", "1"),
    ("pretrain.seq_len", "0", "1"),
    ("pretrain.weight_decay", "-5e-324", "0"),
    ("finetune.epochs", "-1", "0"),
    ("finetune.lr", "-5e-324", "0"),
    ("finetune.batch", "0", "1"),
    ("finetune.seq_len", "0", "1"),
    ("finetune.lora_position", "mlp", "ffn"),
    ("finetune.weight_decay", "-5e-324", "0"),
    ("finetune.schedule", "linear", "cosine"),
    ("finetune.warmup", "-5e-324", "0"),
    ("finetune.warmup", "1.0000000000000002", "1"),
    ("seed", "-1", "0"),
    ("quant.rank", "-1", "0"),
    ("eval.chunk_len", "1", "2"),
]


def test_every_declared_bound_has_an_edge_case():
    declared = {f"{prefix}.{f.name}" for prefix, cls in _CLASSES
                for f in dataclasses.fields(cls) if f.metadata}
    assert declared | set(UNOWNED) == {key for key, _, _ in BOUND_EDGES}


@pytest.mark.parametrize("key,past,edge", BOUND_EDGES)
def test_owned_bound_rejected_at_its_edge(key, past, edge):
    with pytest.raises(ConfigError, match=f"^{key} must be .*, got "):
        parse_config(f"{key} = {past}")
    assert parse_config(f"{key} = {edge}")[key] == SCHEMA[key][0](edge)
    if key not in UNOWNED:
        # the class that owns the key checks the same bound when it is built
        prefix, _, name = key.partition(".")
        with pytest.raises(ConfigError, match=f"^{name} must be .*, got "):
            dict(_CLASSES)[prefix](**{name: SCHEMA[key][0](past)})


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.text(max_size=40),
    st.builds("{} = {}".format, st.sampled_from(sorted(SCHEMA)), st.text(max_size=12)),
), max_size=6))
def test_parse_config_raises_only_config_error(lines):
    try:
        parse_config("\n".join(lines))
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(
    st.binary(max_size=40),
    st.builds(lambda key, raw: key.encode() + b" = " + raw,
              st.sampled_from(sorted(SCHEMA)), st.binary(max_size=12)),
), max_size=6), st.sampled_from([b"\n", b"\r\n", b"\r", b"\x0b", b"\x85"]))
def test_config_file_bytes_raise_only_config_error(tmp_path_factory, lines, sep):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(sep.join(lines))
    try:
        load_config(str(path))
    except ConfigError:
        pass


def test_overrides_replace_file_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("quant.bits = 4\nquant.rank = 2\n")
    cfg = load_config(str(path), {"quant.rank": "0", "calib.method": "rtn"})
    assert (cfg["quant.bits"], cfg["quant.rank"], cfg["calib.method"]) == (4, 0, "rtn")


def test_corpus_roundtrip_identity(tmp_path):
    p = tmp_path / "c.txt"
    payload = "hello\x00world é".encode("utf-8")
    p.write_bytes(payload)
    tokens = load_corpus(p)
    assert tokens.dtype == np.int64
    assert bytes(tokens.astype(np.uint8)) == payload


def test_empty_corpus_rejected(tmp_path):
    p = tmp_path / "e.txt"
    p.write_bytes(b"")
    with pytest.raises(InputError):
        load_corpus(p)


def test_missing_corpus_rejected(tmp_path):
    with pytest.raises(InputError):
        load_corpus(tmp_path / "nope.txt")
