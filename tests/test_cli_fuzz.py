"""Fuzz whole commands through the CLI.

Each example runs one command (`pretrain`, `quantize` with each method,
`finetune`, or `eval` with and without a profile and a histogram) on a
1-block, d_model-16 model with 1 to 3 optimizer steps, over a drawn corpus
and drawn sequence lengths and sample counts. Whatever it draws, `cli.main`
must return an exit code of the contract (0, 2, 3 or 4) and never raise. A
command that fails must leave its directory as it found it: the same file
names with the same bytes. A command that succeeds must begin every TSV it
writes with the resolved config line.

A second fuzz draws where the outputs go: `--out` or `--report-prefix` in
a missing directory, or an existing directory in place of the checkpoint,
of a TSV derived from `--out`, `--report-prefix` or `--in`, or of the
temp file either is written to first. A command that would write such a
file must exit 2 and leave its directory as it was; any other must
succeed. Its inputs are few enough (630 distinct examples) that
hypothesis runs out of new ones before `max_examples`.

A third fuzz draws config lines for every key: junk, a non-finite
number, a value of the wrong type, a value just past the key's bound or
at it, each line possibly repeated. On top of a config that runs, the
command must return 0, 2, 3 or 4; a command that fails leaves its
directory as it found it, and one that succeeds writes the resolved
config as the first line of every TSV and checkpoints that load. In-range
values come only from the bounds themselves, so no example runs long.
A command that reads a checkpoint records that checkpoint's `model.*`
values, and a quantized one's `quant.*` values, in place of the config's.
"""

import contextlib
import dataclasses
import io
import math
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apiq import model_io
from apiq.calib import METHODS
from apiq.checkpoint import load_tensors, temp_path
from apiq.cli import main
from apiq.model import ModelConfig
from apiq.quant import GRANULARITIES
from apiq.runconfig import SCHEMA, canonical_config, default_corpus_path, load_config

MAX_SEQ = 32
# finetune.batch covers every window of a 3000-byte corpus in 3 steps
MODEL_CONFIG = f"""
model.d_model = 16
model.n_heads = 2
model.d_ff = 32
model.n_blocks = 1
model.max_seq = {MAX_SEQ}
quant.group = 8
quant.rank = 2
calib.batch = 4
finetune.epochs = 1
finetune.batch = 1000
"""
LENGTH_KEYS = ("pretrain.seq_len", "calib.samples", "calib.seq_len",
               "finetune.seq_len", "eval.chunk_len")
HIST_LAYER = "blocks.0.mlp.down"
FUZZ = settings(max_examples=400, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

with open(default_corpus_path(), "rb") as _fh:
    BUNDLED = _fh.read(3000)

# lengths around one window or chunk as often as any length
sizes = st.one_of(st.integers(0, 4 * MAX_SEQ), st.integers(0, len(BUNDLED)))
corpora = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=1),
    sizes.map(lambda n: b"\x00" * (n + 1)),
    # 0xff never occurs in UTF-8
    st.binary(max_size=len(BUNDLED)).map(lambda b: b"\xff" + b),
    sizes.map(lambda n: BUNDLED[:n]),
)

commands = st.one_of(
    st.just(["pretrain", "--out", "out.ckpt"]),
    st.sampled_from(METHODS).map(
        lambda m: ["quantize", "--in", "base.ckpt", "--method", m, "--out", "out.ckpt"]),
    st.just(["finetune", "--in", "q.ckpt", "--out", "out.ckpt"]),
    st.tuples(st.booleans(), st.booleans(), st.booleans()).map(
        lambda t: ["eval", "--in", "q.ckpt"]
        + ["--profile-against", "base.ckpt"] * t[0]
        + ["--hist", HIST_LAYER] * t[1]
        + ["--report-prefix", "r"] * t[2]),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A pretrained checkpoint and its 2-bit qlora quantization."""
    root = tmp_path_factory.mktemp("cli_fuzz")
    (root / "run.cfg").write_text(MODEL_CONFIG + "".join(
        f"{k} = {MAX_SEQ}\n" for k in LENGTH_KEYS) + "pretrain.steps = 3\n")
    (root / "corpus.txt").write_bytes(BUNDLED)
    for argv in (["pretrain", "--out", "base.ckpt"],
                 ["quantize", "--in", "base.ckpt", "--method", "qlora",
                  "--out", "q.ckpt"]):
        assert _run(root, argv) == 0
    return root


def _run(root, argv) -> int:
    """`cli.main` on `argv` with the config and corpus in `root` and every
    path named relative to it; output is swallowed."""
    argv = [argv[0], "--config", str(root / "run.cfg"),
            "--corpus", str(root / "corpus.txt")] + [
        str(root / a) if a.endswith(".ckpt") or a.split("/")[-1] == "r" else a
        for a in argv[1:]]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _listing(root) -> dict[str, bytes | None]:
    """Each name in `root` with its bytes; None for a directory."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in root.iterdir()}


@FUZZ
@given(argv=commands, corpus=corpora,
       lengths=st.fixed_dictionaries({k: st.integers(1, MAX_SEQ) for k in LENGTH_KEYS}),
       steps=st.integers(1, 3))
def test_command_exit_code_and_files(inputs, tmp_path_factory, argv, corpus,
                                     lengths, steps):
    root = tmp_path_factory.mktemp("run")
    for name in ("base.ckpt", "q.ckpt"):
        shutil.copyfile(inputs / name, root / name)
    (root / "run.cfg").write_text(
        MODEL_CONFIG + "".join(f"{k} = {v}\n" for k, v in lengths.items())
        + f"pretrain.steps = {steps}\ncalib.epochs = {steps}\n")
    (root / "corpus.txt").write_bytes(corpus)
    before = _listing(root)
    code = _run(root, argv)
    assert code in (0, 2, 3, 4)
    after = _listing(root)
    if code != 0:
        assert after == before
    for name, data in after.items():
        if name.endswith(".tsv") and before.get(name) != data:
            assert data.startswith(b"config\t"), name


# the log each command writes beside --out, as "<out>.<log>.tsv"
LOGS = {"pretrain": "train", "quantize": "calib", "finetune": "finetune"}
REPORTS = ("act", "weight", "hist")
# every file a command may write, by the name it has in `commands`, and
# the temp file it is written to first
OUTPUTS = [name for out in (["out.ckpt"] + [f"out.ckpt.{log}.tsv" for log in LOGS.values()]
                            + [f"{prefix}.{kind}.tsv" for prefix in ("r", "q.ckpt")
                               for kind in REPORTS])
           for name in (out, temp_path(out))]
# a valid run: one pretrain step and one calibration epoch on 4 samples
PATHS_CONFIG = MODEL_CONFIG + "".join(f"{k} = {MAX_SEQ}\n" for k in LENGTH_KEYS) + """
calib.samples = 4
calib.epochs = 1
pretrain.steps = 1
"""
PATHS_FUZZ = settings(max_examples=800, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.too_slow])


def _writes(argv) -> list[str]:
    """The files a successful `argv` writes, named as in `argv`."""
    if argv[0] != "eval":
        out = argv[argv.index("--out") + 1]
        return [out, f"{out}.{LOGS[argv[0]]}.tsv"]
    prefix = (argv[argv.index("--report-prefix") + 1] if "--report-prefix" in argv
              else argv[argv.index("--in") + 1])
    kinds = REPORTS[:2] * ("--profile-against" in argv) + REPORTS[2:] * ("--hist" in argv)
    return [f"{prefix}.{kind}.tsv" for kind in kinds]


def _in_missing_directory(argv) -> list[str]:
    """`argv` with --out, or for eval --report-prefix, in "missing/"."""
    if argv[0] != "eval":
        return [f"missing/{a}" if a == "out.ckpt" else a for a in argv]
    i = argv.index("--report-prefix") if "--report-prefix" in argv else len(argv)
    return argv[:i] + argv[i + 2:] + ["--report-prefix", "missing/r"]


@PATHS_FUZZ
@given(argv=commands, missing=st.booleans(),
       obstacle=st.one_of(st.none(), st.sampled_from(OUTPUTS)))
def test_unwritable_output_exit_2_and_no_change(inputs, tmp_path_factory, argv,
                                                missing, obstacle):
    root = tmp_path_factory.mktemp("paths")
    for name in ("base.ckpt", "q.ckpt", "corpus.txt"):
        shutil.copyfile(inputs / name, root / name)
    (root / "run.cfg").write_text(PATHS_CONFIG)
    if missing:
        argv = _in_missing_directory(argv)
    if obstacle is not None:
        (root / obstacle).mkdir()
    writes = _writes(argv)
    blocked = (missing and writes) or obstacle in writes + [temp_path(w) for w in writes]
    before = _listing(root)
    assert _run(root, argv) == (2 if blocked else 0)
    if blocked:
        assert _listing(root) == before


def _past_and_at(typ: type, bound) -> tuple[list[str], list[str]]:
    """(values just past, values at) the edges of `bound`, at a strict
    bound the least float above it; none past, and two that are taken, for
    a key with no bound."""
    def step(value, direction):
        return value + direction if typ is int else math.nextafter(value, direction * math.inf)

    pairs = []
    if "lo" in bound:
        pairs.append((step(bound["lo"], -1), bound["lo"]))
    if "hi" in bound:
        pairs.append((step(bound["hi"], 1), bound["hi"]))
    if "above" in bound:
        pairs.append((bound["above"], step(bound["above"], 1)))
    for choice in bound.get("choices", ()):
        pairs.append(("nonesuch" if typ is str else max(bound["choices"]) + 1, choice))
    past, at = zip(*pairs) if pairs else ((), (0.0, 30.0))
    return [str(typ(v)) for v in past], [str(typ(v)) for v in at]


def _values(key: str):
    """Raw values for `key`, half of them at a bound and half rejected:
    junk (no digit, nor a letter of "nan" or "inf"), non-finite, of the
    wrong type, or just past a bound."""
    typ, _, bound = SCHEMA[key]
    past, at = _past_and_at(typ, bound)
    return st.one_of(st.sampled_from(at), st.one_of(
        st.text(alphabet=" xyz!@#=.-_é", max_size=6),
        st.sampled_from(["nan", "inf", "-inf", "1e999"]),
        st.just({int: "1.5", float: "0x1", str: "1"}[typ]),
        *[st.sampled_from(past)] * bool(past)))


config_lines = st.sampled_from(sorted(SCHEMA)).flatmap(
    lambda key: _values(key).map(lambda raw: f"{key} = {raw}"))


def _stored_settings(path) -> dict:
    """The `model.*` values in the `config` header of the checkpoint at
    `path` and, when it has a `quant.meta` header, the `quant.*` values it
    and the adapter shapes give."""
    tensors = dict(load_tensors(str(path)))
    settings = {f"model.{f.name}": type(f.default)(v)
                for f, v in zip(dataclasses.fields(ModelConfig), tensors["config"].tolist())}
    if "quant.meta" in tensors:
        bits, group, gran, _ = tensors["quant.meta"].tolist()
        settings.update({"quant.bits": int(bits), "quant.group": int(group),
                         "quant.clip_granularity": GRANULARITIES[int(gran)],
                         "quant.rank": max((t.shape[1] for n, t in tensors.items()
                                            if n.endswith(".lora_a")), default=0)})
    return settings


@FUZZ
@given(argv=commands, lines=st.lists(config_lines, min_size=1, max_size=3),
       repeat=st.booleans())
def test_config_lines_exit_code_and_files(inputs, tmp_path_factory, argv, lines,
                                          repeat):
    root = tmp_path_factory.mktemp("config")
    for name in ("base.ckpt", "q.ckpt", "corpus.txt"):
        shutil.copyfile(inputs / name, root / name)
    lines += lines[:1] * repeat
    (root / "run.cfg").write_text(PATHS_CONFIG + "".join(f"{line}\n" for line in lines))
    before = _listing(root)
    code = _run(root, argv)
    assert code in (0, 2, 3, 4)
    after = _listing(root)
    if code != 0:
        assert after == before
        return
    flags = {"calib.method": argv[argv.index("--method") + 1]} if "--method" in argv else {}
    resolved = load_config(str(root / "run.cfg"), flags)
    if "--in" in argv:
        resolved.update(_stored_settings(root / argv[argv.index("--in") + 1]))
    config = f"config\t{canonical_config(resolved)}\n"
    for name, data in after.items():
        if before.get(name) == data:
            continue
        if name.endswith(".tsv"):
            assert data.startswith(config.encode()), name
        else:
            model_io.load_model(str(root / name))
