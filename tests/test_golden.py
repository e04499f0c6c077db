"""Same bytes as a tier-1 check: a tiny pipeline through `cli.main` whose
every checkpoint, TSV log and printed line is compared by SHA-256 with the
committed `golden_manifest.json`, and a short pretrain at the default model
shape (four heads, four 32-row attention blocks) checked the same way.

The bytes are reproducible only on one numpy and BLAS build at one thread
count, so the manifest records both; a toolchain change fails with a
message that says so. A change that alters output bytes on purpose
rewrites the manifest with `python tests/test_golden.py` and says so in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

# apiq before numpy: the package fixes the BLAS thread count on import,
# which a standalone run needs for the same bytes
from apiq.cli import main
from apiq.runconfig import default_corpus_path

import numpy as np  # noqa: E402

MANIFEST = Path(__file__).with_name("golden_manifest.json")

CONFIG = """\
seed = 3
model.d_model = 32
model.d_ff = 64
model.n_heads = 2
model.max_seq = 32
quant.group = 16
quant.rank = 4
calib.samples = 4
calib.seq_len = 32
calib.epochs = 2
calib.batch = 2
pretrain.steps = 20
pretrain.seq_len = 32
finetune.epochs = 1
finetune.seq_len = 32
finetune.schedule = cosine
eval.chunk_len = 32
"""

HIST_LAYER = "blocks.0.attn.q"

# the default ModelConfig and pretrain batch (8 windows of 128), so the
# attention runs 4 heads and 4 query blocks
DEFAULT_SHAPE_CONFIG = """\
seed = 3
pretrain.steps = 3
"""


def toolchain() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _setup(root: Path, corpus_bytes: int, configs: dict[str, str]) -> None:
    root.mkdir(parents=True, exist_ok=True)
    with open(default_corpus_path(), "rb") as fh:
        (root / "corpus.txt").write_bytes(fh.read(corpus_bytes))
    for name, text in configs.items():
        (root / name).write_text(text)


def _cli(root: Path, *argv, config="run.cfg") -> str:
    argv = [argv[0], "--config", str(root / config),
            "--corpus", str(root / "corpus.txt"), *argv[1:]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([a if not a.endswith(".ckpt") else str(root / a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def _digests(root: Path, printed: list[str]) -> dict[str, str]:
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(root.iterdir()) if p.suffix in (".ckpt", ".tsv")}
    digests["stdout"] = hashlib.sha256("".join(printed).encode()).hexdigest()
    return digests


def run_pipeline(root: Path) -> dict[str, str]:
    """Run the pipeline in `root`; the SHA-256 of every file it wrote and
    of everything it printed, by name."""
    _setup(root, 8192, {"run.cfg": CONFIG,
                        "pg.cfg": CONFIG + "quant.clip_granularity = per-group\n"})
    printed = [_cli(root, "pretrain", "--out", "base.ckpt")]
    for method in ("rtn", "qlora", "loftq", "apiq-lw", "apiq-bw"):
        _cli(root, "quantize", "--in", "base.ckpt", "--method", method, "--bits", "2",
             "--out", f"{method}2.ckpt")
    _cli(root, "quantize", "--in", "base.ckpt", "--method", "apiq-bw", "--bits", "4",
         "--out", "apiq-bw4g.ckpt", config="pg.cfg")
    printed.append(_cli(root, "finetune", "--in", "apiq-bw2.ckpt", "--out", "ft.ckpt"))
    printed.append(_cli(root, "eval", "--in", "ft.ckpt", "--profile-against",
                        "base.ckpt", "--hist", HIST_LAYER))
    return _digests(root, printed)


def run_default_shape(root: Path) -> dict[str, str]:
    """Three pretraining steps at the default shapes on the first 16 KB of
    the corpus and the chunk-128 perplexity `pretrain` prints; the SHA-256
    of the checkpoint, its log and the printed line."""
    _setup(root, 16384, {"run.cfg": DEFAULT_SHAPE_CONFIG})
    return _digests(root, [_cli(root, "pretrain", "--out", "base.ckpt")])


CASES = {"sha256": run_pipeline, "sha256_default_shape": run_default_shape}


def _check_manifest(case: str, tmp_path: Path) -> None:
    golden = json.loads(MANIFEST.read_text())
    first = CASES[case](tmp_path / "a")
    assert CASES[case](tmp_path / "b") == first, \
        "two runs in one process wrote different bytes"
    assert toolchain() == golden["toolchain"], (
        f"the manifest was recorded with {golden['toolchain']}, this is "
        f"{toolchain()}: output bytes are only defined for one numpy and BLAS "
        f"build; rewrite the manifest with `python tests/test_golden.py` on "
        f"the parent commit first")
    assert sorted(first) == sorted(golden[case])
    changed = [name for name in first if first[name] != golden[case][name]]
    assert not changed, f"bytes differ from the golden manifest: {changed}"


def test_pipeline_bytes_match_manifest(tmp_path):
    _check_manifest("sha256", tmp_path)


def test_default_shape_bytes_match_manifest(tmp_path):
    _check_manifest("sha256_default_shape", tmp_path)


def test_pipeline_bytes_independent_of_hash_seed(tmp_path):
    """A fresh interpreter with another PYTHONHASHSEED writes the bytes of
    this process: no output depends on string hashing, object ids (the
    id-keyed `trainable` maps) or what the process ran before."""
    import apiq

    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    path = [str(Path(__file__).parent), str(Path(apiq.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    script = ("import json, sys; from pathlib import Path; "
              "from test_golden import CASES; "
              "print(json.dumps({case: run(Path(sys.argv[1]) / case) "
              "for case, run in CASES.items()}))")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "child")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {case: run(tmp_path / "parent" / case)
                                       for case, run in CASES.items()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {case: run(Path(tmp) / case) for case, run in CASES.items()}
    MANIFEST.write_text(json.dumps({"toolchain": toolchain(), **digests},
                                   indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
