import ctypes
import resource
import tracemalloc

import numpy as np
import pytest

from apiq import model_io
from apiq.checkpoint import load_tensors, save_tensors
from apiq.cli import build_parser, main
from apiq.evals import write_tsv
from apiq.model import ModelConfig, TinyTransformer
from apiq.quant import unpack
from apiq.runconfig import SCHEMA, default_corpus_path

CONFIG_TEXT = """
seed = 5
model.d_model = 32
model.d_ff = 64
model.n_blocks = 2
model.max_seq = 64
quant.group = 16
quant.rank = 4
calib.samples = 4
calib.seq_len = 64
calib.epochs = 3
calib.batch = 2
pretrain.steps = 60
pretrain.seq_len = 64
finetune.epochs = 1
finetune.seq_len = 64
finetune.batch = 8
eval.chunk_len = 64
"""


# the log each command writes beside --out, as "<out>.<log>.tsv"
LOGS = {"pretrain": "train", "quantize": "calib", "finetune": "finetune"}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    with open(default_corpus_path(), "rb") as fh:
        corpus.write_bytes(fh.read()[:30_000])
    config = root / "run.cfg"
    config.write_text(CONFIG_TEXT)
    return root


@pytest.fixture(scope="module")
def pretrained(ws):
    out = ws / "base.ckpt"
    code = main(["pretrain", "--config", str(ws / "run.cfg"),
                 "--corpus", str(ws / "corpus.txt"), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def quantized(ws, pretrained):
    out = ws / "q2.ckpt"
    code = main(["quantize", "--config", str(ws / "run.cfg"),
                 "--in", str(pretrained), "--method", "qlora", "--bits", "2",
                 "--rank", "4", "--corpus", str(ws / "corpus.txt"),
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def rank8_quantized(ws, pretrained):
    """A 2-bit qlora checkpoint with rank-8 adapters."""
    out = ws / "q2r8.ckpt"
    assert main(["quantize", "--config", str(ws / "run.cfg"), "--in", str(pretrained),
                 "--method", "qlora", "--bits", "2", "--rank", "8",
                 "--corpus", str(ws / "corpus.txt"), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def rtn_quantized(ws, pretrained):
    """A 2-bit rtn checkpoint: codes with no adapters."""
    out = ws / "rtn2.ckpt"
    assert main(["quantize", "--config", str(ws / "run.cfg"), "--in", str(pretrained),
                 "--method", "rtn", "--bits", "2", "--corpus", str(ws / "corpus.txt"),
                 "--out", str(out)]) == 0
    return out


class TestPretrain:
    def test_writes_checkpoint_and_log(self, ws, pretrained, capsys):
        assert pretrained.exists()
        log = (ws / "base.ckpt.train.tsv").read_text().splitlines()
        assert log[0].startswith("config\t")
        assert "pretrain.steps=60" in log[0]
        assert log[1] == "step\tloss"
        assert len(log) == 2 + 60

    def test_final_ppl_beats_uniform(self, ws, pretrained):
        from apiq.evals import perplexity
        from apiq.runconfig import load_corpus
        model = model_io.load_model(pretrained)
        ppl = perplexity(model, load_corpus(ws / "corpus.txt"), 64)
        assert ppl < 128.0

    def test_zero_steps_equals_initialization(self, ws):
        cfg = ws / "zero.cfg"
        cfg.write_text(CONFIG_TEXT + "pretrain.steps = 0\n")
        out = ws / "zero.ckpt"
        assert main(["pretrain", "--config", str(cfg),
                     "--corpus", str(ws / "corpus.txt"), "--out", str(out)]) == 0
        fresh = TinyTransformer.init(
            ModelConfig(d_model=32, d_ff=64, n_blocks=2, max_seq=64), seed=5)
        ref = ws / "ref.ckpt"
        model_io.save_model(fresh, ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_missing_corpus_exit_3(self, ws):
        code = main(["pretrain", "--config", str(ws / "run.cfg"),
                     "--corpus", str(ws / "missing.txt"),
                     "--out", str(ws / "x.ckpt")])
        assert code == 3

    def test_bad_config_exit_2(self, ws):
        bad = ws / "bad.cfg"
        bad.write_text("model.dmodel = 32\n")
        code = main(["pretrain", "--config", str(bad),
                     "--corpus", str(ws / "corpus.txt"),
                     "--out", str(ws / "x.ckpt")])
        assert code == 2

    @pytest.mark.parametrize("theta", ["0", "inf"])
    def test_bad_rope_theta_exit_2(self, ws, capsys, theta):
        bad = ws / "theta.cfg"
        bad.write_text(CONFIG_TEXT + f"model.rope_theta = {theta}\n")
        out = ws / "theta.ckpt"
        assert main(["pretrain", "--config", str(bad),
                     "--corpus", str(ws / "corpus.txt"), "--out", str(out)]) == 2
        assert "rope_theta" in capsys.readouterr().err
        assert not out.exists()

    def test_short_corpus_exit_3(self, ws):
        tiny = ws / "tiny.txt"
        tiny.write_bytes(b"too short")
        code = main(["pretrain", "--config", str(ws / "run.cfg"),
                     "--corpus", str(tiny), "--out", str(ws / "x.ckpt")])
        assert code == 3

    @pytest.mark.skipif(getattr(ctypes.CDLL(None), "mallopt", None) is None,
                        reason="libc has no mallopt")
    def test_second_run_reuses_freed_memory(self, ws):
        # the default model and batch: each step frees about 10 MB
        cfg = ws / "twenty.cfg"
        cfg.write_text("seed = 5\npretrain.steps = 20\n")
        argv = ["pretrain", "--config", str(cfg), "--corpus", str(ws / "corpus.txt"),
                "--out", str(ws / "twenty.ckpt")]
        assert main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 2000, faults


class TestQuantize:
    def test_rtn_no_optimizer_steps(self, ws, pretrained):
        out = ws / "rtn.ckpt"
        assert main(["quantize", "--config", str(ws / "run.cfg"),
                     "--in", str(pretrained), "--method", "rtn", "--bits", "2",
                     "--out", str(out)]) == 0
        log = (out.with_name("rtn.ckpt.calib.tsv")).read_text().splitlines()
        assert log[0].startswith("config\t")
        assert log[1] == "layer\tepoch\tloss"
        assert len(log) == 2  # no gradient steps logged

    def test_apiq_lw_rank_zero_clip_only(self, ws, pretrained):
        out = ws / "clip.ckpt"
        assert main(["quantize", "--config", str(ws / "run.cfg"),
                     "--in", str(pretrained), "--method", "apiq-lw",
                     "--bits", "2", "--rank", "0", "--out", str(out)]) == 0
        model = model_io.load_model(out)
        assert all(lay.lora is None for lay in model.iter_layers())

    def test_calibration_log_has_rows(self, ws, pretrained):
        out = ws / "lw.ckpt"
        assert main(["quantize", "--config", str(ws / "run.cfg"),
                     "--in", str(pretrained), "--method", "apiq-lw",
                     "--bits", "2", "--out", str(out)]) == 0
        log = (ws / "lw.ckpt.calib.tsv").read_text().splitlines()
        # 14 layers x (initial + 3 epochs)
        assert len(log) == 2 + 14 * 4

    def test_deterministic_runs(self, ws, pretrained):
        outs = []
        for name in ("d1.ckpt", "d2.ckpt"):
            out = ws / name
            assert main(["quantize", "--config", str(ws / "run.cfg"),
                         "--in", str(pretrained), "--method", "apiq-bw",
                         "--bits", "2", "--out", str(out)]) == 0
            outs.append((out.read_bytes(),
                         (ws / f"{name}.calib.tsv").read_text()))
        assert outs[0][0] == outs[1][0]
        body = lambda tsv: tsv.split("\n", 1)[1]
        assert body(outs[0][1]) == body(outs[1][1])

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("command", ["pretrain", "quantize", "finetune"])
    def test_failed_log_write_leaves_no_partial_tsv(self, ws, pretrained, quantized,
                                                    monkeypatch, command, existing):
        """A log write that fails leaves neither a new checkpoint nor a new
        log: --out and its log keep their old bytes, or stay absent."""
        def rows_then_fail(rows):
            yield from rows[:1]
            raise OSError("disk full")

        def write_then_fail(path, header, rows, config_line):
            write_tsv(path, header, rows_then_fail(rows), config_line)

        out = ws / f"failed-{command}{int(existing)}.ckpt"
        log = ws / f"{out.name}.{LOGS[command]}.tsv"
        if existing:
            out.write_bytes(b"old checkpoint")
            log.write_text("old log\n")
        argv = {"pretrain": ["--corpus", str(ws / "corpus.txt")],
                "quantize": ["--in", str(pretrained), "--method", "rtn", "--bits", "2"],
                "finetune": ["--in", str(quantized), "--corpus", str(ws / "corpus.txt")]}
        monkeypatch.setattr("apiq.cli.write_tsv", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            main([command, "--config", str(ws / "run.cfg"), *argv[command],
                  "--out", str(out)])
        if existing:
            assert out.read_bytes() == b"old checkpoint"
            assert log.read_text() == "old log\n"
        else:
            assert not out.exists() and not log.exists()
        assert not [p.name for p in ws.iterdir() if p.name.endswith(".tmp")]

    def test_missing_checkpoint_exit_3(self, ws):
        assert main(["quantize", "--in", str(ws / "nope.ckpt"),
                     "--out", str(ws / "x.ckpt")]) == 3

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exit_2(self, ws, pretrained, capsys, lr):
        cfg = ws / "lr.cfg"
        cfg.write_text(CONFIG_TEXT + f"calib.lr_lora = {lr}\n")
        out = ws / "lr.ckpt"
        assert main(["quantize", "--config", str(cfg), "--in", str(pretrained),
                     "--method", "apiq-lw", "--corpus", str(ws / "corpus.txt"),
                     "--out", str(out)]) == 2
        assert "lr_lora" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["apiq-lw", "apiq-bw"])
    def test_non_finite_epoch_end_loss_exit_4(self, ws, pretrained, capsys, method):
        # one batch in all: the batch loss is finite, the epoch-end loss not
        cfg = ws / "hot.cfg"
        cfg.write_text(CONFIG_TEXT + "calib.lr_lora = 1e30\ncalib.epochs = 1\n"
                       "calib.samples = 4\ncalib.batch = 4\n")
        out = ws / f"hot_{method}.ckpt"
        assert main(["quantize", "--config", str(cfg), "--in", str(pretrained),
                     "--method", method, "--corpus", str(ws / "corpus.txt"),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "non-finite loss at blocks.0" in err and "epoch 1" in err
        assert not out.exists()
        assert not (ws / f"{out.name}.calib.tsv").exists()

    @pytest.mark.parametrize("flag,value,key", [("--method", "foo", "calib.method"),
                                                ("--bits", "5", "quant.bits"),
                                                ("--rank", "x", "quant.rank"),
                                                ("--rank", "-1", "quant.rank")])
    def test_bad_flag_exit_2_naming_the_key(self, ws, pretrained, capsys, flag, value,
                                            key):
        out = ws / "flag.ckpt"
        assert main(["quantize", "--config", str(ws / "run.cfg"), "--in", str(pretrained),
                     "--corpus", str(ws / "corpus.txt"), flag, value,
                     "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_rtn_rank_above_a_layer_dim_exit_2(self, ws, pretrained, capsys):
        # rtn attaches no adapter, but the configured rank must still fit
        out = ws / "rank100.ckpt"
        assert main(["quantize", "--config", str(ws / "run.cfg"), "--in", str(pretrained),
                     "--corpus", str(ws / "corpus.txt"), "--method", "rtn",
                     "--rank", "100", "--out", str(out)]) == 2
        assert "rank 100 exceeds min dim 32" in capsys.readouterr().err
        assert not out.exists()

    def test_quantize_twice_exit_2(self, ws, quantized):
        assert main(["quantize", "--config", str(ws / "run.cfg"),
                     "--in", str(quantized), "--method", "rtn", "--bits", "2",
                     "--out", str(ws / "x.ckpt")]) == 2


class TestFinetune:
    def test_position_masking_and_frozen_codes(self, ws, quantized):
        out = ws / "ft_ffn.ckpt"
        assert main(["finetune", "--config", str(ws / "run.cfg"),
                     "--in", str(quantized), "--corpus", str(ws / "corpus.txt"),
                     "--lora-position", "ffn", "--out", str(out)]) == 0
        before = dict(load_tensors(quantized))
        after = dict(load_tensors(out))
        for name, tensor in before.items():
            if name.endswith((".qcodes",)):
                assert after[name].data == tensor.data
            elif name.endswith((".scale", ".zero", ".gamma", ".beta")):
                assert np.array_equal(after[name], tensor)
            elif ".attn." in name and name.endswith((".lora_a", ".lora_b")):
                assert np.array_equal(after[name], tensor)  # frozen position
        changed = [n for n in before
                   if ".mlp." in n and n.endswith(".lora_a")
                   and not np.array_equal(after[n], before[n])]
        assert changed  # ffn adapters actually trained

    def test_qlora_ppl_improves_after_one_epoch(self, ws, quantized, capsys):
        from apiq.evals import perplexity
        from apiq.runconfig import load_corpus
        corpus = load_corpus(ws / "corpus.txt")
        before = perplexity(model_io.load_model(quantized), corpus, 64)
        out = ws / "ft_all.ckpt"
        assert main(["finetune", "--config", str(ws / "run.cfg"),
                     "--in", str(quantized), "--corpus", str(ws / "corpus.txt"),
                     "--lora-position", "all", "--out", str(out)]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        assert printed.startswith("epoch\t1\tppl\t")
        after = perplexity(model_io.load_model(out), corpus, 64)
        assert after < before
        assert np.isclose(float(printed.rsplit("\t", 1)[1]), after)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_non_finite_exit_4(self, ws, quantized):
        cfg = ws / "hot.cfg"
        cfg.write_text(CONFIG_TEXT + "finetune.lr = 1e30\n")
        code = main(["finetune", "--config", str(cfg), "--in", str(quantized),
                     "--corpus", str(ws / "corpus.txt"),
                     "--out", str(ws / "x.ckpt")])
        assert code == 4


class TestEval:
    def test_ppl_parses_positive(self, ws, pretrained, capsys):
        assert main(["eval", "--config", str(ws / "run.cfg"),
                     "--in", str(pretrained),
                     "--corpus", str(ws / "corpus.txt")]) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert float(out) >= 1.0

    def test_self_profile_all_zero(self, ws, pretrained, capsys):
        prefix = ws / "self"
        assert main(["eval", "--config", str(ws / "run.cfg"),
                     "--in", str(pretrained), "--corpus", str(ws / "corpus.txt"),
                     "--profile-against", str(pretrained),
                     "--report-prefix", str(prefix)]) == 0
        capsys.readouterr()
        for suffix in (".act.tsv", ".weight.tsv"):
            lines = (ws / f"self{suffix}").read_text().splitlines()
            assert lines[0].startswith("config\t")
            values = [float(line.rsplit("\t", 1)[1]) for line in lines[2:]]
            assert values and all(v == 0.0 for v in values)

    def test_histogram_export(self, ws, quantized, capsys):
        prefix = ws / "h"
        assert main(["eval", "--config", str(ws / "run.cfg"),
                     "--in", str(quantized), "--corpus", str(ws / "corpus.txt"),
                     "--hist", "blocks.0.attn.q", "--bins", "8",
                     "--report-prefix", str(prefix)]) == 0
        capsys.readouterr()
        lines = (ws / "h.hist.tsv").read_text().splitlines()
        assert lines[1] == "tensor\tbin_center\tcount"
        tensors = {line.split("\t")[0] for line in lines[2:]}
        assert tensors == {"Q", "ABt", "A", "B"}
        b_counts = [int(line.split("\t")[2]) for line in lines[2:]
                    if line.split("\t")[0] == "B"]
        model = model_io.load_model(quantized)
        assert sum(b_counts) == model.blocks[0].layers["q"].lora.b.size

    def test_unknown_layer_exit_3(self, ws, quantized):
        assert main(["eval", "--in", str(quantized),
                     "--corpus", str(ws / "corpus.txt"),
                     "--hist", "blocks.9.attn.q"]) == 3

    def test_key_error_in_command_propagates(self, ws, quantized, monkeypatch):
        """Only the package's input errors exit 3: a KeyError is a fault in
        the program and ends in its traceback."""
        def fail(path):
            raise KeyError("a bug")

        monkeypatch.setattr(model_io, "load_model", fail)
        with pytest.raises(KeyError, match="a bug"):
            main(["eval", "--in", str(quantized), "--corpus", str(ws / "corpus.txt")])

    @pytest.mark.parametrize("chunk_len", ["0", "1", "-5"])
    def test_bad_chunk_len_flag_exit_2(self, ws, pretrained, capsys, chunk_len):
        assert main(["eval", "--config", str(ws / "run.cfg"),
                     "--in", str(pretrained), "--corpus", str(ws / "corpus.txt"),
                     "--chunk-len", chunk_len]) == 2
        assert "chunk_len" in capsys.readouterr().err

    def test_bad_chunk_len_config_exit_2(self, ws, pretrained, capsys):
        cfg = ws / "chunk.cfg"
        cfg.write_text(CONFIG_TEXT + "eval.chunk_len = 1\n")
        assert main(["eval", "--config", str(cfg), "--in", str(pretrained),
                     "--corpus", str(ws / "corpus.txt")]) == 2
        assert "chunk_len" in capsys.readouterr().err

    def test_one_bin_exit_2_before_loading(self, ws, capsys):
        # the checkpoint does not exist: the check comes before any load
        assert main(["eval", "--in", str(ws / "nope.ckpt"),
                     "--hist", "blocks.1.mlp.down", "--bins", "1"]) == 2
        assert "--bins" in capsys.readouterr().err

    # no more bins than the --hist layer's d1 * d2 = 32 * 32 weights, checked
    # before any computation (2**62 bins ended in numpy's "array is too big")
    @pytest.mark.parametrize("bins,code", [(32 * 32, 0), (32 * 32 + 1, 2), (2 ** 62, 2)])
    def test_bins_bounded_by_layer_size(self, ws, quantized, capsys, tmp_path, bins,
                                        code):
        prefix = tmp_path / "bins"
        assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(quantized),
                     "--corpus", str(ws / "corpus.txt"), "--hist", "blocks.0.attn.q",
                     "--bins", str(bins), "--report-prefix", str(prefix)]) == code
        out, err = capsys.readouterr()
        assert (prefix.parent / "bins.hist.tsv").exists() == (code == 0)
        if code:
            assert f"--bins must be >= 2 and <= 1024, got {bins}" in err
            assert out == ""

    def test_directory_input_exit_3(self, ws, capsys):
        assert main(["eval", "--in", str(ws), "--corpus", str(ws / "corpus.txt")]) == 3
        assert "cannot read checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--in", "x.ckpt", "--bins", "x"], []])
    def test_usage_error_returns_2(self, capsys, argv):
        # a bad --bins value, and a missing --in
        assert main(["eval", *argv]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_profile_reference_read_once(self, ws, pretrained, quantized, monkeypatch):
        reads = []
        load = model_io.load_model
        monkeypatch.setattr(model_io, "load_model",
                            lambda path: reads.append(str(path)) or load(path))
        assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(quantized),
                     "--corpus", str(ws / "corpus.txt"), "--profile-against",
                     str(pretrained), "--hist", "blocks.0.attn.q",
                     "--report-prefix", str(ws / "once")]) == 0
        assert reads == [str(quantized), str(pretrained)]

    def test_profile_shape_mismatch_exit_3(self, ws, pretrained, capsys):
        small = ws / "small.ckpt"
        cfg = ws / "small.cfg"
        cfg.write_text(CONFIG_TEXT + "model.d_model = 16\npretrain.steps = 0\n")
        assert main(["pretrain", "--config", str(cfg), "--corpus",
                     str(ws / "corpus.txt"), "--out", str(small)]) == 0
        assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(small),
                     "--corpus", str(ws / "corpus.txt"),
                     "--profile-against", str(pretrained),
                     "--report-prefix", str(ws / "mismatch")]) == 3
        err = capsys.readouterr().err
        assert "d_model=32" in err and "d_model=16" in err
        assert list(ws.glob("mismatch.*")) == []

    def test_quantized_codes_survive_cli_roundtrip(self, ws, quantized):
        model = model_io.load_model(quantized)
        entries = dict(load_tensors(quantized))
        lay = model.blocks[0].layers["q"]
        assert np.array_equal(unpack(lay.qstate.codes),
                              unpack(entries["blocks.0.attn.q.qcodes"]))


def _stage_argv(command, cfg, ws, out, pretrained, quantized):
    """`pretrain`, `quantize` (of the base model), `finetune` (of the
    quantized one) or `eval` (of the quantized one, profiled against the
    base model) with `cfg`, writing `out` or reports prefixed with it."""
    argv = [command, "--config", str(cfg), "--corpus", str(ws / "corpus.txt")]
    argv += ["--report-prefix" if command == "eval" else "--out", str(out)]
    if command == "eval":
        argv += ["--profile-against", str(pretrained)]
    if command != "pretrain":
        argv += ["--in", str(pretrained if command == "quantize" else quantized)]
    return argv


@pytest.mark.parametrize("key,value,command", [
    ("calib.batch", 0, "quantize"),
    ("calib.samples", 0, "quantize"),
    ("calib.seq_len", 0, "quantize"),
    ("pretrain.batch", 0, "pretrain"),
    ("pretrain.seq_len", 0, "pretrain"),
    ("finetune.batch", 0, "finetune"),
    ("finetune.seq_len", 0, "finetune"),
    ("eval.chunk_len", 1, "pretrain"),
    # model.max_seq is 64
    ("pretrain.seq_len", 100, "pretrain"),
    ("eval.chunk_len", 100, "pretrain"),
    ("calib.seq_len", 100, "quantize"),
    ("finetune.seq_len", 100, "finetune"),
    ("eval.chunk_len", 100, "finetune"),
    ("eval.chunk_len", 100, "eval"),
    ("calib.seq_len", 100, "eval"),
    ("finetune.warmup", "inf", "finetune"),
    ("pretrain.lr", "nan", "pretrain"),
    # negative values that ran with exit 0 (finetune.lr = -1 overflowed)
    ("seed", -1, "pretrain"),
    ("pretrain.steps", -1, "pretrain"),
    ("pretrain.lr", -1, "pretrain"),
    ("pretrain.weight_decay", -1, "pretrain"),
    ("finetune.epochs", -1, "finetune"),
    ("finetune.lr", -1, "finetune"),
    ("finetune.weight_decay", -1, "finetune"),
    ("finetune.warmup", -1, "finetune"),
    # a fraction of the steps: 1e308 overflowed, 1e300 ran every step in warmup
    ("finetune.warmup", "1e308", "finetune"),
    ("finetune.warmup", 2.0, "finetune"),
    ("calib.epochs", -1, "quantize"),
    ("calib.loftq_iters", -1, "quantize"),
    ("calib.weight_decay", -1, "quantize"),
    # bounds only a class stated, so a command that does not build the
    # class ran with exit 0
    ("quant.group", 0, "pretrain"),
    ("calib.lr_theta", 0, "eval"),
    ("model.rope_theta", 0, "eval"),
    ("model.n_heads", 0, "eval"),
])
def test_out_of_range_count_exit_2_before_work(ws, pretrained, quantized, capsys,
                                               tmp_path, key, value, command):
    # each case writes in its own directory, so one case that wrongly
    # exits 0 fails only itself
    cfg = tmp_path / "range.cfg"
    # cosine: the schedule that reads finetune.warmup
    cfg.write_text(CONFIG_TEXT + f"{key} = {value}\nfinetune.schedule = cosine\n")
    out = tmp_path / "range.ckpt"
    assert main(_stage_argv(command, cfg, ws, out, pretrained, quantized)) == 2
    assert key in capsys.readouterr().err
    assert list(tmp_path.glob("range.ckpt*")) == []


def test_non_utf8_config_exit_2(ws, capsys):
    cfg = ws / "latin.cfg"
    cfg.write_bytes(b"\xff\xfe")
    assert main(["pretrain", "--config", str(cfg), "--corpus", str(ws / "corpus.txt"),
                 "--out", str(ws / "latin.ckpt")]) == 2
    assert "latin.cfg" in capsys.readouterr().err
    assert list(ws.glob("latin.ckpt*")) == []


def test_non_utf8_corpus_evaluates(ws, pretrained, capsys):
    # a corpus is any file of bytes: tokenization is the identity on bytes
    data = np.random.default_rng(0).integers(0, 256, 4096, dtype=np.uint8).tobytes()
    with pytest.raises(UnicodeDecodeError):
        data.decode("utf-8")
    corpus = ws / "bytes.bin"
    corpus.write_bytes(data)
    assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(pretrained),
                 "--corpus", str(corpus)]) == 0
    assert float(capsys.readouterr().out) > 1.0


# calib.seq_len is 64: the corpus holds 4 windows of it, or less than one
@pytest.mark.parametrize("corpus_len,samples,named", [(256, 5, "5 samples of 64"),
                                                      (63, 1, "one window")])
def test_calib_set_larger_than_corpus_exit_3(ws, pretrained, capsys, corpus_len,
                                             samples, named):
    corpus = ws / f"corpus{corpus_len}.txt"
    corpus.write_bytes((ws / "corpus.txt").read_bytes()[:corpus_len])
    cfg = ws / "samples.cfg"
    cfg.write_text(CONFIG_TEXT + f"calib.samples = {samples}\n")
    out = ws / "calib.ckpt"
    assert main(["quantize", "--config", str(cfg), "--in", str(pretrained),
                 "--method", "apiq-bw", "--corpus", str(corpus), "--out", str(out)]) == 3
    assert named in capsys.readouterr().err
    assert list(ws.glob("calib.ckpt*")) == []


def test_every_dotted_flag_is_a_config_key():
    """A flag whose dest has a dot overrides that config key; a renamed key
    must fail here, not only when the flag is used."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    dests = {a.dest for p in subparsers.choices.values() for a in p._actions}
    dotted = {d for d in dests if "." in d}
    assert dotted == {"calib.method", "quant.bits", "quant.rank",
                      "finetune.lora_position", "eval.chunk_len"}
    assert dotted <= set(SCHEMA)


@pytest.mark.parametrize("command", ["pretrain", "quantize", "finetune"])
def test_directory_out_exit_2_before_work(ws, pretrained, quantized, capsys, command):
    out = ws / "out_dir"
    out.mkdir(exist_ok=True)
    assert main(_stage_argv(command, ws / "run.cfg", ws, out, pretrained,
                            quantized)) == 2
    assert "--out" in capsys.readouterr().err
    assert list(ws.glob("out_dir.*")) == []


# a log or report path derived from --out or --report-prefix that is a
# directory: the command wrote its checkpoint, or computed the profile,
# and then raised IsADirectoryError
@pytest.mark.parametrize("command,suffix", [("pretrain", ".train.tsv"),
                                            ("quantize", ".calib.tsv"),
                                            ("finetune", ".finetune.tsv"),
                                            ("eval", ".act.tsv"),
                                            ("eval", ".weight.tsv"),
                                            ("eval", ".hist.tsv")])
def test_derived_directory_exit_2_before_work(ws, pretrained, quantized, capsys,
                                              tmp_path, command, suffix):
    out = tmp_path / "derived"
    (tmp_path / f"derived{suffix}").mkdir()
    argv = _stage_argv(command, ws / "run.cfg", ws, out, pretrained, quantized)
    if suffix == ".hist.tsv":
        argv += ["--hist", "blocks.0.attn.q"]
    assert main(argv) == 2
    assert f"derived{suffix} is a directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [f"derived{suffix}"]


def test_derived_directory_beside_input_exit_2_before_work(ws, pretrained, quantized,
                                                           capsys, tmp_path):
    # without --report-prefix the reports are written beside --in
    model = tmp_path / "in.ckpt"
    model.write_bytes(quantized.read_bytes())
    (tmp_path / "in.ckpt.act.tsv").mkdir()
    assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(model),
                 "--corpus", str(ws / "corpus.txt"),
                 "--profile-against", str(pretrained)]) == 2
    assert "--in" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt", "in.ckpt.act.tsv"]


# a regular file at the temp path of an output: the command wrote over it
# and renamed it away, exit 0
@pytest.mark.parametrize("command,suffix", [("pretrain", ""),
                                            ("pretrain", ".train.tsv"),
                                            ("quantize", ""),
                                            ("quantize", ".calib.tsv"),
                                            ("finetune", ""),
                                            ("finetune", ".finetune.tsv"),
                                            ("eval", ".act.tsv"),
                                            ("eval", ".weight.tsv")])
def test_file_at_temp_path_exit_2_and_kept(ws, pretrained, quantized, capsys, tmp_path,
                                           command, suffix):
    tmp = tmp_path / f"x{suffix}.tmp"
    tmp.write_text("precious")
    assert main(_stage_argv(command, ws / "run.cfg", ws, tmp_path / "x", pretrained,
                            quantized)) == 2
    assert f"x{suffix}.tmp already exists" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [tmp.name]
    assert tmp.read_text() == "precious"


@pytest.mark.parametrize("command", ["pretrain", "quantize", "finetune", "eval"])
def test_each_file_has_one_temp_name(ws, pretrained, quantized, tmp_path, command):
    """A command writes each file under `<file>.tmp` only: files at any
    other name beside it, such as `<file>.tmp.tmp`, are never touched."""
    written = ([".act.tsv", ".weight.tsv"] if command == "eval"
               else ["", f".{LOGS[command]}.tsv"])
    others = [tmp_path / f"x{suffix}.tmp.tmp" for suffix in written]
    for other in others:
        other.write_text("precious")
    assert main(_stage_argv(command, ws / "run.cfg", ws, tmp_path / "x", pretrained,
                            quantized)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"x{suffix}" for suffix in written] + [p.name for p in others])
    assert all(other.read_text() == "precious" for other in others)


@pytest.mark.parametrize("command", ["pretrain", "quantize", "finetune", "eval"])
def test_out_in_missing_directory_exit_2_before_work(ws, pretrained, quantized, capsys,
                                                     command):
    out = ws / "no_dir" / "x"
    assert main(_stage_argv(command, ws / "run.cfg", ws, out, pretrained,
                            quantized)) == 2
    err = capsys.readouterr().err
    assert ("--report-prefix" if command == "eval" else "--out") in err
    assert "no_dir" in err
    assert not (ws / "no_dir").exists()


# a rule over several fields of one class, broken by a key the command
# does not use: both commands ran with exit 0 and echoed the key in a log
@pytest.mark.parametrize("line,named,command", [("model.n_heads = 3", "n_heads", "quantize"),
                                                ("model.n_heads = 3", "n_heads", "eval"),
                                                ("calib.epochs = 0", "epochs", "eval")])
def test_multi_field_rule_exit_2_before_work(ws, pretrained, quantized, capsys, tmp_path,
                                             line, named, command):
    cfg = tmp_path / "rule.cfg"
    cfg.write_text(CONFIG_TEXT + line + "\n")
    argv = _stage_argv(command, cfg, ws, tmp_path / "rule", pretrained, quantized)
    if command == "quantize":
        argv += ["--method", "rtn"]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rule.cfg"]


# settings that contradict the checkpoint a command reads: `quantize`,
# `finetune` and `eval` exited 0 and echoed these values in their logs
CONTRARY = "model.vocab = 7\nquant.bits = 8\nquant.group = 4\nquant.rank = 1\n"


def _logged(tsv) -> dict[str, str]:
    """The key=value pairs of the config line that begins `tsv`."""
    head, line = tsv.read_text().splitlines()[0].split("\t")
    assert head == "config"
    return dict(pair.split("=", 1) for pair in line.split(" "))


def test_quantize_logs_the_checkpoint_model(ws, pretrained, tmp_path):
    cfg = tmp_path / "contrary.cfg"
    cfg.write_text(CONFIG_TEXT + "model.vocab = 1\nmodel.n_blocks = 1\n")
    assert main(["quantize", "--config", str(cfg), "--in", str(pretrained),
                 "--method", "apiq-lw", "--corpus", str(ws / "corpus.txt"),
                 "--out", str(tmp_path / "lw.ckpt")]) == 0
    logged = _logged(tmp_path / "lw.ckpt.calib.tsv")
    assert (logged["model.vocab"], logged["model.n_blocks"]) == ("256", "2")
    assert (logged["quant.group"], logged["quant.rank"]) == ("16", "4")


def test_finetune_logs_the_checkpoint_model_and_quantization(ws, pretrained, tmp_path):
    """A 2-bit, rank-2, group-16 qlora checkpoint."""
    q = tmp_path / "r2.ckpt"
    assert main(["quantize", "--config", str(ws / "run.cfg"), "--in", str(pretrained),
                 "--method", "qlora", "--rank", "2", "--corpus", str(ws / "corpus.txt"),
                 "--out", str(q)]) == 0
    cfg = tmp_path / "contrary.cfg"
    cfg.write_text(CONFIG_TEXT + CONTRARY)
    assert main(["finetune", "--config", str(cfg), "--in", str(q), "--corpus",
                 str(ws / "corpus.txt"), "--out", str(tmp_path / "ft.ckpt")]) == 0
    logged = _logged(tmp_path / "ft.ckpt.finetune.tsv")
    assert {k: logged[k] for k in ("model.vocab", "quant.bits", "quant.group", "quant.rank",
                                   "quant.clip_granularity")} == {
        "model.vocab": "256", "quant.bits": "2", "quant.group": "16", "quant.rank": "2",
        "quant.clip_granularity": "per-matrix"}


def test_eval_logs_the_checkpoint_model_and_quantization(ws, pretrained, rtn_quantized,
                                                         tmp_path):
    """A 2-bit, group-16 rtn checkpoint, which has no adapters."""
    cfg = tmp_path / "contrary.cfg"
    cfg.write_text(CONFIG_TEXT + CONTRARY)
    assert main(["eval", "--config", str(cfg), "--in", str(rtn_quantized), "--corpus",
                 str(ws / "corpus.txt"), "--profile-against", str(pretrained),
                 "--hist", "blocks.0.mlp.down", "--report-prefix", str(tmp_path / "r")]) == 0
    for kind in ("act", "weight", "hist"):
        logged = _logged(tmp_path / f"r.{kind}.tsv")
        assert [logged[k] for k in ("model.vocab", "quant.bits", "quant.group",
                                    "quant.rank")] == ["256", "2", "16", "0"]


# a 1-block model whose corpus fits a pretrain or calibration window but
# not one eval chunk: each command wrote its files, then failed in
# perplexity with exit 3
SMALL_CONFIG = """
model.d_model = 16
model.n_heads = 2
model.d_ff = 32
model.n_blocks = 1
model.max_seq = 64
pretrain.steps = 1
pretrain.seq_len = 8
calib.samples = 2
calib.seq_len = 16
eval.chunk_len = 64
"""


def _listing(root):
    return {p.name: p.read_bytes() for p in root.iterdir()}


def test_pretrain_short_eval_corpus_writes_nothing(ws, tmp_path, capsys):
    (tmp_path / "small.cfg").write_text(SMALL_CONFIG)
    (tmp_path / "corpus.txt").write_bytes((ws / "corpus.txt").read_bytes()[:32])
    before = _listing(tmp_path)
    assert main(["pretrain", "--config", str(tmp_path / "small.cfg"),
                 "--corpus", str(tmp_path / "corpus.txt"),
                 "--out", str(tmp_path / "m.ckpt")]) == 3
    assert "shorter than one chunk" in capsys.readouterr().err
    assert _listing(tmp_path) == before


def test_eval_reports_short_eval_corpus_writes_nothing(ws, tmp_path, capsys):
    (tmp_path / "small.cfg").write_text(SMALL_CONFIG)
    model = tmp_path / "m.ckpt"
    assert main(["pretrain", "--config", str(tmp_path / "small.cfg"), "--corpus",
                 str(ws / "corpus.txt"), "--out", str(model)]) == 0
    (tmp_path / "corpus.txt").write_bytes((ws / "corpus.txt").read_bytes()[:32])
    before = _listing(tmp_path)
    assert main(["eval", "--config", str(tmp_path / "small.cfg"), "--in", str(model),
                 "--corpus", str(tmp_path / "corpus.txt"), "--profile-against",
                 str(model), "--hist", "blocks.0.mlp.down",
                 "--report-prefix", str(tmp_path / "r")]) == 3
    assert "shorter than one chunk" in capsys.readouterr().err
    assert _listing(tmp_path) == before


def _tampered(src, dst, name, edit):
    """Copy checkpoint `src` to `dst` with tensor `name` edited in place."""
    entries = []
    for n, t in load_tensors(src):
        if n == name:
            t = np.array(t, copy=True)
            edit(t)
        entries.append((n, t))
    save_tensors(dst, entries)
    return dst


class TestCorruptCheckpoints:
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_weight_eval_exit_4(self, ws, pretrained, capsys):
        bad = _tampered(pretrained, ws / "nan.ckpt", "blocks.0.attn.q.weight",
                        lambda t: t.__setitem__((0, 0), np.nan))
        assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 4
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["rtn", "qlora", "loftq", "apiq-lw", "apiq-bw"])
    def test_nan_weight_quantize_exit_4(self, ws, pretrained, capsys, method):
        bad = _tampered(pretrained, ws / "nanq.ckpt", "blocks.0.attn.q.weight",
                        lambda t: t.__setitem__((0, 0), np.nan))
        out = ws / f"nanq.{method}.ckpt"
        assert main(["quantize", "--config", str(ws / "run.cfg"), "--in", str(bad),
                     "--method", method, "--corpus", str(ws / "corpus.txt"),
                     "--out", str(out)]) == 4
        assert "non-finite weight in layer blocks.0.attn.q" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["rtn", "apiq-bw"])
    @pytest.mark.parametrize("tensor,index", [("embed.weight", (3, 0)),
                                              ("final_norm.weight", (5,))])
    def test_nan_non_layer_tensor_quantize_exit_4(self, ws, pretrained, capsys,
                                                  method, tensor, index):
        bad = _tampered(pretrained, ws / "nant.ckpt", tensor,
                        lambda t: t.__setitem__(index, np.nan))
        out = ws / f"nant.{method}.ckpt"
        assert main(["quantize", "--config", str(ws / "run.cfg"), "--in", str(bad),
                     "--method", method, "--corpus", str(ws / "corpus.txt"),
                     "--out", str(out)]) == 4
        assert f"non-finite tensor {tensor}" in capsys.readouterr().err
        assert not out.exists()

    # config = [vocab, d_model, n_heads, d_ff, n_blocks, max_seq, rope_theta];
    # a size the stored tensors do not have fails before the model is built
    @pytest.mark.parametrize("index,value,named", [(0, 2.0 ** 40, "'embed.weight'"),
                                                   (1, 2.0 ** 40, "'embed.weight'"),
                                                   (3, 2.0 ** 40, "d_ff"),
                                                   (4, 3.0, "n_blocks 3")])
    def test_header_size_mismatch_exit_3(self, ws, pretrained, capsys, index, value,
                                         named):
        bad = _tampered(pretrained, ws / "size.ckpt", "config",
                        lambda t: t.__setitem__(index, value))
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("index,value,named", [(2, 2.5, "n_heads 2.5"),
                                                   (6, 0.0, "rope_theta"),
                                                   (6, -1.0, "rope_theta")])
    def test_header_value_invalid_exit_3(self, ws, pretrained, capsys, index, value,
                                         named):
        bad = _tampered(pretrained, ws / "value.ckpt", "config",
                        lambda t: t.__setitem__(index, value))
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert named in capsys.readouterr().err

    def test_header_d_model_beyond_stored_q_exit_3(self, ws, capsys):
        # a 1 MB file whose embedding and gate have the extents of a header
        # d_model of 2**17 asked for 64 GiB (2**17, 2**17) projections
        d = 2 ** 17
        bad = ws / "dmodel.ckpt"
        save_tensors(bad, [("config", np.array([1.0, d, 2, 1, 1, 16, 1e4])),
                           ("embed.weight", np.zeros((1, d), np.float32)),
                           ("blocks.0.mlp.gate.weight", np.zeros((d, 1), np.float32))])
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert "d_model 131072 does not match the stored 'blocks.0.attn.q.weight'" in \
            capsys.readouterr().err

    def test_header_n_blocks_beyond_stored_layers_exit_3(self, ws, pretrained, capsys):
        # 98 block names with no layers asked for 98 more full-size blocks
        # (1.7 GB resident for 20000 names in a 1.2 MB file) before the walk
        entries = load_tensors(pretrained)
        config = entries[0][1].copy()
        config[4] = 100
        bad = ws / "blocks.ckpt"
        save_tensors(bad, [("config", config)] + entries[1:]
                     + [(f"blocks.{i}.x", np.zeros(0, np.float32)) for i in range(2, 100)])
        tracemalloc.start()
        try:
            code = main(["eval", "--in", str(bad), "--corpus", str(ws / "corpus.txt")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "does not match the stored 'blocks.2.attn.q.weight'" in capsys.readouterr().err
        assert peak < 2 ** 20

    def test_huge_max_seq_is_a_limit(self, ws, pretrained, capsys):
        # max_seq has no tensor to check against: a header of 2**40 must
        # allocate nothing of that length and leave the perplexity as it is
        args = ["eval", "--config", str(ws / "run.cfg"),
                "--corpus", str(ws / "corpus.txt"), "--in"]
        assert main(args + [str(pretrained)]) == 0
        expect = capsys.readouterr().out
        bad = _tampered(pretrained, ws / "seq.ckpt", "config",
                        lambda t: t.__setitem__(5, 2.0 ** 40))
        assert main(args + [str(bad)]) == 0
        assert capsys.readouterr().out == expect

    def test_bad_config_tensor_exit_3(self, ws, pretrained, capsys):
        bad = _tampered(pretrained, ws / "heads.ckpt", "config",
                        lambda t: t.__setitem__(2, 3))
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert "n_heads 3" in capsys.readouterr().err

    def test_bad_quant_meta_exit_3(self, ws, quantized, capsys):
        bad = _tampered(quantized, ws / "bits.ckpt", "quant.meta",
                        lambda t: t.__setitem__(0, 5))
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert "bits must be one of 2, 3, 4, 8, got 5" in capsys.readouterr().err

    def test_non_utf8_tensor_name_exit_3(self, ws, pretrained, capsys):
        blob = bytearray(pretrained.read_bytes())
        at = blob.index(b"embed.weight")
        blob[at] = 0xFF
        bad = ws / "utf8.ckpt"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert f"tensor name is not UTF-8 (at byte offset {at})" in capsys.readouterr().err

    # values `quantize` never writes: a scale below SCALE_FLOOR or not
    # finite, a zero-point off the integer grid [0, qmax]
    @pytest.mark.parametrize("suffix,value", [("scale", -1.0), ("scale", np.nan),
                                              ("zero", 1e9), ("zero", 0.5)])
    def test_quantizer_value_quantize_never_writes_exit_3(self, ws, quantized, capsys,
                                                          suffix, value):
        name = f"blocks.0.attn.q.{suffix}"
        bad = _tampered(quantized, ws / "qparam.ckpt", name,
                        lambda t: t.__setitem__((0, 0), value))
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert f"tensor '{name}' holds a value" in capsys.readouterr().err

    # quant.meta = [bits, group, granularity flag, shared adapter rank]; the
    # header decode names the first three, and the load walk a rank other
    # than the adapters' (4)
    @pytest.mark.parametrize("index,value,named", [(0, 2.5, "bits 2.5"),
                                                   (1, 16.5, "group 16.5"),
                                                   (2, 0.5, "granularity flag 0.5"),
                                                   (3, -5.0, "rank -5.0"),
                                                   (3, 0.0, "rank 0.0")])
    def test_quant_meta_value_invalid_exit_3(self, ws, quantized, capsys, index, value,
                                             named):
        bad = _tampered(quantized, ws / "meta.ckpt", "quant.meta",
                        lambda t: t.__setitem__(index, value))
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        err = capsys.readouterr().err
        assert ("tensor 1 is 'quant.meta'" if index == 3 else f"quant.meta {named}") in err

    @pytest.mark.parametrize("config", [np.array([256.0, 32.0, 4.0]),
                                        np.full(7, np.nan)])
    def test_short_or_nan_config_exit_3(self, ws, pretrained, capsys, config):
        bad = ws / "cfg7.ckpt"
        save_tensors(bad, [(n, config if n == "config" else t)
                           for n, t in load_tensors(pretrained)])
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert "'config' tensor must hold 7 finite values" in capsys.readouterr().err

    def test_rank_zero_adapter_exit_3(self, ws, quantized, capsys):
        name = "blocks.0.attn.q"
        bad = ws / "rank0.ckpt"
        save_tensors(bad, [(n, t[:, :0] if n in (f"{name}.lora_a", f"{name}.lora_b")
                            else t) for n, t in load_tensors(quantized)])
        assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert f"'{name}.lora_a'" in capsys.readouterr().err

    def test_short_embedding_exit_3(self, ws, pretrained, capsys):
        bad = ws / "embed.ckpt"
        save_tensors(bad, [(n, t[:10] if n == "embed.weight" else t)
                           for n, t in load_tensors(pretrained)])
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert "'embed.weight'" in capsys.readouterr().err

    def test_wrong_weight_shape_exit_3(self, ws, pretrained, capsys):
        bad = ws / "qshape.ckpt"
        save_tensors(bad, [(n, t[:16, :8] if n == "blocks.0.attn.q.weight" else t)
                           for n, t in load_tensors(pretrained)])
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert "'blocks.0.attn.q.weight'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,named", [
        # the adapter's lora_a dropped, its lora_b kept, and an unknown tensor
        (lambda n, t: [] if n == "blocks.0.attn.q.lora_a"
         else [(n, t)] + ([("junk.tensor", t)] if n == "final_norm.weight" else []),
         "'blocks.0.attn.q.lora_b'"),
        (lambda n, t: [(n, t)] + ([("junk.tensor", t)] if n == "final_norm.weight" else []),
         "'junk.tensor'"),
        (lambda n, t: [(n, t)] * (2 if n == "embed.weight" else 1), "'embed.weight'"),
    ], ids=["lora_a-dropped-junk-added", "junk-added", "duplicate"])
    def test_names_save_would_not_write_exit_3(self, ws, quantized, capsys, edit,
                                                named):
        bad = ws / "names.ckpt"
        save_tensors(bad, [e for n, t in load_tensors(quantized) for e in edit(n, t)])
        assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert named in capsys.readouterr().err

    def test_mixed_adapter_ranks_exit_3(self, ws, quantized, capsys):
        # quant.meta records one rank that every adapter shares; save_model
        # writes no file with two ranks, so none loads: the walk fails at the
        # first adapter of another rank
        def edit(n, t):
            return t[:, :2] if n.startswith("blocks.0.attn.q.lora_") else t

        bad = ws / "ranks.ckpt"
        save_tensors(bad, [(n, edit(n, t)) for n, t in load_tensors(quantized)])
        assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert "'blocks.0.attn.q.lora_a'" in capsys.readouterr().err

    # kinds save_model never writes: a tensor or header in the other float
    # width (each loaded and evaluated with exit 0, and saved other bytes)
    @pytest.mark.parametrize("name,which", [
        ("embed.weight", "pretrained"), ("final_norm.weight", "pretrained"),
        ("blocks.0.attn.q.scale", "quantized"), ("blocks.0.attn.q.lora_a", "quantized"),
        ("config", "pretrained"), ("quant.meta", "quantized")])
    def test_other_float_width_exit_3(self, ws, request, capsys, name, which):
        def edit(n, t):
            if n != name:
                return t
            return t.astype(np.float64 if t.dtype == np.float32 else np.float32)

        bad = ws / "width.ckpt"
        save_tensors(bad, [(n, edit(n, t))
                           for n, t in load_tensors(request.getfixturevalue(which))])
        assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert f"'{name}'" in capsys.readouterr().err

    # quant.meta ranks save_model never writes: one on a model with no
    # adapters, -1 (none) on a model with adapters, and 4 on rank-8 adapters
    @pytest.mark.parametrize("which,rank", [("rtn_quantized", 5.0), ("quantized", -1.0),
                                             ("rank8_quantized", 4.0)])
    def test_alpha_save_would_not_write_exit_3(self, ws, request, capsys, which, rank):
        bad = _tampered(request.getfixturevalue(which), ws / "alpha.ckpt", "quant.meta",
                        lambda t: t.__setitem__(3, rank))
        assert main(["eval", "--config", str(ws / "run.cfg"), "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert "'quant.meta'" in capsys.readouterr().err
