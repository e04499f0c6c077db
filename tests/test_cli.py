import numpy as np
import pytest

from apiq import model_io
from apiq.checkpoint import load_tensors, save_tensors
from apiq.cli import main
from apiq.model import ModelConfig, TinyTransformer
from apiq.quant import unpack
from apiq.runconfig import default_corpus_path

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
    def test_failed_log_write_leaves_no_partial_tsv(self, ws, pretrained,
                                                    monkeypatch, existing):
        def write_then_fail(fh, header, rows, config_line=None):
            fh.write(f"config\t{config_line}\n")
            raise OSError("disk full")

        out = ws / f"failed{int(existing)}.ckpt"
        log = ws / f"{out.name}.calib.tsv"
        if existing:
            log.write_text("old log\n")
        monkeypatch.setattr("apiq.cli.write_tsv", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            main(["quantize", "--config", str(ws / "run.cfg"), "--in", str(pretrained),
                  "--method", "rtn", "--bits", "2", "--out", str(out)])
        if existing:
            assert log.read_text() == "old log\n"
        else:
            assert not log.exists()
        assert not (ws / f"{log.name}.tmp").exists()

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

    def test_directory_input_exit_3(self, ws, capsys):
        assert main(["eval", "--in", str(ws), "--corpus", str(ws / "corpus.txt")]) == 3
        assert "cannot read checkpoint" in capsys.readouterr().err

    def test_quantized_codes_survive_cli_roundtrip(self, ws, quantized):
        model = model_io.load_model(quantized)
        entries = dict(load_tensors(quantized))
        lay = model.blocks[0].layers["q"]
        assert np.array_equal(unpack(lay.qstate.codes),
                              unpack(entries["blocks.0.attn.q.qcodes"]))


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
        assert "bit width 5" in capsys.readouterr().err

    @pytest.mark.parametrize("config", [np.array([256.0, 32.0, 4.0]),
                                        np.full(7, np.nan)])
    def test_short_or_nan_config_exit_3(self, ws, pretrained, capsys, config):
        bad = ws / "cfg7.ckpt"
        save_tensors(bad, [(n, config if n == "config" else t)
                           for n, t in load_tensors(pretrained)])
        assert main(["eval", "--in", str(bad),
                     "--corpus", str(ws / "corpus.txt")]) == 3
        assert "'config' tensor must hold 7 finite values" in capsys.readouterr().err

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
