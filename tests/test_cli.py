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

    def test_missing_checkpoint_exit_3(self, ws):
        assert main(["quantize", "--in", str(ws / "nope.ckpt"),
                     "--out", str(ws / "x.ckpt")]) == 3

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
