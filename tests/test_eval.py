import tracemalloc

import numpy as np
import pytest

from apiq.autodiff import log_softmax_nll
from apiq.calib import CalibPlan, quantize_model, sample_calib
from apiq.errors import ConfigError, InputError
from apiq.evals import (activation_error_profile, histogram_export,
                        histogram_rows, perplexity, report_rows,
                        weight_error_report, write_tsv)
from apiq.model import ModelConfig, TinyTransformer, linear_apply
from apiq.quant import QuantSpec
from apiq.rng import RngState
from apiq.runconfig import default_corpus_path, load_corpus

CFG = ModelConfig(vocab=256, d_model=32, n_heads=4, d_ff=64, n_blocks=2, max_seq=64)


def _uniform_model(cfg=CFG):
    m = TinyTransformer(cfg)
    m.embed = TinyTransformer.init(cfg, seed=1).embed
    m.final_norm = np.zeros_like(m.final_norm)
    for b in m.blocks:
        b.norm1 = np.zeros_like(b.norm1)
        b.norm2 = np.zeros_like(b.norm2)
    return m


class TestPerplexity:
    def test_uniform_model_equals_vocab_size(self):
        m = _uniform_model()
        tokens = RngState(2).randint(0, 256, (1024,))
        ppl = perplexity(m, tokens, 64)
        assert abs(ppl - 256.0) < 1e-3

    def test_single_chunk_equals_whole_sequence_ce(self):
        m = TinyTransformer.init(CFG, seed=3)
        tokens = RngState(4).randint(0, 256, (70,))  # one 64-chunk + partial
        ppl = perplexity(m, tokens, 64)
        chunk = tokens[:64][None, :]
        logits = m.forward(chunk).value.astype(np.float64)
        nll = log_softmax_nll(logits[0, :-1], chunk[0, 1:])
        assert np.isclose(ppl, np.exp(nll.mean()), rtol=1e-12)

    def test_corpus_shorter_than_chunk_rejected(self):
        m = TinyTransformer.init(CFG, seed=3)
        with pytest.raises(InputError):
            perplexity(m, np.zeros(10, dtype=np.int64), 64)

    @pytest.mark.parametrize("chunk_len", [1, 0, -5])
    def test_chunk_shorter_than_two_is_a_config_error(self, chunk_len):
        m = TinyTransformer.init(CFG, seed=3)
        with pytest.raises(ConfigError, match="chunk_len"):
            perplexity(m, np.zeros(10, dtype=np.int64), chunk_len)

    @pytest.mark.parametrize("chunk_len", [7, 32, 64, 100, 128])
    def test_same_bits_as_whole_group_forwards(self, chunk_len):
        """Small forwards give the repr of one forward per 64 chunks, on a
        quantized model with adapters and a ragged last group."""
        cfg = ModelConfig(vocab=256, d_model=32, n_heads=4, d_ff=64, n_blocks=2,
                          max_seq=128)
        corpus = RngState(40).randint(0, 256, (12_000,))
        model, _ = quantize_model(TinyTransformer.init(cfg, seed=41),
                                  sample_calib(corpus, 4, 32, seed=0),
                                  CalibPlan(method="loftq", loftq_iters=1),
                                  QuantSpec(bits=2, group=16, rank=4))
        n_chunks = len(corpus) // chunk_len
        assert n_chunks % 64
        chunks = corpus[: n_chunks * chunk_len].reshape(n_chunks, chunk_len)
        total, count = 0.0, 0
        for lo in range(0, n_chunks, 64):
            batch = chunks[lo: lo + 64]
            logits = model.forward(batch).value[:, :-1].astype(np.float64)
            tgt = batch[:, 1:].reshape(-1)
            total += float(log_softmax_nll(logits.reshape(-1, 256), tgt).sum())
            count += tgt.size
        expected = float(np.exp(total / count))
        assert repr(perplexity(model, corpus, chunk_len)) == repr(expected)

    def test_default_config_peak_memory(self):
        """One call at the default model and chunk length on the bundled
        corpus stays in small buffers (one forward of all 64 chunks of a
        group peaked at about 50 MB)."""
        model = TinyTransformer.init(ModelConfig(), seed=0)
        corpus = load_corpus(default_corpus_path())
        perplexity(model, corpus[:4096], 128)  # warm the per-length caches
        tracemalloc.start()
        try:
            perplexity(model, corpus, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_ppl_at_least_one(self):
        m = TinyTransformer.init(CFG, seed=5)
        tokens = RngState(6).randint(0, 256, (512,))
        assert perplexity(m, tokens, 64) >= 1.0

    def test_memorizes_repeated_corpus(self):
        from apiq.train import PretrainPlan, pretrain
        cfg = ModelConfig(vocab=256, d_model=32, n_heads=4, d_ff=48, n_blocks=1,
                          max_seq=32)
        m = TinyTransformer.init(cfg, seed=7)
        pattern = np.frombuffer(b"the quick brown fox jumps over! ", dtype=np.uint8)
        assert len(pattern) == 32
        corpus = np.tile(pattern, 96).astype(np.int64)
        pretrain(m, corpus, PretrainPlan(steps=250, lr=2e-3, batch=8, seq_len=32,
                                         weight_decay=0.0, seed=7))
        assert perplexity(m, corpus, 32) < 2.0


class TestActivationProfile:
    def test_self_profile_is_zero(self):
        m = TinyTransformer.init(CFG, seed=8)
        tokens = RngState(9).randint(0, 256, (2, 32))
        rep = activation_error_profile(m, m, tokens)
        assert all(r.value == 0.0 for r in rep.records)
        assert len(rep.records) == 14

    def test_eight_bit_below_two_bit_everywhere(self):
        for seed in (0, 1, 2):
            m = TinyTransformer.init(CFG, seed=20 + seed)
            corpus = RngState(30 + seed).randint(0, 256, (4096,))
            calib = sample_calib(corpus, 4, 32, seed=seed)
            out = {}
            for bits in (8, 2):
                qm, _ = quantize_model(m, calib, CalibPlan(method="rtn", seed=seed),
                                       QuantSpec(bits=bits, group=16, rank=0))
                out[bits] = activation_error_profile(m, qm, calib.tokens)
            for r8, r2 in zip(out[8].records, out[2].records):
                assert r8.value < r2.value

    def test_two_layer_closed_form_accumulation(self):
        # propagated error after two linear layers matches the algebraic
        # expansion || X (W0 d1 + d0 W1 - d0 d1) ||_F with hand-set deltas
        r = RngState(40)
        x = r.randn((6, 5))
        w0, w1 = r.randn((5, 4)), r.randn((4, 3))
        d0 = r.randn((5, 4)) * 0.05
        d1 = r.randn((4, 3)) * 0.05
        full = x @ w0 @ w1
        quant = (x @ (w0 - d0)) @ (w1 - d1)
        direct = np.linalg.norm(full - quant)
        closed = np.linalg.norm(x @ (w0 @ d1 + d0 @ w1 - d0 @ d1))
        assert np.isclose(direct, closed, rtol=1e-9)

    def test_same_bits_as_two_whole_forwards(self):
        """Walking both models block by block gives the records of one
        whole forward per model, on a quantized model with adapters."""
        m = TinyTransformer.init(CFG, seed=12)
        corpus = RngState(13).randint(0, 256, (4096,))
        calib = sample_calib(corpus, 4, 32, seed=2)
        qm, _ = quantize_model(m, calib, CalibPlan(method="loftq", loftq_iters=1),
                               QuantSpec(bits=2, group=16, rank=4))

        def layer_outputs(model):
            outs = []

            def hook(layer, x):
                y = linear_apply(layer, x)
                outs.append((layer.name, y.value))
                return y

            model.forward(calib.tokens, hook=hook)
            return outs

        expected = []
        for (name, y_f), (_, y_q) in zip(layer_outputs(m), layer_outputs(qm)):
            diff = y_f.astype(np.float64) - y_q.astype(np.float64)
            expected.append((name, int(name.split(".")[1]),
                             repr(float(np.sqrt((diff * diff).sum())) / calib.tokens.size)))
        rep = activation_error_profile(m, qm, calib.tokens)
        assert [(r.layer, r.block, repr(r.value)) for r in rep.records] == expected

    def test_deterministic(self):
        m = TinyTransformer.init(CFG, seed=10)
        corpus = RngState(11).randint(0, 256, (4096,))
        calib = sample_calib(corpus, 4, 32, seed=1)
        qm, _ = quantize_model(m, calib, CalibPlan(method="rtn", seed=1),
                               QuantSpec(bits=2, group=16, rank=0))
        a = activation_error_profile(m, qm, calib.tokens)
        b = activation_error_profile(m, qm, calib.tokens)
        assert [r.value for r in a.records] == [r.value for r in b.records]


class TestWeightError:
    def _models(self, seed=0):
        m = TinyTransformer.init(CFG, seed=50 + seed)
        corpus = RngState(60 + seed).randint(0, 256, (4096,))
        calib = sample_calib(corpus, 4, 32, seed=seed)
        spec = QuantSpec(bits=2, group=16, rank=4)
        rtn, _ = quantize_model(m, calib, CalibPlan(method="rtn", seed=seed), spec)
        return m, rtn

    def test_tsv_shape(self, tmp_path):
        m, rtn = self._models(seed=2)
        rep = weight_error_report(m, rtn)
        path = tmp_path / "r.weight.tsv"
        write_tsv(path, ["layer", "block", rep.kind], report_rows(rep), "seed=2")
        text = path.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "config\tseed=2"
        assert lines[1] == "layer\tblock\tweight-frobenius"
        assert len(lines) == 2 + 14


class TestHistograms:
    def _quantized_layer(self, method="qlora"):
        m = TinyTransformer.init(CFG, seed=70)
        corpus = RngState(71).randint(0, 256, (4096,))
        calib = sample_calib(corpus, 4, 32, seed=3)
        qm, _ = quantize_model(m, calib,
                               CalibPlan(method=method, epochs=3, seed=3),
                               QuantSpec(bits=2, group=16, rank=4))
        return m, qm.blocks[0].layers["q"]

    def test_counts_conserved_and_recount_oracle(self):
        m, lay = self._quantized_layer("apiq-lw")
        hists = histogram_export(lay, bins=16,
                                 reference_weight=m.blocks[0].layers["q"].weight)
        for name in ("W", "Q", "ABt", "A", "B"):
            centers, counts = hists[name]
            tensor = {"W": m.blocks[0].layers["q"].weight,
                      "Q": lay.qstate.dequantized(),
                      "ABt": lay.lora.delta(), "A": lay.lora.a,
                      "B": lay.lora.b}[name]
            assert counts.sum() == tensor.size
            # independent recount with the same edges
            lo, hi = float(tensor.min()), float(tensor.max())
            if lo == hi:
                lo, hi = lo - 0.5, hi + 0.5
            edges = np.linspace(lo, hi, 17)
            expect = np.histogram(np.asarray(tensor, np.float64).ravel(), edges)[0]
            assert np.array_equal(counts, expect)

    def test_qlora_b_single_spike_at_zero(self):
        _, lay = self._quantized_layer("qlora")
        centers, counts = histogram_export(lay, bins=9)["B"]
        assert counts.sum() == lay.lora.b.size
        assert counts[4] == lay.lora.b.size  # all mass in the middle bin
        assert abs(centers[4]) < 1e-9

    def test_q_grid_support(self, tmp_path):
        _, lay = self._quantized_layer("qlora")
        centers, counts = histogram_export(lay, bins=64)["Q"]
        # 2-bit codes with 2 groups per column: distinct values per column
        # <= 4, so nonzero bins are sparse
        distinct = len(np.unique(lay.qstate.dequantized()))
        assert np.count_nonzero(counts) <= distinct
        path = tmp_path / "r.hist.tsv"
        write_tsv(path, ["tensor", "bin_center", "count"],
                  histogram_rows({"Q": (centers, counts)}), "seed=3")
        text = path.read_text(encoding="utf-8")
        assert text.startswith("config\tseed=3\ntensor\tbin_center\tcount\n")

    def test_bins_validation(self):
        # at least two bins, and no more than the layer's 32 * 32 weights
        _, lay = self._quantized_layer()
        for bins in (1, 32 * 32 + 1, 2 ** 62):
            with pytest.raises(ValueError, match="bins must be >= 2 and <= 1024"):
                histogram_export(lay, bins=bins)
        assert histogram_export(lay, bins=32 * 32)["Q"][1].sum() == 32 * 32
