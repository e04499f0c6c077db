import copy

import numpy as np
import pytest

from apiq import autodiff as ad
from apiq.calib import (AdamW, CalibPlan, _second_moments, apiq_bw_block,
                        apiq_lw_layer, loftq_init, quantize_model, sample_calib)
from apiq.errors import ConfigError, InputError, NumericError
from apiq.evals import activation_error_profile
from apiq.linalg import group_minmax
from apiq.model import (Linear, ModelConfig, TinyTransformer, forward_block,
                        linear_apply, lora_delta)
from apiq.quant import QuantSpec, fake_quant, ste_fake_quant
from apiq.rng import RngState

CFG = ModelConfig(vocab=64, d_model=32, n_heads=4, d_ff=64, n_blocks=2, max_seq=32)


def _linear(name, w):
    w = np.asarray(w, dtype=np.float32)
    return Linear(name=name, d1=w.shape[0], d2=w.shape[1], weight=w)


def _toy_corpus(n=6000, vocab=64, seed=9):
    return RngState(seed).randint(0, vocab, (n,))


@pytest.fixture(scope="module")
def toy_setup():
    model = TinyTransformer.init(CFG, seed=1)
    calib = sample_calib(_toy_corpus(), 8, 32, seed=0)
    return model, calib


class TestAdamW:
    def test_zero_grad_no_decay_unchanged(self):
        p = np.ones((3,), dtype=np.float32)
        opt = AdamW([([p], 0.1, 0.0)])
        opt.step([[np.zeros_like(p)]])
        assert np.array_equal(p, np.ones(3, dtype=np.float32))

    def test_decay_only_shrinks(self):
        p = np.full((2,), 2.0, dtype=np.float32)
        opt = AdamW([([p], 0.01, 0.5)])
        opt.step([[None]])
        assert np.allclose(p, 2.0 * (1 - 0.01 * 0.5))

    def test_matches_scalar_oracle(self):
        # ten-line scalar AdamW reference
        def oracle(p, g, lr, wd, steps):
            m = v = 0.0
            for t in range(1, steps + 1):
                p = p * (1 - lr * wd)
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g * g
                mh = m / (1 - 0.9 ** t)
                vh = v / (1 - 0.999 ** t)
                p -= lr * mh / (vh ** 0.5 + 1e-8)
            return p

        p = np.array([1.5], dtype=np.float64)
        g = np.array([0.3], dtype=np.float64)
        opt = AdamW([([p], 0.01, 0.1)])
        for _ in range(7):
            opt.step([[g]])
        assert np.allclose(p[0], oracle(1.5, 0.3, 0.01, 0.1, 7), rtol=1e-12)

    def test_first_step_is_sign_scaled(self):
        p = np.array([1.0], dtype=np.float64)
        opt = AdamW([([p], 0.01, 0.0)])
        opt.step([[np.array([42.0])]])
        # bias-corrected first step is ~ -lr * g/(|g| + eps)
        assert np.allclose(p[0], 1.0 - 0.01, atol=1e-8)


class TestPlanAndData:
    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            CalibPlan(method="nope")
        with pytest.raises(ConfigError):
            CalibPlan(method="apiq-lw", epochs=0)
        with pytest.raises(ConfigError):
            CalibPlan(lr_theta=0.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="lr_lora"):
                CalibPlan(lr_lora=lr)

    def test_sample_calib_bounded_by_corpus(self):
        corpus = np.arange(100)
        assert sample_calib(corpus, 2, 50, seed=0).tokens.shape == (2, 50)
        # 102 tokens, one sample more than the corpus holds; and a corpus
        # shorter than one window
        for samples, seq_len in ((3, 34), (1, 101)):
            with pytest.raises(InputError):
                sample_calib(corpus, samples, seq_len, seed=0)

    def test_sample_calib_deterministic(self):
        corpus = _toy_corpus()
        a = sample_calib(corpus, 4, 16, seed=3)
        b = sample_calib(corpus, 4, 16, seed=3)
        c = sample_calib(corpus, 4, 16, seed=4)
        assert np.array_equal(a.tokens, b.tokens)
        assert not np.array_equal(a.tokens, c.tokens)
        assert a.tokens.shape == (4, 16)


class TestBaselineInits:
    """rtn and qlora: LoftQ's first step (loftq_init at rank 0), then for
    qlora the default adapter."""

    def test_qlora_effective_weight_is_fake_quant(self, toy_setup):
        model, calib = toy_setup
        spec = QuantSpec(bits=2, group=8)
        qm, rows = quantize_model(model, calib, CalibPlan(method="qlora", seed=5),
                                  spec, rank=4)
        assert rows == []
        for lay, ql in zip(model.iter_layers(), qm.iter_layers()):
            assert np.array_equal(ql.effective_weight(),
                                  fake_quant(lay.weight, None, spec))
            assert np.all(ql.lora.b == 0.0)
            bound = 1.0 / np.sqrt(lay.d1)
            assert np.all(np.abs(ql.lora.a) <= bound)

    def test_weight_error_is_fake_quant_residual(self):
        spec = QuantSpec(bits=2, group=8)
        w = (RngState(3).randn((8, 8)) * 0.2).astype(np.float32)
        lay = _linear("blocks.0.attn.q", w)
        loftq_init(lay, spec, rank=0, iters=5)
        err = np.linalg.norm(w - lay.effective_weight())
        assert np.isclose(err, np.linalg.norm(w - fake_quant(w, None, spec)))

    def test_on_grid_zero_weight_error(self):
        spec = QuantSpec(bits=2, group=4)
        grid = RngState(4).randint(0, 4, (4, 5))
        grid[0, :] = 0
        grid[-1, :] = 3
        w = grid.astype(np.float32) * np.float32(0.25)
        lay = _linear("blocks.0.attn.q", w)
        loftq_init(lay, spec, rank=0, iters=5)
        assert lay.lora is None
        assert np.array_equal(lay.effective_weight(), w)


class TestLoftq:
    def test_on_grid_residual_zero_adapters_zero(self):
        spec = QuantSpec(bits=2, group=4)
        grid = RngState(5).randint(0, 4, (4, 6))
        grid[0, :] = 0
        grid[-1, :] = 3
        w = grid.astype(np.float32) * np.float32(0.5)
        lay = _linear("blocks.0.attn.q", w)
        loftq_init(lay, spec, rank=2, iters=3)
        assert np.all(lay.lora.a == 0.0)
        assert np.all(lay.lora.b == 0.0)
        assert np.array_equal(lay.effective_weight(), w)

    def test_first_iteration_strictly_reduces_weight_error(self):
        spec = QuantSpec(bits=2, group=8)
        for seed in range(10):
            w = (RngState(seed).randn((8, 8)) * 0.3).astype(np.float32)
            lay = _linear("blocks.0.attn.q", w)
            loftq_init(lay, spec, rank=2, iters=1)
            got = np.linalg.norm(w - lay.effective_weight())
            rtn = np.linalg.norm(w - fake_quant(w, None, spec))
            assert got < rtn

    def test_full_rank_single_iteration_near_exact(self):
        spec = QuantSpec(bits=2, group=8)
        w = (RngState(11).randn((8, 8)) * 0.3).astype(np.float32)
        lay = _linear("blocks.0.attn.q", w)
        loftq_init(lay, spec, rank=8, iters=1)
        assert np.linalg.norm(w - lay.effective_weight()) <= 1e-5

    def test_more_iterations_do_not_hurt(self):
        spec = QuantSpec(bits=2, group=8)
        w = (RngState(12).randn((16, 8)) * 0.3).astype(np.float32)
        errs = []
        for iters in (1, 5):
            lay = _linear("blocks.0.attn.q", w)
            loftq_init(lay, spec, rank=4, iters=iters)
            errs.append(np.linalg.norm(w - lay.effective_weight()))
        assert errs[1] <= errs[0] * 1.05


class TestApiqLwLayer:
    def test_one_by_one_converges(self):
        # run to convergence: the adapter must bridge an O(1) gap, so this
        # example gets a long schedule and no decay pulling it off target
        spec = QuantSpec(bits=8, group=1)
        lay = _linear("blocks.0.attn.q", [[1.0]])
        x = np.array([[[1.0]]], dtype=np.float32)
        plan = CalibPlan(method="apiq-lw", epochs=1500, batch=1, seed=0,
                         weight_decay=0.0, lr_lora=0.01)
        y = x @ lay.weight
        yq, rows = apiq_lw_layer(lay, y, x, plan, spec, rank=1, stream=RngState(1))
        assert min(r.loss for r in rows) < 1e-6
        assert float(((y - yq) ** 2).mean()) < 1e-6

    def test_zero_weights_loss_zero_effect_unchanged(self):
        spec = QuantSpec(bits=2, group=4)
        lay = _linear("blocks.0.attn.q", np.zeros((4, 3)))
        x = RngState(2).randn((2, 5, 4)).astype(np.float32)
        plan = CalibPlan(method="apiq-lw", epochs=3, batch=2, seed=0)
        yq, rows = apiq_lw_layer(lay, x @ lay.weight, x, plan, spec, rank=2,
                                 stream=RngState(3))
        assert rows[0].loss == 0.0
        assert np.all(yq == 0.0)
        assert np.array_equal(lay.effective_weight(), np.zeros((4, 3), np.float32))

    @pytest.mark.parametrize("seed", range(10))
    def test_final_loss_at_most_initial(self, seed):
        spec = QuantSpec(bits=2, group=16)
        w = (RngState(seed).randn((16, 16)) * 0.1).astype(np.float32)
        lay = _linear("blocks.0.attn.q", w)
        x = RngState(100 + seed).randn((8, 4, 16)).astype(np.float32)
        plan = CalibPlan(method="apiq-lw", epochs=20, batch=4, seed=seed)
        _, rows = apiq_lw_layer(lay, x @ w, x, plan, spec, rank=4,
                                stream=RngState(200 + seed))
        retained = min(r.loss for r in rows)
        assert retained <= rows[0].loss

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_aborts_with_context(self):
        spec = QuantSpec(bits=2, group=4)
        lay = _linear("blocks.0.attn.q", (RngState(1).randn((4, 4)) * 1e18).astype(np.float32))
        x = (RngState(2).randn((2, 2, 4)) * 1e18).astype(np.float32)
        plan = CalibPlan(method="apiq-lw", epochs=3, batch=1, seed=0,
                         lr_lora=1e30, lr_theta=1e30)
        with pytest.raises(NumericError) as exc:
            apiq_lw_layer(lay, x @ lay.weight, x, plan, spec, rank=2, stream=RngState(3))
        msg = str(exc.value)
        assert "blocks.0.attn.q" in msg and "epoch" in msg and "batch" in msg

    def test_non_finite_gradient_aborts_before_numpy_warns(self, optimized_arrays):
        # inputs at 1e21: the first step's loss (about 3e36) is finite in f32
        # and its gradient in W_eff (about 1e39) is not; at 1e12 a gradient
        # is finite and its square, AdamW's second moment, is not
        spec = QuantSpec(bits=8, group=4)
        plan = CalibPlan(method="apiq-lw", epochs=1, batch=2, seed=0)
        for scale in (1e21, 1e12):
            optimized_arrays.clear()
            lay = _linear("blocks.0.attn.q", RngState(1).randn((4, 4)) * 0.1)
            x = (RngState(2).randn((2, 2, 4)) * scale).astype(np.float32)
            with pytest.raises(NumericError, match="blocks.0.attn.q, epoch 1, batch 0"):
                apiq_lw_layer(lay, x @ lay.weight, x, plan, spec, rank=2,
                              stream=RngState(3))
            assert len(optimized_arrays) == 4
            assert all(np.array_equal(p, before) for p, before in optimized_arrays)

    def test_yq_matches_frozen_layer_apply(self):
        spec = QuantSpec(bits=2, group=8)
        w = (RngState(21).randn((8, 8)) * 0.1).astype(np.float32)
        lay = _linear("blocks.0.attn.q", w)
        xq = RngState(22).randn((3, 4, 8)).astype(np.float32)
        plan = CalibPlan(method="apiq-lw", epochs=4, batch=2, seed=1)
        yq, _ = apiq_lw_layer(lay, xq @ w, xq, plan, spec, rank=2,
                              stream=RngState(23))
        assert yq.tobytes() == (xq @ lay.effective_weight()).tobytes()


class TestGramStep:
    """An `apiq-lw` step takes mse(X^q W_eff, Y) and its gradient from the
    batch's second moments instead of X^q W_eff itself."""

    @pytest.mark.parametrize("bits", [2, 4])
    def test_gradient_equals_direct_mse_f32(self, bits):
        r = RngState(60 + bits)
        spec = QuantSpec(bits=bits, group=32)
        w = (r.randn((64, 48)) * 0.1).astype(np.float32)
        x = r.randn((4, 128, 64)).astype(np.float32)
        x_q = x + (r.randn(x.shape) * 0.05).astype(np.float32)
        mins, maxs = group_minmax(w, spec.group)
        gamma = ad.Var(np.float32(4.0) + (r.randn(()) * 0.5).astype(np.float32))
        q = ste_fake_quant(w, gamma, gamma, spec, mins, maxs).value
        a, b = ((r.randn((d, 4)) * 0.05).astype(np.float32) for d in (64, 48))
        w_eff = q + lora_delta(ad.Var(a), ad.Var(b)).value
        grads = []
        for loss_fn in (lambda wv: ad.gram_mse(wv, *_second_moments(x_q, x @ w)),
                        lambda wv: ad.mse(ad.matmul(x_q, wv), x @ w)):
            wv = ad.param(w_eff.copy())
            with ad.Tape() as tape:
                loss = loss_fn(wv)
            ad.backward(tape, loss)
            assert wv.grad.dtype == np.float32
            grads.append(wv.grad)
        gram, direct = grads
        assert np.abs(gram - direct).max() <= 1e-6 * np.abs(direct).max()


class TestApiqBwBlock:
    def test_on_grid_initial_loss_zero_noop(self):
        model = TinyTransformer.init(CFG, seed=30)
        block = model.blocks[0]
        for lname, lay in block.layers.items():
            grid = RngState(hash(lname) % 1000).randint(0, 256, (lay.d1, lay.d2))
            for g in range(lay.d1 // 32):  # pin every group's extremes
                grid[g * 32, :] = 0
                grid[g * 32 + 31, :] = 255
            lay.weight = grid.astype(np.float32) * np.float32(2.0 ** -7)
        x = (RngState(31).randn((4, 8, 32)) * 0.1).astype(np.float32)
        spec = QuantSpec(bits=8, group=32)
        # clip_init = 30 saturates the sigmoid to exactly 1.0 in f32
        plan = CalibPlan(method="apiq-bw", epochs=2, batch=2, seed=0,
                         clip_init=30.0)
        y, yq, rows = apiq_bw_block(block, x, x, plan, spec, rank=0,
                                    stream=RngState(32), cfg=CFG,
                                    unit="blocks.0")
        assert rows[0].loss <= 1e-12
        assert float(((y - yq) ** 2).mean()) <= 1e-6

    def test_bw_beats_or_matches_lw_on_block_output(self):
        # block-output MSE of the jointly calibrated block is at most the
        # layer-by-layer one, checked as a 3-seed median on one block
        gaps = []
        for seed in (0, 1, 2):
            model = TinyTransformer.init(CFG, seed=40 + seed)
            x = (RngState(50 + seed).randn((8, 16, 32)) * 0.5).astype(np.float32)
            spec = QuantSpec(bits=2, group=32)
            plan_kwargs = dict(epochs=20, batch=4, seed=seed)

            block_lw = copy.deepcopy(model.blocks[0])
            y_full = forward_block(block_lw, ad.Var(x), CFG).value
            counter = [0]

            def hook(layer, xv):
                plan = CalibPlan(method="apiq-lw", **plan_kwargs)
                yq, _ = apiq_lw_layer(layer, xv.value @ layer.weight, xv.value, plan,
                                      spec, rank=8,
                                      stream=RngState(seed).derive(counter[0]))
                counter[0] += 1
                return ad.Var(yq)

            # x == x^q entering the block; lw calibrates each layer on its
            # own propagated stream
            out_lw = forward_block(block_lw, ad.Var(x), CFG, hook=hook).value
            mse_lw = float(((out_lw - y_full) ** 2).mean())

            block_bw = copy.deepcopy(model.blocks[0])
            plan = CalibPlan(method="apiq-bw", **plan_kwargs)
            _, yq_bw, rows = apiq_bw_block(
                block_bw, x, x, plan, spec, rank=8, stream=RngState(seed),
                cfg=CFG, unit="blocks.0")
            mse_bw = float(((yq_bw - y_full) ** 2).mean())
            gaps.append(mse_bw - mse_lw)
        assert np.median(gaps) <= 0.0

    def test_gradcheck_block_calibration_loss(self):
        # gradients of the block calibration loss w.r.t. the q projection's
        # adapter factor A and clipping logit gamma, against central finite
        # differences of the round-as-identity surrogate, f64
        cfg = ModelConfig(vocab=16, d_model=8, n_heads=2, d_ff=16, n_blocks=1,
                          max_seq=8)
        model = TinyTransformer.init(cfg, seed=60, dtype=np.float64)
        block = model.blocks[0]
        x = RngState(61).randn((2, 4, 8))
        y_full = forward_block(block, ad.Var(x), cfg).value
        spec = QuantSpec(bits=4, group=8)
        rank = 2
        from apiq.quant import ste_fake_quant
        fixed = {}
        for i, (lname, lay) in enumerate(block.layers.items()):
            stream = RngState(62).derive(i)
            fixed[lname] = dict(
                a=stream.uniform((lay.d1, rank), -0.3, 0.3),
                b=stream.uniform((lay.d2, rank), -0.3, 0.3),
                gamma=np.full((), 4.0), beta=np.full((), 4.0),
                minmax=group_minmax(lay.weight, spec.group))

        def loss_fn(gamma_q, a_q):
            effs = {}
            for lname, pv in fixed.items():
                lay = block.layers[lname]
                g = gamma_q if lname == "q" else ad.Var(pv["gamma"])
                a = a_q if lname == "q" else ad.Var(pv["a"])
                mins, maxs = pv["minmax"]
                qw = ste_fake_quant(lay.weight, g, ad.Var(pv["beta"]), spec,
                                    mins, maxs)
                delta = ad.matmul(a, ad.swap_last(ad.Var(pv["b"])))
                effs[lname] = ad.add(qw, delta)

            def hook(layer, xv):
                return ad.matmul(xv, effs[layer.name.rsplit(".", 1)[1]])

            out = forward_block(block, ad.Var(x), cfg, hook=hook)
            return ad.mse(out, y_full)

        gamma_q = ad.Var(np.full((), 4.0), requires_grad=True)
        a_q = ad.Var(fixed["q"]["a"].copy(), requires_grad=True)
        with ad.surrogate_round():
            rep = ad.gradcheck(loss_fn, [gamma_q, a_q])
        assert rep.max_rel_err <= 1e-3


class TestRetainedLoss:
    """The smallest logged loss is exactly the frozen unit's output error."""

    @staticmethod
    def _frozen_loss(y_q, y_full):
        return float(((y_q.astype(np.float64) - y_full) ** 2).mean())

    def _check_lw(self, rank, seed, n_samples):
        spec = QuantSpec(bits=2, group=16)
        w = (RngState(70 + seed).randn((32, 16)) * 0.1).astype(np.float32)
        x = RngState(80 + seed).randn((n_samples, 4, 32)).astype(np.float32)
        x_q = x + (RngState(90 + seed).randn(x.shape) * 0.05).astype(np.float32)
        plan = CalibPlan(method="apiq-lw", epochs=6, batch=2, seed=seed)
        y_full = x @ w
        y_q, rows = apiq_lw_layer(_linear("blocks.0.mlp.down", w), y_full, x_q,
                                  plan, spec, rank=rank, stream=RngState(seed))
        assert min(r.loss for r in rows) == self._frozen_loss(y_q, y_full)

    def _check_bw(self, rank, n_samples):
        model = TinyTransformer.init(CFG, seed=71)
        x = (RngState(81).randn((n_samples, 8, 32)) * 0.5).astype(np.float32)
        x_q = x + (RngState(91).randn(x.shape) * 0.05).astype(np.float32)
        plan = CalibPlan(method="apiq-bw", epochs=3, batch=2, seed=1)
        y_full, y_q, rows = apiq_bw_block(
            model.blocks[0], x, x_q, plan, QuantSpec(bits=2, group=32), rank=rank,
            stream=RngState(1), cfg=CFG, unit="blocks.0")
        assert min(r.loss for r in rows) == self._frozen_loss(y_q, y_full)

    @pytest.mark.parametrize("rank", [0, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_lw_layer(self, rank, seed):
        self._check_lw(rank, seed, n_samples=6)

    @pytest.mark.parametrize("rank", [0, 4])
    def test_bw_block(self, rank):
        self._check_bw(rank, n_samples=4)

    # the epoch-end loss runs per batch: 5 samples in batches of 2 end on one

    @pytest.mark.parametrize("rank", [0, 4])
    def test_lw_layer_ragged_batch(self, rank):
        self._check_lw(rank, seed=0, n_samples=5)

    @pytest.mark.parametrize("rank", [0, 4])
    def test_bw_block_ragged_batch(self, rank):
        self._check_bw(rank, n_samples=5)


class TestQuantizeModel:
    @pytest.mark.parametrize("method", ["rtn", "qlora", "loftq", "apiq-lw", "apiq-bw"])
    def test_all_methods_finite_and_frozen(self, toy_setup, method):
        model, calib = toy_setup
        plan = CalibPlan(method=method, epochs=4, batch=4, seed=1)
        qm, rows = quantize_model(model, calib, plan, QuantSpec(bits=2, group=16),
                                  rank=4)
        for lay in qm.iter_layers():
            assert lay.qstate is not None
            assert lay.weight is None
        logits = qm.forward(calib.tokens[:2]).value
        assert np.isfinite(logits).all()

    def test_rtn_has_no_adapters_qlora_does(self, toy_setup):
        model, calib = toy_setup
        spec = QuantSpec(bits=2, group=16)
        rtn, _ = quantize_model(model, calib, CalibPlan(method="rtn", seed=0),
                                spec, rank=4)
        qlora, _ = quantize_model(model, calib, CalibPlan(method="qlora", seed=0),
                                  spec, rank=4)
        assert all(lay.lora is None for lay in rtn.iter_layers())
        assert all(lay.lora is not None for lay in qlora.iter_layers())
        # identical effective weights at init (B = 0)
        for a, b in zip(rtn.iter_layers(), qlora.iter_layers()):
            assert np.array_equal(a.effective_weight(), b.effective_weight())

    @pytest.mark.parametrize("method", ["apiq-lw", "apiq-bw"])
    def test_rank_zero_clip_only(self, toy_setup, method):
        model, calib = toy_setup
        plan = CalibPlan(method=method, epochs=2, batch=4, seed=1)
        qm, rows = quantize_model(model, calib, plan, QuantSpec(bits=2, group=16),
                                  rank=0)
        assert all(lay.lora is None for lay in qm.iter_layers())
        assert np.isfinite(qm.forward(calib.tokens[:2]).value).all()

    def test_lw_beats_rtn_end_to_end_logit_mse(self, corpus_tokens):
        from apiq.train import PretrainPlan, pretrain
        cfg = ModelConfig(vocab=256, d_model=32, n_heads=4, d_ff=64, n_blocks=1,
                          max_seq=64)
        model = TinyTransformer.init(cfg, seed=2)
        pretrain(model, corpus_tokens, PretrainPlan(steps=60, lr=1e-3, batch=8,
                                                    seq_len=64, weight_decay=0.1, seed=2))
        calib = sample_calib(corpus_tokens, 8, 64, seed=3)
        spec = QuantSpec(bits=8, group=16)
        full = model.forward(calib.tokens).value
        rtn, _ = quantize_model(model, calib, CalibPlan(method="rtn", seed=3),
                                spec, rank=4)
        lw, _ = quantize_model(model, calib,
                               CalibPlan(method="apiq-lw", epochs=20, seed=3),
                               spec, rank=4)
        mse_rtn = float(((rtn.forward(calib.tokens).value - full) ** 2).mean())
        mse_lw = float(((lw.forward(calib.tokens).value - full) ** 2).mean())
        assert mse_lw < mse_rtn

    def test_sequential_propagation_consistency(self, toy_setup):
        # the X^q each layer was calibrated on must equal what the frozen
        # model actually produces when run end to end
        model, calib = toy_setup
        plan = CalibPlan(method="apiq-lw", epochs=2, batch=4, seed=5)
        qm, _ = quantize_model(model, calib, plan, QuantSpec(bits=2, group=16),
                               rank=4)
        seen = []

        def hook(layer, xv):
            y = linear_apply(layer, xv)
            assert y.value.tobytes() == (xv.value @ layer.effective_weight()).tobytes()
            seen.append(layer.name)
            return y

        qm.forward(calib.tokens, hook=hook)
        assert seen == list(qm.layers)

    @pytest.mark.parametrize("method", ["apiq-lw", "apiq-bw"])
    def test_no_whole_model_forward(self, toy_setup, monkeypatch, method):
        # X and X^q are carried block by block; nothing reruns the model
        model, calib = toy_setup

        def forward(*args, **kwargs):
            raise AssertionError("quantize_model ran TinyTransformer.forward")

        monkeypatch.setattr(TinyTransformer, "forward", forward)
        plan = CalibPlan(method=method, epochs=1, batch=4, seed=1)
        qm, _ = quantize_model(model, calib, plan, QuantSpec(bits=2, group=16),
                               rank=2)
        assert all(lay.qstate is not None for lay in qm.iter_layers())

    def test_calibration_bitwise_reproducible(self, toy_setup, tmp_path):
        from apiq import model_io
        model, calib = toy_setup
        paths = []
        for run in range(2):
            plan = CalibPlan(method="apiq-bw", epochs=2, batch=4, seed=7)
            qm, _ = quantize_model(model, calib, plan, QuantSpec(bits=2, group=16),
                                   rank=4)
            p = tmp_path / f"run{run}.ckpt"
            model_io.save_model(qm, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_clip_factors_stay_in_unit_interval(self, toy_setup):
        model, calib = toy_setup
        plan = CalibPlan(method="apiq-lw", epochs=3, batch=4, seed=8)
        qm, _ = quantize_model(model, calib, plan, QuantSpec(bits=2, group=16),
                               rank=2)
        from apiq.autodiff import sigmoid_fwd
        for lay in qm.iter_layers():
            cg = sigmoid_fwd(lay.qstate.clip.gamma)
            cb = sigmoid_fwd(lay.qstate.clip.beta)
            assert 0.0 < float(cg) < 1.0 and 0.0 < float(cb) < 1.0

    def test_starting_point_metric_not_worse_than_baseline(self, toy_setup):
        model, calib = toy_setup
        spec = QuantSpec(bits=2, group=16)
        lw, _ = quantize_model(model, calib,
                               CalibPlan(method="apiq-lw", epochs=20, seed=9),
                               spec, rank=8)
        rtn, _ = quantize_model(model, calib, CalibPlan(method="rtn", seed=9),
                                spec, rank=8)
        prof_lw = activation_error_profile(model, lw, calib.tokens)
        prof_rtn = activation_error_profile(model, rtn, calib.tokens)
        for a, b in zip(prof_lw.records, prof_rtn.records):
            assert a.value <= b.value

    @pytest.mark.parametrize("rank", [0, 3])
    @pytest.mark.parametrize("method", ["rtn", "qlora", "loftq", "apiq-lw", "apiq-bw"])
    def test_quant_meta_holds_spec_and_shared_rank(self, toy_setup, method, rank):
        from apiq.model_io import model_entries
        model, calib = toy_setup
        spec = QuantSpec(bits=2, group=16)
        qm, _ = quantize_model(model, calib, CalibPlan(method=method, epochs=1, seed=1),
                               spec, rank=rank)
        assert qm.quant == spec and model.quant is None
        shared = 0 if method == "rtn" else rank
        assert {0 if lay.lora is None else lay.lora.a.shape[1]
                for lay in qm.iter_layers()} == {shared}
        meta = dict(model_entries(qm))["quant.meta"]
        assert meta.tolist() == [2.0, 16.0, 0.0, float(shared or -1)]

    def test_already_quantized_rejected(self, toy_setup):
        model, calib = toy_setup
        plan = CalibPlan(method="rtn", seed=0)
        qm, _ = quantize_model(model, calib, plan, QuantSpec(bits=2, group=16),
                               rank=0)
        with pytest.raises(ConfigError):
            quantize_model(qm, calib, plan, QuantSpec(bits=2, group=16), rank=0)

    def test_rank_exceeding_min_dim_rejected(self, toy_setup):
        model, calib = toy_setup
        with pytest.raises(ConfigError):
            quantize_model(model, calib, CalibPlan(method="qlora", seed=0),
                           QuantSpec(bits=2, group=16), rank=33)

    def test_per_group_clip_calibrates_and_roundtrips(self, toy_setup, tmp_path):
        from apiq import model_io
        model, calib = toy_setup
        spec = QuantSpec(bits=2, group=16, clip_granularity="per-group")
        plan = CalibPlan(method="apiq-lw", epochs=2, batch=4, seed=11)
        qm, _ = quantize_model(model, calib, plan, spec, rank=2)
        lay = qm.blocks[0].layers["q"]
        assert lay.qstate.clip.gamma.shape == (32 // 16, 32)
        p = tmp_path / "pg.ckpt"
        model_io.save_model(qm, p)
        qm2 = model_io.load_model(p)
        toks = calib.tokens[:2]
        assert qm.forward(toks).value.tobytes() == qm2.forward(toks).value.tobytes()
