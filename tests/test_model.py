import numpy as np
import pytest

from apiq import autodiff as ad
from apiq.errors import InputError
from apiq.linalg import group_minmax
from apiq.model import (Linear, LoraPair, ModelConfig, QuantState,
                        TinyTransformer, forward_block, linear_apply, rope_tables)
from apiq.quant import QuantSpec, clip_to_params, pack, quantize
from apiq.rng import RngState

CFG = ModelConfig(vocab=64, d_model=32, n_heads=4, d_ff=48, n_blocks=2, max_seq=64)


def _tokens(seed, shape, vocab=64):
    return RngState(seed).randint(0, vocab, shape)


def _record_layers(model, tokens):
    """(name, x, y) of every linear layer in dataflow order, recorded
    through the forward hook."""
    taps = []

    def hook(layer, x):
        y = linear_apply(layer, x)
        taps.append((layer.name, x.value, y.value))
        return y

    model.forward(tokens, hook=hook)
    return taps


def _quantize_layer_rtn(layer, spec):
    mins, maxs = group_minmax(layer.weight, spec.group)
    params = clip_to_params(mins, maxs, None, spec)
    codes = quantize(layer.weight, params, spec)
    layer.qstate = QuantState(codes=pack(codes, spec), params=params,
                              clip=None, spec=spec)
    layer.weight = None


class TestForward:
    def test_logit_shape_single_token(self):
        m = TinyTransformer.init(CFG, seed=1)
        out = m.forward(np.array([5]))
        assert out.value.shape == (1, 1, 64)

    def test_zero_model_uniform(self):
        m = TinyTransformer(CFG)  # all zeros except nothing
        m.embed = TinyTransformer.init(CFG, seed=2).embed
        m.final_norm = np.zeros_like(m.final_norm)
        for b in m.blocks:
            b.norm1 = np.zeros_like(b.norm1)
            b.norm2 = np.zeros_like(b.norm2)
        logits = m.forward(_tokens(3, (2, 8))).value
        assert np.all(logits == logits[..., :1])
        probs = ad.softmax(ad.Var(logits)).value
        assert np.allclose(probs, 1.0 / 64)

    def test_token_out_of_vocab(self):
        m = TinyTransformer.init(CFG, seed=1)
        with pytest.raises(InputError):
            m.forward(np.array([[64]]))

    def test_sequence_too_long(self):
        m = TinyTransformer.init(CFG, seed=1)
        with pytest.raises(InputError):
            m.forward(np.zeros((1, 65), dtype=np.int64))

    def test_causality_bitwise(self):
        m = TinyTransformer.init(CFG, seed=4)
        toks = _tokens(5, (3, 16))
        base = m.forward(toks).value
        mut = toks.copy()
        mut[:, 9:] = (mut[:, 9:] + 7) % 64
        out = m.forward(mut).value
        assert base[:, :9].tobytes() == out[:, :9].tobytes()

    def test_full_vs_8bit_quantized_diff_is_small_diagnostic(self):
        m = TinyTransformer.init(CFG, seed=6)
        import copy
        q = copy.deepcopy(m)
        spec = QuantSpec(bits=8, group=16)
        for lay in q.iter_layers():
            _quantize_layer_rtn(lay, spec)
        toks = _tokens(7, (2, 12))
        diff = np.abs(m.forward(toks).value - q.forward(toks).value).max()
        # recorded as a diagnostic: 8-bit round-off stays small on this model
        assert np.isfinite(diff)
        assert diff < 0.1

    def test_capture_dataflow_order(self):
        m = TinyTransformer.init(CFG, seed=8)
        taps = _record_layers(m, _tokens(9, (1, 8)))
        names = [name for name, _, _ in taps]
        assert names == [
            "blocks.0.attn.q", "blocks.0.attn.k", "blocks.0.attn.v",
            "blocks.0.attn.o", "blocks.0.mlp.gate", "blocks.0.mlp.up",
            "blocks.0.mlp.down",
            "blocks.1.attn.q", "blocks.1.attn.k", "blocks.1.attn.v",
            "blocks.1.attn.o", "blocks.1.mlp.gate", "blocks.1.mlp.up",
            "blocks.1.mlp.down",
        ]
        # q, k, v share one input
        assert taps[0][1].tobytes() == taps[1][1].tobytes()
        assert taps[0][1].tobytes() == taps[2][1].tobytes()


class TestForwardBlock:
    def test_on_grid_weights_quantized_bitwise_equal(self):
        # weights are exact multiples of 2^-6 with per-column min 0 and max
        # 255 * 2^-6, so s = 2^-6 exactly and dequantization reproduces the
        # weights bit for bit; the whole block forward then agrees bitwise.
        import copy
        m = TinyTransformer.init(CFG, seed=10)
        spec = QuantSpec(bits=8, group=CFG.d_model)
        for lay in m.iter_layers():
            grid = RngState(hash(lay.name) % 2**32).randint(0, 256, (lay.d1, lay.d2))
            grid[0, :] = 0
            grid[-1, :] = 255
            lay.weight = (grid.astype(np.float32)) * np.float32(2.0 ** -6)
        q = copy.deepcopy(m)
        for lay in q.iter_layers():
            spec_l = QuantSpec(bits=8, group=lay.d1)
            _quantize_layer_rtn(lay, spec_l)
            assert lay.qstate.dequantized().tobytes() == \
                m.find_layer(lay.name).weight.tobytes()
        x = ad.Var(RngState(11).randn((2, 6, 32)).astype(np.float32))
        yf = forward_block(m.blocks[0], x, CFG)
        yq = forward_block(q.blocks[0], x, CFG)
        assert yf.value.tobytes() == yq.value.tobytes()

    def test_zero_input_finite_uniform_attention(self):
        m = TinyTransformer.init(CFG, seed=12)
        x = ad.Var(np.zeros((1, 5, 32), dtype=np.float32))
        y = forward_block(m.blocks[0], x, CFG)
        assert y.value.shape == (1, 5, 32)
        assert np.isfinite(y.value).all()

    def test_attention_is_one_tape_entry(self):
        m = TinyTransformer.init(CFG, seed=16)
        x = ad.param(RngState(17).randn((2, 6, 32)).astype(np.float32))
        with ad.Tape() as tape:
            forward_block(m.blocks[0], x, CFG)
        ops = [op for op, _ in tape.entries]
        assert ops.count("causal_attention") == 1
        assert not {"causal_softmax", "rope_rotate", "reshape", "transpose",
                    "scale"} & set(ops)

    def test_gradcheck_through_block_f64(self):
        cfg = ModelConfig(vocab=16, d_model=16, n_heads=2, d_ff=24, n_blocks=1,
                          max_seq=8)
        m = TinyTransformer.init(cfg, seed=13, dtype=np.float64)
        target = RngState(14).randn((1, 4, 16))
        x = ad.Var(RngState(15).randn((1, 4, 16)))

        def f(x):
            y = forward_block(m.blocks[0], x, cfg)
            return ad.mse(y, target)

        rep = ad.gradcheck(f, [x])
        assert rep.max_rel_err <= 1e-4


class TestLora:
    def test_adapter_equals_dense_merge(self):
        import copy
        m = TinyTransformer.init(CFG, seed=16)
        lay = m.blocks[0].layers["q"]
        r = RngState(17)
        lora = LoraPair(a=(r.randn((lay.d1, 4)) * 0.1).astype(np.float32),
                        b=(r.randn((lay.d2, 4)) * 0.1).astype(np.float32),
                        alpha=4.0)
        with_adapter = copy.deepcopy(m)
        with_adapter.blocks[0].layers["q"].lora = lora
        merged = copy.deepcopy(m)
        merged.blocks[0].layers["q"].weight = lay.weight + lora.delta()
        toks = _tokens(18, (2, 10))
        ya = with_adapter.forward(toks).value
        ym = merged.forward(toks).value
        denom = np.abs(ym).max()
        assert np.abs(ya - ym).max() / denom <= 1e-5

    def test_rank_zero_adapter_disabled(self):
        m = TinyTransformer.init(CFG, seed=19)
        lay = m.blocks[0].layers["q"]
        lay.lora = LoraPair(a=np.zeros((lay.d1, 0), dtype=np.float32),
                            b=np.zeros((lay.d2, 0), dtype=np.float32), alpha=0.0)
        assert lay.effective_weight().tobytes() == lay.weight.tobytes()


class TestConfigValidation:
    def test_heads_must_divide(self):
        from apiq.errors import ConfigError
        with pytest.raises(ConfigError):
            ModelConfig(d_model=30, n_heads=4)

    def test_head_dim_must_be_even(self):
        from apiq.errors import ConfigError
        with pytest.raises(ConfigError):
            ModelConfig(d_model=12, n_heads=4)

    @pytest.mark.parametrize("field", ["vocab", "d_model", "n_heads", "d_ff",
                                       "n_blocks", "max_seq"])
    def test_sizes_must_be_positive(self, field):
        from apiq.errors import ConfigError
        with pytest.raises(ConfigError, match="positive"):
            ModelConfig(**{field: 0})

    @pytest.mark.parametrize("theta", [0.0, -1.0, np.inf, np.nan])
    def test_rope_theta_must_be_finite_positive(self, theta):
        from apiq.errors import ConfigError
        with pytest.raises(ConfigError, match="rope_theta"):
            ModelConfig(rope_theta=theta)


class TestRope:
    def test_norm_preservation(self):
        x = RngState(21).randn((2, 4, 8, 8)).astype(np.float32)
        cos, sin = rope_tables(8, 8, CFG.rope_theta, np.float32)
        y = ad.rope_rotate(ad.Var(x), cos, sin).value
        pair = lambda a: np.sqrt(a[..., 0::2] ** 2 + a[..., 1::2] ** 2)
        assert np.abs(pair(x) - pair(y)).max() <= 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("head_dim", [4, 8, 16, 32])
    def test_tables_are_prefixes_of_longer_ones(self, dtype, head_dim):
        # built per length, each table is bitwise the first t rows of a
        # long one, so lazily built tables give the bytes of a max_seq table
        long_cos, long_sin = rope_tables(4096, head_dim, 10000.0, dtype)
        for t in range(1, 129):
            cos, sin = rope_tables(t, head_dim, 10000.0, dtype)
            assert cos.shape == (t, head_dim // 2) and cos.dtype == dtype
            assert cos.tobytes() == long_cos[:t].tobytes()
            assert sin.tobytes() == long_sin[:t].tobytes()

    def test_tables_are_read_only(self):
        cos, sin = rope_tables(8, 8, 10000.0, np.float32)
        for table in (cos, sin):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0


def _slots(model):
    """The registry entries a checkpoint of `model` holds, in written order."""
    from apiq import model_io
    owners = {owner.name: name for name, owner, _ in model.named_tensors()
              if isinstance(owner, Linear)}
    order = []
    for name, _ in model_io.model_entries(model)[1:]:
        slot = owners.get(name.rsplit(".", 1)[0], name)
        if name != "quant.meta" and (not order or order[-1] != slot):
            order.append(slot)
    return order


class TestRegistry:
    SMALL = ModelConfig(vocab=64, d_model=16, n_heads=2, d_ff=24, n_blocks=2,
                        max_seq=16)

    def _quantized(self):
        from apiq.calib import CalibPlan, quantize_model, sample_calib
        m = TinyTransformer.init(self.SMALL, seed=31)
        calib = sample_calib(_tokens(32, (400,)), n_samples=2, seq_len=8, seed=33)
        plan = CalibPlan(method="apiq-bw", epochs=1, batch_size=2, seed=34)
        q, _ = quantize_model(m, calib, plan, QuantSpec(bits=2, group=8), rank=2)
        assert all(lay.qstate is not None for lay in q.iter_layers())
        return q

    def test_order_matches_checkpoint_full_precision(self):
        m = TinyTransformer.init(self.SMALL, seed=30)
        assert _slots(m) == [name for name, _, _ in m.named_tensors()]

    def test_order_matches_checkpoint_apiq_bw_2bit(self):
        q = self._quantized()
        assert _slots(q) == [name for name, _, _ in q.named_tensors()]

    def test_layers_in_dataflow_order(self):
        m = TinyTransformer.init(self.SMALL, seed=30)
        taps = _record_layers(m, _tokens(35, (1, 8)))
        assert list(m.layers) == [name for name, _, _ in taps]
        assert all(m.find_layer(n) is lay for n, lay in m.layers.items())

    @pytest.mark.parametrize("source", ["init", "load"])
    def test_entries_are_the_arrays_forward_reads(self, source, tmp_path):
        from apiq import model_io
        m = TinyTransformer.init(self.SMALL, seed=36)
        if source == "load":
            model_io.save_model(m, tmp_path / "m.ckpt")
            m = model_io.load_model(tmp_path / "m.ckpt")
        toks = _tokens(37, (1, 8))
        base = m.forward(toks).value
        for name, owner, attr in m.named_tensors():
            arr = getattr(owner, attr)
            saved = arr.copy()
            arr += 0.5
            assert not np.array_equal(m.forward(toks).value, base), name
            arr[...] = saved
        assert m.forward(toks).value.tobytes() == base.tobytes()

    def test_names_are_the_keys_forward_reads(self):
        m = TinyTransformer.init(self.SMALL, seed=38)
        trainable = {name: ad.param(getattr(owner, attr))
                     for name, owner, attr in m.named_tensors()}
        with ad.Tape() as tape:
            loss = ad.cross_entropy(m.forward(_tokens(39, (1, 8)), trainable=trainable),
                                    _tokens(40, (1, 8)))
        ad.backward(tape, loss)
        assert all(v.grad is not None for v in trainable.values())

    def test_find_unknown_layer_raises_key_error(self):
        m = TinyTransformer.init(self.SMALL, seed=30)
        with pytest.raises(KeyError):
            m.find_layer("nope")
