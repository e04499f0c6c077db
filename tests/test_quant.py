import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from apiq import autodiff as ad
from apiq.errors import FormatError
from apiq.linalg import group_minmax
from apiq.quant import (BITS, GRANULARITIES, SCALE_FLOOR, ClipParams, GroupParams,
                        QuantSpec, clip_to_params, dequantize, fake_quant, pack,
                        quantize, ste_fake_quant, unpack)
from apiq.rng import RngState


def _col(values):
    return np.asarray(values, dtype=np.float32).reshape(-1, 1)


def _params(s, z):
    return GroupParams(scale=np.asarray(s, dtype=np.float32).reshape(1, 1),
                       zero=np.asarray(z, dtype=np.float32).reshape(1, 1))


class TestClipToParams:
    def test_default_logits_scale_both_ends(self):
        # logits of 4 give clip factors sigmoid(4) ~ 0.982 at both ends
        spec = QuantSpec(bits=2, group=4)
        clip = ClipParams.init(spec, 4, 1)
        p = clip_to_params(_col([0.0]), _col([3.0]), clip, spec)
        sig4 = 1.0 / (1.0 + np.exp(-4.0))
        assert abs(sig4 - 0.982) < 1e-3
        assert np.allclose(p.scale, sig4 * 3.0 / 3.0, atol=1e-6)

    def test_unit_factors_give_plain_affine(self):
        spec = QuantSpec(bits=2, group=4)
        p = clip_to_params(_col([0.0]), _col([3.0]), None, spec)
        assert p.scale == 1.0
        assert p.zero == 0.0

    def test_constant_zero_group(self):
        spec = QuantSpec(bits=2, group=4)
        p = clip_to_params(_col([0.0]), _col([0.0]), None, spec)
        assert p.scale == np.float32(SCALE_FLOOR)
        assert p.zero == 0.0

    def test_negative_range_zero_point(self):
        spec = QuantSpec(bits=2, group=4)
        p = clip_to_params(_col([-1.0]), _col([2.0]), None, spec)
        assert p.scale == np.float32(1.0)
        assert p.zero == 1.0  # -round(-1/1)


class TestQuantizeDequantize:
    def test_on_grid_values(self):
        spec = QuantSpec(bits=2, group=4)
        codes = quantize(_col([0, 1, 2, 3]), _params(1.0, 0.0), spec)
        assert np.array_equal(codes.ravel(), [0, 1, 2, 3])

    def test_round_half_even_and_clamp(self):
        spec = QuantSpec(bits=2, group=4)
        codes = quantize(_col([0.0, 0.4, 2.6, 3.0]), _params(1.0, 0.0), spec)
        assert np.array_equal(codes.ravel(), [0, 0, 3, 3])

    def test_clamp_saturation(self):
        spec = QuantSpec(bits=2, group=2)
        codes = quantize(_col([-10.0, 10.0]), _params(1.0, 0.0), spec)
        assert np.array_equal(codes.ravel(), [0, 3])

    def test_dequantize_identity_grid(self):
        q = dequantize(np.array([[0], [1], [2], [3]], dtype=np.uint8), _params(1.0, 0.0))
        assert np.array_equal(q.ravel(), [0.0, 1.0, 2.0, 3.0])

    def test_dequantize_scaled_shifted(self):
        q = dequantize(np.array([[0], [1], [2], [3]], dtype=np.uint8), _params(0.5, 2.0))
        assert np.array_equal(q.ravel(), [-1.0, -0.5, 0.0, 0.5])

    def test_codes_at_zero_point_give_zero(self):
        q = dequantize(np.full((4, 1), 2, dtype=np.uint8), _params(0.37, 2.0))
        assert np.all(q == 0.0)

    def test_code_range_property(self):
        for seed in range(100):
            r = RngState(seed)
            w = (r.randn((8, 4)) * r.uniform((), 0.01, 10.0)).astype(np.float32)
            for bits in (2, 3, 4, 8):
                spec = QuantSpec(bits=bits, group=8)
                mins, maxs = group_minmax(w, 8)
                p = clip_to_params(mins, maxs, None, spec)
                codes = quantize(w, p, spec)
                assert codes.min() >= 0 and codes.max() <= spec.qmax

    def test_requantize_idempotent_with_fixed_params(self):
        for seed in range(100):
            r = RngState(1000 + seed)
            spec = QuantSpec(bits=4, group=4)
            p = GroupParams(scale=(r.uniform((2, 3), 0.01, 2.0)).astype(np.float32),
                            zero=r.randint(0, 16, (2, 3)).astype(np.float32))
            codes = r.randint(0, 16, (8, 3)).astype(np.uint8)
            again = quantize(dequantize(codes, p), p, spec)
            assert np.array_equal(codes, again)

    def test_monotonicity(self):
        for seed in range(100):
            r = RngState(2000 + seed)
            w = np.sort((r.randn((16, 1)) * 2).astype(np.float32), axis=0)
            spec = QuantSpec(bits=3, group=16)
            mins, maxs = group_minmax(w, 16)
            p = clip_to_params(mins, maxs, None, spec)
            codes = quantize(w, p, spec).astype(np.int32)
            assert np.all(np.diff(codes.ravel()) >= 0)


class TestFakeQuant:
    def test_on_grid_fixed_point(self):
        # each column spans 0..255 so s = 1, z = 0, and integer entries
        # sit exactly on the code grid
        spec = QuantSpec(bits=8, group=4)
        w = RngState(17).randint(0, 256, (4, 16)).astype(np.float32)
        w[0, :] = 0.0
        w[-1, :] = 255.0
        q = fake_quant(w, None, spec)
        assert np.array_equal(q, w)

    def test_idempotence_with_params_computed_once(self):
        r = RngState(5)
        w = (r.randn((8, 4)) * 0.1).astype(np.float32)
        spec = QuantSpec(bits=3, group=4)
        mins, maxs = group_minmax(w, 4)
        p = clip_to_params(mins, maxs, None, spec)
        q1 = dequantize(quantize(w, p, spec), p)
        q2 = dequantize(quantize(q1, p, spec), p)
        assert q1.tobytes() == q2.tobytes()

    def test_grid_error_bound_sweep(self):
        # 100 seeded N(0, 0.02) matrices at b=8, clip factors 1
        spec = QuantSpec(bits=8, group=8)
        for seed in range(100):
            w = (RngState(seed).randn((8, 8)) * 0.02).astype(np.float32)
            mins, maxs = group_minmax(w, 8)
            p = clip_to_params(mins, maxs, None, spec)
            codes = quantize(w, p, spec)
            q = dequantize(codes, p)
            saturated = (codes == 0) | (codes == spec.qmax)
            bound = np.repeat(p.scale[:, None, :], 8, axis=1).reshape(8, 8) / 2 + 1e-6
            assert np.all(np.abs(w - q)[~saturated] <= bound[~saturated])


class TestSte:
    def test_forward_bitwise_equals_fake_quant(self):
        for seed in range(20):
            w = (RngState(seed).randn((16, 12)) * 0.05).astype(np.float32)
            for bits in (2, 3, 4, 8):
                spec = QuantSpec(bits=bits, group=8)
                clip = ClipParams.init(spec, 16, 12)
                mins, maxs = group_minmax(w, 8)
                q = ste_fake_quant(w, ad.Var(clip.gamma), ad.Var(clip.beta),
                                   spec, mins, maxs)
                assert fake_quant(w, clip, spec).tobytes() == q.value.tobytes()

    def test_weight_gradient_one_inside_zero_saturated(self):
        spec = QuantSpec(bits=2, group=4)
        w = ad.Var(np.array([[0.1], [0.9], [1.9], [3.4]], dtype=np.float64),
                   requires_grad=True)
        # fixed clip keeps s ~ 1.09; the 3.4 entry saturates at code 3
        clip = ClipParams(gamma=np.array(30.0), beta=np.array(30.0))
        mins = np.array([[0.1]])
        maxs = np.array([[3.4]])
        with ad.Tape() as tape:
            q = ste_fake_quant(w, ad.Var(clip.gamma), ad.Var(clip.beta),
                               spec, mins, maxs)
            loss = ad.mse(q, np.zeros((4, 1)))
        ad.backward(tape, loss)
        expected = 2.0 / 4.0 * q.value  # dq/dw = 1 where not saturated
        assert np.allclose(w.grad[:3], expected[:3])
        assert w.grad[3] == 0.0

    def test_clip_logit_gradients_match_surrogate_fd(self):
        # central differences of the round-as-identity surrogate, 8x8 layer
        r = RngState(31)
        w = (r.randn((8, 8)) * 0.5).astype(np.float64)
        spec = QuantSpec(bits=4, group=8)
        mins, maxs = group_minmax(w, 8)
        x = r.randn((5, 8))
        y = x @ w
        g = ad.Var(np.full((), 4.0), requires_grad=True)
        b = ad.Var(np.full((), 4.0), requires_grad=True)

        def loss_fn(g, b):
            q = ste_fake_quant(w, g, b, spec, mins, maxs)
            return ad.mse(ad.matmul(ad.Var(x), q), y)

        with ad.surrogate_round():
            rep = ad.gradcheck(loss_fn, [g, b])
        assert rep.max_rel_err <= 1e-3

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    @pytest.mark.parametrize("w_trains", [False, True])
    def test_gradcheck_under_surrogate_round(self, granularity, w_trains):
        # f64 central differences of the round-as-identity surrogate, for
        # the clip logits and, when it trains, the weight
        r = RngState(41)
        spec = QuantSpec(bits=3, group=4, clip_granularity=granularity)
        w = r.randn((8, 5))
        mins, maxs = group_minmax(w, 4)
        shape = () if granularity == "per-matrix" else (2, 5)
        g = ad.Var(1.5 + 0.5 * r.randn(shape))
        b = ad.Var(1.5 + 0.5 * r.randn(shape))
        target = r.randn((8, 5))

        def loss_fn(g, b, w=w):
            return ad.mse(ste_fake_quant(w, g, b, spec, mins, maxs), target)

        with ad.surrogate_round():
            rep = ad.gradcheck(loss_fn, [g, b] + [ad.Var(w.copy())] * w_trains)
        assert rep.max_rel_err <= 1e-5


# ---------------------------------------------------------------------------
# the quantizer against its arithmetic written out in full
# ---------------------------------------------------------------------------

def _ref_params(mins, maxs, clip, spec):
    """(s, z) as plain numpy formulas."""
    if clip is None:
        cg = cb = mins.dtype.type(1.0)
    else:
        cg, cb = ad.sigmoid_fwd(clip.gamma), ad.sigmoid_fwd(clip.beta)
    s = np.maximum((cg * maxs - cb * mins) / spec.qmax, SCALE_FLOOR)
    z = np.clip(np.rint(-((cb * mins) / s)), 0.0, spec.qmax)
    return s, z


def _ref_quantize(w, s, z, spec):
    n, (d1, d2) = s.shape[0], w.shape
    t = np.rint(w.reshape(n, d1 // n, d2) / s[:, None, :])
    return np.clip(t + z[:, None, :], 0.0, spec.qmax).reshape(d1, d2).astype(np.uint8)


def _ref_dequantize(codes, s, z):
    n, (d1, d2) = s.shape[0], codes.shape
    c3 = codes.reshape(n, d1 // n, d2).astype(np.float32)
    return (s[:, None, :] * (c3 - z[:, None, :])).reshape(d1, d2)


def _ref_ste_chain(w, gamma, beta, spec, mins, maxs):
    """Fake quantization as one chain of 23 tape primitives."""
    w = w if isinstance(w, ad.Var) else ad.Var(np.asarray(w))
    d1, d2 = w.value.shape
    n = mins.shape[0]
    qmax = float(spec.qmax)
    cg = ad.sigmoid(gamma)
    cb = ad.sigmoid(beta)
    diff = ad.sub(ad.mul(cg, maxs), ad.mul(cb, mins))
    s = ad.maximum(ad.div(diff, diff.value.dtype.type(spec.qmax)), SCALE_FLOOR)
    z = ad.clamp(ad.round_ste(ad.neg(ad.div(ad.mul(cb, mins), s))), 0.0, qmax)
    s3 = ad.reshape(s, (n, 1, d2))
    z3 = ad.reshape(z, (n, 1, d2))
    w3 = ad.reshape(w, (n, d1 // n, d2))
    codes = ad.clamp(ad.add(ad.round_ste(ad.div(w3, s3)), z3), 0.0, qmax)
    codes = ad.add(codes, codes.value.dtype.type(0.0))
    return ad.reshape(ad.mul(s3, ad.sub(codes, z3)), (d1, d2))


# per (group, column): 0 drawn values, 1 a constant group, 2 nonnegative
# values whose minimum is tiny and positive (a -0.0 zero-point)
_PLAIN, _CONSTANT, _TINY_MIN = range(3)


@st.composite
def quant_cases(draw):
    """(w, clip or None, spec): 1 to 3 groups of 1 to 6 rows, f32 or f64."""
    spec = QuantSpec(bits=draw(st.sampled_from(BITS)), group=draw(st.integers(1, 6)),
                     clip_granularity=draw(st.sampled_from(GRANULARITIES)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, d2 = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    w = draw(arrays(dtype, (n * spec.group, d2),
                    elements=st.floats(-4.0, 4.0, width=32)))
    kinds = draw(arrays(np.int8, (n, d2), elements=st.integers(0, 2)))
    w3 = w.reshape(n, spec.group, d2)
    for g, j in zip(*np.nonzero(kinds == _CONSTANT)):
        w3[g, :, j] = w3[g, 0, j]
    for g, j in zip(*np.nonzero(kinds == _TINY_MIN)):
        w3[g, :, j] = np.abs(w3[g, :, j]) + dtype(1.0)
        w3[g, 0, j] = dtype(1e-30)
    clip = None
    if draw(st.booleans()):
        shape = () if spec.clip_granularity == "per-matrix" else (n, d2)
        logits = arrays(dtype, shape, elements=st.floats(-6.0, 8.0, width=32))
        clip = ClipParams(gamma=draw(logits), beta=draw(logits))
    return w, clip, spec


SAME_ARITHMETIC = settings(max_examples=300, deadline=None, derandomize=True)


class TestSameArithmetic:
    """`clip_to_params`, `quantize`, `dequantize` and `ste_fake_quant` give
    the bits of the formulas above, gradients included."""

    def test_tiny_positive_minimum_gives_negative_zero_point(self):
        spec = QuantSpec(bits=2, group=2)
        w = np.array([[1e-30], [1.0]], dtype=np.float32)
        p = clip_to_params(*group_minmax(w, 2), None, spec)
        assert p.zero[0, 0] == 0.0 and np.signbit(p.zero[0, 0])

    @SAME_ARITHMETIC
    @given(case=quant_cases())
    def test_frozen_path_gives_reference_bytes(self, case):
        w, clip, spec = case
        mins, maxs = group_minmax(w, spec.group)
        s, z = _ref_params(mins, maxs, clip, spec)
        p = clip_to_params(mins, maxs, clip, spec)
        for got, ref in ((p.scale, s), (p.zero, z)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        codes = quantize(w, p, spec)
        ref_codes = _ref_quantize(w, s, z, spec)
        assert codes.dtype == np.uint8 and codes.tobytes() == ref_codes.tobytes()
        q, ref_q = dequantize(codes, p), _ref_dequantize(ref_codes, s, z)
        assert q.dtype == ref_q.dtype and q.tobytes() == ref_q.tobytes()

    @SAME_ARITHMETIC
    @given(case=quant_cases(), w_trains=st.booleans())
    def test_taped_path_gives_reference_values_and_gradients(self, case, w_trains):
        w, clip, spec = case
        if clip is None:
            clip = ClipParams.init(spec, *w.shape)
        mins, maxs = group_minmax(w, spec.group)
        target = w[::-1] * w.dtype.type(0.5)
        runs = []
        for fq in (ste_fake_quant, _ref_ste_chain):
            wv = ad.Var(w.copy(), requires_grad=True) if w_trains else w
            g, b = ad.param(clip.gamma.copy()), ad.param(clip.beta.copy())
            with ad.Tape() as tape:
                q = fq(wv, g, b, spec, mins, maxs)
                loss = ad.mse(q, target)
            ops = [op for op, _ in tape.entries]
            ad.backward(tape, loss)
            grads = [g.grad, b.grad] + ([wv.grad] if w_trains else [])
            runs.append((ops, q.value, grads))
        (ops, q, grads), (ref_ops, ref_q, ref_grads) = runs
        assert ops == ["ste_fake_quant", "mse"]
        assert q.dtype == ref_q.dtype and q.tobytes() == ref_q.tobytes()
        for got, ref in zip(grads, ref_grads):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        # the taped forward is the frozen path's fake quantization
        assert q.tobytes() == fake_quant(w, clip, spec).tobytes()


class TestPack:
    def test_hand_packed_byte(self):
        codes = np.array([[0, 1, 2, 3]], dtype=np.uint8)
        packed = pack(codes, QuantSpec(bits=2, group=1))
        assert packed.data == bytes([0b11100100])

    def test_three_bit_exhaustive_roundtrip(self):
        codes = np.arange(8, dtype=np.uint8).reshape(1, 8)
        spec = QuantSpec(bits=3, group=1)
        assert np.array_equal(unpack(pack(codes, spec), spec), codes)

    def test_empty_row(self):
        codes = np.zeros((3, 0), dtype=np.uint8)
        packed = pack(codes, QuantSpec(bits=2, group=1))
        assert packed.data == b""
        assert unpack(packed).shape == (3, 0)

    def test_row_padding_to_byte_boundary(self):
        codes = np.array([[1, 2, 3], [3, 2, 1]], dtype=np.uint8)
        packed = pack(codes, QuantSpec(bits=3, group=1))
        assert packed.row_bytes == 2  # 9 bits -> 2 bytes
        assert len(packed.data) == 4
        assert np.array_equal(unpack(packed), codes)

    def test_corrupt_length_rejected(self):
        codes = np.array([[1, 2, 3]], dtype=np.uint8)
        packed = pack(codes, QuantSpec(bits=3, group=1))
        packed.data = packed.data + b"\x00"
        with pytest.raises(FormatError):
            unpack(packed)

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_roundtrip_100_seeded_shapes(self, bits):
        spec = QuantSpec(bits=bits, group=1)
        for seed in range(100):
            r = RngState(seed * 7 + bits)
            d1, d2 = (int(v) for v in r.randint(1, 65, (2,)))
            codes = r.randint(0, spec.qmax + 1, (d1, d2)).astype(np.uint8)
            packed = pack(codes, spec)
            assert len(packed.data) == d1 * ((d2 * bits + 7) // 8)
            assert np.array_equal(unpack(packed, spec), codes)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3, 4, 8]),
           st.integers(1, 17), st.integers(1, 23))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, seed, bits, d1, d2):
        spec = QuantSpec(bits=bits, group=1)
        codes = RngState(seed).randint(0, spec.qmax + 1, (d1, d2)).astype(np.uint8)
        assert np.array_equal(unpack(pack(codes, spec)), codes)

    def test_unpack_spec_bits_mismatch(self):
        packed = pack(np.array([[1, 0]], dtype=np.uint8), QuantSpec(bits=2, group=1))
        with pytest.raises(FormatError):
            unpack(packed, QuantSpec(bits=4, group=1))

    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError):
            pack(np.array([[5]], dtype=np.uint8), QuantSpec(bits=2, group=1))


class TestSpecValidation:
    def test_bad_bits(self):
        from apiq.errors import ConfigError
        with pytest.raises(ConfigError):
            QuantSpec(bits=5, group=8)

    def test_bad_group(self):
        from apiq.errors import ConfigError
        with pytest.raises(ConfigError):
            QuantSpec(bits=2, group=0)

    def test_bad_granularity(self):
        from apiq.errors import ConfigError
        with pytest.raises(ConfigError):
            QuantSpec(bits=2, group=8, clip_granularity="per-channel")
