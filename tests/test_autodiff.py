import math
import tracemalloc
import weakref

import numpy as np
import pytest

from apiq import autodiff as ad
from apiq.errors import ShapeError, StateError
from apiq.rng import RngState


def _check(f, inputs, tol=1e-5):
    rep = ad.gradcheck(f, inputs)
    assert rep.ok(tol), f"max rel err {rep.max_rel_err}"


def _rand(seed, shape):
    return RngState(seed).randn(shape)


SEEDS = list(range(20))


# ---------------------------------------------------------------------------
# per-primitive gradchecks, f64, 20 seeded shapes each
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_matmul(seed):
    r = RngState(seed)
    m, k, n = (int(x) for x in r.randint(1, 5, (3,)))
    a = ad.Var(r.randn((m, k)))
    b = ad.Var(r.randn((k, n)))
    t = r.randn((m, n))
    _check(lambda a, b: ad.mse(ad.matmul(a, b), t), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_add_sub_mul_div(seed):
    r = RngState(seed)
    shape = tuple(int(x) for x in r.randint(1, 4, (2,)))
    a = ad.Var(r.randn(shape))
    b = ad.Var(r.randn(shape) + 3.0)  # keep divisors away from zero
    t = r.randn(shape)
    _check(lambda a, b: ad.mse(ad.add(a, b), t), [a, b])
    _check(lambda a, b: ad.mse(ad.sub(a, b), t), [a, b])
    _check(lambda a, b: ad.mse(ad.mul(a, b), t), [a, b])
    _check(lambda a, b: ad.mse(ad.div(a, b), t), [a, b])


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_gradcheck_broadcast_grads(seed):
    r = RngState(seed)
    a = ad.Var(r.randn((3, 2, 4)))
    b = ad.Var(r.randn((2, 4)) + 2.5)
    t = r.randn((3, 2, 4))
    _check(lambda a, b: ad.mse(ad.mul(a, b), t), [a, b])
    _check(lambda a, b: ad.mse(ad.div(a, b), t), [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_unary(seed):
    r = RngState(seed)
    shape = tuple(int(x) for x in r.randint(1, 5, (2,)))
    x = ad.Var(r.randn(shape))
    t = r.randn(shape)
    _check(lambda x: ad.mse(ad.neg(x), t), [x])
    _check(lambda x: ad.mse(ad.scale(x, -1.7), t), [x])
    _check(lambda x: ad.mse(ad.exp(x), t), [x])
    _check(lambda x: ad.mse(ad.sigmoid(x), t), [x])
    _check(lambda x: ad.mse(ad.silu(x), t), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_softmax(seed):
    r = RngState(seed)
    x = ad.Var(r.randn((3, 5)))
    t = r.randn((3, 5))
    _check(lambda x: ad.mse(ad.softmax(x), t), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_causal_softmax(seed):
    r = RngState(seed)
    x = ad.Var(r.randn((2, 4, 4)))
    t = r.randn((2, 4, 4))
    _check(lambda x: ad.mse(ad.causal_softmax(x), t), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_rmsnorm(seed):
    r = RngState(seed)
    x = ad.Var(r.randn((2, 3, 6)))
    g = ad.Var(r.randn((6,)))
    t = r.randn((2, 3, 6))
    _check(lambda x, g: ad.mse(ad.rmsnorm(x, g), t), [x, g])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_embedding(seed):
    r = RngState(seed)
    table = ad.Var(r.randn((7, 4)))
    ids = r.randint(0, 7, (2, 5))
    t = r.randn((2, 5, 4))
    _check(lambda table: ad.mse(ad.embedding(table, ids), t), [table])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_rope(seed):
    r = RngState(seed)
    x = ad.Var(r.randn((2, 3, 4)))  # (n, t, pairs*2)
    ang = r.uniform((3, 2), 0, 6.28)
    cos, sin = np.cos(ang), np.sin(ang)
    t = r.randn((2, 3, 4))
    _check(lambda x: ad.mse(ad.rope_rotate(x, cos, sin), t), [x])


@pytest.mark.parametrize("seed", SEEDS[:5])
@pytest.mark.parametrize("t", [1, 5, 34, 65])  # 34 and 65 span query blocks
def test_gradcheck_causal_attention(seed, t):
    r = RngState(seed)
    q, k, v = (ad.Var(r.randn((2, t, 8))) for _ in range(3))  # 2 heads of 4
    ang = r.uniform((t, 2), 0, 6.28)
    cos, sin = np.cos(ang), np.sin(ang)
    target = r.randn((2, t, 8))
    _check(lambda q, k, v: ad.mse(ad.causal_attention(q, k, v, 2, cos, sin), target),
           [q, k, v])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_clamp_maximum(seed):
    r = RngState(seed)
    # keep samples away from the kinks so central differences are valid
    x = ad.Var(np.where(r.uniform((3, 3)) < 0.5, -1.0, 1.0) * (0.4 + r.uniform((3, 3)) * 0.4))
    t = r.randn((3, 3))
    _check(lambda x: ad.mse(ad.clamp(x, -0.9, 0.9), t), [x])
    _check(lambda x: ad.mse(ad.maximum(x, -0.95), t), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_structural(seed):
    r = RngState(seed)
    x = ad.Var(r.randn((2, 3, 4)))
    t = r.randn((4, 3, 2))
    _check(lambda x: ad.mse(ad.transpose(x, (2, 1, 0)), t), [x])
    t2 = r.randn((6, 4))
    _check(lambda x: ad.mse(ad.reshape(x, (6, 4)), t2), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_cross_entropy(seed):
    r = RngState(seed)
    logits = ad.Var(r.randn((3, 4, 6)))
    targets = r.randint(0, 6, (3, 4))
    _check(lambda logits: ad.cross_entropy(logits, targets), [logits])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_round_ste_surrogate(seed):
    r = RngState(seed)
    x = ad.Var(r.randn((3, 3)))
    t = r.randn((3, 3))
    with ad.surrogate_round():
        _check(lambda x: ad.mse(ad.round_ste(ad.scale(x, 1.3)), t), [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_gradcheck_gram_mse(seed):
    r = RngState(seed)
    x, y = r.randn((7, 4)), r.randn((7, 3))
    w = ad.Var(r.randn((4, 3)))
    moments = (x.T @ x, x.T @ y, float(np.vdot(y, y)), y.size)
    _check(lambda w: ad.gram_mse(w, *moments), [w])
    direct = ad.mse(ad.matmul(x, w), y).value
    assert abs(ad.gram_mse(w, *moments).value - direct) <= 1e-12 * max(1.0, direct)


# ---------------------------------------------------------------------------
# fused causal attention against the chain of primitives it replaces
# ---------------------------------------------------------------------------

def _attention_chain(q, k, v, n_heads, cos, sin):
    n, t, d = q.shape
    hd = d // n_heads

    def heads(x):
        return ad.transpose(ad.reshape(x, (n, t, n_heads, hd)), (0, 2, 1, 3))

    qh = ad.rope_rotate(heads(q), cos, sin)
    kh = ad.rope_rotate(heads(k), cos, sin)
    scores = ad.scale(ad.matmul(qh, ad.swap_last(kh)), 1.0 / math.sqrt(hd))
    ctx = ad.matmul(ad.causal_softmax(scores), heads(v))
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (n, t, d))


def _attention_run(attn, arrays, trained, n_heads, cos, sin, target):
    xs = [ad.Var(a.copy(), requires_grad=i in trained) for i, a in enumerate(arrays)]
    with ad.Tape() as tape:
        out = attn(*xs, n_heads, cos, sin)
        loss = ad.mse(out, target)
    ad.backward(tape, loss)
    return out.value, [x.grad for x in xs], [op for op, _ in tape.entries]


@pytest.mark.parametrize("n,t,d,n_heads", [(8, 128, 64, 4), (64, 32, 64, 4)])
@pytest.mark.parametrize("trained", [(0, 1, 2), (2,), (0,), (1,)])
def test_causal_attention_bitwise_equals_chain_f32(n, t, d, n_heads, trained):
    r = RngState(n + t)
    arrays = [r.randn((n, t, d)).astype(np.float32) for _ in range(3)]
    ang = r.uniform((t, d // n_heads // 2), 0, 6.28)
    cos, sin = np.cos(ang).astype(np.float32), np.sin(ang).astype(np.float32)
    target = r.randn((n, t, d)).astype(np.float32)
    y_ref, g_ref, _ = _attention_run(_attention_chain, arrays, trained, n_heads,
                                     cos, sin, target)
    y, g, ops = _attention_run(ad.causal_attention, arrays, trained, n_heads,
                               cos, sin, target)
    assert ops == ["causal_attention", "mse"]
    assert y.dtype == np.float32 and y.tobytes() == y_ref.tobytes()
    for i in range(3):
        if i in trained:
            assert g[i].dtype == np.float32
            assert g[i].tobytes() == g_ref[i].tobytes()
        else:
            assert g[i] is None and g_ref[i] is None


TRAINED_SUBSETS = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
# one-row tails (33, 65, 97), the longest blocked length (128) and lengths
# past it (129, 130, 200, 256)
ATTENTION_LENGTHS = list(range(1, 131)) + [200, 256]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("trained", TRAINED_SUBSETS)
def test_causal_attention_bitwise_equals_chain_every_length(dtype, trained):
    """The per-block forward and backward give the chain's output and
    gradient bytes at every length, whichever inputs are trained."""
    n, d, n_heads = 2, 32, 2
    for t in ATTENTION_LENGTHS:
        r = RngState(t)
        arrays = [r.randn((n, t, d)).astype(dtype) for _ in range(3)]
        ang = r.uniform((t, d // n_heads // 2), 0, 6.28)
        cos, sin = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)
        target = r.randn((n, t, d)).astype(dtype)
        y_ref, g_ref, _ = _attention_run(_attention_chain, arrays, trained, n_heads,
                                         cos, sin, target)
        y, g, _ = _attention_run(ad.causal_attention, arrays, trained, n_heads,
                                 cos, sin, target)
        assert y.dtype == dtype and y.tobytes() == y_ref.tobytes(), t
        for i in range(3):
            if i in trained:
                assert g[i].dtype == dtype, (t, i)
                assert g[i].tobytes() == g_ref[i].tobytes(), (t, i)
            else:
                assert g[i] is None and g_ref[i] is None


def test_causal_attention_taped_peak_memory():
    """Under a tape only the per-block probabilities are kept: a forward
    plus backward at (8, 128, 64, 4) in f32 peaks below 6.5 MB (the full
    (n, h, t, t) score and probability arrays peaked at 7.9 MB)."""
    n, t, d, n_heads = 8, 128, 64, 4
    r = RngState(7)
    arrays = [r.randn((n, t, d)).astype(np.float32) for _ in range(3)]
    ang = r.uniform((t, d // n_heads // 2), 0, 6.28)
    cos, sin = np.cos(ang).astype(np.float32), np.sin(ang).astype(np.float32)
    target = r.randn((n, t, d)).astype(np.float32)
    tracemalloc.start()
    try:
        _attention_run(ad.causal_attention, arrays, (0, 1, 2), n_heads, cos, sin,
                       target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5e6, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,d,n_heads", [(1, 16, 1), (3, 32, 2), (2, 64, 4)])
def test_untaped_causal_attention_bitwise_equals_taped(dtype, n, d, n_heads):
    """Calls that keep nothing for a backward (no tape, or no input that
    requires a gradient) give the taped op's bytes at every length."""
    for t in ATTENTION_LENGTHS:
        r = RngState(1000 + t)
        q, k, v = (r.randn((n, t, d)).astype(dtype) for _ in range(3))
        ang = r.uniform((t, d // n_heads // 2), 0, 6.28)
        cos, sin = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)
        with ad.Tape() as tape:
            taped = ad.causal_attention(q, k, ad.param(v), n_heads, cos, sin)
        assert [op for op, _ in tape.entries] == ["causal_attention"]
        plain = ad.causal_attention(q, k, v, n_heads, cos, sin)
        with ad.Tape() as tape:
            untrained = ad.causal_attention(q, k, v, n_heads, cos, sin)
        assert not tape.entries
        for out in (plain, untrained):
            assert out.value.dtype == dtype, t
            assert out.value.tobytes() == taped.value.tobytes(), t


def test_causal_attention_rejects_mismatched_shapes():
    x = np.zeros((1, 4, 8))
    cos = np.ones((4, 2))
    with pytest.raises(ShapeError):
        ad.causal_attention(x, x, np.zeros((1, 3, 8)), 2, cos, cos)
    with pytest.raises(ShapeError):
        ad.causal_attention(x, x, x, 3, cos, cos)
    with pytest.raises(ShapeError):
        ad.causal_attention(x, x, x, 2, cos[:3], cos[:3])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_causal_softmax_matches_where_masking(bad):
    r = RngState(3)
    s = r.randn((2, 3, 6, 6)).astype(np.float32)
    s[0, 0, 0, 5] = bad
    s[1, 2, 3, 4] = bad
    s[0, 1, 2, 1] = 7.5  # an allowed slot
    before = s.copy()
    allowed = np.tril(np.ones((6, 6), dtype=bool))
    masked = np.where(allowed, s, -np.inf)
    e = np.exp(masked - masked.max(axis=-1, keepdims=True))
    ref = e / e.sum(axis=-1, keepdims=True)
    y = ad.causal_softmax(s).value
    assert y.tobytes() == ref.tobytes()
    assert (y[..., ~allowed] == 0).all()
    assert s.tobytes() == before.tobytes()  # the input is left as it was


def test_causal_mask_is_cached_and_read_only():
    mask = ad._causal_mask(5)
    assert mask is ad._causal_mask(5)
    assert (mask == ~np.tril(np.ones((5, 5), dtype=bool))).all()
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 1] = False


# ---------------------------------------------------------------------------
# leaner backward passes against the literal formulas they replace
# ---------------------------------------------------------------------------

def _pairwise_rotate(x, cos, sin):
    ev, od = x[..., 0::2], x[..., 1::2]
    y = np.empty_like(x)
    y[..., 0::2] = ev * cos - od * sin
    y[..., 1::2] = ev * sin + od * cos
    return y


def _pairwise_rotate_back(g, cos, sin):
    ge, go = g[..., 0::2], g[..., 1::2]
    d = np.empty_like(g)
    d[..., 0::2] = ge * cos + go * sin
    d[..., 1::2] = -ge * sin + go * cos
    return d


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", [1, 7, 33, 128, 130])
def test_rotary_kernel_bitwise_equals_pairwise_formula(dtype, t):
    """The one rotary kernel, forward and backward, on the heads layout of
    `rope_rotate` and the merged (n, t, d) layout attention rotates in,
    gives the bytes of the pairwise formula on each head."""
    n, n_heads, hd = 3, 4, 16
    r = RngState(500 + t)
    x, g = (r.randn((n, t, n_heads * hd)).astype(dtype) for _ in range(2))
    ang = r.uniform((t, hd // 2), 0, 6.28)
    cos, sin = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)

    def heads(a):
        return a.reshape(n, t, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(a):
        return a.transpose(0, 2, 1, 3).reshape(n, t, n_heads * hd)

    fwd = _pairwise_rotate(heads(x), cos, sin)
    back = _pairwise_rotate_back(heads(g), cos, sin)
    out = ad.rope_rotate(heads(x), cos, sin).value
    assert out.dtype == dtype and out.tobytes() == np.ascontiguousarray(fwd).tobytes()
    for layout, reps, want_y, want_dx in ((heads, 1, fwd, back),
                                          (lambda a: a, n_heads, merge(fwd), merge(back))):
        tables = ad._pair_tables(cos, sin, reps)
        for got, want in ((ad._rotate_pairs(layout(x), *tables, np.add), want_y),
                          (ad._rotate_pairs(layout(g), *tables, np.subtract), want_dx)):
            assert got.dtype == dtype
            assert (np.ascontiguousarray(got).tobytes()
                    == np.ascontiguousarray(want).tobytes()), (layout, reps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("magnitude", [1.0, 1e4])
def test_cross_entropy_bitwise_equals_recomputed_softmax(dtype, magnitude):
    """The loss and gradient equal those of a backward that recomputes the
    softmax from the logits, byte for byte, also for logits so large that
    most exponentials underflow to zero."""
    r = RngState(17)
    logits = (r.randn((4, 40, 256)) * magnitude).astype(dtype)
    targets = r.randint(0, 256, (4, 40))
    flat, tgt = logits.reshape(-1, 256), targets.reshape(-1)
    rows = np.arange(flat.shape[0])
    z = flat - flat.max(axis=-1, keepdims=True)
    want_loss = np.asarray((np.log(np.exp(z).sum(axis=-1)) - z[rows, tgt]).mean(),
                           dtype=dtype)
    p = flat - flat.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    p[rows, tgt] -= 1.0
    want_grad = (np.ones_like(want_loss) * p / p.shape[0]).reshape(logits.shape)

    x = ad.Var(logits.copy(), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.cross_entropy(x, targets)
    ad.backward(tape, loss)
    assert loss.value.dtype == x.grad.dtype == dtype
    assert loss.value.tobytes() == want_loss.tobytes()
    assert x.grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_and_rmsnorm_grads_bitwise_equal_formulas(dtype):
    """The in-place backward of `silu` (sigmoid recomputed) and `rmsnorm`
    gives the bytes of their one-expression formulas."""
    r = RngState(19)
    xv, gv, gain = (r.randn(shape).astype(dtype) for shape in ((6, 5, 32),) * 2 + ((32,),))
    sig = ad.sigmoid_fwd(xv)
    ms = (xv * xv).mean(axis=-1, keepdims=True)
    rr = 1.0 / np.sqrt(ms + np.asarray(ad.RMSNORM_EPS, dtype=dtype))
    u = gv * gain
    want = {
        "silu": [gv * (sig * (1.0 + xv * (1.0 - sig)))],
        "rmsnorm": [u * rr - xv * (rr ** 3) * ((u * xv).sum(axis=-1, keepdims=True) / 32),
                    (gv * xv * rr).reshape(-1, 32).sum(axis=0)],
    }
    for op, args in (("silu", ()), ("rmsnorm", (gain,))):
        xs = [ad.Var(a.copy(), requires_grad=True) for a in (xv, *args)]
        with ad.Tape() as tape:
            out = getattr(ad, op)(*xs)
        out.grad = gv
        tape.entries[-1][1]()
        for got, expected in zip([v.grad for v in xs], want[op]):
            assert got.dtype == dtype and got.tobytes() == expected.tobytes(), op


# ---------------------------------------------------------------------------
# analytic spot checks
# ---------------------------------------------------------------------------

def test_silu_derivative_at_zero():
    x = ad.Var(np.zeros((1,)), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.mse(ad.silu(x), np.full((1,), -1.0))
    ad.backward(tape, loss)
    # d mse/dx = 2*(silu(0) + 1)*silu'(0) = 2*1*0.5 = 1
    assert np.allclose(x.grad, 1.0)


def test_softmax_constant_vector():
    n = 7
    out = ad.softmax(ad.Var(np.full((n,), 2.2)))
    assert np.allclose(out.value, 1.0 / n)
    x = ad.Var(np.full((n,), 2.2), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.softmax(x)
        loss = ad.mse(y, y.value)  # gradient of sum of softmax is 0
    ad.backward(tape, loss)
    assert np.allclose(x.grad, 0.0)


def test_round_ste_gradient_is_identity():
    xv = np.array([0.2, 0.7, -1.6, 2.5])
    x = ad.Var(xv.copy(), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.mse(ad.round_ste(x), np.zeros(4))
    ad.backward(tape, loss)
    assert np.allclose(x.grad, 2.0 * np.rint(xv) / 4)


def test_backward_zero_residual():
    x = ad.Var(RngState(1).randn((3, 3)), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.mse(x, x.value.copy())
    ad.backward(tape, loss)
    assert np.allclose(x.grad, 0.0)


def test_backward_twice_raises():
    x = ad.Var(np.ones((2,)), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.mse(x, np.zeros(2))
    ad.backward(tape, loss)
    with pytest.raises(StateError):
        ad.backward(tape, loss)


def test_backward_frees_entries_and_keeps_leaf_grads():
    """Each closure is released once it has run: the tape keeps its op
    names, an intermediate only the tape held is freed, and the leaf grads
    are the bytes of a replay that frees nothing."""
    r = RngState(4)
    xv, wv, target = r.randn((5, 3)), r.randn((3, 2)), r.randn((5, 2))

    def record():
        x, w = ad.param(xv), ad.param(wv)
        with ad.Tape() as tape:
            h = ad.silu(ad.matmul(x, w))
            loss = ad.mse(ad.add(h, h), target)
        return tape, loss, x, w, weakref.ref(h.value)

    ref_tape, ref_loss, x_ref, w_ref, _ = record()
    ref_loss.accum(np.ones_like(ref_loss.value))
    for _, fn in reversed(ref_tape.entries):
        fn()

    tape, loss, x, w, h_value = record()
    assert h_value() is not None
    ad.backward(tape, loss)
    assert h_value() is None
    assert [op for op, _ in tape.entries] == ["matmul", "silu", "add", "mse"]
    assert all(fn is None for _, fn in tape.entries)
    for leaf, ref in ((x, x_ref), (w, w_ref)):
        assert leaf.grad.tobytes() == ref.grad.tobytes()
    with pytest.raises(StateError):
        ad.backward(tape, loss)


def test_backward_before_forward_raises():
    with pytest.raises(StateError):
        ad.backward(ad.Tape(), ad.Var(np.zeros(())))


def test_non_scalar_loss_rejected():
    x = ad.Var(np.ones((2,)), requires_grad=True)
    with ad.Tape() as tape:
        y = ad.add(x, x)
    with pytest.raises(ValueError):
        ad.backward(tape, y)


def test_gradient_accumulation_matches_duplicated_inputs():
    r = RngState(9)
    xv = r.randn((4,))
    c1, c2 = r.randn((4,)), r.randn((4,))
    t = r.randn((4,))

    x = ad.Var(xv.copy(), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.mse(ad.add(ad.mul(x, c1), ad.mul(x, c2)), t)
    ad.backward(tape, loss)

    x1 = ad.Var(xv.copy(), requires_grad=True)
    x2 = ad.Var(xv.copy(), requires_grad=True)
    with ad.Tape() as tape2:
        loss2 = ad.mse(ad.add(ad.mul(x1, c1), ad.mul(x2, c2)), t)
    ad.backward(tape2, loss2)
    assert np.allclose(x.grad, x1.grad + x2.grad)


def test_gradients_deterministic():
    r = RngState(13)
    xv, wv = r.randn((5, 3)), r.randn((3, 2))
    t = r.randn((5, 2))
    grads = []
    for _ in range(2):
        x = ad.Var(xv.copy(), requires_grad=True)
        w = ad.Var(wv.copy(), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.mse(ad.silu(ad.matmul(x, w)), t)
        ad.backward(tape, loss)
        grads.append((x.grad.tobytes(), w.grad.tobytes()))
    assert grads[0] == grads[1]


def test_gradcheck_linear_map_near_exact():
    r = RngState(21)
    w = r.randn((4, 3))
    x = ad.Var(r.randn((2, 4)))
    t = r.randn((2, 3))
    rep = ad.gradcheck(lambda x: ad.mse(ad.matmul(x, w), t), [x])
    assert rep.max_rel_err <= 1e-9


def test_gradcheck_composed_expression():
    r = RngState(22)
    x = ad.Var(r.randn((3, 4)))
    w = ad.Var(r.randn((4, 2)))
    t = r.randn((3, 2))
    rep = ad.gradcheck(lambda x, w: ad.mse(ad.silu(ad.matmul(x, w)), t), [x, w])
    assert rep.max_rel_err <= 1e-5
