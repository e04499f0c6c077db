import math

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
@pytest.mark.parametrize("t", [1, 5])
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,d,n_heads", [(1, 16, 1), (3, 32, 2), (2, 64, 4)])
def test_untaped_causal_attention_bitwise_equals_taped(dtype, n, d, n_heads):
    """The blocked path taken when nothing is differentiated gives the
    taped op's bytes at every length: one-row tails (33, 65, 97), the
    longest blocked length (128) and lengths past it (129, 130, 200, 256)."""
    for t in list(range(1, 131)) + [200, 256]:
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
