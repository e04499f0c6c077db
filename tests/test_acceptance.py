"""Acceptance suite: property gates plus the desk-scale trend checks.

Everything heavy is built once in the module fixture through the CLI
(pretrain -> 4 methods x 2 bit widths x 3 seeds of quantization ->
2 inits x 3 adapter positions x 3 seeds of finetuning); the criteria then
assert on the produced checkpoints, logs and reports. Each test prints
one PASS/FAIL line.
"""

import time

MODULE_T0 = time.monotonic()

import numpy as np
import pytest

from apiq import autodiff as ad
from apiq import model_io
from apiq.calib import loftq_init
from apiq.checkpoint import load_tensors
from apiq.cli import main
from apiq.evals import perplexity
from apiq.linalg import group_minmax
from apiq.model import Linear, ModelConfig, TinyTransformer, forward_block
from apiq.quant import (QuantSpec, clip_to_params, dequantize, fake_quant,
                        pack, quantize, ste_fake_quant, unpack)
from apiq.rng import RngState
from apiq.runconfig import default_corpus_path, load_corpus

SEEDS = (1, 2, 3)
METHODS = ("rtn", "loftq", "apiq-lw", "apiq-bw")

DESK_CONFIG = """
seed = {seed}
pretrain.steps = 400
finetune.epochs = 1
finetune.lr = 0.001
"""


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def acc(tmp_path_factory):
    ws = tmp_path_factory.mktemp("acceptance")
    corpus_path = default_corpus_path()
    corpus = load_corpus(corpus_path)

    cfgs = {}
    for seed in (0,) + SEEDS:
        p = ws / f"seed{seed}.cfg"
        p.write_text(DESK_CONFIG.format(seed=seed))
        cfgs[seed] = str(p)

    base = ws / "base.ckpt"
    assert main(["pretrain", "--config", cfgs[0], "--corpus", corpus_path,
                 "--out", str(base)]) == 0
    full_model = model_io.load_model(base)
    full_ppl = perplexity(full_model, corpus, 128)

    quantize_secs = []
    ckpts, ppls, act_tsvs = {}, {}, {}
    for seed in SEEDS:
        # qlora (b=2 only) feeds the finetuning criteria; its post-quant
        # metrics coincide with rtn's since B = 0
        for bits, methods in ((2, METHODS + ("qlora",)), (8, METHODS)):
            for method in methods:
                out = ws / f"{method}-b{bits}-s{seed}.ckpt"
                t0 = time.monotonic()
                assert main(["quantize", "--config", cfgs[seed],
                             "--in", str(base), "--method", method,
                             "--bits", str(bits), "--corpus", corpus_path,
                             "--out", str(out)]) == 0
                quantize_secs.append(time.monotonic() - t0)
                ckpts[(method, bits, seed)] = out
                ppls[(method, bits, seed)] = perplexity(
                    model_io.load_model(out), corpus, 128)
                if bits == 2:
                    prefix = ws / f"{method}-b2-s{seed}"
                    assert main(["eval", "--config", cfgs[seed],
                                 "--in", str(out), "--corpus", corpus_path,
                                 "--profile-against", str(base),
                                 "--report-prefix", str(prefix)]) == 0
                    act_tsvs[(method, seed)] = prefix.with_name(
                        prefix.name + ".act.tsv")

    ft_ppls, ft_ckpts = {}, {}
    for seed in SEEDS:
        for init in ("qlora", "apiq-bw"):
            for pos in ("all", "attn", "ffn"):
                src = ckpts[(init, 2, seed)]
                out = ws / f"ft-{init}-{pos}-s{seed}.ckpt"
                assert main(["finetune", "--config", cfgs[seed],
                             "--in", str(src), "--corpus", corpus_path,
                             "--lora-position", pos, "--out", str(out)]) == 0
                ft_ckpts[(init, pos, seed)] = (src, out)
                ft_ppls[(init, pos, seed)] = perplexity(
                    model_io.load_model(out), corpus, 128)

    return dict(ws=ws, corpus=corpus, base=base, full_model=full_model,
                full_ppl=full_ppl, ckpts=ckpts, ppls=ppls, act_tsvs=act_tsvs,
                ft_ppls=ft_ppls, ft_ckpts=ft_ckpts,
                quantize_secs=quantize_secs)


def test_criterion_1_quantizer_properties():
    t0 = time.monotonic()
    failures = 0
    for seed in range(100):
        r = RngState(seed)
        scale = float(r.uniform((), 0.01, 3.0))
        w = (r.randn((16, 8)) * scale).astype(np.float32)
        for bits in (2, 3, 4, 8):
            spec = QuantSpec(bits=bits, group=8)
            mins, maxs = group_minmax(w, 8)
            params = clip_to_params(mins, maxs, None, spec)
            codes = quantize(w, params, spec)
            # code range
            failures += not (codes.min() >= 0 and codes.max() <= spec.qmax)
            # idempotence with fixed params
            failures += not np.array_equal(
                quantize(dequantize(codes, params), params, spec), codes)
            # s/2 grid-error bound inside the clipped range
            q = dequantize(codes, params)
            sat = (codes == 0) | (codes == spec.qmax)
            bound = np.repeat(params.scale[:, None, :], 8, axis=1
                              ).reshape(16, 8) / 2 + 1e-6
            failures += not np.all(np.abs(w - q)[~sat] <= bound[~sat])
            # monotonicity along a sorted column
            col = np.sort(w[:, :1], axis=0)
            cp = clip_to_params(*group_minmax(col, 8), None, spec)
            cc = quantize(col, cp, spec).astype(int)
            failures += not np.all(np.diff(cc[:8].ravel()) >= 0)
            # pack/unpack identity
            packed = pack(codes, spec)
            failures += not np.array_equal(unpack(packed, spec), codes)
    elapsed = time.monotonic() - t0
    report(1, failures == 0 and elapsed < 30,
           f"quantizer properties 100x4 cases, {failures} failures, "
           f"{elapsed:.1f}s (< 30s)")


def test_criterion_2_gradient_suite():
    t0 = time.monotonic()
    worst = 0.0

    def check(f, inputs, tol):
        nonlocal worst
        rep = ad.gradcheck(f, inputs)
        worst = max(worst, rep.max_rel_err)
        assert rep.ok(tol), rep.max_rel_err

    for seed in range(3):
        r = RngState(seed)
        a = ad.Var(r.randn((3, 4)))
        b = ad.Var(r.randn((4, 3)))
        sq = ad.Var(r.randn((3, 4)))
        pos = ad.Var(r.randn((3, 4)) + 3.0)
        t34, t43, t33 = r.randn((3, 4)), r.randn((4, 3)), r.randn((3, 3))
        check(lambda a, b: ad.mse(ad.matmul(a, b), t33), [a, b], 1e-5)
        check(lambda a, b: ad.mse(ad.add(a, ad.transpose(b)), t34), [a, b], 1e-5)
        check(lambda a, b: ad.mse(ad.sub(a, ad.transpose(b)), t34), [a, b], 1e-5)
        check(lambda a, p: ad.mse(ad.mul(a, p), t34), [a, pos], 1e-5)
        check(lambda a, p: ad.mse(ad.div(a, p), t34), [a, pos], 1e-5)
        check(lambda a: ad.mse(ad.neg(a), t34), [a], 1e-5)
        check(lambda a: ad.mse(ad.scale(a, 1.7), t34), [a], 1e-5)
        check(lambda a: ad.mse(ad.exp(a), t34), [a], 1e-5)
        check(lambda a: ad.mse(ad.sigmoid(a), t34), [a], 1e-5)
        check(lambda a: ad.mse(ad.silu(a), t34), [a], 1e-5)
        check(lambda a: ad.mse(ad.softmax(a), t34), [a], 1e-5)
        sq2 = ad.Var(r.randn((2, 3, 3)))
        t233 = r.randn((2, 3, 3))
        check(lambda x: ad.mse(ad.causal_softmax(x), t233), [sq2], 1e-5)
        g = ad.Var(r.randn((4,)))
        check(lambda x, g: ad.mse(ad.rmsnorm(x, g), t34), [a, g], 1e-5)
        table = ad.Var(r.randn((5, 3)))
        ids = r.randint(0, 5, (2, 4))
        t243 = r.randn((2, 4, 3))
        check(lambda tb: ad.mse(ad.embedding(tb, ids), t243), [table], 1e-5)
        ang = r.uniform((3, 2), 0, 6.28)
        check(lambda x: ad.mse(ad.rope_rotate(x, np.cos(ang), np.sin(ang)), t34),
              [ad.Var(r.randn((3, 4)))], 1e-5)
        far = ad.Var(np.where(r.uniform((3, 3)) < 0.5, -0.6, 0.6))
        check(lambda x: ad.mse(ad.clamp(x, -0.9, 0.9), t33), [far], 1e-5)
        check(lambda x: ad.mse(ad.maximum(x, -0.9), t33), [far], 1e-5)
        t12 = r.randn((12,))
        check(lambda x: ad.mse(ad.reshape(x, (12,)), t12), [a], 1e-5)
        ce_ids = r.randint(0, 3, (3,))
        check(lambda x: ad.cross_entropy(x, ce_ids), [ad.Var(r.randn((3, 3)))], 1e-5)
        with ad.surrogate_round():
            check(lambda x: ad.mse(ad.round_ste(ad.scale(x, 1.3)), t34), [a], 1e-5)

    # the full block-calibration loss through the STE surrogate
    cfg = ModelConfig(vocab=16, d_model=8, n_heads=2, d_ff=16, n_blocks=1,
                      max_seq=8)
    model = TinyTransformer.init(cfg, seed=60, dtype=np.float64)
    block = model.blocks[0]
    x = RngState(61).randn((2, 4, 8))
    y_full = forward_block(block, ad.Var(x), cfg).value
    spec = QuantSpec(bits=4, group=8)
    fixed = {}
    for i, (lname, lay) in enumerate(block.layers.items()):
        s = RngState(62).derive(i)
        fixed[lname] = (s.uniform((lay.d1, 2), -0.3, 0.3),
                        s.uniform((lay.d2, 2), -0.3, 0.3),
                        group_minmax(lay.weight, spec.group))

    def block_loss(gamma_q, a_q):
        effs = {}
        for lname, (a_c, b_c, (mins, maxs)) in fixed.items():
            lay = block.layers[lname]
            g = gamma_q if lname == "q" else ad.Var(np.full((), 4.0))
            a_v = a_q if lname == "q" else ad.Var(a_c)
            qw = ste_fake_quant(lay.weight, g, ad.Var(np.full((), 4.0)), spec,
                                mins, maxs)
            effs[lname] = ad.add(qw, ad.matmul(a_v, ad.swap_last(ad.Var(b_c))))

        def hook(layer, xv):
            return ad.matmul(xv, effs[layer.name.rsplit(".", 1)[1]])

        out = forward_block(block, ad.Var(x), cfg, hook=hook)
        return ad.mse(out, y_full)

    gamma_q = ad.Var(np.full((), 4.0), requires_grad=True)
    a_q = ad.Var(fixed["q"][0].copy(), requires_grad=True)
    with ad.surrogate_round():
        rep = ad.gradcheck(block_loss, [gamma_q, a_q])
    block_err = rep.max_rel_err
    elapsed = time.monotonic() - t0
    report(2, block_err <= 1e-3 and elapsed < 120,
           f"primitives worst rel err {worst:.2e} (<=1e-5), block loss "
           f"{block_err:.2e} (<=1e-3), {elapsed:.1f}s (< 2min)")


def test_criterion_3_loftq_contraction():
    spec = QuantSpec(bits=2, group=16)
    wins = {2: 0, 4: 0}
    for seed in range(50):
        w = (RngState(seed).randn((16, 16)) * 0.3).astype(np.float32)
        rtn_err = np.linalg.norm(w - fake_quant(w, None, spec))
        for rank in (2, 4):
            lay = Linear(name="l", d1=16, d2=16, weight=w.copy())
            loftq_init(lay, spec, rank=rank, iters=1)
            err = np.linalg.norm(w - lay.effective_weight())
            wins[rank] += err < rtn_err
    full_rank_ok = True
    for seed in range(5):
        w = (RngState(100 + seed).randn((16, 16)) * 0.3).astype(np.float32)
        lay = Linear(name="l", d1=16, d2=16, weight=w.copy())
        loftq_init(lay, spec, rank=16, iters=1)
        full_rank_ok &= np.linalg.norm(w - lay.effective_weight()) <= 1e-5
    report(3, wins[2] == 50 and wins[4] == 50 and full_rank_ok,
           f"first-iteration contraction {wins[2]}/50 (r=2), {wins[4]}/50 (r=4); "
           f"full-rank residual <= 1e-5: {full_rank_ok}")


def _calib_log_units(path):
    units = {}
    for line in path.read_text().splitlines()[2:]:
        unit, epoch, loss = line.split("\t")
        units.setdefault(unit, {})[int(epoch)] = float(loss)
    return units


def test_criterion_4_loss_reduction(acc):
    bad = []
    for seed in SEEDS:
        for method in ("apiq-lw", "apiq-bw"):
            log = acc["ckpts"][(method, 2, seed)].with_name(
                acc["ckpts"][(method, 2, seed)].name + ".calib.tsv")
            for unit, by_epoch in _calib_log_units(log).items():
                init = by_epoch[0]
                retained = min(by_epoch.values())
                if retained > init:
                    bad.append((method, seed, unit))
    report(4, not bad, f"retained <= initial loss for all units, 3 seeds "
                       f"(violations: {bad})")


def _deepest_act_error(tsv_path):
    rows = [line.split("\t") for line in tsv_path.read_text().splitlines()[2:]]
    assert rows[-1][0] == "blocks.1.mlp.down"
    return float(rows[-1][2])


def test_criterion_5_activation_error_ordering(acc):
    med = {m: float(np.median([_deepest_act_error(acc["act_tsvs"][(m, s)])
                               for s in SEEDS])) for m in METHODS}
    ok = med["apiq-bw"] < med["apiq-lw"] < med["loftq"] < med["rtn"]
    report(5, ok, "deepest-layer activation error medians: "
           + ", ".join(f"{m}={med[m]:.5f}" for m in METHODS)
           + " (want apiq-bw < apiq-lw < loftq < rtn)")


def test_criterion_6_post_quantization_ppl(acc):
    med2 = {m: float(np.median([acc["ppls"][(m, 2, s)] for s in SEEDS]))
            for m in METHODS}
    order_ok = (med2["apiq-bw"] <= med2["apiq-lw"] <= med2["loftq"]
                <= med2["rtn"])
    med8 = {m: float(np.median([acc["ppls"][(m, 8, s)] for s in SEEDS]))
            for m in METHODS}
    full = acc["full_ppl"]
    near_ok = all(abs(v - full) / full <= 0.02 for v in med8.values())
    report(6, order_ok and near_ok,
           f"b=2 ppl medians {med2} ordered: {order_ok}; b=8 medians within "
           f"2% of full ppl {full:.4f}: {near_ok}")


def test_criterion_7_finetuning_trend(acc):
    bw = float(np.median([acc["ft_ppls"][("apiq-bw", "all", s)] for s in SEEDS]))
    ql = float(np.median([acc["ft_ppls"][("qlora", "all", s)] for s in SEEDS]))
    report(7, bw < ql, f"finetuned ppl (position=all) apiq-bw {bw:.4f} < "
                       f"qlora {ql:.4f}")


def test_criterion_8_position_gap(acc):
    def gap(init, seed):
        vals = [acc["ft_ppls"][(init, p, seed)] for p in ("all", "attn", "ffn")]
        return max(vals) - min(vals)

    gap_bw = float(np.median([gap("apiq-bw", s) for s in SEEDS]))
    gap_ql = float(np.median([gap("qlora", s) for s in SEEDS]))
    report(8, gap_bw < gap_ql,
           f"finetuned-ppl position gap apiq-bw {gap_bw:.4f} < qlora {gap_ql:.4f}")


def test_criterion_9_freeze_and_roundtrip(acc):
    frozen_ok = True
    for key, (src, out) in acc["ft_ckpts"].items():
        before = dict(load_tensors(src))
        after = dict(load_tensors(out))
        for name, tensor in before.items():
            if name.endswith(".qcodes"):
                frozen_ok &= after[name].data == tensor.data
            elif name.endswith((".scale", ".zero")):
                frozen_ok &= after[name].tobytes() == tensor.tobytes()

    src, out = acc["ft_ckpts"][("apiq-bw", "all", SEEDS[0])]
    resaved = acc["ws"] / "resave.ckpt"
    model_io.save_model(model_io.load_model(out), resaved)
    roundtrip_ok = resaved.read_bytes() == out.read_bytes()
    report(9, frozen_ok and roundtrip_ok,
           f"codes/scales/zeros frozen through finetuning: {frozen_ok}; "
           f"save->load->save byte-identical: {roundtrip_ok}")


def test_criterion_10_budget(acc):
    elapsed = time.monotonic() - MODULE_T0
    worst_quant = max(acc["quantize_secs"])
    ok = elapsed < 1800 and worst_quant < 600
    report(10, ok, f"acceptance suite {elapsed / 60:.1f} min (< 30), "
                   f"slowest quantize run {worst_quant:.1f}s (< 600)")
