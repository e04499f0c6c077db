"""Command-line pipeline: pretrain, quantize, finetune, eval.

Exit codes are a stable contract: 0 success, 2 configuration error,
3 input-data error, 4 numeric failure. Every command writes a TSV log
whose first line echoes the fully resolved configuration; like the
checkpoints, logs are written to "<path>.tmp" and renamed into place.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys

import numpy as np

from . import model_io, train
from .calib import CalibPlan, quantize_model, sample_calib
from .checkpoint import atomic_open
from .errors import ConfigError, FormatError, InputError, NumericError
from .evals import (activation_error_profile, histogram_export,
                    histograms_to_tsv, perplexity, report_to_tsv, write_tsv,
                    weight_error_report)
from .model import ModelConfig, TinyTransformer
from .quant import QuantSpec
from .runconfig import (canonical_config, default_corpus_path, load_config,
                        load_corpus)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apiq",
        description="Quantization lab for a tiny byte-level transformer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train the full-precision toy model")
    p.add_argument("--config", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    q = sub.add_parser("quantize", help="quantize a pretrained checkpoint")
    q.add_argument("--config", default=None)
    q.add_argument("--in", dest="input", required=True)
    q.add_argument("--method", default=None,
                   choices=["apiq-lw", "apiq-bw", "loftq", "rtn", "qlora"])
    q.add_argument("--bits", type=int, default=None, choices=[2, 3, 4, 8])
    q.add_argument("--rank", type=int, default=None)
    q.add_argument("--corpus", default=None,
                   help="calibration corpus (default: bundled)")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_quantize)

    f = sub.add_parser("finetune", help="train adapters of a quantized checkpoint")
    f.add_argument("--config", default=None)
    f.add_argument("--in", dest="input", required=True)
    f.add_argument("--corpus", default=None)
    f.add_argument("--lora-position", default=None, choices=["all", "attn", "ffn"])
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_finetune)

    e = sub.add_parser("eval", help="perplexity and error reports")
    e.add_argument("--config", default=None)
    e.add_argument("--in", dest="input", required=True)
    e.add_argument("--corpus", default=None)
    e.add_argument("--chunk-len", type=int, default=None)
    e.add_argument("--profile-against", default=None,
                   help="full-precision checkpoint for error profiles")
    e.add_argument("--hist", default=None, metavar="LAYER",
                   help="emit a histogram TSV for one layer")
    e.add_argument("--bins", type=int, default=64)
    e.add_argument("--report-prefix", default=None,
                   help="path prefix for report TSVs (default: <in>)")
    e.set_defaults(func=cmd_eval)
    return parser


def _keep_freed_memory() -> None:
    """Fix glibc's trim and mmap thresholds (64 MB, 32 MB) so that the
    megabytes each training step frees are reused by the next step, not
    returned to the system and faulted back in (a 200-step pretrain took
    503k minor page faults). Set at the entry point, not on import, so a
    program that only imports the library keeps its allocator settings."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def _check_out(path: str) -> None:
    """Reject an --out that is a directory before any work is done."""
    if os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory")


def _corpus_tokens(path: str | None) -> np.ndarray:
    return load_corpus(path if path is not None else default_corpus_path())


def _model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**{f.name: cfg[f"model.{f.name}"]
                          for f in dataclasses.fields(ModelConfig)})


def cmd_pretrain(args) -> int:
    _check_out(args.out)
    cfg = load_config(args.config)
    corpus = _corpus_tokens(args.corpus)
    model = TinyTransformer.init(_model_config(cfg), seed=cfg["seed"])
    rows = train.pretrain(model, corpus, steps=cfg["pretrain.steps"],
                          lr=cfg["pretrain.lr"], batch=cfg["pretrain.batch"],
                          seq_len=cfg["pretrain.seq_len"],
                          weight_decay=cfg["pretrain.weight_decay"],
                          seed=cfg["seed"])
    model_io.save_model(model, args.out)
    with atomic_open(f"{args.out}.train.tsv", "w", encoding="utf-8") as fh:
        write_tsv(fh, ["step", "loss"], [(r.step, r.loss) for r in rows],
                  config_line=canonical_config(cfg))
    ppl = perplexity(model, corpus, cfg["eval.chunk_len"])
    print(f"final_train_ppl\t{ppl!r}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    _check_out(args.out)
    cfg = load_config(args.config)
    if args.method is not None:
        cfg["calib.method"] = args.method
    if args.bits is not None:
        cfg["quant.bits"] = args.bits
    if args.rank is not None:
        cfg["quant.rank"] = args.rank
    if cfg["quant.rank"] < 0:
        raise ConfigError("rank must be >= 0")

    model = model_io.load_model(args.input)
    spec = QuantSpec(bits=cfg["quant.bits"], group=cfg["quant.group"],
                     clip_granularity=cfg["quant.clip_granularity"])
    plan = CalibPlan(method=cfg["calib.method"], epochs=cfg["calib.epochs"],
                     batch_size=cfg["calib.batch"], lr_theta=cfg["calib.lr_theta"],
                     lr_lora=cfg["calib.lr_lora"],
                     weight_decay=cfg["calib.weight_decay"],
                     loftq_iters=cfg["calib.loftq_iters"], seed=cfg["seed"],
                     clip_init=cfg["calib.clip_init"])
    corpus = _corpus_tokens(args.corpus)
    calib = sample_calib(corpus, cfg["calib.samples"], cfg["calib.seq_len"],
                         seed=cfg["seed"])
    qmodel, rows = quantize_model(model, calib, plan, spec, rank=cfg["quant.rank"])
    model_io.save_model(qmodel, args.out)
    with atomic_open(f"{args.out}.calib.tsv", "w", encoding="utf-8") as fh:
        write_tsv(fh, ["layer", "epoch", "loss"],
                  [(r.unit, r.epoch, r.loss) for r in rows],
                  config_line=canonical_config(cfg))
    return EXIT_OK


def cmd_finetune(args) -> int:
    _check_out(args.out)
    cfg = load_config(args.config)
    if args.lora_position is not None:
        cfg["finetune.lora_position"] = args.lora_position
    model = model_io.load_model(args.input)
    corpus = _corpus_tokens(args.corpus)

    def on_epoch(epoch: int, ppl: float):
        print(f"epoch\t{epoch}\tppl\t{ppl!r}")

    rows = train.finetune(model, corpus, corpus,
                          epochs=cfg["finetune.epochs"], lr=cfg["finetune.lr"],
                          batch=cfg["finetune.batch"],
                          seq_len=cfg["finetune.seq_len"],
                          weight_decay=cfg["finetune.weight_decay"],
                          position=cfg["finetune.lora_position"],
                          schedule=cfg["finetune.schedule"],
                          warmup=cfg["finetune.warmup"], seed=cfg["seed"],
                          chunk_len=cfg["eval.chunk_len"], on_epoch=on_epoch)
    model_io.save_model(model, args.out)
    with atomic_open(f"{args.out}.finetune.tsv", "w", encoding="utf-8") as fh:
        write_tsv(fh, ["epoch", "step", "loss", "ppl"],
                  [(r.epoch, r.step, r.loss, "" if r.ppl is None else r.ppl)
                   for r in rows],
                  config_line=canonical_config(cfg))
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    if args.chunk_len is not None:
        cfg["eval.chunk_len"] = args.chunk_len
    if args.bins < 2:
        raise ConfigError(f"--bins must be >= 2, got {args.bins}")
    model = model_io.load_model(args.input)
    corpus = _corpus_tokens(args.corpus)
    prefix = args.report_prefix if args.report_prefix is not None else args.input
    config_line = canonical_config(cfg)

    if args.profile_against is not None:
        full = model_io.load_model(args.profile_against)
        calib = sample_calib(corpus, cfg["calib.samples"], cfg["calib.seq_len"],
                             seed=cfg["seed"])
        act = activation_error_profile(full, model, calib.tokens)
        with atomic_open(f"{prefix}.act.tsv", "w", encoding="utf-8") as fh:
            fh.write(report_to_tsv(act, config_line))
        wer = weight_error_report(full, model)
        with atomic_open(f"{prefix}.weight.tsv", "w", encoding="utf-8") as fh:
            fh.write(report_to_tsv(wer, config_line))

    if args.hist is not None:
        layer = model.find_layer(args.hist)
        ref = None
        if args.profile_against is not None:
            ref_layer = model_io.load_model(args.profile_against).find_layer(args.hist)
            ref = ref_layer.weight
        hists = histogram_export(layer, bins=args.bins, reference_weight=ref)
        with atomic_open(f"{prefix}.hist.tsv", "w", encoding="utf-8") as fh:
            fh.write(histograms_to_tsv(hists, config_line))

    ppl = perplexity(model, corpus, cfg["eval.chunk_len"])
    print(repr(ppl))
    return EXIT_OK


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, FormatError, FileNotFoundError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
