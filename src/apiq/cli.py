"""Command-line pipeline: pretrain, quantize, finetune, eval.

Exit codes are a stable contract: 0 success, 2 configuration error,
3 input-data error, 4 numeric failure. Every command writes a TSV log
whose first line echoes the fully resolved configuration; like the
checkpoints, logs are written to "<path>.tmp" and renamed into place.
"""

from __future__ import annotations

import argparse
import ctypes
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
                        load_corpus, section)

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
    q.add_argument("--method", dest="calib.method")
    q.add_argument("--bits", dest="quant.bits")
    q.add_argument("--rank", dest="quant.rank")
    q.add_argument("--corpus", default=None,
                   help="calibration corpus (default: bundled)")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_quantize)

    f = sub.add_parser("finetune", help="train adapters of a quantized checkpoint")
    f.add_argument("--config", default=None)
    f.add_argument("--in", dest="input", required=True)
    f.add_argument("--corpus", default=None)
    f.add_argument("--lora-position", dest="finetune.lora_position")
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_finetune)

    e = sub.add_parser("eval", help="perplexity and error reports")
    e.add_argument("--config", default=None)
    e.add_argument("--in", dest="input", required=True)
    e.add_argument("--corpus", default=None)
    e.add_argument("--chunk-len", dest="eval.chunk_len")
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


def _check_out(path: str, flag: str = "--out") -> None:
    """Reject, before any work is done, an output path in a directory that
    does not exist, and an --out that is a directory. A report prefix may
    name a directory: its reports are written beside it."""
    if flag == "--out" and os.path.isdir(path):
        raise ConfigError(f"--out {path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"{flag} {path}: directory {parent} does not exist")


def _corpus_tokens(path: str | None) -> np.ndarray:
    return load_corpus(path if path is not None else default_corpus_path())


def _config(args) -> dict:
    """The --config file, then every flag whose dest is a config key."""
    return load_config(args.config, {key: value for key, value in vars(args).items()
                                     if "." in key and value is not None})


def _check_lengths(cfg: dict, max_seq: int, *keys: str) -> None:
    """Reject a sequence length longer than the model takes before any work."""
    for key in keys:
        if cfg[key] > max_seq:
            raise ConfigError(f"{key} {cfg[key]} exceeds the model's max_seq {max_seq}")


def _calib_set(cfg: dict, corpus: np.ndarray):
    return sample_calib(corpus, cfg["calib.samples"], cfg["calib.seq_len"],
                        seed=cfg["seed"])


def cmd_pretrain(args, cfg: dict) -> int:
    _check_out(args.out)
    model_cfg = section(cfg, "model", ModelConfig)
    _check_lengths(cfg, model_cfg.max_seq, "pretrain.seq_len", "eval.chunk_len")
    corpus = _corpus_tokens(args.corpus)
    model = TinyTransformer.init(model_cfg, seed=cfg["seed"])
    rows = train.pretrain(model, corpus, **section(cfg, "pretrain"))
    model_io.save_model(model, args.out)
    with atomic_open(f"{args.out}.train.tsv", "w", encoding="utf-8") as fh:
        write_tsv(fh, ["step", "loss"], [(r.step, r.loss) for r in rows],
                  config_line=canonical_config(cfg))
    ppl = perplexity(model, corpus, cfg["eval.chunk_len"])
    print(f"final_train_ppl\t{ppl!r}")
    return EXIT_OK


def cmd_quantize(args, cfg: dict) -> int:
    _check_out(args.out)
    spec = section(cfg, "quant", QuantSpec)
    plan = section(cfg, "calib", CalibPlan)
    model = model_io.load_model(args.input)
    _check_lengths(cfg, model.config.max_seq, "calib.seq_len")
    calib = _calib_set(cfg, _corpus_tokens(args.corpus))
    qmodel, rows = quantize_model(model, calib, plan, spec, rank=cfg["quant.rank"])
    model_io.save_model(qmodel, args.out)
    with atomic_open(f"{args.out}.calib.tsv", "w", encoding="utf-8") as fh:
        write_tsv(fh, ["layer", "epoch", "loss"],
                  [(r.unit, r.epoch, r.loss) for r in rows],
                  config_line=canonical_config(cfg))
    return EXIT_OK


def cmd_finetune(args, cfg: dict) -> int:
    _check_out(args.out)
    model = model_io.load_model(args.input)
    _check_lengths(cfg, model.config.max_seq, "finetune.seq_len", "eval.chunk_len")
    corpus = _corpus_tokens(args.corpus)

    def on_epoch(epoch: int, ppl: float):
        print(f"epoch\t{epoch}\tppl\t{ppl!r}")

    rows = train.finetune(model, corpus, corpus, **section(cfg, "finetune"),
                          chunk_len=cfg["eval.chunk_len"], on_epoch=on_epoch)
    model_io.save_model(model, args.out)
    with atomic_open(f"{args.out}.finetune.tsv", "w", encoding="utf-8") as fh:
        write_tsv(fh, ["epoch", "step", "loss", "ppl"],
                  [(r.epoch, r.step, r.loss, "" if r.ppl is None else r.ppl)
                   for r in rows],
                  config_line=canonical_config(cfg))
    return EXIT_OK


def cmd_eval(args, cfg: dict) -> int:
    if args.bins < 2:
        raise ConfigError(f"--bins must be >= 2, got {args.bins}")
    if args.report_prefix is not None:
        _check_out(args.report_prefix, "--report-prefix")
    model = model_io.load_model(args.input)
    layer = None if args.hist is None else model.find_layer(args.hist)
    _check_lengths(cfg, model.config.max_seq, "eval.chunk_len")
    corpus = _corpus_tokens(args.corpus)
    prefix = args.report_prefix if args.report_prefix is not None else args.input
    config_line = canonical_config(cfg)

    full = None
    if args.profile_against is not None:
        full = model_io.load_model(args.profile_against)
        _check_lengths(cfg, min(model.config.max_seq, full.config.max_seq),
                       "calib.seq_len")
        act = activation_error_profile(full, model, _calib_set(cfg, corpus).tokens)
        with atomic_open(f"{prefix}.act.tsv", "w", encoding="utf-8") as fh:
            fh.write(report_to_tsv(act, config_line))
        wer = weight_error_report(full, model)
        with atomic_open(f"{prefix}.weight.tsv", "w", encoding="utf-8") as fh:
            fh.write(report_to_tsv(wer, config_line))

    if layer is not None:
        ref = None if full is None else full.find_layer(args.hist).weight
        hists = histogram_export(layer, bins=args.bins, reference_weight=ref)
        with atomic_open(f"{prefix}.hist.tsv", "w", encoding="utf-8") as fh:
            fh.write(histograms_to_tsv(hists, config_line))

    ppl = perplexity(model, corpus, cfg["eval.chunk_len"])
    print(repr(ppl))
    return EXIT_OK


def main(argv=None) -> int:
    _keep_freed_memory()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error, or --help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        return args.func(args, _config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, FormatError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
