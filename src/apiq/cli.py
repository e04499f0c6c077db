"""Command-line pipeline: pretrain, quantize, finetune, eval.

Exit codes are a stable contract: 0 success, 2 configuration error,
3 input-data error, 4 numeric failure. Each command names the files it
writes, checks them with one rule before any work and writes them last,
atomically, so a failed command leaves no file created or changed. The
first line of every TSV echoes the fully resolved configuration, with the
settings of the checkpoint a command reads in place of the config's.
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
from .checkpoint import atomic_write, temp_path
from .errors import ConfigError, FormatError, InputError, NumericError, check
from .evals import (BINS, activation_error_profile, histogram_export,
                    histogram_rows, perplexity, report_rows, weight_error_report,
                    write_tsv)
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


def _check_out(flag: str, path: str, files) -> None:
    """Reject, before any work is done, each of the `files` a command will
    write (named from `path`, the value of `flag`) that is a directory,
    whose temp path exists, or whose directory does not exist."""
    for out in files:
        parent = os.path.dirname(out) or "."
        if os.path.isdir(out):
            raise ConfigError(f"{flag} {path}: {out} is a directory")
        if os.path.lexists(temp_path(out)):
            raise ConfigError(f"{flag} {path}: {temp_path(out)} already exists")
        if not os.path.isdir(parent):
            raise ConfigError(f"{flag} {path}: directory {parent} does not exist")


def _corpus_tokens(path: str | None) -> np.ndarray:
    return load_corpus(path if path is not None else default_corpus_path())


def _config(args) -> dict:
    """The --config file, then every flag whose dest is a config key."""
    return load_config(args.config, {key: value for key, value in vars(args).items()
                                     if "." in key and value is not None})


def _as_read(cfg: dict, model: TinyTransformer) -> dict:
    """`cfg` with the `model.*` values of the checkpoint `model` was loaded
    from and, if it is quantized, the `quant.*` values of its `quant.meta`."""
    cfg = {**cfg, **{f"model.{k}": v for k, v in dataclasses.asdict(model.config).items()}}
    if model.quant is not None:
        cfg.update({f"quant.{k}": v for k, v in dataclasses.asdict(model.quant).items()})
    return cfg


def _check_lengths(cfg: dict, *keys: str) -> None:
    """Reject a sequence length longer than `model.max_seq` before any work."""
    max_seq = cfg["model.max_seq"]
    for key in keys:
        if cfg[key] > max_seq:
            raise ConfigError(f"{key} {cfg[key]} exceeds the model's max_seq {max_seq}")


def _calib_set(plan: CalibPlan, corpus: np.ndarray):
    return sample_calib(corpus, plan.samples, plan.seq_len, seed=plan.seed)


def _save(files: list[str], model: TinyTransformer, header: list[str], rows,
          cfg: dict) -> None:
    """Write the checkpoint files[0] and its log files[1], renamed together."""
    with atomic_write(files) as (out, log):
        model_io.save_model(model, out)
        write_tsv(log, header, rows, canonical_config(cfg))


def cmd_pretrain(args, cfg: dict) -> int:
    files = [args.out, f"{args.out}.train.tsv"]
    _check_out("--out", args.out, files)
    _check_lengths(cfg, "pretrain.seq_len", "eval.chunk_len")
    corpus = _corpus_tokens(args.corpus)
    model = TinyTransformer.init(section(cfg, "model", ModelConfig), seed=cfg["seed"])
    rows = train.pretrain(model, corpus, section(cfg, "pretrain", train.PretrainPlan))
    ppl = perplexity(model, corpus, cfg["eval.chunk_len"])
    _save(files, model, ["step", "loss"], [(r.step, r.loss) for r in rows], cfg)
    print(f"final_train_ppl\t{ppl!r}")
    return EXIT_OK


def cmd_quantize(args, cfg: dict) -> int:
    files = [args.out, f"{args.out}.calib.tsv"]
    _check_out("--out", args.out, files)
    spec = section(cfg, "quant", QuantSpec)
    plan = section(cfg, "calib", CalibPlan)
    model = model_io.load_model(args.input)
    cfg = _as_read(cfg, model)
    _check_lengths(cfg, "calib.seq_len")
    calib = _calib_set(plan, _corpus_tokens(args.corpus))
    qmodel, rows = quantize_model(model, calib, plan, spec)
    _save(files, qmodel, ["layer", "epoch", "loss"],
          [(r.unit, r.epoch, r.loss) for r in rows], cfg)
    return EXIT_OK


def cmd_finetune(args, cfg: dict) -> int:
    files = [args.out, f"{args.out}.finetune.tsv"]
    _check_out("--out", args.out, files)
    model = model_io.load_model(args.input)
    cfg = _as_read(cfg, model)
    _check_lengths(cfg, "finetune.seq_len", "eval.chunk_len")
    corpus = _corpus_tokens(args.corpus)

    def on_epoch(epoch: int, ppl: float):
        print(f"epoch\t{epoch}\tppl\t{ppl!r}")

    plan = section(cfg, "finetune", train.FinetunePlan)
    rows = train.finetune(model, corpus, corpus, plan, cfg["eval.chunk_len"], on_epoch)
    _save(files, model, ["epoch", "step", "loss", "ppl"],
          [(r.epoch, r.step, r.loss, "" if r.ppl is None else r.ppl) for r in rows], cfg)
    return EXIT_OK


def cmd_eval(args, cfg: dict) -> int:
    check("--bins", args.bins, **BINS)
    model = model_io.load_model(args.input)
    cfg = _as_read(cfg, model)
    flag, prefix = (("--in", args.input) if args.report_prefix is None
                    else ("--report-prefix", args.report_prefix))
    act_tsv, weight_tsv, hist_tsv = (f"{prefix}.{k}.tsv" for k in ("act", "weight", "hist"))
    _check_out(flag, prefix, [act_tsv, weight_tsv] * (args.profile_against is not None)
               + [hist_tsv] * (args.hist is not None))
    layer = None if args.hist is None else model.find_layer(args.hist)
    if layer is not None:
        check("--bins", args.bins, **BINS, hi=layer.d1 * layer.d2)
    _check_lengths(cfg, "eval.chunk_len")
    corpus = _corpus_tokens(args.corpus)

    # (path, header, rows) of each report, written once every step has run
    reports = []
    full = None
    if args.profile_against is not None:
        full = model_io.load_model(args.profile_against)
        for read in (cfg, _as_read(cfg, full)):
            _check_lengths(read, "calib.seq_len")
        calib = _calib_set(section(cfg, "calib", CalibPlan), corpus)
        act = activation_error_profile(full, model, calib.tokens)
        wer = weight_error_report(full, model)
        reports += [(path, ["layer", "block", rep.kind], report_rows(rep))
                    for path, rep in ((act_tsv, act), (weight_tsv, wer))]
    if layer is not None:
        ref = None if full is None else full.find_layer(args.hist).weight
        hists = histogram_export(layer, bins=args.bins, reference_weight=ref)
        reports.append((hist_tsv, ["tensor", "bin_center", "count"],
                        histogram_rows(hists)))

    ppl = perplexity(model, corpus, cfg["eval.chunk_len"])
    with atomic_write([path for path, _, _ in reports]) as tmps:
        for tmp, (_, header, rows) in zip(tmps, reports):
            write_tsv(tmp, header, rows, canonical_config(cfg))
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
