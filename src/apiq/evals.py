"""Diagnostics: perplexity, activation-error depth profiles, weight-error
reports, and tensor histograms. Reports serialize to TSV (UTF-8, tab
separated, newline terminated, header row first)."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .autodiff import Var, log_softmax_nll, matmul
from .errors import ConfigError, InputError, NumericError, ShapeError
from .model import Linear, TinyTransformer, linear_apply


# Perplexity forwards at most PPL_STEP_TOKENS tokens at a time, so that its
# buffers stay cache-sized, and sums the per-token NLL of PPL_GROUP_CHUNKS
# chunks in one call: the grouping fixes the bits of the result.
PPL_STEP_TOKENS = 1024
PPL_GROUP_CHUNKS = 64


def perplexity(model: TinyTransformer, tokens: np.ndarray, chunk_len: int) -> float:
    """exp of the mean token-level cross-entropy over non-overlapping
    chunks of `chunk_len` tokens; the trailing partial chunk is dropped.
    Each layer's effective weight is built once per call."""
    if chunk_len < 2:
        raise ConfigError(f"eval.chunk_len must be >= 2, got {chunk_len}")
    tokens = np.asarray(tokens).reshape(-1)
    n_chunks = len(tokens) // chunk_len
    if n_chunks < 1:
        raise InputError(
            f"corpus has {len(tokens)} tokens, shorter than one chunk ({chunk_len})")
    chunks = tokens[: n_chunks * chunk_len].reshape(n_chunks, chunk_len)
    step = min(PPL_GROUP_CHUNKS, max(1, PPL_STEP_TOKENS // chunk_len))
    effs = {lay.name: Var(lay.effective_weight()) for lay in model.iter_layers()}

    def hook(layer: Linear, x: Var) -> Var:
        return matmul(x, effs[layer.name])

    total = 0.0
    count = 0
    for g0 in range(0, n_chunks, PPL_GROUP_CHUNKS):
        group = chunks[g0: g0 + PPL_GROUP_CHUNKS]
        nll = []
        for lo in range(0, len(group), step):
            batch = group[lo: lo + step]
            logits = model.forward(batch, hook=hook).value[:, :-1].astype(np.float64)
            nll.append(log_softmax_nll(logits.reshape(-1, logits.shape[-1]),
                                       batch[:, 1:].reshape(-1), overwrite=True))
        total += float(np.concatenate(nll).sum())
        count += group[:, 1:].size
    ppl = float(np.exp(total / count))
    if not np.isfinite(ppl):
        raise NumericError(f"non-finite perplexity {ppl!r}")
    return ppl


@dataclass
class ErrorRecord:
    layer: str
    block: int
    value: float


@dataclass
class ErrorReport:
    kind: str
    records: list[ErrorRecord]


def _block_index(layer_name: str) -> int:
    return int(layer_name.split(".")[1])


def _check_same_structure(a: TinyTransformer, b: TinyTransformer) -> None:
    if a.config != b.config:
        raise ShapeError("models differ structurally")


def activation_error_profile(full_model: TinyTransformer,
                             quant_model: TinyTransformer,
                             tokens: np.ndarray) -> ErrorReport:
    """Per-layer Frobenius norm of the output difference divided by the
    token count, with each path propagated end to end (so errors from
    shallower layers accumulate into deeper entries)."""
    _check_same_structure(full_model, quant_model)
    tokens = np.asarray(tokens)
    if tokens.ndim == 1:
        tokens = tokens[None, :]
    n_tokens = tokens.shape[0] * tokens.shape[1]

    def layer_outputs(model: TinyTransformer) -> list[tuple[str, np.ndarray]]:
        outs = []

        def hook(layer: Linear, x):
            y = linear_apply(layer, x)
            outs.append((layer.name, y.value))
            return y

        model.forward(tokens, hook=hook)
        return outs

    records = []
    for (name, y_f), (_, y_q) in zip(layer_outputs(full_model),
                                     layer_outputs(quant_model)):
        diff = y_f.astype(np.float64) - y_q.astype(np.float64)
        value = float(np.sqrt((diff * diff).sum())) / n_tokens
        records.append(ErrorRecord(layer=name, block=_block_index(name), value=value))
    return ErrorReport(kind="activation-per-token", records=records)


def weight_error_report(full_model: TinyTransformer,
                        quant_model: TinyTransformer) -> ErrorReport:
    """Per-layer || W - (Q + A B^T) ||_F."""
    _check_same_structure(full_model, quant_model)
    records = []
    for lay_f, lay_q in zip(full_model.iter_layers(), quant_model.iter_layers()):
        diff = lay_f.effective_weight().astype(np.float64) \
            - lay_q.effective_weight().astype(np.float64)
        records.append(ErrorRecord(layer=lay_f.name,
                                   block=_block_index(lay_f.name),
                                   value=float(np.sqrt((diff * diff).sum()))))
    return ErrorReport(kind="weight-frobenius", records=records)


def histogram_export(layer: Linear, bins: int,
                     reference_weight: np.ndarray | None = None
                     ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(bin centers, counts) per tensor of the layer: the full-precision
    weight when available, the dequantized codes Q, the adapter product
    A B^T and the factors A and B. Bin ranges span each tensor's min..max
    and counts always sum to the element count."""
    if bins < 2:
        raise ValueError("need at least 2 bins")
    tensors: dict[str, np.ndarray] = {}
    w = layer.weight if layer.weight is not None else reference_weight
    if w is not None:
        tensors["W"] = w
    if layer.qstate is not None:
        tensors["Q"] = layer.qstate.dequantized()
    if layer.lora is not None and layer.lora.rank > 0:
        tensors["ABt"] = layer.lora.delta()
        tensors["A"] = layer.lora.a
        tensors["B"] = layer.lora.b
    out = {}
    for name, t in tensors.items():
        flat = np.asarray(t, dtype=np.float64).reshape(-1)
        lo, hi = float(flat.min()), float(flat.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        counts, edges = np.histogram(flat, bins=bins, range=(lo, hi))
        centers = (edges[:-1] + edges[1:]) / 2.0
        out[name] = (centers, counts)
    return out


# ---------------------------------------------------------------------------
# TSV serialization
# ---------------------------------------------------------------------------

def format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_tsv(stream, header: list[str], rows, config_line: str | None = None) -> None:
    if config_line is not None:
        stream.write(f"config\t{config_line}\n")
    stream.write("\t".join(header) + "\n")
    for row in rows:
        stream.write("\t".join(format_value(v) for v in row) + "\n")


def report_rows(report: ErrorReport):
    return [(r.layer, r.block, r.value) for r in report.records]


def report_to_tsv(report: ErrorReport, config_line: str | None = None) -> str:
    buf = io.StringIO()
    write_tsv(buf, ["layer", "block", report.kind], report_rows(report), config_line)
    return buf.getvalue()


def histograms_to_tsv(hists: dict[str, tuple[np.ndarray, np.ndarray]],
                      config_line: str | None = None) -> str:
    buf = io.StringIO()
    rows = []
    for name, (centers, counts) in hists.items():
        for c, n in zip(centers, counts):
            rows.append((name, float(c), int(n)))
    write_tsv(buf, ["tensor", "bin_center", "count"], rows, config_line)
    return buf.getvalue()
