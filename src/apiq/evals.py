"""Diagnostics: perplexity, activation-error depth profiles, weight-error
reports, and tensor histograms. `write_tsv` is the one TSV writer, of the
command logs and the reports alike. The activation profile walks the two
models block by block, as `quantize_model` walks X and X^q."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Var, log_softmax_nll, matmul
from .errors import InputError, NumericError, check
from .model import Linear, TinyTransformer, forward_block, linear_apply


# Perplexity forwards at most PPL_STEP_TOKENS tokens at a time, so that its
# buffers stay cache-sized, and sums the per-token NLL of PPL_GROUP_CHUNKS
# chunks in one call: the grouping fixes the bits of the result.
PPL_STEP_TOKENS = 1024
PPL_GROUP_CHUNKS = 64
# bounds (keyword arguments of `errors.check`): a chunk holds a token and
# its successor, and a histogram at least two bins
CHUNK_LEN = {"lo": 2}
BINS = {"lo": 2}


def perplexity(model: TinyTransformer, tokens: np.ndarray, chunk_len: int) -> float:
    """exp of the mean token-level cross-entropy over non-overlapping
    chunks of `chunk_len` tokens; the trailing partial chunk is dropped.
    Each layer's effective weight is built once per call."""
    check("eval.chunk_len", chunk_len, **CHUNK_LEN)
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
    """Two models given by the user must share one geometry."""
    if a.config != b.config:
        raise InputError(f"models differ structurally: {a.config} against {b.config}")


def activation_error_profile(full_model: TinyTransformer,
                             quant_model: TinyTransformer,
                             tokens: np.ndarray) -> ErrorReport:
    """Per-layer Frobenius norm of the output difference divided by the
    token count, with each path propagated end to end (so errors from
    shallower layers accumulate into deeper entries). The two paths walk
    the blocks together, so one block's full-precision layer outputs are
    held at a time; the LM head is never run."""
    _check_same_structure(full_model, quant_model)
    n_tokens = np.asarray(tokens).size
    y_full: dict[str, np.ndarray] = {}
    records = []

    def record(layer: Linear, x: Var) -> Var:
        y = linear_apply(layer, x)
        y_full[layer.name] = y.value
        return y

    def compare(layer: Linear, x: Var) -> Var:
        y = linear_apply(layer, x)
        diff = y_full.pop(layer.name).astype(np.float64) - y.value.astype(np.float64)
        records.append(ErrorRecord(layer=layer.name, block=_block_index(layer.name),
                                   value=float(np.sqrt((diff * diff).sum())) / n_tokens))
        return y

    x_f, x_q = full_model.embed_tokens(tokens), quant_model.embed_tokens(tokens)
    for block_f, block_q in zip(full_model.blocks, quant_model.blocks):
        x_f = forward_block(block_f, x_f, full_model.config, hook=record)
        x_q = forward_block(block_q, x_q, quant_model.config, hook=compare)
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
    and counts always sum to the element count; bins <= the d1 * d2 weights."""
    check("bins", bins, **BINS, hi=layer.d1 * layer.d2)
    tensors: dict[str, np.ndarray] = {}
    w = layer.weight if layer.weight is not None else reference_weight
    if w is not None:
        tensors["W"] = w
    if layer.qstate is not None:
        tensors["Q"] = layer.qstate.dequantized()
    if layer.lora is not None:
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

def write_tsv(path, header: list[str], rows, config_line: str) -> None:
    """Write `path` itself as UTF-8 tab-separated lines: the config line,
    the header and the rows (floats by `repr`). A command writes the temp
    path `checkpoint.atomic_write` yields, so a failed write leaves the old
    file or none."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"config\t{config_line}\n")
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(repr(v) if isinstance(v, float) else str(v)
                               for v in row) + "\n")


def report_rows(report: ErrorReport):
    return [(r.layer, r.block, r.value) for r in report.records]


def histogram_rows(hists: dict[str, tuple[np.ndarray, np.ndarray]]):
    return [(name, float(c), int(n)) for name, (centers, counts) in hists.items()
            for c, n in zip(centers, counts)]
