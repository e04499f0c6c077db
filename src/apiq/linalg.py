"""Dense kernels: checked matmul, group-wise min/max, truncated SVD.

Values are plain numpy arrays (row-major, f32 by default; the SVD and
gradient-check paths run in f64). The SVD is numpy's LAPACK call with a
fixed sign convention. All functions are pure and, at a fixed thread
count, bitwise reproducible run-to-run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[i, j] = sum_p a[i, p] * b[p, j] with checked inner extents.

    Accepts stacked operands: (..., m, k) @ (..., k, n) with equal leading
    dims, or a 2-D right-hand side shared across the stack.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs 2-D+ operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"inner extents differ: {a.shape} x {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"stack dims differ: {a.shape} x {b.shape}")
    return a @ b


def group_minmax(w: np.ndarray, group: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-group (min, max) over `group` consecutive rows of each column.

    w is (d1, d2); returns two (d1/group, d2) arrays. d1 must divide evenly:
    ragged groups are rejected rather than padded.
    """
    w = np.asarray(w)
    if w.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {w.shape}")
    d1, d2 = w.shape
    if group <= 0 or d1 % group != 0:
        raise ConfigError(f"group size {group} does not divide input dim {d1}")
    grouped = w.reshape(d1 // group, group, d2)
    return grouped.min(axis=1), grouped.max(axis=1)


@dataclass
class SvdResult:
    """Top-k singular triplets: U (d1, k), S (k,) descending, V (d2, k)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray


def truncated_svd(m: np.ndarray, rank: int) -> SvdResult:
    """Top-`rank` SVD of a matrix, computed in f64 by LAPACK.

    Signs are fixed so that each column of U has its largest-magnitude
    entry positive (the first such entry on ties), with the matching
    column of V flipped alongside; a non-finite input raises
    `NumericError`.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got shape {m.shape}")
    if rank < 1 or rank > min(m.shape):
        raise ValueError(f"rank {rank} out of range for shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericError("SVD input has non-finite entries")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed: {exc}") from exc
    u, s, v = u[:, :rank], s[:rank], vt[:rank].T
    cols = np.arange(rank)
    signs = np.where(u[np.abs(u).argmax(axis=0), cols] < 0, -1.0, 1.0)
    return SvdResult(u=u * signs, s=s, v=v * signs)
