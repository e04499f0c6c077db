"""Uniform affine quantization with learnable clipping.

A weight matrix W (d1, d2) is quantized in groups of `group` consecutive
rows per column. Per group,

    s = (sig(gamma) * max(W) - sig(beta) * min(W)) / (2^b - 1)
    z = -round(sig(beta) * min(W) / s)            (clamped to the code grid)
    codes = clamp(round(W / s) + z, 0, 2^b - 1)
    Q = s * (codes - z)

With `clip=None` the sigmoid factors are exactly 1 and the formulas reduce
to plain round-to-nearest affine quantization. Rounding is half-to-even
throughout. `ste_fake_quant` is the same computation recorded on the
autodiff tape with straight-through rounding, so the clipping parameters
receive gradients through both s and z; its forward output is bitwise
identical to `fake_quant`.

Codes are stored LSB-first in a packed bitstream, each row padded to a
byte boundary; this byte layout is a stable external format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import FormatError, check_fields
from .linalg import group_minmax

SCALE_FLOOR = 1e-8
BITS = (2, 3, 4, 8)
# a checkpoint stores the granularity as its index here (quant.meta)
GRANULARITIES = ("per-matrix", "per-group")


@dataclass(frozen=True)
class QuantSpec:
    bits: int = field(default=2, metadata={"choices": BITS})
    group: int = field(default=64, metadata={"lo": 1})
    clip_granularity: str = field(default="per-matrix",
                                  metadata={"choices": GRANULARITIES})

    def __post_init__(self):
        check_fields(self)

    @property
    def qmax(self) -> int:
        return (1 << self.bits) - 1


@dataclass
class ClipParams:
    """Trainable clipping logits; the effective clip factors are sig(.)."""

    gamma: np.ndarray
    beta: np.ndarray

    @classmethod
    def init(cls, spec: QuantSpec, d1: int, d2: int, value: float = 4.0) -> "ClipParams":
        shape = () if spec.clip_granularity == "per-matrix" else (d1 // spec.group, d2)
        return cls(gamma=np.full(shape, value, dtype=np.float32),
                   beta=np.full(shape, value, dtype=np.float32))


@dataclass
class GroupParams:
    """Frozen per-group scale and (integer-valued) zero-point, (d1/g, d2)."""

    scale: np.ndarray
    zero: np.ndarray


@dataclass
class PackedCodes:
    """LSB-first packed codes; rows padded to byte boundaries."""

    data: bytes
    shape: tuple[int, int]
    bits: int

    @property
    def row_bytes(self) -> int:
        return (self.shape[1] * self.bits + 7) // 8


def clip_to_params(mins: np.ndarray, maxs: np.ndarray,
                   clip: ClipParams | None, spec: QuantSpec) -> GroupParams:
    """Per-group (s, z) from group extrema and optional clipping logits."""
    mins = np.asarray(mins)
    maxs = np.asarray(maxs)
    if clip is None:
        cg = cb = mins.dtype.type(1.0)
    else:
        cg = ad.sigmoid_fwd(clip.gamma)
        cb = ad.sigmoid_fwd(clip.beta)
    s_raw = (cg * maxs - cb * mins) / spec.qmax
    s = np.maximum(s_raw, SCALE_FLOOR)
    z = np.clip(np.rint(-((cb * mins) / s)), 0.0, spec.qmax)
    return GroupParams(scale=s, zero=z)


def quantize(w: np.ndarray, params: GroupParams, spec: QuantSpec) -> np.ndarray:
    """Integer codes in [0, 2^b - 1] for a (d1, d2) weight matrix."""
    w = np.asarray(w)
    n_groups = params.scale.shape[0]
    d1, d2 = w.shape
    w3 = w.reshape(n_groups, d1 // n_groups, d2)
    t = np.rint(w3 / params.scale[:, None, :])
    codes = np.clip(t + params.zero[:, None, :], 0.0, spec.qmax)
    return codes.reshape(d1, d2).astype(np.uint8)


def dequantize(codes: np.ndarray, params: GroupParams) -> np.ndarray:
    """Q = s * (codes - z), back at full shape, f32."""
    codes = np.asarray(codes)
    n_groups = params.scale.shape[0]
    d1, d2 = codes.shape
    c3 = codes.reshape(n_groups, d1 // n_groups, d2).astype(np.float32)
    q = params.scale[:, None, :] * (c3 - params.zero[:, None, :])
    return q.reshape(d1, d2)


def fake_quant(w: np.ndarray, clip: ClipParams | None, spec: QuantSpec) -> np.ndarray:
    """Quantize-then-dequantize with parameters derived from w itself."""
    mins, maxs = group_minmax(w, spec.group)
    params = clip_to_params(mins, maxs, clip, spec)
    return dequantize(quantize(w, params, spec), params)


def ste_fake_quant(w, gamma, beta, spec: QuantSpec,
                   mins: np.ndarray, maxs: np.ndarray) -> ad.Var:
    """Tape-recorded fake quantization.

    `w` may be a constant array or a Var; `gamma`/`beta` are Vars holding
    the clipping logits. `mins`/`maxs` are the fixed group extrema of the
    (fixed) weight being quantized. Rounds are straight-through, the code
    clamp gates gradients, and the zero-point's round is also
    straight-through so beta trains through both s and z.
    """
    w = w if isinstance(w, ad.Var) else ad.Var(np.asarray(w))
    d1, d2 = w.value.shape
    n_groups = mins.shape[0]
    qmax = float(spec.qmax)

    cg = ad.sigmoid(gamma)
    cb = ad.sigmoid(beta)
    diff = ad.sub(ad.mul(cg, maxs), ad.mul(cb, mins))
    s_raw = ad.div(diff, diff.value.dtype.type(spec.qmax))
    s = ad.maximum(s_raw, SCALE_FLOOR)
    z = ad.clamp(ad.round_ste(ad.neg(ad.div(ad.mul(cb, mins), s))), 0.0, qmax)

    s3 = ad.reshape(s, (n_groups, 1, d2))
    z3 = ad.reshape(z, (n_groups, 1, d2))
    w3 = ad.reshape(w, (n_groups, d1 // n_groups, d2))
    t = ad.round_ste(ad.div(w3, s3))
    codes = ad.clamp(ad.add(t, z3), 0.0, qmax)
    # + 0.0 normalizes any -0.0 code so the forward value is bit-identical
    # to the plain path, where codes round-trip through integers
    codes = ad.add(codes, codes.value.dtype.type(0.0))
    q = ad.mul(s3, ad.sub(codes, z3))
    return ad.reshape(q, (d1, d2))


def pack(codes: np.ndarray, spec: QuantSpec) -> PackedCodes:
    """Pack integer codes into the LSB-first row-padded bitstream."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"expected 2-D codes, got shape {codes.shape}")
    if codes.size and (codes.min() < 0 or codes.max() > spec.qmax):
        raise ValueError(f"codes out of range for {spec.bits}-bit grid")
    d1, d2 = codes.shape
    b = spec.bits
    row_bytes = (d2 * b + 7) // 8
    if codes.size == 0:
        return PackedCodes(data=b"", shape=(d1, d2), bits=b)
    u = codes.astype(np.uint8)
    bits = (u[:, :, None] >> np.arange(b, dtype=np.uint8)) & 1
    bits = bits.reshape(d1, d2 * b)
    padded = np.zeros((d1, row_bytes * 8), dtype=np.uint8)
    padded[:, : d2 * b] = bits
    data = np.packbits(padded, axis=1, bitorder="little")
    return PackedCodes(data=data.tobytes(), shape=(d1, d2), bits=b)


def unpack(packed: PackedCodes, spec: QuantSpec | None = None) -> np.ndarray:
    """Recover the integer code matrix; exact inverse of `pack`."""
    d1, d2 = packed.shape
    b = packed.bits
    if spec is not None and spec.bits != b:
        raise FormatError(f"spec bits {spec.bits} != packed bits {b}")
    row_bytes = packed.row_bytes
    expected = d1 * row_bytes
    if len(packed.data) != expected:
        raise FormatError(
            f"packed data length {len(packed.data)} != expected {expected}",
            offset=min(len(packed.data), expected))
    if expected == 0:
        return np.zeros((d1, d2), dtype=np.uint8)
    arr = np.frombuffer(packed.data, dtype=np.uint8).reshape(d1, row_bytes)
    bits = np.unpackbits(arr, axis=1, bitorder="little")[:, : d2 * b]
    bits = bits.reshape(d1, d2, b)
    weights = (np.uint16(1) << np.arange(b, dtype=np.uint16))
    return (bits.astype(np.uint16) * weights).sum(axis=2).astype(np.uint8)
