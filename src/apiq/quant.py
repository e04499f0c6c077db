"""Uniform affine quantization with learnable clipping.

A weight matrix W (d1, d2) is quantized in groups of `group` consecutive
rows per column. Per group,

    s = (sig(gamma) * max(W) - sig(beta) * min(W)) / (2^b - 1)
    z = -round(sig(beta) * min(W) / s)            (clamped to the code grid)
    codes = clamp(round(W / s) + z, 0, 2^b - 1)
    Q = s * (codes - z)

With `clip=None` the sigmoid factors are exactly 1 and the formulas reduce
to plain round-to-nearest affine quantization. Rounding is half-to-even
throughout. The (s, z), codes and Q lines are each one numpy function
(`_scale_zero`, `_codes`, `_dequant`) that both paths call:
`clip_to_params`, `quantize` and `dequantize`, and the forward of
`ste_fake_quant`, one tape entry on sig(gamma) and sig(beta) whose
backward has straight-through rounds, so the clipping logits train through
both s and z and the frozen codes are bitwise those the calibration loss
saw.

Codes are stored LSB-first in a packed bitstream, each row padded to a
byte boundary; this byte layout is a stable external format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, FormatError, check_fields
from .linalg import group_minmax

SCALE_FLOOR = 1e-8
BITS = (2, 3, 4, 8)
GRANULARITIES = ("per-matrix", "per-group")  # stored as the index (quant.meta)


@dataclass(frozen=True)
class QuantSpec:
    """How a model is quantized, held once as `TinyTransformer.quant`: the
    code grid and the rank of the adapter each quantized layer carries (0,
    none)."""

    bits: int = field(default=2, metadata={"choices": BITS})
    group: int = field(default=64, metadata={"lo": 1})
    clip_granularity: str = field(default="per-matrix",
                                  metadata={"choices": GRANULARITIES})
    rank: int = field(default=8, metadata={"lo": 0})

    def __post_init__(self):
        check_fields(self)

    @property
    def qmax(self) -> int:
        return (1 << self.bits) - 1

    def check_fits(self, name: str, d1: int, d2: int) -> None:
        """Raise ConfigError unless the spec fits layer `name` of shape
        (d1, d2): the group divides d1 and the rank is at most min(d1, d2)."""
        if d1 % self.group:
            raise ConfigError(f"group size {self.group} does not divide layer {name} "
                              f"input dim {d1}")
        if self.rank > min(d1, d2):
            raise ConfigError(f"rank {self.rank} exceeds min dim {min(d1, d2)} "
                              f"of layer {name}")


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


def _scale_zero(cg, cb, mins, maxs, qmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-group scale s and zero-point z from the clip factors (cg, cb)
    and the group extrema."""
    lo = cb * mins
    diff = cg * maxs - lo
    s = np.maximum(diff / diff.dtype.type(qmax), SCALE_FLOOR)
    z = ad.rint(-(lo / s)).clip(0.0, float(qmax))
    return s, z


def _grouped(n_groups: int, *xs) -> list[np.ndarray]:
    """Each (d1, d2) matrix as (n_groups, d1 / n_groups, d2), and each
    per-group (n_groups, d2) array as (n_groups, 1, d2), broadcast to it."""
    return [x.reshape(n_groups, -1, x.shape[-1]) for x in xs]


def _codes(w3, s3, z3, qmax: int) -> np.ndarray:
    """Grouped codes clamp(round(W / s) + z, 0, qmax), as floats."""
    return (ad.rint(w3 / s3) + z3).clip(0.0, float(qmax))


def _dequant(codes3, s3, z3) -> np.ndarray:
    """Grouped Q = s * (codes - z)."""
    return s3 * (codes3 - z3)


def clip_to_params(mins: np.ndarray, maxs: np.ndarray,
                   clip: ClipParams | None, spec: QuantSpec) -> GroupParams:
    """Per-group (s, z) from group extrema and optional clipping logits."""
    mins = np.asarray(mins)
    if clip is None:
        cg = cb = mins.dtype.type(1.0)
    else:
        cg, cb = ad.sigmoid_fwd(clip.gamma), ad.sigmoid_fwd(clip.beta)
    s, z = _scale_zero(cg, cb, mins, maxs, spec.qmax)
    return GroupParams(scale=s, zero=z)


def quantize(w: np.ndarray, params: GroupParams, spec: QuantSpec) -> np.ndarray:
    """Integer codes in [0, 2^b - 1] for a (d1, d2) weight matrix."""
    w = np.asarray(w)
    codes = _codes(*_grouped(params.scale.shape[0], w, params.scale, params.zero),
                   spec.qmax)
    return codes.reshape(w.shape).astype(np.uint8)


def dequantize(codes: np.ndarray, params: GroupParams) -> np.ndarray:
    """Q = s * (codes - z), back at full shape, f32."""
    codes = np.asarray(codes)
    q = _dequant(*_grouped(params.scale.shape[0], codes.astype(np.float32),
                           params.scale, params.zero))
    return q.reshape(codes.shape)


def fake_quant(w: np.ndarray, clip: ClipParams | None, spec: QuantSpec) -> np.ndarray:
    """Quantize-then-dequantize with parameters derived from w itself."""
    mins, maxs = group_minmax(w, spec.group)
    params = clip_to_params(mins, maxs, clip, spec)
    return dequantize(quantize(w, params, spec), params)


def ste_fake_quant(w, gamma, beta, spec: QuantSpec,
                   mins: np.ndarray, maxs: np.ndarray) -> ad.Var:
    """Tape-recorded fake quantization, one tape entry.

    `w` may be a constant array or a Var; `gamma`/`beta` are Vars holding
    the clipping logits. `mins`/`maxs` are the fixed group extrema of the
    (fixed) weight being quantized. The forward is `clip_to_params`,
    `quantize` and `dequantize` on sig(gamma) and sig(beta). The backward
    is that of the same formulas written as tape primitives, operation for
    operation: rounds are straight-through, the code and zero-point clamps
    pass gradient only strictly inside [0, qmax], the scale only above
    SCALE_FLOOR, beta trains through both s and z, and each broadcast
    operand's gradient is summed down by `ad._unbroadcast` where the
    primitive would, so the gradients have the bits of that chain.
    """
    w = w if isinstance(w, ad.Var) else ad.Var(w)
    qmax = spec.qmax
    cg, cb = ad.sigmoid_fwd(gamma.value), ad.sigmoid_fwd(beta.value)
    s, z = _scale_zero(cg, cb, mins, maxs, qmax)
    w3, s3, z3 = _grouped(mins.shape[0], w.value, s, z)
    codes = _codes(w3, s3, z3, qmax)
    out = ad.Var(_dequant(codes, s3, z3).reshape(w.shape))

    def back():
        # Q = s (codes - z), codes = clamp(round(W / s) + z); each clamp
        # gate is read off its clamped value, strictly inside (0, qmax)
        # exactly where the unclamped one is
        g = out.grad.reshape(w3.shape)
        g_codes = g * s3
        g_pre = g_codes * ((codes > 0.0) & (codes < qmax))
        if w.requires_grad:
            w.accum((g_pre / s3).reshape(w.shape))
        if not (gamma.requires_grad or beta.requires_grad):
            return
        unb = ad._unbroadcast
        ds = (unb(g * (codes - z3), s3.shape)
              + unb(-g_pre * w3 / (s3 * s3), s3.shape)).reshape(s.shape)
        dz = (unb(-g_codes, z3.shape) + unb(g_pre, z3.shape)).reshape(z.shape)
        # z = clamp(round(-r)), r = cb mins / s
        d_r = -(dz * ((z > 0.0) & (z < qmax)))
        ds = ds + unb(-d_r * (cb * mins) / (s * s), s.shape)
        # s = max(diff / qmax, floor), diff = cg maxs - cb mins
        d_diff = (ds * (s > SCALE_FLOOR)) / s.dtype.type(qmax)
        if beta.requires_grad:
            dcb = unb(d_r / s * mins, cb.shape) + unb(-d_diff * mins, cb.shape)
            beta.accum(dcb * cb * (1.0 - cb))
        if gamma.requires_grad:
            gamma.accum(unb(d_diff * maxs, cg.shape) * cg * (1.0 - cg))

    return ad._record("ste_fake_quant", out, (w, gamma, beta), back)


def pack(codes: np.ndarray, spec: QuantSpec) -> PackedCodes:
    """Pack integer codes into the LSB-first row-padded bitstream."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError(f"expected 2-D codes, got shape {codes.shape}")
    if codes.size and (codes.min() < 0 or codes.max() > spec.qmax):
        raise ValueError(f"codes out of range for {spec.bits}-bit grid")
    d1, d2 = codes.shape
    b = spec.bits
    bits = np.unpackbits(codes.astype(np.uint8)[..., None], axis=-1, count=b,
                         bitorder="little")
    data = np.packbits(bits.reshape(d1, d2 * b), axis=1, bitorder="little")
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
    arr = np.frombuffer(packed.data, dtype=np.uint8).reshape(d1, row_bytes)
    bits = np.unpackbits(arr, axis=1, count=d2 * b, bitorder="little")
    return np.packbits(bits.reshape(d1, d2, b), axis=-1, bitorder="little")[..., 0]
