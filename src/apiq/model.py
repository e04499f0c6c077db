"""A tiny Llama-style decoder with optional quantized linear layers.

Blocks are pre-norm: RMSNorm -> multi-head causal attention with rotary
position embeddings -> residual, then RMSNorm -> SiLU-gated MLP ->
residual. Linear layers have no bias; the LM head is tied to the token
embedding; weights are (in_dim, out_dim) so a layer computes x @ W.

Every linear layer may be full-precision (a weight matrix), quantized
(packed codes + group scale/zero + optional clipping logits), or either
with an attached low-rank adapter. The effective weight is

    W_eff = base + (alpha / r) * A @ B^T

and is the single expression all forwards and calibration share, so the
propagated activations of the quantized path are bit-exact with a later
reload of the same checkpoint.

The forward pass is written in autodiff ops; with no active tape it is a
plain numpy computation. Attention (head split, rotary positions, causal
softmax, merge) is one op, `ad.causal_attention`, with one tape entry.
`trainable` maps tensor names to Vars so callers choose which parameters
receive gradients (all of them for pretraining, adapters only for
finetuning).

`forward_block(block, x, cfg, hook)` is the one way to run a block: `hook`
applies each linear layer, so callers record layer inputs and outputs or
substitute calibrated weights through it, and `ModelConfig` is the only
description of the geometry. The rotary tables come from `rope_tables`,
built per sequence length and cached, so `max_seq` is a limit and not an
allocation.

`TinyTransformer` is the one place that defines tensor names and their
order: `layers` maps each projection name to its Linear, and
`named_tensors()` lists every full-precision tensor in checkpoint order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InputError
from .quant import (ClipParams, GroupParams, PackedCodes, QuantSpec,
                    dequantize, unpack)
from .rng import RngState

ATTN_LAYERS = ("q", "k", "v", "o")
MLP_LAYERS = ("gate", "up", "down")
BLOCK_LAYERS = ATTN_LAYERS + MLP_LAYERS


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = 256
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    n_blocks: int = 2
    max_seq: int = 128
    rope_theta: float = 10000.0

    def __post_init__(self):
        if min(self.vocab, self.d_model, self.n_heads, self.d_ff, self.n_blocks,
               self.max_seq) < 1:
            raise ConfigError(f"model sizes must be positive, got {self}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dim must be even for rotary pairs")
        if not (math.isfinite(self.rope_theta) and self.rope_theta > 0):
            raise ConfigError(
                f"rope_theta must be finite and > 0, got {self.rope_theta!r}")


@dataclass
class LoraPair:
    """Low-rank factors A (d1, r), B (d2, r) and scaling alpha."""

    a: np.ndarray
    b: np.ndarray
    alpha: float

    @property
    def rank(self) -> int:
        return self.a.shape[1]

    def delta(self) -> np.ndarray:
        return lora_delta(ad.Var(self.a), ad.Var(self.b), self.alpha).value


def lora_delta(a: ad.Var, b: ad.Var, alpha: float) -> ad.Var:
    """The adapter term (alpha / r) * A @ B^T as a tape expression."""
    return ad.scale(ad.matmul(a, ad.swap_last(b)), alpha / a.shape[1])


@dataclass
class QuantState:
    """Frozen quantization payload of one linear layer."""

    codes: PackedCodes
    params: GroupParams
    clip: ClipParams | None
    spec: QuantSpec
    _deq: np.ndarray | None = field(default=None, repr=False)

    def dequantized(self) -> np.ndarray:
        if self._deq is None:
            self._deq = dequantize(unpack(self.codes), self.params)
        return self._deq


@dataclass
class Linear:
    """One projection: full-precision weight or quantized state, plus an
    optional adapter. Exactly one of weight/qstate is set."""

    name: str
    d1: int
    d2: int
    weight: np.ndarray | None = None
    qstate: QuantState | None = None
    lora: LoraPair | None = None

    def base_weight(self) -> np.ndarray:
        return self.weight if self.qstate is None else self.qstate.dequantized()

    def effective_weight(self) -> np.ndarray:
        base = self.base_weight()
        if self.lora is not None and self.lora.rank > 0:
            return base + self.lora.delta()
        return base


@dataclass
class Block:
    name: str
    norm1: np.ndarray
    norm2: np.ndarray
    layers: dict[str, Linear]


def _layer_dims(cfg: ModelConfig, lname: str) -> tuple[int, int]:
    d, f = cfg.d_model, cfg.d_ff
    return {"q": (d, d), "k": (d, d), "v": (d, d), "o": (d, d),
            "gate": (d, f), "up": (d, f), "down": (f, d)}[lname]


class TinyTransformer:
    def __init__(self, config: ModelConfig, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        self.embed = np.zeros((config.vocab, config.d_model), dtype=dtype)
        self.blocks: list[Block] = []
        for i in range(config.n_blocks):
            bname, layers = f"blocks.{i}", {}
            for lname in BLOCK_LAYERS:
                d1, d2 = _layer_dims(config, lname)
                sub = "attn" if lname in ATTN_LAYERS else "mlp"
                layers[lname] = Linear(name=f"{bname}.{sub}.{lname}", d1=d1, d2=d2,
                                       weight=np.zeros((d1, d2), dtype=dtype))
            self.blocks.append(Block(
                name=bname,
                norm1=np.ones(config.d_model, dtype=dtype),
                norm2=np.ones(config.d_model, dtype=dtype),
                layers=layers))
        self.final_norm = np.ones(config.d_model, dtype=dtype)
        # name -> Linear for every projection, in dataflow order
        self.layers = {lay.name: lay for block in self.blocks
                       for lay in block.layers.values()}

    @classmethod
    def init(cls, config: ModelConfig, seed: int, init_std: float = 0.02,
             dtype=np.float32) -> "TinyTransformer":
        model = cls(config, dtype=dtype)
        rng = RngState(seed)
        model.embed = (rng.derive(0).randn(model.embed.shape) * init_std).astype(dtype)
        for i, block in enumerate(model.blocks):
            for j, lname in enumerate(BLOCK_LAYERS):
                lay = block.layers[lname]
                stream = rng.derive(1000 + i * 16 + j)
                lay.weight = (stream.randn((lay.d1, lay.d2)) * init_std).astype(dtype)
        return model

    def iter_layers(self):
        return iter(self.layers.values())

    def find_layer(self, name: str) -> Linear:
        return self.layers[name]

    def named_tensors(self):
        """(name, owner, attr) of every full-precision tensor in checkpoint
        order; the tensor is `getattr(owner, attr)`, read live, and a
        projection's owner is its Linear."""
        yield "embed.weight", self, "embed"
        for block in self.blocks:
            for norm, lnames in (("norm1", ATTN_LAYERS), ("norm2", MLP_LAYERS)):
                yield f"{block.name}.{norm}.weight", block, norm
                for lname in lnames:
                    lay = block.layers[lname]
                    yield f"{lay.name}.weight", lay, "weight"
        yield "final_norm.weight", self, "final_norm"

    def embed_tokens(self, tokens: np.ndarray,
                     trainable: dict[str, ad.Var] | None = None) -> ad.Var:
        """Embeddings (n, t, d_model) of token ids (n, t) or (t,), the input
        of the first block."""
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab):
            raise InputError("token id out of vocabulary")
        if tokens.shape[1] > self.config.max_seq:
            raise InputError(
                f"sequence length {tokens.shape[1]} exceeds max_seq {self.config.max_seq}")
        trainable = trainable or {}
        return ad.embedding(trainable.get("embed.weight", ad.Var(self.embed)), tokens)

    def forward(self, tokens: np.ndarray, hook=None,
                trainable: dict[str, ad.Var] | None = None) -> ad.Var:
        """Logits (n, t, vocab) for token ids (n, t) or (t,); `hook` is
        passed to every block (see `forward_block`)."""
        trainable = trainable or {}
        x = self.embed_tokens(tokens, trainable)
        for block in self.blocks:
            x = forward_block(block, x, self.config, hook=hook, trainable=trainable)
        x = ad.rmsnorm(x, trainable.get("final_norm.weight", ad.Var(self.final_norm)))
        embed = trainable.get("embed.weight", ad.Var(self.embed))
        return ad.matmul(x, ad.swap_last(embed))


@functools.lru_cache(maxsize=16)
def rope_tables(t: int, head_dim: int, theta: float,
                dtype) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (t, head_dim/2) cos and sin of the rotary angles
    p * theta^(-2i/head_dim) for positions p < t. Each row depends only on
    its position, so a table is the first t rows of every longer one."""
    inv = theta ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    ang = np.arange(t, dtype=np.float64)[:, None] * inv[None, :]
    cos, sin = np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return cos, sin


def linear_apply(layer: Linear, x: ad.Var,
                 trainable: dict[str, ad.Var] | None = None) -> ad.Var:
    """x @ W_eff with base and adapter factors pulled from `trainable` when
    present."""
    trainable = trainable or {}
    eff = trainable.get(f"{layer.name}.weight") or ad.Var(layer.base_weight())
    lora = layer.lora
    if lora is not None and lora.rank > 0:
        a = trainable.get(f"{layer.name}.lora_a") or ad.Var(lora.a)
        b = trainable.get(f"{layer.name}.lora_b") or ad.Var(lora.b)
        eff = ad.add(eff, lora_delta(a, b, lora.alpha))
    return ad.matmul(x, eff)


def forward_block(block: Block, x: ad.Var, cfg: ModelConfig, hook=None,
                  trainable: dict[str, ad.Var] | None = None) -> ad.Var:
    """One decoder block. `hook(layer, x) -> y` applies each linear layer;
    the default multiplies by the layer's effective weight. The rotary
    tables are those of `x`'s length and dtype."""
    trainable = trainable or {}
    if hook is None:
        def hook(layer: Linear, xv: ad.Var) -> ad.Var:
            return linear_apply(layer, xv, trainable)
    cos, sin = rope_tables(x.value.shape[1], cfg.d_model // cfg.n_heads,
                           cfg.rope_theta, x.value.dtype)

    a = ad.rmsnorm(x, _norm_var(block, "norm1", trainable))
    q = hook(block.layers["q"], a)
    k = hook(block.layers["k"], a)
    v = hook(block.layers["v"], a)
    ctx = ad.causal_attention(q, k, v, cfg.n_heads, cos, sin)
    o = hook(block.layers["o"], ctx)
    h = ad.add(x, o)

    b2 = ad.rmsnorm(h, _norm_var(block, "norm2", trainable))
    g = hook(block.layers["gate"], b2)
    u = hook(block.layers["up"], b2)
    m = ad.mul(ad.silu(g), u)
    dn = hook(block.layers["down"], m)
    return ad.add(h, dn)


def _norm_var(block: Block, which: str, trainable: dict[str, ad.Var]) -> ad.Var:
    return trainable.get(f"{block.name}.{which}.weight", ad.Var(getattr(block, which)))
