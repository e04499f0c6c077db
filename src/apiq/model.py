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
plain numpy computation. `trainable` maps tensor names to Vars so callers
choose which parameters receive gradients (all of them for pretraining,
adapters only for finetuning).

`TinyTransformer` is the one place that defines tensor names and their
order: `layers` maps each projection name to its Linear, and
`named_tensors()` lists every full-precision tensor in checkpoint order.
"""

from __future__ import annotations

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
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dim must be even for rotary pairs")


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


@dataclass
class LayerTap:
    """Input and output of one linear layer, captured in dataflow order."""

    name: str
    x: np.ndarray
    y: np.ndarray


@dataclass
class Capture:
    layers: list[LayerTap] = field(default_factory=list)
    block_inputs: list[np.ndarray] = field(default_factory=list)
    block_outputs: list[np.ndarray] = field(default_factory=list)

    def by_name(self) -> dict[str, LayerTap]:
        return {tap.name: tap for tap in self.layers}


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
        self.rope_cos, self.rope_sin = _rope_tables(config, dtype)
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

    def forward(self, tokens: np.ndarray, capture: Capture | None = None,
                trainable: dict[str, ad.Var] | None = None) -> ad.Var:
        """Logits (n, t, vocab) for token ids (n, t) or (t,)."""
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if tokens.size and (tokens.min() < 0 or tokens.max() >= self.config.vocab):
            raise InputError("token id out of vocabulary")
        if tokens.shape[1] > self.config.max_seq:
            raise InputError(
                f"sequence length {tokens.shape[1]} exceeds max_seq {self.config.max_seq}")
        trainable = trainable or {}

        embed = trainable.get("embed.weight", ad.Var(self.embed))
        x = ad.embedding(embed, tokens)
        hook = _default_hook(trainable, capture)
        for block in self.blocks:
            if capture is not None:
                capture.block_inputs.append(x.value)
            x = forward_block(block, x, self.rope_cos, self.rope_sin,
                              self.config.n_heads, hook=hook, trainable=trainable)
            if capture is not None:
                capture.block_outputs.append(x.value)
        x = ad.rmsnorm(x, trainable.get("final_norm.weight", ad.Var(self.final_norm)))
        return ad.matmul(x, ad.swap_last(embed))


def _rope_tables(cfg: ModelConfig, dtype) -> tuple[np.ndarray, np.ndarray]:
    hd = cfg.d_model // cfg.n_heads
    inv = cfg.rope_theta ** (-np.arange(0, hd, 2, dtype=np.float64) / hd)
    ang = np.arange(cfg.max_seq, dtype=np.float64)[:, None] * inv[None, :]
    return np.cos(ang).astype(dtype), np.sin(ang).astype(dtype)


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


def _default_hook(trainable, capture: Capture | None):
    def hook(layer: Linear, x: ad.Var) -> ad.Var:
        y = linear_apply(layer, x, trainable)
        if capture is not None:
            capture.layers.append(LayerTap(name=layer.name, x=x.value, y=y.value))
        return y
    return hook


def forward_block(block: Block, x: ad.Var, rope_cos: np.ndarray,
                  rope_sin: np.ndarray, n_heads: int, hook=None,
                  trainable: dict[str, ad.Var] | None = None) -> ad.Var:
    """One decoder block. `hook(layer, x) -> y` applies each linear layer;
    the default multiplies by the layer's effective weight."""
    if hook is None:
        hook = _default_hook(trainable or {}, None)
    trainable = trainable or {}
    n, t, d = x.value.shape
    hd = d // n_heads
    cos, sin = rope_cos[:t], rope_sin[:t]

    a = ad.rmsnorm(x, _norm_var(block, "norm1", trainable))
    q = hook(block.layers["q"], a)
    k = hook(block.layers["k"], a)
    v = hook(block.layers["v"], a)
    qh = ad.transpose(ad.reshape(q, (n, t, n_heads, hd)), (0, 2, 1, 3))
    kh = ad.transpose(ad.reshape(k, (n, t, n_heads, hd)), (0, 2, 1, 3))
    vh = ad.transpose(ad.reshape(v, (n, t, n_heads, hd)), (0, 2, 1, 3))
    qh = ad.rope_rotate(qh, cos, sin)
    kh = ad.rope_rotate(kh, cos, sin)
    scores = ad.scale(ad.matmul(qh, ad.swap_last(kh)), 1.0 / math.sqrt(hd))
    probs = ad.causal_softmax(scores)
    ctx = ad.matmul(probs, vh)
    ctx = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (n, t, d))
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
