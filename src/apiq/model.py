"""A tiny Llama-style decoder with optional quantized linear layers.

Blocks are pre-norm: RMSNorm -> multi-head causal attention with rotary
position embeddings -> residual, then RMSNorm -> SiLU-gated MLP ->
residual. Linear layers have no bias; the LM head is tied to the token
embedding; weights are (in_dim, out_dim) so a layer computes x @ W.

Every linear layer may be full-precision (a weight matrix), quantized
(packed codes + group scale/zero + optional clipping logits), or either
with an attached low-rank adapter. The effective weight is

    W_eff = base + A @ B^T        (no adapter scaling, as in ApiQ and LoftQ)

and is formed in one function, `w_eff`, that all forwards and calibration
share, so the propagated activations of the quantized path are bit-exact
with a later reload of the same checkpoint.

The forward pass is written in autodiff ops; with no active tape it is a
plain numpy computation. Attention (head split, rotary positions, causal
softmax, merge) is one op, `ad.causal_attention`, with one tape entry; it
runs per block of query rows over the keys each block may see, with or
without a tape.
`trainable` maps the `id` of a model array to the Var a forward reads in
its place, so callers choose which parameters receive gradients (all of
them for pretraining, adapters only for finetuning) and calibration binds a
weight to its fake-quant expression; `_bound` is the one lookup.

`forward_block(block, x, cfg, hook, trainable)` is the one way to run a
block: `hook` applies each linear layer, so callers record layer inputs and
outputs through it, and `ModelConfig` is the only description of the
geometry. The rotary tables come from `rope_tables`, built per sequence
length and cached, so `max_seq` is a limit and not an allocation.

`TinyTransformer` is the one place that defines tensor names and their
order: `layers` maps each projection name to its Linear, and
`named_tensors()` lists every full-precision tensor in checkpoint order.
Its `quant` is the one record of how it is quantized: the code grid, and
the rank of the adapter that each quantized layer carries.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, InputError, check_fields
from .quant import (ClipParams, GroupParams, PackedCodes, QuantSpec,
                    dequantize, unpack)
from .rng import RngState

ATTN_LAYERS = ("q", "k", "v", "o")
MLP_LAYERS = ("gate", "up", "down")
BLOCK_LAYERS = ATTN_LAYERS + MLP_LAYERS
INIT_STD = 0.02  # of the initial embedding and projection weights


@dataclass(frozen=True)
class ModelConfig:
    vocab: int = field(default=256, metadata={"lo": 1})
    d_model: int = field(default=64, metadata={"lo": 1})
    n_heads: int = field(default=4, metadata={"lo": 1})
    d_ff: int = field(default=128, metadata={"lo": 1})
    n_blocks: int = field(default=2, metadata={"lo": 1})
    max_seq: int = field(default=128, metadata={"lo": 1})
    rope_theta: float = field(default=10000.0, metadata={"above": 0})

    def __post_init__(self):
        check_fields(self)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if (self.d_model // self.n_heads) % 2 != 0:
            raise ConfigError("head dim must be even for rotary pairs")


@dataclass
class LoraPair:
    """Low-rank factors A (d1, r) and B (d2, r)."""

    a: np.ndarray
    b: np.ndarray

    def delta(self) -> np.ndarray:
        return lora_delta(ad.Var(self.a), ad.Var(self.b)).value


def lora_delta(a: ad.Var, b: ad.Var) -> ad.Var:
    """The adapter term A @ B^T as a tape expression."""
    return ad.matmul(a, ad.swap_last(b))


@dataclass
class QuantState:
    """Frozen quantization payload of one layer, under the model's `quant`."""

    codes: PackedCodes
    params: GroupParams
    clip: ClipParams | None
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
        return w_eff(self).value


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
        self.quant: QuantSpec | None = None  # quantized layers' spec and adapter rank
        # name -> Linear for every projection, in dataflow order
        self.layers = {lay.name: lay for block in self.blocks
                       for lay in block.layers.values()}

    @classmethod
    def init(cls, config: ModelConfig, seed: int, dtype=np.float32) -> "TinyTransformer":
        model = cls(config, dtype=dtype)
        rng = RngState(seed)
        model.embed = (rng.derive(0).randn(model.embed.shape) * INIT_STD).astype(dtype)
        for i, block in enumerate(model.blocks):
            for j, lname in enumerate(BLOCK_LAYERS):
                lay = block.layers[lname]
                stream = rng.derive(1000 + i * 16 + j)
                lay.weight = (stream.randn((lay.d1, lay.d2)) * INIT_STD).astype(dtype)
        return model

    def iter_layers(self):
        return iter(self.layers.values())

    def find_layer(self, name: str) -> Linear:
        if name not in self.layers:
            raise InputError(f"no layer named {name!r}")
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
                     trainable: dict[int, ad.Var] | None = None) -> ad.Var:
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
        return ad.embedding(_bound(self.embed, trainable), tokens)

    def forward(self, tokens: np.ndarray, hook=None,
                trainable: dict[int, ad.Var] | None = None) -> ad.Var:
        """Logits (n, t, vocab) for token ids (n, t) or (t,); `hook` is
        passed to every block (see `forward_block`)."""
        x = self.embed_tokens(tokens, trainable)
        for block in self.blocks:
            x = forward_block(block, x, self.config, hook=hook, trainable=trainable)
        x = ad.rmsnorm(x, _bound(self.final_norm, trainable))
        return ad.matmul(x, ad.swap_last(_bound(self.embed, trainable)))


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


def _bound(arr: np.ndarray, trainable: dict[int, ad.Var] | None) -> ad.Var:
    """The Var `trainable` binds to `arr` by identity, else `arr` as a
    constant."""
    return (trainable or {}).get(id(arr)) or ad.Var(arr)


def w_eff(layer: Linear, trainable: dict[int, ad.Var] | None = None) -> ad.Var:
    """W_eff = base + A @ B^T of `layer` as a tape expression, each array
    read through `trainable`."""
    base = _bound(layer.base_weight(), trainable)
    lora = layer.lora
    if lora is None:
        return base
    return ad.add(base, lora_delta(_bound(lora.a, trainable), _bound(lora.b, trainable)))


def linear_apply(layer: Linear, x: ad.Var,
                 trainable: dict[int, ad.Var] | None = None) -> ad.Var:
    """x @ W_eff, with the layer's arrays read through `trainable`."""
    return ad.matmul(x, w_eff(layer, trainable))


def forward_block(block: Block, x: ad.Var, cfg: ModelConfig, hook=None,
                  trainable: dict[int, ad.Var] | None = None) -> ad.Var:
    """One decoder block. `hook(layer, x) -> y` applies each linear layer;
    the default is `linear_apply` through `trainable`, which also binds the
    norm weights. The rotary tables are those of `x`'s length and dtype."""
    if hook is None:
        def hook(layer: Linear, xv: ad.Var) -> ad.Var:
            return linear_apply(layer, xv, trainable)
    cos, sin = rope_tables(x.value.shape[1], cfg.d_model // cfg.n_heads,
                           cfg.rope_theta, x.value.dtype)

    a = ad.rmsnorm(x, _bound(block.norm1, trainable))
    q = hook(block.layers["q"], a)
    k = hook(block.layers["k"], a)
    v = hook(block.layers["v"], a)
    ctx = ad.causal_attention(q, k, v, cfg.n_heads, cos, sin)
    o = hook(block.layers["o"], ctx)
    h = ad.add(x, o)

    b2 = ad.rmsnorm(h, _bound(block.norm2, trainable))
    g = hook(block.layers["gate"], b2)
    u = hook(block.layers["up"], b2)
    m = ad.mul(ad.silu(g), u)
    dn = hook(block.layers["down"], m)
    return ad.add(h, dn)
