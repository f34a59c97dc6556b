"""Masked autoencoder over patch tokens of a single-channel epoch.

The input epoch is split into fixed-length patches, a random subset of
tokens is masked, visible tokens are embedded and encoded, and a decoder
(seeing a learned mask token at masked positions) produces one
reconstruction head per target channel. Training minimizes 1 - cosine
similarity per patch pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .numcore import ShapeMismatch, Tensor

COSINE_EPS = 1e-8


class WrongLength(Exception):
    pass


@dataclass
class MaeConfig:
    """Model hyperparameters; patch_size * seq_len must equal the epoch length
    of the data it is trained on (3000 samples for 30 s at 100 Hz)."""

    patch_size: int = 100
    seq_len: int = 30
    embed_dim: int = 64
    num_heads: int = 4
    encoder_layers: int = 2
    decoder_layers: int = 1
    mlp_ratio: int = 4
    mask_ratio: float = 0.5
    target_channels: tuple[str, ...] = ()
    loss_scope: str = "all"  # "all" or "masked"

    def __post_init__(self):
        self.target_channels = tuple(self.target_channels)
        for name, least in (("patch_size", 1), ("seq_len", 1), ("embed_dim", 1), ("num_heads", 1),
                            ("mlp_ratio", 1), ("encoder_layers", 0), ("decoder_layers", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.embed_dim % 2 != 0:
            raise ValueError("embed_dim must be even for the sinusoidal table")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if round(self.mask_ratio * self.seq_len) >= self.seq_len:  # mask_plans' count
            raise ValueError(f"mask_ratio {self.mask_ratio} masks all seq_len {self.seq_len} "
                             "tokens; at least one must stay visible")
        if self.loss_scope not in ("all", "masked"):
            raise ValueError(f"loss_scope must be 'all' or 'masked', got {self.loss_scope}")
        if not self.target_channels:
            raise ValueError("at least one target channel is required")

    @property
    def epoch_len(self) -> int:
        return self.patch_size * self.seq_len


def sinusoidal_table(seq_len: int, embed_dim: int) -> np.ndarray:
    """Fixed positional table: sin/cos pairs with 10000^(2i/dim) wavelengths."""
    even = np.arange(0, embed_dim, 2, dtype=np.float64)
    inv_freq = 1.0 / np.power(10000.0, even / embed_dim)
    angles = np.outer(np.arange(seq_len, dtype=np.float64), inv_freq)
    table = np.zeros((seq_len, embed_dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


@dataclass
class MaeParams:
    """All learnable tensors by name, plus the fixed positional table."""

    config: MaeConfig
    pos_encoding: np.ndarray
    tensors: dict[str, Tensor] = field(default_factory=dict)

    @property
    def dtype(self):
        return self.tensors["patch_embed.w"].dtype


def parameter_shapes(config: MaeConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every learnable tensor, in creation/serialization order."""
    e, p, h = config.embed_dim, config.patch_size, config.mlp_ratio * config.embed_dim
    shapes = {"patch_embed.w": (p, e), "patch_embed.b": (e,), "mask_token": (e,)}
    blocks = ([f"enc.{i}" for i in range(config.encoder_layers)]
              + [f"dec.{i}" for i in range(config.decoder_layers)])
    for prefix in blocks:
        # the key projection carries no bias: shifting every key by a constant
        # shifts each attention row uniformly, which softmax cancels, so a key
        # bias would receive an identically-zero gradient
        for name, shape in (("ln1.g", (e,)), ("ln1.b", (e,)), ("attn.wq", (e, e)),
                            ("attn.bq", (e,)), ("attn.wk", (e, e)), ("attn.wv", (e, e)),
                            ("attn.bv", (e,)), ("attn.wo", (e, e)), ("attn.bo", (e,)),
                            ("ln2.g", (e,)), ("ln2.b", (e,)), ("mlp.w1", (e, h)),
                            ("mlp.b1", (h,)), ("mlp.w2", (h, e)), ("mlp.b2", (e,))):
            shapes[f"{prefix}.{name}"] = shape
    for channel in config.target_channels:
        shapes[f"head.{channel}.w"] = (e, p)
        shapes[f"head.{channel}.b"] = (p,)
    return shapes


def init_params(config: MaeConfig, seed=0, dtype=np.float32) -> MaeParams:
    """Deterministic initialization: uniform(+-1/sqrt(fan_in)) for linear
    weights and biases, N(0, 0.02^2) for the mask token, identity layer norm.

    ``seed`` may be an int or an np.random.SeedSequence (for callers that
    split streams).
    """
    sequence = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    rng = np.random.Generator(np.random.Philox(sequence))
    tensors: dict[str, Tensor] = {}
    fan_in = 0
    for name, shape in parameter_shapes(config).items():
        if name == "mask_token":
            data = rng.normal(0.0, 0.02, shape)
        elif ".ln" in name and not name.startswith("head."):  # heads carry channel names
            data = np.ones(shape) if name.endswith(".g") else np.zeros(shape)
        else:  # a bias draws with the fan-in of the weight before it
            fan_in = shape[0] if len(shape) == 2 else fan_in
            bound = 1.0 / np.sqrt(fan_in)
            data = rng.uniform(-bound, bound, shape)
        tensors[name] = Tensor(data, requires_grad=True, dtype=dtype)
    pos = sinusoidal_table(config.seq_len, config.embed_dim).astype(dtype)
    return MaeParams(config=config, pos_encoding=pos, tensors=tensors)


def patchify(samples: np.ndarray, config: MaeConfig) -> np.ndarray:
    """Slice epochs (..., epoch_len) into (..., seq_len, patch_size) tokens."""
    samples = np.asarray(samples)
    if samples.ndim < 1 or samples.shape[-1] != config.epoch_len:
        raise WrongLength(f"expected {config.epoch_len} samples, got shape {samples.shape}")
    return samples.reshape(*samples.shape[:-1], config.seq_len, config.patch_size)


def unpatchify(tokens: np.ndarray) -> np.ndarray:
    tokens = np.asarray(tokens)
    return tokens.reshape(*tokens.shape[:-2], -1)


def _attention(h: Tensor, params: MaeParams, prefix: str) -> Tensor:
    t = params.tensors
    q, k, v = (nc.linear(h, t[f"{prefix}.attn.w{name}"], t.get(f"{prefix}.attn.b{name}"))
               for name in "qkv")
    mixed = nc.attention(q, k, v, params.config.num_heads)
    return nc.linear(mixed, t[f"{prefix}.attn.wo"], t[f"{prefix}.attn.bo"])


def _mlp(h: Tensor, params: MaeParams, prefix: str) -> Tensor:
    t = params.tensors
    hidden = nc.gelu(nc.linear(h, t[f"{prefix}.mlp.w1"], t[f"{prefix}.mlp.b1"]))
    return nc.linear(hidden, t[f"{prefix}.mlp.w2"], t[f"{prefix}.mlp.b2"])


def _transformer_block(x: Tensor, params: MaeParams, prefix: str) -> Tensor:
    t = params.tensors
    normed = nc.layer_norm(x, t[f"{prefix}.ln1.g"], t[f"{prefix}.ln1.b"])
    x = nc.add(x, _attention(normed, params, prefix))
    normed = nc.layer_norm(x, t[f"{prefix}.ln2.g"], t[f"{prefix}.ln2.b"])
    return nc.add(x, _mlp(normed, params, prefix))


def encode(tokens: np.ndarray, visible, params: MaeParams) -> Tensor:
    """Embed tokens (..., seq_len, patch_size) with the positional encoding
    at their original positions, keep only the ``visible`` token indices,
    (B, n_visible) per example or (n_visible,) for all, and run them through
    the encoder blocks."""
    config = params.config
    if np.shape(tokens)[-2:] != (config.seq_len, config.patch_size):
        raise ShapeMismatch(f"tokens shape {np.shape(tokens)} != "
                            f"(..., {config.seq_len}, {config.patch_size})")
    t = params.tensors
    x = Tensor(tokens, dtype=params.dtype)
    embedded = nc.linear(x, t["patch_embed.w"], t["patch_embed.b"])
    embedded = nc.add(embedded, Tensor(params.pos_encoding, dtype=params.dtype))
    latents = nc.gather_rows(embedded, visible)
    for i in range(config.encoder_layers):
        latents = _transformer_block(latents, params, f"enc.{i}")
    return latents


def decode(latents: Tensor, visible, params: MaeParams) -> Tensor:
    """Scatter latents into a mask-token sequence at their ``visible`` token
    indices, as ``encode`` takes them, decode, and apply one reconstruction
    head per target channel; returns (..., num_targets, seq_len, patch_size)."""
    config = params.config
    t = params.tensors
    ordered = nc.scatter_rows(latents, visible, config.seq_len, t["mask_token"])
    ordered = nc.add(ordered, Tensor(params.pos_encoding, dtype=params.dtype))
    for i in range(config.decoder_layers):
        ordered = _transformer_block(ordered, params, f"dec.{i}")

    # all heads as one product: (..., seq_len, targets * patch) -> per target
    channels = config.target_channels
    w = nc.concat([t[f"head.{ch}.w"] for ch in channels], axis=1)
    b = nc.concat([t[f"head.{ch}.b"] for ch in channels], axis=0)
    return nc.split_heads(nc.linear(ordered, w, b), len(channels))


def row_cosines(a: np.ndarray, b: np.ndarray):
    """(cos, rows, norms, clamped inverse norms) of the row pairs of a and b
    (..., d), flattened to (rows, d). Norms are eps-clamped, so an all-zero row
    scores cos 0, and einsum row dots make no row's value depend on the others."""
    rows = [x.reshape(-1, a.shape[-1]) for x in (a, b)]
    norms = [np.sqrt(np.einsum("ij,ij->i", x, x)) for x in rows]
    inverse = [1.0 / np.maximum(norm, COSINE_EPS) for norm in norms]
    cos = np.einsum("ij,ij->i", *rows)
    cos *= inverse[0] * inverse[1]
    return cos, rows, norms, inverse


def cosine_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over patch pairs (last axis; all leading axes are pooled) of
    1 - cos(pred, target) from ``row_cosines``, as one tape record with its
    analytic backward. Result is a scalar in [0, 2]; an all-zero patch scores 1."""
    if pred.shape != target.shape or pred.data.ndim < 1:
        raise ShapeMismatch(f"pred {pred.shape} vs target {target.shape}")
    cos, rows, norms, inverse = row_cosines(pred.data, target.data)
    wanted = [t.shape if t.requires_grad else None for t in (pred, target)]  # partials' shapes

    def backward(g):
        # d cos / d x = other / (|x| |other|) - cos * x / |x|^2, the second term
        # only where |x| is not clamped; the loss is symmetric in its inputs
        dcos = g / -len(cos)
        across = dcos * inverse[0] * inverse[1]
        partials = []
        for i, shape in enumerate(wanted):
            if shape is None:
                partials.append(None)
                continue
            along = dcos * cos * (norms[i] >= COSINE_EPS)
            along *= inverse[i] * inverse[i]
            grad = rows[1 - i] * across[:, None]
            grad -= rows[i] * along[:, None]
            partials.append(grad.reshape(shape))
        return partials

    return nc._make(np.mean(1.0 - cos), (pred, target), backward)


def mask_plans(config: MaeConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, seq_len) bool masks, True at the first round(mask_ratio * seq_len)
    tokens of one ``rng.permutation(seq_len)`` per example, in batch order."""
    n_masked = int(round(config.mask_ratio * config.seq_len))
    masks = np.zeros((count, config.seq_len), dtype=bool)
    for row in masks:
        row[rng.permutation(config.seq_len)[:n_masked]] = True
    return masks


def token_indices(masks: np.ndarray) -> np.ndarray:
    """Ascending token indices (B, k) of the True entries of masks (B, seq_len), k per row."""
    return np.nonzero(masks)[1].reshape(len(masks), int(masks[:1].sum()))


def forward_loss(
    inputs: np.ndarray,
    targets: np.ndarray,
    params: MaeParams,
    masks: np.ndarray,
) -> tuple[Tensor, np.ndarray]:
    """Masked forward pass over a batch as one graph: ``inputs`` (B, epoch_len)
    against ``targets`` (B, num_targets, epoch_len), targets in the config's
    order, with bool ``masks`` (B, seq_len) from ``mask_plans``. Returns the
    mean cosine loss and the reconstructions (B, num_targets, epoch_len).

    Every row masks the same number of tokens, so each example weighs equally
    in the mean. With loss_scope == "masked" the loss covers only masked token
    positions (all positions when the masks mask nothing).
    """
    config = params.config
    masks = np.asarray(masks)
    if masks.dtype != bool or masks.shape != (len(inputs), config.seq_len) \
            or (masks.sum(axis=1) != masks[:1].sum()).any():
        raise ShapeMismatch(f"masks {masks.dtype} {masks.shape} for {len(inputs)} examples of "
                            f"{config.seq_len} tokens: need bool rows masking one count")
    visible = token_indices(~masks)
    recon = decode(encode(patchify(inputs, config), visible, params), visible, params)
    target = patchify(targets, config)
    pred = recon
    if config.loss_scope == "masked" and masks.any():
        # (B, 1, n_masked): the same tokens for every target
        masked = token_indices(masks)[:, None]
        pred = nc.gather_rows(recon, masked)
        target = np.take_along_axis(target, masked[..., None], axis=-2)
    return cosine_loss(pred, Tensor(target, dtype=params.dtype)), unpatchify(recon.data)


def reconstruct(params: MaeParams, inputs: np.ndarray) -> np.ndarray:
    """Full-visibility reconstructions (B, num_targets, epoch_len) of a batch of
    input epochs (B, epoch_len), as one graph. A row's bytes do not depend on the
    other rows' values, but BLAS may round them otherwise at another B."""
    every = np.arange(params.config.seq_len)
    tokens = patchify(inputs, params.config)
    return unpatchify(decode(encode(tokens, every, params), every, params).data)
