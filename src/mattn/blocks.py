"""Transformer blocks: spatial + temporal attention with AdaLN-Zero
conditioning, branch fusion for the hybrid variant, and the full
noise-prediction model.

A block applies three gated residual sub-layers to a clip, one (T, N, D)
Var: spatial attention, temporal attention (local / global matrix /
hybrid / full 3D), and a per-token MLP. The timestep embedding modulates
each sub-layer j through shift/scale/gate rows 3j, 3j+1, 3j+2 of one
(9, 1, D) stack that broadcast over every frame and token; their linear
map is zero-initialized, so every block is the identity at init.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention as at
from . import autodiff as ad
from .core import ConfigError, DimensionError

FUSION_VARIANTS = ("concat_mlp", "sigmoid_gate", "softmax_gate")
TEMPORAL_VARIANTS = ("local", "global", "hybrid", "full3d")
INIT_LOCAL_WEIGHT = 0.97  # the softmax gate's initial local-branch weight


# ---------------------------------------------------------------------------
# fusion

@dataclass
class FusionMode:
    variant: str
    alpha: ad.Var | None = None          # sigmoid_gate
    logits: ad.Var | None = None         # softmax_gate
    W: ad.Var | None = None              # concat_mlp, (2D, D)
    b: ad.Var | None = None              # concat_mlp, (1, D)

    def weights(self) -> tuple[float, float]:
        """Current (local, global) mixing weights for the gate variants."""
        with ad.no_grad():
            w_local, w_global = self.gates()
        return float(w_local.value[0, 0]), float(w_global.value[0, 0])

    def gates(self) -> tuple[ad.Var, ad.Var]:
        """The (local, global) gate weights as (1, 1) Vars."""
        if self.variant == "sigmoid_gate":
            w_local = ad.sigmoid(self.alpha)
            return w_local, ad.sub(ad.const(np.ones((1, 1))), w_local)
        if self.variant == "softmax_gate":
            w = ad.softmax_rows(self.logits)
            return ad.slice_axis(w, -1, 0, 1), ad.slice_axis(w, -1, 1, 2)
        raise ConfigError(f"{self.variant!r} fusion has no gate weights")


def make_fusion(rng: np.random.Generator, d: int, variant: str) -> FusionMode:
    if variant == "sigmoid_gate":
        return FusionMode(variant, alpha=ad.param(np.zeros((1, 1))))
    if variant == "softmax_gate":
        logits = np.log([[INIT_LOCAL_WEIGHT, 1.0 - INIT_LOCAL_WEIGHT]])
        return FusionMode(variant, logits=ad.param(logits))
    if variant == "concat_mlp":
        bound = np.sqrt(6.0 / (2 * d))  # fan-in scaled uniform, zero bias
        return FusionMode(
            variant,
            W=ad.param(rng.uniform(-bound, bound, (2 * d, d))),
            b=ad.param(np.zeros((1, d))),
        )
    raise ConfigError(f"unknown fusion variant: {variant!r}")


def fuse(e_local: ad.Var, e_global: ad.Var, mode: FusionMode) -> ad.Var:
    if e_local.shape != e_global.shape:
        raise DimensionError(
            f"fusion branch shape mismatch: {e_local.shape} vs "
            f"{e_global.shape}")
    if mode.variant == "concat_mlp":
        return ad.linear(ad.concat([e_local, e_global], -1), mode.W, mode.b)
    w_local, w_global = mode.gates()
    return ad.add(ad.mul(e_local, w_local), ad.mul(e_global, w_global))


# ---------------------------------------------------------------------------
# configuration

@dataclass
class BlockConfig:
    depth: int = 1
    d: int = 16
    n: int = 4
    variant: str = "hybrid"
    n_qk: int = 2
    n_v: int = 4
    d_qk: int | None = None
    d_v: int | None = None
    heads_m: int = 1
    heads_n: int = 1
    u_norm: str = "softmax"
    d_h: int | None = None
    fusion: str = "concat_mlp"

    def __post_init__(self):
        if self.variant not in TEMPORAL_VARIANTS:
            raise ConfigError(f"unknown temporal variant: {self.variant!r}")
        if self.fusion not in FUSION_VARIANTS:
            raise ConfigError(f"unknown fusion variant: {self.fusion!r}")
        if self.u_norm not in at.U_NORM_MODES:
            raise ConfigError(f"unknown u_norm mode: {self.u_norm!r}")
        if self.depth < 0 or self.d < 1 or self.n < 1:
            raise ConfigError("depth/d/n must be positive")
        # d_qk, d_v and d_h are None when unset
        for name in ("n_qk", "n_v", "heads_m", "heads_n", "d_qk", "d_v",
                     "d_h"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")

    @property
    def head_dim(self) -> int:
        return self.d if self.d_h is None else self.d_h


# ---------------------------------------------------------------------------
# conditioning

def sinusoidal_embedding(positions: np.ndarray, dim: int) -> np.ndarray:
    """Classic fixed sin/cos embeddings of scalar positions, shape
    (len(positions), dim)."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    ang = np.asarray(positions, dtype=np.float64).reshape(-1, 1) * freqs
    emb = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
    if dim % 2:
        emb = np.concatenate([emb, np.zeros((len(emb), 1))], axis=1)
    return emb


# the two-layer MLP, linear -> GELU -> linear as one op, of the timestep
# embedding and of every block
mlp = ad.mlp


@dataclass
class TimestepEmbedding:
    """Sinusoidal step embedding refined by a 2-layer MLP."""

    W1: ad.Var
    b1: ad.Var
    W2: ad.Var
    b2: ad.Var

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int) -> "TimestepEmbedding":
        return cls(
            W1=at.fan_in_normal(rng, dim, dim),
            b1=ad.param(np.zeros((1, dim))),
            W2=at.fan_in_normal(rng, dim, dim),
            b2=ad.param(np.zeros((1, dim))),
        )

    def forward(self, k: int) -> ad.Var:
        e = ad.const(sinusoidal_embedding([k], self.W1.shape[0]))
        return mlp(e, self.W1, self.b1, self.W2, self.b2)


# ---------------------------------------------------------------------------
# block

@dataclass
class Block:
    cfg: BlockConfig
    adaln_W: ad.Var
    adaln_b: ad.Var
    spatial: at.TokenAttnParams
    local: at.TokenAttnParams | None
    global_: at.MatrixAttnParams | None      # named "global"
    full3d: at.TokenAttnParams | None
    fusion: FusionMode | None
    mlp_W1: ad.Var
    mlp_b1: ad.Var
    mlp_W2: ad.Var
    mlp_b2: ad.Var

    @classmethod
    def create(cls, rng: np.random.Generator, cfg: BlockConfig) -> "Block":
        d, dh = cfg.d, cfg.head_dim
        s_spatial, s_local, s_global, s_fusion, s_mlp = rng.spawn(5)
        local = global_ = full3d = fusion = None
        if cfg.variant in ("local", "hybrid"):
            local = at.make_token_attn_params(s_local, d, dh)
        if cfg.variant in ("global", "hybrid"):
            global_ = at.make_matrix_attn_params(
                s_global, cfg.n, d, cfg.n_qk, cfg.n_v,
                d_qk=cfg.d_qk, d_v=cfg.d_v,
                heads_m=cfg.heads_m, heads_n=cfg.heads_n, u_norm=cfg.u_norm)
        if cfg.variant == "hybrid":
            fusion = make_fusion(s_fusion, d, cfg.fusion)
        if cfg.variant == "full3d":
            full3d = at.make_token_attn_params(s_local, d, dh)
        hidden = 4 * d
        return cls(
            cfg=cfg,
            adaln_W=ad.param(np.zeros((d, 9 * d))),
            adaln_b=ad.param(np.zeros((1, 9 * d))),
            spatial=at.make_token_attn_params(s_spatial, d, dh),
            local=local,
            global_=global_,
            full3d=full3d,
            fusion=fusion,
            mlp_W1=at.fan_in_normal(s_mlp, d, hidden),
            mlp_b1=ad.param(np.zeros((1, hidden))),
            mlp_W2=at.fan_in_normal(s_mlp, hidden, d),
            mlp_b2=ad.param(np.zeros((1, d))),
        )

    def _temporal(self, h: ad.Var) -> ad.Var:
        v = self.cfg.variant
        if v == "local":
            return at.local_temporal_attention(h, self.local)
        if v == "global":
            return at.matrix_attention(h, self.global_)
        if v == "full3d":
            return at.full3d_attention(h, self.full3d)
        e_local = at.local_temporal_attention(h, self.local)
        e_global = at.matrix_attention(h, self.global_)
        return fuse(e_local, e_global, self.fusion)

    def forward(self, x: ad.Var, cond: ad.Var) -> ad.Var:
        """One (T, N, D) clip in, one out. Each sub-layer's input and output
        are temporaries of one statement, so under no_grad() neither
        outlives its residual."""
        m = ad.reshape(ad.linear(cond, self.adaln_W, self.adaln_b), 9, 1, -1)
        x = ad.residual(x, at.spatial_attention(ad.modulate(x, m, 0),
                                                self.spatial), m, 2)
        x = ad.residual(x, self._temporal(ad.modulate(x, m, 3)), m, 5)
        return ad.residual(x, mlp(ad.modulate(x, m, 6), self.mlp_W1,
                                  self.mlp_b1, self.mlp_W2, self.mlp_b2), m, 8)


# ---------------------------------------------------------------------------
# full model

class Model:
    """Stack of blocks with sinusoidal positions and a zero-init head."""

    def __init__(self, cfg: BlockConfig, seed: int) -> None:
        self.cfg = cfg
        rng = np.random.Generator(np.random.Philox(seed))
        self.timestep = TimestepEmbedding.create(rng.spawn(1)[0], cfg.d)
        self.blocks = [Block.create(rng.spawn(1)[0], cfg)
                       for _ in range(cfg.depth)]
        self.head_W = ad.param(np.zeros((cfg.d, cfg.d)))
        self.head_b = ad.param(np.zeros((1, cfg.d)))
        self._pos_spatial = sinusoidal_embedding(np.arange(cfg.n), cfg.d)

    def forward(self, x: ad.Var, k: int) -> ad.Var:
        """Predicted noise for one (T, N, D) clip at diffusion step k."""
        if x.shape[1:] != (self.cfg.n, self.cfg.d) or x.shape[0] < 1:
            raise DimensionError(
                f"clip shape {x.shape} does not match model "
                f"(T >= 1, N={self.cfg.n}, D={self.cfg.d})")
        pos_t = sinusoidal_embedding(np.arange(x.shape[0]), self.cfg.d)
        x = ad.add(ad.add(x, ad.const(self._pos_spatial)),
                   ad.const(pos_t[:, None, :]))
        cond = self.timestep.forward(k)
        for block in self.blocks:
            x = block.forward(x, cond)
        return ad.linear(ad.layernorm_rows(x), self.head_W, self.head_b)

    def predict(self, x: np.ndarray, k: int) -> np.ndarray:
        """Predicted noise for one (T, N, D) clip array at step k, without a
        gradient graph: `ad.const` copies and checks the clip once, and the
        head's checked, read-only output is returned as it is."""
        with ad.no_grad():
            return self.forward(ad.const(x), k).value

    def params(self) -> list[tuple[str, ad.Var]]:
        """(name, Var) for every parameter: its field path, under
        `timestep.`, then `block{i}.` for each block, then the head."""
        out = list(ad.named_params(self.timestep, "timestep."))
        for i, block in enumerate(self.blocks):
            out += ad.named_params(block, f"block{i}.")
        out += [("head_W", self.head_W), ("head_b", self.head_b)]
        return out

    def param_vars(self) -> list[ad.Var]:
        return [v for _, v in self.params()]

    def num_params(self) -> int:
        return sum(v.value.size for v in self.param_vars())

    def state(self) -> dict[str, np.ndarray]:
        return {n: v.value.copy() for n, v in self.params()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Set every parameter from state, or set none and raise a
        ConfigError naming a missing, extra, mis-shaped or non-finite one."""
        own = dict(self.params())
        missing = set(own) - set(state)
        if missing:
            raise ConfigError(f"missing parameters in state: {sorted(missing)}")
        unexpected = set(state) - set(own)
        if unexpected:
            raise ConfigError(
                f"unexpected parameters in state: {sorted(unexpected)}")
        shapes = {n: np.shape(state[n]) for n in own}
        for n, v in own.items():
            if shapes[n] != v.shape:
                raise ConfigError(
                    f"parameter {n!r}: state shape {shapes[n]} does not "
                    f"match the model's {v.shape}")
            if not np.isfinite(state[n]).all():
                raise ConfigError(f"parameter {n!r}: non-finite state entries")
        for n, v in own.items():
            v.set_value(state[n])


# ---------------------------------------------------------------------------
# losses

def mean_squared_error(model: Model, clips: np.ndarray, ks: np.ndarray,
                       targets: np.ndarray) -> ad.Var:
    """Mean squared error of model(clip, k) against target over every entry
    of a (B, T, N, D) batch of clips with B steps k, as a (1, 1) Var."""
    return ad.mse([model.forward(ad.const(x), k) for x, k in zip(clips, ks)],
                  targets)


# ---------------------------------------------------------------------------
# gate pathology probe

def gate_gradient_ratio(batch: np.ndarray, cfg: BlockConfig,
                        seed: int = 0) -> float:
    """Gradient norm reaching the global (matrix) branch under a softmax
    gate initialized at (0.97, 0.03), divided by the same norm under
    concat+linear fusion, on the same (B, T, N, D) batch, Gaussian noise
    targets and parameter draw.
    """
    if cfg.variant != "hybrid":
        raise ConfigError("gate_gradient_ratio requires the hybrid variant")
    from dataclasses import replace

    rng = np.random.Generator(np.random.Philox(seed ^ 0x9E3779B9))
    targets = rng.normal(size=np.shape(batch))

    # warm the zero-init gates/head so residual branches carry signal, as a
    # trained backbone would; both twins get identical warm values
    warm_rng = np.random.Generator(np.random.Philox(seed ^ 0x51ED270))
    warm = {
        "head_W": warm_rng.normal(0.0, 1.0 / np.sqrt(cfg.d),
                                  (cfg.d, cfg.d)),
        "adaln_b": [warm_rng.normal(0.0, 0.5, (1, 9 * cfg.d))
                    for _ in range(cfg.depth)],
    }

    norms = []
    for fusion_variant in ("softmax_gate", "concat_mlp"):
        model = Model(replace(cfg, fusion=fusion_variant), seed=seed)
        model.head_W.set_value(warm["head_W"])
        for block, b in zip(model.blocks, warm["adaln_b"]):
            block.adaln_b.set_value(b)
        loss = mean_squared_error(model, batch, np.ones(len(batch), int),
                                  targets)
        wrt = [v for block in model.blocks
               for _, v in ad.named_params(block.global_)]
        norms.append(ad.global_norm(ad.backward(loss, wrt)))
    if norms[0] == 0.0 and norms[1] == 0.0:
        return 1.0
    return norms[0] / norms[1]
