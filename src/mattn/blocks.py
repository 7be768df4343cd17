"""Transformer blocks: spatial + temporal attention with AdaLN-Zero
conditioning, branch fusion for the hybrid variant, and the full
noise-prediction model.

A block applies three gated residual sub-layers to a clip, one (T, N, D)
Var: spatial attention, temporal attention (local / global matrix /
hybrid / full 3D), and a per-token MLP. The timestep embedding modulates
each sub-layer through per-channel (1, D) shift/scale/gate vectors that
broadcast over every frame and token; their producing linear map is
zero-initialized, so every block is the identity at init.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention as at
from . import autodiff as ad
from .core import ConfigError, DimensionError, VideoTokens

FUSION_VARIANTS = ("concat_mlp", "sigmoid_gate", "softmax_gate")
TEMPORAL_VARIANTS = ("local", "global", "hybrid", "full3d")


# ---------------------------------------------------------------------------
# fusion

@dataclass
class FusionMode:
    variant: str
    alpha: ad.Var | None = None          # sigmoid_gate
    logits: ad.Var | None = None         # softmax_gate
    W: ad.Var | None = None              # concat_mlp, (2D, D)
    b: ad.Var | None = None              # concat_mlp, (1, D)
    forced_weights: tuple[float, float] | None = None

    def params(self) -> list[tuple[str, ad.Var]]:
        out = []
        for name in ("alpha", "logits", "W", "b"):
            v = getattr(self, name)
            if v is not None:
                out.append((name, v))
        return out

    def weights(self) -> tuple[float, float]:
        """Current (local, global) mixing weights for the gate variants."""
        if self.forced_weights is not None:
            return self.forced_weights
        if self.variant == "sigmoid_gate":
            s = 1.0 / (1.0 + np.exp(-float(self.alpha.value[0, 0])))
            return (s, 1.0 - s)
        if self.variant == "softmax_gate":
            z = self.logits.value[0]
            e = np.exp(z - z.max())
            w = e / e.sum()
            return (float(w[0]), float(w[1]))
        raise ConfigError("concat_mlp fusion has no scalar weights")


def make_fusion(rng: np.random.Generator, d: int, variant: str,
                init_local_weight: float = 0.97) -> FusionMode:
    if variant == "sigmoid_gate":
        return FusionMode(variant, alpha=ad.param(np.zeros((1, 1)), "alpha"))
    if variant == "softmax_gate":
        logits = np.log([[init_local_weight, 1.0 - init_local_weight]])
        return FusionMode(variant, logits=ad.param(logits, "logits"))
    if variant == "concat_mlp":
        bound = np.sqrt(6.0 / (2 * d))  # fan-in scaled uniform, zero bias
        return FusionMode(
            variant,
            W=ad.param(rng.uniform(-bound, bound, (2 * d, d)), "W"),
            b=ad.param(np.zeros((1, d)), "b"),
        )
    raise ConfigError(f"unknown fusion variant: {variant!r}")


def fuse(e_local: ad.Var, e_global: ad.Var, mode: FusionMode) -> ad.Var:
    if e_local.shape != e_global.shape:
        raise DimensionError(
            f"fusion branch shape mismatch: {e_local.shape} vs "
            f"{e_global.shape}")

    if mode.forced_weights is not None:
        wl, wg = mode.forced_weights
        if (wl, wg) == (1.0, 0.0):
            return e_local
        if (wl, wg) == (0.0, 1.0):
            return e_global
        return ad.add(ad.smul(e_local, wl), ad.smul(e_global, wg))

    if mode.variant == "sigmoid_gate":
        w_local = ad.sigmoid(mode.alpha)
        w_global = ad.sub(ad.const(np.ones((1, 1))), w_local)
    elif mode.variant == "softmax_gate":
        w = ad.softmax_rows(mode.logits)
        w_local = ad.slice_axis(w, -1, 0, 1)
        w_global = ad.slice_axis(w, -1, 1, 2)
    elif mode.variant == "concat_mlp":
        return ad.add(ad.matmul(ad.concat([e_local, e_global], -1), mode.W),
                      mode.b)
    else:
        raise ConfigError(f"unknown fusion variant: {mode.variant!r}")
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
    preset: str = ""

    def __post_init__(self):
        if self.variant not in TEMPORAL_VARIANTS:
            raise ConfigError(f"unknown temporal variant: {self.variant!r}")
        if self.fusion not in FUSION_VARIANTS:
            raise ConfigError(f"unknown fusion variant: {self.fusion!r}")
        if self.depth < 0 or self.d < 1 or self.n < 1:
            raise ConfigError("depth/d/n must be positive")

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


@dataclass
class TimestepEmbedding:
    """Sinusoidal step embedding refined by a 2-layer MLP."""

    W1: ad.Var
    b1: ad.Var
    W2: ad.Var
    b2: ad.Var

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int) -> "TimestepEmbedding":
        s = 1.0 / np.sqrt(dim)
        return cls(
            W1=ad.param(rng.normal(0.0, s, (dim, dim)), "W1"),
            b1=ad.param(np.zeros((1, dim)), "b1"),
            W2=ad.param(rng.normal(0.0, s, (dim, dim)), "W2"),
            b2=ad.param(np.zeros((1, dim)), "b2"),
        )

    def forward(self, k: int) -> ad.Var:
        e = ad.const(sinusoidal_embedding([k], self.W1.shape[0]))
        h = ad.gelu(ad.add(ad.matmul(e, self.W1), self.b1))
        return ad.add(ad.matmul(h, self.W2), self.b2)

    def params(self) -> list[tuple[str, ad.Var]]:
        return [("W1", self.W1), ("b1", self.b1),
                ("W2", self.W2), ("b2", self.b2)]


# ---------------------------------------------------------------------------
# block

@dataclass
class Block:
    cfg: BlockConfig
    adaln_W: ad.Var
    adaln_b: ad.Var
    spatial: at.TokenAttnParams
    temporal_local: at.TokenAttnParams | None
    temporal_global: at.MatrixAttnParams | None
    temporal_full3d: at.TokenAttnParams | None
    fusion: FusionMode | None
    mlp_W1: ad.Var
    mlp_b1: ad.Var
    mlp_W2: ad.Var
    mlp_b2: ad.Var

    @classmethod
    def create(cls, rng: np.random.Generator, cfg: BlockConfig) -> "Block":
        d, dh = cfg.d, cfg.head_dim
        streams = rng.spawn(6)
        s_spatial, s_local, s_global, s_fusion, s_mlp, _ = streams
        temporal_local = temporal_global = temporal_full3d = fusion = None
        if cfg.variant in ("local", "hybrid"):
            temporal_local = at.make_token_attn_params(s_local, d, dh)
        if cfg.variant in ("global", "hybrid"):
            temporal_global = at.make_matrix_attn_params(
                s_global, cfg.n, d, cfg.n_qk, cfg.n_v,
                d_qk=cfg.d_qk, d_v=cfg.d_v,
                heads_m=cfg.heads_m, heads_n=cfg.heads_n, u_norm=cfg.u_norm)
        if cfg.variant == "hybrid":
            fusion = make_fusion(s_fusion, d, cfg.fusion)
        if cfg.variant == "full3d":
            temporal_full3d = at.make_token_attn_params(s_local, d, dh)
        hidden = 4 * d
        sm = 1.0 / np.sqrt(d)
        sh = 1.0 / np.sqrt(hidden)
        return cls(
            cfg=cfg,
            adaln_W=ad.param(np.zeros((d, 9 * d)), "adaln_W"),
            adaln_b=ad.param(np.zeros((1, 9 * d)), "adaln_b"),
            spatial=at.make_token_attn_params(s_spatial, d, dh),
            temporal_local=temporal_local,
            temporal_global=temporal_global,
            temporal_full3d=temporal_full3d,
            fusion=fusion,
            mlp_W1=ad.param(s_mlp.normal(0.0, sm, (d, hidden)), "mlp_W1"),
            mlp_b1=ad.param(np.zeros((1, hidden)), "mlp_b1"),
            mlp_W2=ad.param(s_mlp.normal(0.0, sh, (hidden, d)), "mlp_W2"),
            mlp_b2=ad.param(np.zeros((1, d)), "mlp_b2"),
        )

    def _mods(self, cond: ad.Var) -> list[ad.Var]:
        m = ad.add(ad.matmul(cond, self.adaln_W), self.adaln_b)
        d = self.cfg.d
        return [ad.slice_axis(m, -1, i * d, (i + 1) * d) for i in range(9)]

    def _modulate(self, x: ad.Var, shift: ad.Var, scale: ad.Var) -> ad.Var:
        one = ad.const(np.ones((1, self.cfg.d)))
        return ad.add(ad.mul(ad.layernorm_rows(x), ad.add(one, scale)), shift)

    def _temporal(self, h: ad.Var) -> ad.Var:
        v = self.cfg.variant
        if v == "local":
            return at.local_temporal_attention(h, self.temporal_local)
        if v == "global":
            return at.matrix_attention(h, self.temporal_global)
        if v == "full3d":
            return at.full3d_attention(h, self.temporal_full3d)
        e_local = at.local_temporal_attention(h, self.temporal_local)
        e_global = at.matrix_attention(h, self.temporal_global)
        return fuse(e_local, e_global, self.fusion)

    def forward(self, x: ad.Var, cond: ad.Var) -> ad.Var:
        """One (T, N, D) clip in, one out."""
        (sh1, sc1, g1, sh2, sc2, g2, sh3, sc3, g3) = self._mods(cond)
        # spatial residual
        a = at.spatial_attention(self._modulate(x, sh1, sc1), self.spatial)
        x = ad.add(x, ad.mul(a, g1))
        # temporal residual
        e = self._temporal(self._modulate(x, sh2, sc2))
        x = ad.add(x, ad.mul(e, g2))
        # MLP residual
        h = self._modulate(x, sh3, sc3)
        m = ad.add(ad.matmul(ad.gelu(ad.add(ad.matmul(h, self.mlp_W1),
                                            self.mlp_b1)), self.mlp_W2),
                   self.mlp_b2)
        return ad.add(x, ad.mul(m, g3))

    def params(self) -> list[tuple[str, ad.Var]]:
        out = [("adaln_W", self.adaln_W), ("adaln_b", self.adaln_b)]
        out += [(f"spatial.{n}", v) for n, v in self.spatial.params()]
        if self.temporal_local is not None:
            out += [(f"local.{n}", v) for n, v in self.temporal_local.params()]
        if self.temporal_global is not None:
            out += [(f"global.{n}", v)
                    for n, v in self.temporal_global.params()]
        if self.temporal_full3d is not None:
            out += [(f"full3d.{n}", v)
                    for n, v in self.temporal_full3d.params()]
        if self.fusion is not None:
            out += [(f"fusion.{n}", v) for n, v in self.fusion.params()]
        out += [("mlp_W1", self.mlp_W1), ("mlp_b1", self.mlp_b1),
                ("mlp_W2", self.mlp_W2), ("mlp_b2", self.mlp_b2)]
        return out


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
        self.head_W = ad.param(np.zeros((cfg.d, cfg.d)), "head_W")
        self.head_b = ad.param(np.zeros((1, cfg.d)), "head_b")
        self._pos_spatial = sinusoidal_embedding(np.arange(cfg.n), cfg.d)

    def forward(self, x: ad.Var, k: int) -> ad.Var:
        """Predicted noise for one (T, N, D) clip at diffusion step k."""
        if x.shape[1:] != (self.cfg.n, self.cfg.d):
            raise DimensionError(
                f"clip shape {x.shape} does not match model "
                f"(T, N={self.cfg.n}, D={self.cfg.d})")
        pos_t = sinusoidal_embedding(np.arange(x.shape[0]), self.cfg.d)
        x = ad.add(ad.add(x, ad.const(self._pos_spatial)),
                   ad.const(pos_t[:, None, :]))
        cond = self.timestep.forward(k)
        for block in self.blocks:
            x = block.forward(x, cond)
        return ad.add(ad.matmul(ad.layernorm_rows(x), self.head_W),
                      self.head_b)

    def predict(self, video: VideoTokens, k: int) -> VideoTokens:
        """Array-level inference entry point (no gradient graph)."""
        with ad.no_grad():
            out = self.forward(ad.const(video.to_array()), k)
        return VideoTokens.from_array(out.value)

    def params(self) -> list[tuple[str, ad.Var]]:
        out = [(f"timestep.{n}", v) for n, v in self.timestep.params()]
        for i, block in enumerate(self.blocks):
            out += [(f"block{i}.{n}", v) for n, v in block.params()]
        out += [("head_W", self.head_W), ("head_b", self.head_b)]
        return out

    def param_vars(self) -> list[ad.Var]:
        return [v for _, v in self.params()]

    def num_params(self) -> int:
        return sum(v.value.size for v in self.param_vars())

    def state(self) -> dict[str, np.ndarray]:
        return {n: v.value.copy() for n, v in self.params()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.params())
        missing = set(own) - set(state)
        if missing:
            raise ConfigError(f"missing parameters in state: {sorted(missing)}")
        shapes = {n: np.shape(state[n]) for n in own}
        for n, v in own.items():
            if shapes[n] != v.shape:
                raise ConfigError(
                    f"parameter {n!r}: state shape {shapes[n]} does not "
                    f"match the model's {v.shape}")
        for n, v in own.items():
            v.set_value(state[n])


# ---------------------------------------------------------------------------
# losses

def mean_squared_error(model: Model, clips: list[np.ndarray], ks: list[int],
                       targets: list[np.ndarray]) -> ad.Var:
    """Mean squared error of model(clip, k) against target over every entry
    of every clip, as a (1, 1) Var."""
    total = None
    for x, k, target in zip(clips, ks, targets):
        d = ad.sub(model.forward(ad.const(x), k), ad.const(target))
        term = ad.sum_all(ad.mul(d, d))
        total = term if total is None else ad.add(total, term)
    return ad.smul(total, 1.0 / sum(np.size(t) for t in targets))


# ---------------------------------------------------------------------------
# gate pathology probe

def gate_gradient_ratio(batch: list[VideoTokens], cfg: BlockConfig,
                        seed: int = 0,
                        targets: list[VideoTokens] | None = None) -> float:
    """Gradient norm reaching the global (matrix) branch under a softmax
    gate initialized at (0.97, 0.03), divided by the same norm under
    concat+linear fusion, on the same batch and parameter draw.
    """
    if cfg.variant != "hybrid":
        raise ConfigError("gate_gradient_ratio requires the hybrid variant")
    from dataclasses import replace

    rng = np.random.Generator(np.random.Philox(seed ^ 0x9E3779B9))
    if targets is None:
        targets = [
            VideoTokens.from_array(
                rng.normal(size=(v.T, v.N, v.D))) for v in batch]

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
        loss = mean_squared_error(model, [v.to_array() for v in batch],
                                  [1] * len(batch),
                                  [t.to_array() for t in targets])
        ad.backward(loss)
        sq = 0.0
        for block in model.blocks:
            for _, v in block.temporal_global.params():
                if v.grad is not None:
                    sq += float(np.sum(v.grad ** 2))
        norms.append(np.sqrt(sq))
    if norms[0] == 0.0 and norms[1] == 0.0:
        return 1.0
    return norms[0] / norms[1]
