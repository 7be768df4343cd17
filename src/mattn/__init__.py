"""Frame-level matrix attention, token attention variants, and a small
noise-prediction diffusion stack on top of a tape-based autodiff core.

Everything is float64 numpy with counter-based (Philox) RNG streams, so
all results are reproducible bit for bit from a seed.
"""
from .core import (ConfigError, DimensionError, NumericError, Mat,
                   VideoTokens, count_kernels)
from .attention import (MatrixAttnParams, MatrixLinear, TokenAttnParams,
                        full3d_attention, local_temporal_attention,
                        make_matrix_attn_params, make_token_attn_params,
                        matrix_attention, spatial_attention)
from .blocks import Block, BlockConfig, Model, gate_gradient_ratio
from .diffusion import (NoiseSchedule, SamplerConfig, TrainConfig,
                        make_schedule, nm_loss, reverse_step, sample, train)
from .oracle import run_oracle_suite

__all__ = [
    "ConfigError", "DimensionError", "NumericError", "Mat", "VideoTokens",
    "count_kernels", "MatrixAttnParams", "MatrixLinear", "TokenAttnParams",
    "full3d_attention", "local_temporal_attention",
    "make_matrix_attn_params", "make_token_attn_params", "matrix_attention",
    "spatial_attention", "Block", "BlockConfig",
    "Model", "gate_gradient_ratio", "NoiseSchedule", "SamplerConfig",
    "TrainConfig", "make_schedule", "nm_loss", "reverse_step", "sample",
    "train", "run_oracle_suite",
]

__version__ = "0.1.0"
