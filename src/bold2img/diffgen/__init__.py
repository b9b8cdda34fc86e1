"""Brain-conditioned toy diffusion generator."""

from .lora import LORA_RANK, add_lora_params, lora_linear
from .loss import diffusion_loss
from .sampling import cfg_combine, cfg_predictor, ddim_indices, ddim_sample
from .schedule import (
    NoiseSchedule,
    bicubic_cdf,
    bicubic_transform,
    diffusion_to_image,
    eps_from_v,
    image_to_diffusion,
    make_schedule,
    offset_noise,
    q_sample,
    sample_timestep_bicubic,
    sample_timestep_uniform,
    v_target,
)
from .unet import (
    NonFiniteActivation,
    UNetConfig,
    create_lora_adapters,
    image_tokens,
    init_image_encoder,
    init_null_tokens,
    init_unet,
    unet_cross_attn_param_names,
    unet_forward,
    unet_linear_param_names,
)

__all__ = [
    "LORA_RANK",
    "add_lora_params",
    "lora_linear",
    "diffusion_loss",
    "cfg_combine",
    "cfg_predictor",
    "ddim_indices",
    "ddim_sample",
    "NoiseSchedule",
    "bicubic_cdf",
    "bicubic_transform",
    "diffusion_to_image",
    "eps_from_v",
    "image_to_diffusion",
    "make_schedule",
    "offset_noise",
    "q_sample",
    "sample_timestep_bicubic",
    "sample_timestep_uniform",
    "v_target",
    "NonFiniteActivation",
    "UNetConfig",
    "create_lora_adapters",
    "image_tokens",
    "init_image_encoder",
    "init_null_tokens",
    "init_unet",
    "unet_cross_attn_param_names",
    "unet_forward",
    "unet_linear_param_names",
]
