"""``repro.metrics`` — visual quality metrics of Table IV (PSNR, SSIM, PSM)."""

from .psm import PerceptualSimilarity, psm_from_features
from .psnr import batch_psnr, mse, psnr
from .ssim import SSIMReference, batch_ssim, ssim, ssim_reference

__all__ = [
    "mse",
    "psnr",
    "batch_psnr",
    "ssim",
    "batch_ssim",
    "ssim_reference",
    "SSIMReference",
    "PerceptualSimilarity",
    "psm_from_features",
]
