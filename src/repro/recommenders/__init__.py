"""``repro.recommenders`` — BPR-MF, VBPR and AMR plus ranking evaluation."""

from .amr import AMR, AMRConfig
from .base import BPRTripletSampler, Recommender, factor_scores, sigmoid
from .bprmf import BPRMF, BPRMFConfig
from .mostpop import MostPop
from .exposure import catalog_coverage, gini_exposure, item_exposure
from .evaluation import RankingReport, evaluate_ranking, recommendation_rank_of_item
from .vbpr import VBPR, VBPRConfig

__all__ = [
    "Recommender",
    "factor_scores",
    "BPRTripletSampler",
    "sigmoid",
    "BPRMF",
    "MostPop",
    "BPRMFConfig",
    "VBPR",
    "VBPRConfig",
    "AMR",
    "AMRConfig",
    "RankingReport",
    "evaluate_ranking",
    "recommendation_rank_of_item",
    "item_exposure",
    "catalog_coverage",
    "gini_exposure",
]
