"""``repro.core`` — TAaMR: CHR metric, attack scenarios and pipeline."""

from .analysis import ascii_curve, category_shift, chr_curve, success_curve
from .chr import (
    category_hit_ratio,
    chr_by_category,
    chr_percent,
    chr_report,
    weighted_category_hit_ratio,
)
from .pipeline import (
    AttackOutcome,
    CatalogState,
    CohortReferences,
    FeatureScratch,
    ItemReport,
    TAaMRPipeline,
    VisualQuality,
    invoke_attack,
)
from .untargeted import UntargetedOutcome, run_untargeted_attack
from .scenarios import AttackScenario, make_scenario, paper_scenarios, select_scenarios

__all__ = [
    "category_hit_ratio",
    "chr_percent",
    "chr_by_category",
    "chr_report",
    "AttackScenario",
    "make_scenario",
    "select_scenarios",
    "paper_scenarios",
    "TAaMRPipeline",
    "CatalogState",
    "CohortReferences",
    "FeatureScratch",
    "AttackOutcome",
    "invoke_attack",
    "ItemReport",
    "VisualQuality",
    "UntargetedOutcome",
    "run_untargeted_attack",
    "weighted_category_hit_ratio",
    "chr_curve",
    "success_curve",
    "category_shift",
    "ascii_curve",
]
