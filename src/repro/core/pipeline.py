"""TAaMR orchestration — the paper's end-to-end attack pipeline (Fig. 1).

Flow: trained classifier ``F`` → layer-e features → trained multimedia
recommender → clean CHR@N per category → targeted attack on a source
category's images → feature re-extraction → re-scoring → post-attack
CHR@N, targeted success rate and visual-quality metrics.

The pipeline never retrains the recommender after the attack: TAaMR is a
prediction-time attack — the adversary swaps product images and the
deployed system recomputes features and scores, exactly as modelled by
``VBPR.score_all(features=...)``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..attacks.base import AttackResult, GradientAttack
from ..attacks.ladder import LadderCell
from ..data.datasets import MultimediaDataset
from ..features.extractor import FeatureExtractor
from ..metrics import batch_psnr, batch_ssim, psm_from_features, ssim_reference
from ..recommenders.evaluation import recommendation_rank_of_item
from ..recommenders.vbpr import VBPR
from ..telemetry import span
from .chr import category_hit_ratio, chr_report
from .scenarios import AttackScenario


def invoke_attack(
    attack,
    images: np.ndarray,
    target_class: int,
    original_predictions: Optional[np.ndarray] = None,
) -> AttackResult:
    """Run ``attack`` with the richest signature it supports.

    Gradient attacks and NES accept precomputed clean predictions
    (saving one clean forward over the cohort); CW only takes
    ``(images, target_class)``.  Dispatch is by signature so any
    attack exposing an ``attack()`` method can ride the grid.
    """
    kwargs = {}
    if (
        original_predictions is not None
        and "original_predictions" in inspect.signature(attack.attack).parameters
    ):
        kwargs["original_predictions"] = original_predictions
    return attack.attack(images, target_class=target_class, **kwargs)


@dataclass
class CatalogState:
    """Precomputed catalog-wide state a pipeline can be warm-started from.

    Produced by the ``features`` / ``clean_scores`` stages of the
    experiment DAG (or by a previous pipeline) so a new
    :class:`TAaMRPipeline` skips the full-catalog classifier pass and
    the clean scoring GEMM in ``__init__``.
    """

    item_classes: np.ndarray  # classifier-assigned classes, (|I|,)
    raw_features: np.ndarray  # un-standardised layer-e features, (|I|, D)
    features: Optional[np.ndarray] = None  # standardised; derived when None
    clean_scores: Optional[np.ndarray] = None  # (|U|, |I|); recomputed when None


@dataclass
class VisualQuality:
    """Mean visual-distortion metrics of an attacked image set (Table IV)."""

    psnr: float
    ssim: float
    psm: float

    def as_dict(self) -> Dict[str, float]:
        return {"PSNR": self.psnr, "SSIM": self.ssim, "PSM": self.psm}


def cell_visuals(
    cells: Sequence[LadderCell], clean_images: np.ndarray, clean_raw: np.ndarray
) -> List[VisualQuality]:
    """Each cell's mean PSNR / SSIM / PSM against its clean cohort.

    The triple depends only on the cohort and the cell, so it is
    memoised in ``cell.extras["visual"]``: every recommender measuring
    the same cells (VBPR, AMR, the BPR-MF control) reuses the first
    one's numbers.  The cohort's SSIM window statistics are computed
    once per call, and only when some cell still lacks its triple.
    """
    missing = [cell for cell in cells if "visual" not in cell.extras]
    if missing:
        reference = ssim_reference(clean_images)
        for cell in missing:
            adversarial = cell.result.adversarial_images
            with span("pipeline.visual_metrics"):
                cell.extras["visual"] = VisualQuality(
                    psnr=float(np.mean(batch_psnr(clean_images, adversarial))),
                    ssim=float(
                        np.mean(batch_ssim(clean_images, adversarial, reference=reference))
                    ),
                    psm=float(np.mean(psm_from_features(clean_raw, cell.raw_features))),
                )
    return [cell.extras["visual"] for cell in cells]


@dataclass
class AttackOutcome:
    """Everything Tables II–IV and Fig. 2 need about one attack run."""

    scenario: AttackScenario
    attack_name: str
    epsilon_255: float
    chr_source_before: float  # percent, clean model (the "Sock(2.122)" header)
    chr_target_before: float  # percent, clean model (the "Running Shoes(7.888)")
    chr_source_after: float  # percent, post-attack (the table cell)
    success_rate: float  # Table III cell (fraction in [0, 1])
    visual: VisualQuality
    attacked_item_ids: np.ndarray
    adversarial_images: np.ndarray
    scores_after: Optional[np.ndarray] = field(repr=False, default=None)
    #: Execution accounting from the underlying AttackResult (iteration
    #: counts, forward/backward passes, ladder early-exit steps).
    attack_metadata: Dict[str, object] = field(repr=False, default_factory=dict)

    @property
    def chr_uplift(self) -> float:
        """Multiplicative CHR increase of the attacked category."""
        if self.chr_source_before == 0:
            return float("inf") if self.chr_source_after > 0 else 1.0
        return self.chr_source_after / self.chr_source_before


class FeatureScratch:
    """A reusable ``features_after`` buffer with dirty-row restore.

    The per-cell path copies the full clean feature matrix for every
    grid cell just to overwrite a handful of rows.  One scratch instance
    amortises that to a single copy: before each use the previously
    dirtied rows are restored from the clean matrix, then the new rows
    are staged.  Sharable across pipelines of the same experiment (their
    ``clean_features`` are the same standardised matrix).
    """

    __slots__ = ("_clean", "_buffer", "_dirty")

    def __init__(self, clean_features: np.ndarray) -> None:
        self._clean = clean_features
        self._buffer = clean_features.copy()
        self._dirty: Optional[np.ndarray] = None

    def with_rows(self, item_ids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The clean matrix with ``rows`` staged at ``item_ids``.

        The returned array is the shared buffer — valid until the next
        ``with_rows`` call; consumers must not hold on to it.
        """
        if self._dirty is not None:
            self._buffer[self._dirty] = self._clean[self._dirty]
        self._buffer[item_ids] = rows
        self._dirty = item_ids
        return self._buffer


@dataclass
class ItemReport:
    """Fig. 2-style per-item view: probability and rank before/after."""

    item_id: int
    source_probability_before: float
    target_probability_before: float
    source_probability_after: float
    target_probability_after: float
    mean_rank_before: float
    mean_rank_after: float
    median_rank_before: float
    median_rank_after: float


class TAaMRPipeline:
    """Bundles dataset, extractor and recommender behind the attack API.

    Parameters
    ----------
    dataset:
        The multimedia dataset under attack.
    extractor:
        Fitted :class:`FeatureExtractor` whose features trained the
        recommender.
    recommender:
        A fitted VBPR-family model (VBPR or AMR) — anything whose
        ``score_all`` accepts replacement features.
    cutoff:
        N of CHR@N and of the recommendation lists (paper: 100).
    precomputed:
        Optional :class:`CatalogState` from the artifact store (or an
        earlier pipeline); when given, the catalog classifier pass and
        optionally the clean scoring are reused instead of recomputed.
    """

    def __init__(
        self,
        dataset: MultimediaDataset,
        extractor: FeatureExtractor,
        recommender: VBPR,
        cutoff: int = 100,
        precomputed: Optional[CatalogState] = None,
    ) -> None:
        if not isinstance(recommender, VBPR):
            raise TypeError("TAaMR requires a visual recommender (VBPR or AMR)")
        if not recommender.is_fitted:
            raise RuntimeError("recommender must be fitted before building the pipeline")
        if not extractor.is_fitted:
            raise RuntimeError("extractor must be fitted before building the pipeline")
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.dataset = dataset
        self.extractor = extractor
        self.recommender = recommender
        self.cutoff = min(cutoff, dataset.num_items)

        # Definition 5 uses classifier-assigned classes: I_c = {i | F(x_i) = c}.
        # One trunk pass over the catalog yields both the classes and the
        # raw layer-e features; the raw features are kept so PSM never has
        # to re-extract the clean side, and are standardised once for the
        # recommender.  A CatalogState (e.g. loaded from the artifact
        # store) replaces that pass entirely.
        if precomputed is not None:
            item_classes = np.asarray(precomputed.item_classes, dtype=np.int64)
            raw = np.asarray(precomputed.raw_features, dtype=np.float64)
            if item_classes.shape != (dataset.num_items,):
                raise ValueError("precomputed item_classes do not cover the catalog")
            if raw.ndim != 2 or raw.shape[0] != dataset.num_items:
                raise ValueError("precomputed raw_features do not cover the catalog")
            self.item_classes = item_classes
            self.clean_raw_features = raw
            self.clean_features = (
                np.asarray(precomputed.features, dtype=np.float64)
                if precomputed.features is not None
                else extractor.transform_raw_features(raw)
            )
        else:
            self.item_classes, self.clean_raw_features = extractor.model.predict_with_features(
                dataset.images, batch_size=extractor.batch_size
            )
            self.clean_features = extractor.transform_raw_features(self.clean_raw_features)
        if precomputed is not None and precomputed.clean_scores is not None:
            scores = np.asarray(precomputed.clean_scores, dtype=np.float64)
            if scores.shape != (dataset.num_users, dataset.num_items):
                raise ValueError("precomputed clean_scores have the wrong shape")
            self.clean_scores = scores
        else:
            self.clean_scores = recommender.score_all(features=self.clean_features)
        self.clean_top_n = recommender.top_n(
            self.cutoff, feedback=dataset.feedback, scores=self.clean_scores
        )
        self._category_items_cache: Dict[str, np.ndarray] = {}
        self._category_items_for = self.item_classes

    # ------------------------------------------------------------------ #
    # Clean-model views
    # ------------------------------------------------------------------ #
    def clean_chr_report(self) -> Dict[str, float]:
        """CHR@N percentage per category on the clean model."""
        return chr_report(self.clean_top_n, self.item_classes, self.dataset.registry.names)

    def category_items(self, category_name: str) -> np.ndarray:
        """I_c per Definition 5 (classifier-predicted membership).

        Memoised per category; the cache resets if ``item_classes`` is
        replaced (tests forge alternative assignments that way).
        """
        if self._category_items_for is not self.item_classes:
            self._category_items_cache.clear()
            self._category_items_for = self.item_classes
        cached = self._category_items_cache.get(category_name)
        if cached is None:
            class_id = self.dataset.registry.by_name(category_name).category_id
            cached = np.flatnonzero(self.item_classes == class_id)
            self._category_items_cache[category_name] = cached
        return cached

    def _chr_percent_of_items(self, item_ids: np.ndarray, top_n: np.ndarray) -> float:
        return 100.0 * category_hit_ratio(top_n, item_ids)

    # ------------------------------------------------------------------ #
    # The attack
    # ------------------------------------------------------------------ #
    def attack_category(
        self,
        scenario: AttackScenario,
        attack: GradientAttack,
        attack_name: Optional[str] = None,
    ) -> AttackOutcome:
        """Run one TAaMR attack and measure its effect end to end."""
        registry = self.dataset.registry
        target_class = registry.by_name(scenario.target).category_id
        source_items = self.category_items(scenario.source)
        if source_items.size == 0:
            raise ValueError(
                f"classifier assigns no items to source category '{scenario.source}'"
            )
        target_items = self.category_items(scenario.target)

        clean_images = self.dataset.images[source_items]
        # The catalog was classified once at construction; slicing those
        # predictions saves the attack one full clean forward pass.
        with span(
            "pipeline.attack",
            attack=attack_name or type(attack).__name__,
            items=int(source_items.size),
        ):
            result: AttackResult = invoke_attack(
                attack,
                clean_images,
                target_class,
                original_predictions=self.item_classes[source_items],
            )

        # The deployed system re-extracts features from the swapped images.
        # One extraction serves both the recommender (standardised) and the
        # PSM metric (raw); the clean side comes from the cached catalog
        # features instead of a second forward pass.
        with span("pipeline.reextract", items=int(source_items.size)):
            adversarial_raw = self.extractor.model.extract_features(
                result.adversarial_images, batch_size=self.extractor.batch_size
            )
        with span("pipeline.rescore"):
            features_after = self.clean_features.copy()
            features_after[source_items] = self.extractor.transform_raw_features(
                adversarial_raw
            )
            scores_after = self.recommender.score_all(features=features_after)
            top_after = self.recommender.top_n(
                self.cutoff, feedback=self.dataset.feedback, scores=scores_after
            )

        with span("pipeline.visual_metrics"):
            visual = VisualQuality(
                psnr=float(np.mean(batch_psnr(clean_images, result.adversarial_images))),
                ssim=float(np.mean(batch_ssim(clean_images, result.adversarial_images))),
                psm=float(
                    np.mean(
                        psm_from_features(
                            self.clean_raw_features[source_items], adversarial_raw
                        )
                    )
                ),
            )

        return AttackOutcome(
            scenario=scenario,
            attack_name=attack_name or type(attack).__name__,
            epsilon_255=attack.epsilon * 255.0,
            chr_source_before=self._chr_percent_of_items(source_items, self.clean_top_n),
            chr_target_before=self._chr_percent_of_items(target_items, self.clean_top_n),
            chr_source_after=self._chr_percent_of_items(source_items, top_after),
            success_rate=result.success_rate(),
            visual=visual,
            attacked_item_ids=source_items,
            adversarial_images=result.adversarial_images,
            scores_after=scores_after,
            attack_metadata=dict(result.metadata),
        )

    # ------------------------------------------------------------------ #
    # Ladder cells → outcomes (the amortised grid path)
    # ------------------------------------------------------------------ #
    def outcomes_from_cells(
        self,
        scenario: AttackScenario,
        attack_name: str,
        cells: Sequence[LadderCell],
        scratch: FeatureScratch,
    ) -> List[AttackOutcome]:
        """Measure precomputed :class:`~repro.attacks.ladder.LadderCell`s.

        The attack, the adversarial-feature extraction and (memoised on
        the cells) the visual-quality metrics are recommender-independent,
        so a grid driver runs the ladder once per (scenario, attack) and
        calls this per recommender — only the re-scoring GEMM and CHR
        bookkeeping run per recommender.  ``scratch`` (over this
        pipeline's ``clean_features``) shares the ``features_after``
        buffer across cells instead of copying the full clean matrix per
        cell.
        """
        source_items = self.category_items(scenario.source)
        if source_items.size == 0:
            raise ValueError(
                f"classifier assigns no items to source category '{scenario.source}'"
            )
        if any(cell.result.num_images != source_items.size for cell in cells):
            raise ValueError("ladder cell does not cover the scenario's source cohort")
        target_items = self.category_items(scenario.target)
        visuals = cell_visuals(
            cells,
            self.dataset.images[source_items],
            self.clean_raw_features[source_items],
        )
        chr_source_before = self._chr_percent_of_items(source_items, self.clean_top_n)
        chr_target_before = self._chr_percent_of_items(target_items, self.clean_top_n)

        outcomes: List[AttackOutcome] = []
        for cell, visual in zip(cells, visuals):
            result = cell.result
            # The standardised rows depend only on the shared extractor,
            # so the second recommender's pipeline reuses the memo.
            rows = cell.extras.get("features_std")
            if rows is None:
                rows = self.extractor.transform_raw_features(cell.raw_features)
                cell.extras["features_std"] = rows
            with span("pipeline.rescore"):
                features_after = scratch.with_rows(source_items, rows)
                scores_after = self.recommender.score_all(features=features_after)
                top_after = self.recommender.top_n(
                    self.cutoff, feedback=self.dataset.feedback, scores=scores_after
                )
            outcomes.append(
                AttackOutcome(
                    scenario=scenario,
                    attack_name=attack_name,
                    epsilon_255=cell.epsilon * 255.0,
                    chr_source_before=chr_source_before,
                    chr_target_before=chr_target_before,
                    chr_source_after=self._chr_percent_of_items(source_items, top_after),
                    success_rate=result.success_rate(),
                    visual=visual,
                    attacked_item_ids=source_items,
                    adversarial_images=result.adversarial_images,
                    scores_after=scores_after,
                    attack_metadata=dict(result.metadata),
                )
            )
        return outcomes

    # ------------------------------------------------------------------ #
    # Fig. 2: per-item inspection
    # ------------------------------------------------------------------ #
    def item_report(self, outcome: AttackOutcome, item_id: int) -> ItemReport:
        """Probability and recommendation-rank change of one attacked item."""
        position = np.flatnonzero(outcome.attacked_item_ids == item_id)
        if position.size == 0:
            raise ValueError(f"item {item_id} was not attacked in this outcome")
        registry = self.dataset.registry
        source_class = registry.by_name(outcome.scenario.source).category_id
        target_class = registry.by_name(outcome.scenario.target).category_id

        model = self.extractor.model
        probs_before = model.predict_proba(self.dataset.images[item_id][None])[0]
        adversarial = outcome.adversarial_images[position[0]]
        probs_after = model.predict_proba(adversarial[None])[0]

        ranks_before = recommendation_rank_of_item(
            self.clean_scores, self.dataset.feedback, item_id
        )
        ranks_after = recommendation_rank_of_item(
            outcome.scores_after, self.dataset.feedback, item_id
        )
        valid_before = ranks_before[ranks_before > 0]
        valid_after = ranks_after[ranks_after > 0]

        return ItemReport(
            item_id=item_id,
            source_probability_before=float(probs_before[source_class]),
            target_probability_before=float(probs_before[target_class]),
            source_probability_after=float(probs_after[source_class]),
            target_probability_after=float(probs_after[target_class]),
            mean_rank_before=float(valid_before.mean()) if valid_before.size else 0.0,
            mean_rank_after=float(valid_after.mean()) if valid_after.size else 0.0,
            median_rank_before=float(np.median(valid_before)) if valid_before.size else 0.0,
            median_rank_after=float(np.median(valid_after)) if valid_after.size else 0.0,
        )
