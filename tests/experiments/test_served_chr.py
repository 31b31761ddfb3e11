"""Offline CHR and served CHR are one measurement.

CHR@N (Definition 5) is computed offline over ``top_n`` of the
re-scored catalog, and by a serving fleet over the lists it serves; the
two rankings come from independent code (``score_all`` against the
fleet's block scoring over its feature overlay).  Here one grid cell of
the tiny grid fixture is pushed into a process fleet that was
warm-started from the stored clean scores: its standardised adversarial
rows for the source cohort, as a deployed catalog would receive them.
Every user is then served through ``recommend`` (one RPC per user) and
``recommend_batch``.  Each served list must equal the offline ``top_n``
of that cell, and the source CHR of the served lists must equal the
cell's ``chr_source_after`` exactly.  Slot counts are integers, so equal
lists give equal CHR; a list that differs is reported with the score
gap of the items it swaps, never settled in the test's favour.
"""

import numpy as np
import pytest

from repro.core import AttackScenario, category_hit_ratio
from repro.experiments import build_context, men_config
from repro.experiments.runner import Column, Craft, grid_outcomes, pipeline_measures
from repro.serving import ShardedService
from tests.experiments.test_ladder_grid import TINY

RECOMMENDERS = ("VBPR", "AMR")
ATTACKS = ("FGSM", "PGD")
#: The fixture's most recommended class, so the attack moves many slots
#: (48.9% of them before the attack, about half that after at ε = 8).
SCENARIO = AttackScenario("running_shoe", "sock", semantically_similar=False)
EPSILON_255 = 8.0


@pytest.fixture(scope="module")
def context():
    return build_context(men_config(**TINY))


@pytest.fixture(scope="module")
def cells(context):
    """``{(attack, recommender): (pipeline, outcome, standardised rows)}``."""
    config = context.config
    pipelines = context.pipelines(RECOMMENDERS, config.cutoff)

    def with_rows(measure):
        def run(scenario, attack_name, ladder_cells):
            outcomes = measure(scenario, attack_name, ladder_cells)
            # outcomes_from_cells keeps each cell's standardised rows.
            return [
                (outcome, cell.extras["features_std"])
                for outcome, cell in zip(outcomes, ladder_cells)
            ]

        return run

    column = Column(
        {name: Craft(context.classifier, name, context.item_classes) for name in ATTACKS},
        context.item_classes,
        {name: with_rows(m) for name, m in pipeline_measures(pipelines).items()},
    )
    [(results, skipped)] = grid_outcomes(
        [column],
        context.dataset,
        [SCENARIO],
        (EPSILON_255,),
        config.pgd_steps,
        config.seed,
        config.ladder_mode,
    )
    assert skipped == []
    found = {}
    for (attack, recommender), pairs in results.items():
        [(outcome, rows)] = pairs
        found[attack, recommender] = (pipelines[recommender], outcome, rows)
    return found


def _mismatches(served: np.ndarray, expected: np.ndarray, scores: np.ndarray):
    """One line per user whose served list differs, with the score gap."""
    lines = []
    for user in np.flatnonzero((served != expected).any(axis=1)).tolist():
        row = scores[user]
        gap = float(np.abs(row[served[user]] - row[expected[user]]).max())
        lines.append(
            f"user {user}: served {served[user].tolist()} vs offline "
            f"{expected[user].tolist()} (largest score gap {gap:.3g})"
        )
    return lines


@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("attack", ATTACKS)
@pytest.mark.parametrize("recommender", RECOMMENDERS)
def test_served_lists_and_chr_equal_offline(cells, recommender, attack, num_shards):
    pipeline, outcome, rows = cells[attack, recommender]
    dataset = pipeline.dataset
    source_items = outcome.attacked_item_ids
    np.testing.assert_array_equal(source_items, pipeline.category_items(SCENARIO.source))
    expected = pipeline.recommender.top_n(
        pipeline.cutoff, feedback=dataset.feedback, scores=outcome.scores_after
    )
    assert outcome.chr_source_after != outcome.chr_source_before  # the push moves lists
    users = np.arange(dataset.num_users)
    service = ShardedService.build(
        pipeline.recommender,
        num_shards,
        backend="process",
        feedback=dataset.feedback,
        features=pipeline.clean_features,
        item_classes=pipeline.item_classes,
        class_names=dataset.registry.names,
        n=pipeline.cutoff,
        monitor_window=dataset.num_users,
    )
    try:
        assert service.warm_start(pipeline.clean_scores) == dataset.num_users
        report = service.push_item_features(source_items, rows)
        assert report.scores_changed and report.num_invalidated > 0
        served = {"recommend": np.stack([service.recommend(user) for user in users])}
        monitors = [shard["monitor"] for shard in service.stats()["per_shard"]]
        served["recommend_batch"] = service.recommend_batch(users)
    finally:
        service.close()

    for path, lists in served.items():
        lines = _mismatches(lists, expected, outcome.scores_after)
        assert not lines, f"{path}: {len(lines)} list(s) differ\n" + "\n".join(lines)
        assert 100.0 * category_hit_ratio(lists, source_items) == outcome.chr_source_after
    # The fleet's own monitor saw exactly the recommend pass: every user
    # once, the offline cell's source slots.
    source_class = dataset.registry.by_name(SCENARIO.source).category_id
    assert sum(monitor["observed"] for monitor in monitors) == dataset.num_users
    assert sum(monitor["counts"][source_class] for monitor in monitors) == int(
        np.isin(expected, source_items).sum()
    )
