"""The empty-cohort contract of the attack grid.

When the classifier assigns no catalog item to a scenario's source
category there is nothing to attack.  The static grid (``run_attack_grid``
and the ``attack_grid`` stage) refuses with a ``ValueError`` naming the
category; the scenario matrix records the scenario as skipped and still
saves every cell with the other scenarios' rows.

The catalog is forged in the ``features`` stage: items keep their
ground-truth categories, except that every ``sock`` (the source of the
men paper scenarios) is reassigned to ``sandal``.
"""

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.core import make_scenario
from repro.experiments import (
    StageRunner,
    build_context,
    clear_context_registry,
    matrix,
    men_config,
    run_attack_grid,
    stages,
)
from repro.experiments.matrix import MatrixConfig, MatrixRunner, cell_name

CONFIG = men_config(
    scale=0.002,
    image_size=16,
    seed=0,
    classifier_epochs=2,
    recommender_epochs=2,
    amr_pretrain_epochs=1,
    cutoff=10,
    epsilons_255=(8.0,),
)
EMPTY = "sock"


def forged_features(results):
    stages._build_features(results)
    registry = results.dataset.registry
    classes = np.array(results.dataset.item_categories, dtype=np.int64)
    classes[classes == registry.by_name(EMPTY).category_id] = registry.by_name(
        "sandal"
    ).category_id
    results.item_classes = classes


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A store whose ``features`` artifact assigns no item to ``sock``."""
    store = ArtifactStore(str(tmp_path_factory.mktemp("forged-store")))
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(stages._BUILDERS, "features", forged_features)
        results, _ = StageRunner(CONFIG, store=store).run(stages=["clean_scores"])
    registry = results.dataset.registry
    assert not np.any(results.item_classes == registry.by_name(EMPTY).category_id)
    return store


def test_run_attack_grid_names_the_empty_category(store):
    clear_context_registry()
    try:
        context = build_context(CONFIG, cache_dir=store.root)
        with pytest.raises(ValueError, match=f"source category '{EMPTY}'"):
            run_attack_grid(context, "VBPR")
    finally:
        clear_context_registry()


def test_attack_grid_stage_names_the_empty_category(store):
    with pytest.raises(ValueError, match=f"source category '{EMPTY}'"):
        StageRunner(CONFIG, store=store).run(stages=["attack_grid"])


def test_matrix_skips_the_scenario_and_saves_every_cell(store, monkeypatch):
    monkeypatch.setattr(
        matrix,
        "paper_scenarios",
        lambda name, registry: [
            make_scenario(registry, EMPTY, "running_shoe"),
            make_scenario(registry, "jeans", "running_shoe"),
        ],
    )
    config = MatrixConfig(
        base=CONFIG,
        attacks=("FGSM",),
        defenses=("none", "detector"),
        recommenders=("VBPR", "BPRMF"),
    )
    cells = {
        cell_name(defense, "FGSM", rec)
        for defense in config.defenses
        for rec in config.recommenders
    }
    skipped = {defense: [f"{EMPTY}->running_shoe"] for defense in config.defenses}

    results, manifest = MatrixRunner(config, store=store).run()
    assert manifest.skipped_scenarios == skipped
    assert set(manifest.cells) == cells and cells <= set(manifest.built)
    for defense in config.defenses:
        for rec in config.recommenders:
            rows = results.select(defense, "FGSM", rec)
            assert [row["source"] for row in rows] == ["jeans"]

    # The skip is stored with the cells: a warm rerun reports it again.
    warm, warm_manifest = MatrixRunner(config, store=store).run()
    assert warm_manifest.built == []
    assert warm_manifest.skipped_scenarios == skipped
    assert warm.rows == results.rows
