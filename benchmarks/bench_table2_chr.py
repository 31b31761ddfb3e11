"""Table II — CHR@100 of the attacked category, before/after TAaMR.

Paper reference (Amazon Men, VBPR, Sock(2.122) → Running Shoes(7.888)):

    FGSM   ε=2: 2.131   ε=4: 2.595   ε=8: 2.994   ε=16: 3.500
    PGD    ε=2: 3.654   ε=4: 5.562   ε=8: 6.402   ε=16: 5.931

Expected *shape* on the synthetic substrate (absolute values differ —
our classifier is trained on an 8-class catalog, not ImageNet):

* CHR of the attacked category rises with ε;
* PGD lifts CHR far more than FGSM at matched budgets;
* the semantically similar scenario outperforms the dissimilar one;
* AMR is less affected than VBPR but not immune.

Regenerates the full grid for both datasets and both recommenders and
prints the paper-style table.  The benchmark times one grid cell (a
single FGSM attack + re-scoring), the unit of work the table is made of.
"""

import numpy as np
import pytest

from repro.attacks import FGSM, epsilon_from_255
from repro.experiments import format_table2


@pytest.fixture(scope="module")
def all_grids(men_grids, women_grids):
    return [*men_grids, *women_grids]


def test_table2_chr_after_attack(men_context, all_grids, benchmark):
    epsilons = men_context.config.epsilons_255
    print("\n" + format_table2([row for grid in all_grids for row in grid.rows()], epsilons))

    # Persist the grid rows next to the cache for provenance.
    import os

    from repro.artifacts import write_json

    from conftest import CACHE_DIR

    for name, grids in (("men", all_grids[:2]), ("women", all_grids[2:])):
        write_json(
            os.path.join(CACHE_DIR, f"table2_{name}.json"),
            [row for grid in grids for row in grid.rows()],
        )

    # --- Shape assertions mirroring the paper's discussion of Table II ---
    for grid in all_grids:
        for scenario in grid.scenarios:
            pgd = sorted(
                grid.cells(scenario=scenario, attack_name="PGD"),
                key=lambda o: o.epsilon_255,
            )
            # (1) strong-budget PGD raises the attacked category's CHR
            #     on the undefended model.
            if grid.recommender_name == "VBPR":
                assert pgd[-1].chr_source_after > pgd[-1].chr_source_before, (
                    f"{grid.recommender_name} {scenario.label()}: PGD ε=16 "
                    "did not lift CHR"
                )
            # (2) CHR grows with the budget under PGD.
            assert pgd[-1].chr_source_after >= pgd[0].chr_source_after - 0.5

    # (3) PGD achieves a substantial CHR lift on the undefended model.
    #     (Per-cell FGSM-vs-PGD CHR ordering is noisy even in the paper —
    #     e.g. Maillot→Brassiere on AMR has FGSM 1.990 vs PGD 1.136 — so
    #     the strict ordering claim lives in Table III's success rates.)
    for grid in all_grids:
        if grid.recommender_name != "VBPR":
            continue
        for scenario in grid.scenarios:
            pgd_top = max(
                o.chr_source_after
                for o in grid.cells(scenario=scenario, attack_name="PGD")
            )
            clean = grid.cells(scenario=scenario)[0].chr_source_before
            assert pgd_top > clean, (
                f"{scenario.label()}: best PGD CHR {pgd_top:.2f} did not "
                f"exceed the clean CHR {clean:.2f}"
            )

    # (4) AMR dampens the attack relative to VBPR (mean CHR uplift).
    def mean_uplift(grid):
        return np.mean(
            [o.chr_source_after - o.chr_source_before for o in grid.outcomes]
        )

    by_name = {}
    for grid in all_grids:
        by_name.setdefault(grid.recommender_name, []).append(mean_uplift(grid))
    assert np.mean(by_name["AMR"]) <= np.mean(by_name["VBPR"]) + 0.25

    # --- Benchmark one grid cell: FGSM ε=8 attack + CHR re-evaluation ---
    pipeline = all_grids[0].pipeline
    scenario = all_grids[0].scenarios[0]

    def one_cell():
        attack = FGSM(men_context.classifier, epsilon_from_255(8))
        return pipeline.attack_category(scenario, attack)

    outcome = benchmark(one_cell)
    assert outcome.chr_source_after >= 0.0
