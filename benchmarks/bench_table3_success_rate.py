"""Table III — targeted misclassification success probability.

Paper reference (Amazon Men, Sock → Running Shoes):

    FGSM   ε=2:  9.32%   ε=4: 17.02%   ε=8: 22.14%   ε=16: 21.68%
    PGD    ε=2: 68.69%   ε=4: 98.37%   ε=8: 99.92%   ε=16: 99.84%

Expected shape: success grows with ε and saturates; PGD dominates FGSM
by a wide margin at every budget.  On the synthetic substrate the curve
is shifted about one ε-step right (our 8-class CNN has larger margins
than ImageNet ResNet50 — see DESIGN.md), but the ordering holds.

The benchmark times one PGD-10 attack over the source category, the
dominant cost of the grid.
"""

import pytest

from repro.attacks import PGD, epsilon_from_255
from repro.experiments import format_table3


@pytest.fixture(scope="module")
def grids(men_grids, women_grids):
    return [men_grids[0], women_grids[0]]  # the VBPR grids


def test_table3_attack_success_probability(men_context, grids, benchmark):
    epsilons = men_context.config.epsilons_255
    print("\n" + format_table3([row for grid in grids for row in grid.rows()], epsilons))

    for grid in grids:
        for scenario in grid.scenarios:
            fgsm = sorted(
                grid.cells(scenario=scenario, attack_name="FGSM"),
                key=lambda o: o.epsilon_255,
            )
            pgd = sorted(
                grid.cells(scenario=scenario, attack_name="PGD"),
                key=lambda o: o.epsilon_255,
            )
            # (1) PGD >= FGSM at every matched budget (the paper's headline).
            for cell_fgsm, cell_pgd in zip(fgsm, pgd):
                assert cell_pgd.success_rate >= cell_fgsm.success_rate - 0.05, (
                    f"{scenario.label()} ε={cell_pgd.epsilon_255}: "
                    "FGSM beat PGD, contradicting Table III"
                )
            # (2) success grows with the budget (PGD).
            assert pgd[-1].success_rate >= pgd[0].success_rate
            # (3) the largest budget (nearly) always succeeds under PGD.
            assert pgd[-1].success_rate > 0.8

    # Benchmark: one PGD-10 attack on the source category images.
    pipeline = grids[0].pipeline
    source_items = pipeline.category_items(grids[0].scenarios[0].source)
    images = pipeline.dataset.images[source_items]
    target = pipeline.dataset.registry.by_name(grids[0].scenarios[0].target).category_id

    def one_pgd_attack():
        attack = PGD(men_context.classifier, epsilon_from_255(8), num_steps=10, seed=0)
        return attack.attack(images, target_class=target)

    result = benchmark(one_pgd_attack)
    assert result.num_images == images.shape[0]
