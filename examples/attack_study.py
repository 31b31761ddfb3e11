"""Attack study: the full Tables II/III grid on both recommenders.

Reproduces the paper's experimental protocol on the Amazon-Men-like
dataset: both scenarios (semantically similar and dissimilar), both
attacks (FGSM, PGD), all budgets ε ∈ {2, 4, 8, 16}/255, against both
VBPR and the adversarially-trained AMR.

Run:  python examples/attack_study.py [--women]
"""

import argparse

from repro.experiments import (
    build_context,
    format_table2,
    format_table3,
    men_config,
    run_attack_grid,
    women_config,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--women", action="store_true", help="use the Amazon-Women-like dataset"
    )
    parser.add_argument(
        "--scale", type=float, default=0.006, help="dataset scale factor"
    )
    args = parser.parse_args()

    make_config = women_config if args.women else men_config
    config = make_config(scale=args.scale)
    print("Training experiment context...")
    context = build_context(config, verbose=True)

    grids = []
    for model_name in ("VBPR", "AMR"):
        print(f"Running attack grid against {model_name}...")
        grids.append(run_attack_grid(context, model_name))

    print()
    print(format_table2([row for grid in grids for row in grid.rows()], config.epsilons_255))
    print()
    print(format_table3(grids[0].rows(), config.epsilons_255))

    # Headline comparison: mean CHR uplift per model.
    print("\nMean CHR uplift of the attacked category (percentage points):")
    for grid in grids:
        uplift = sum(
            o.chr_source_after - o.chr_source_before for o in grid.outcomes
        ) / len(grid.outcomes)
        print(f"  {grid.recommender_name:5s} {uplift:+.3f}")


if __name__ == "__main__":
    main()
