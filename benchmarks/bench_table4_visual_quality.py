"""Table IV — average visual quality of the attacked images.

Paper reference (Amazon Men):

    PSNR   FGSM: 41.4 → 37.1 dB as ε grows     PGD: 41.4 → 40.0 dB
    SSIM   FGSM: 0.9926 → 0.9802                PGD: 0.9926 → 0.9908
    PSM    FGSM: 0.0132 → 0.0502                PGD: 0.0328 → 0.2368

Expected shape:

* PSNR decreases and SSIM decreases as ε grows, but both stay in the
  "imperceptible" band (PSNR > 20 dB, SSIM high);
* PSM *increases* with ε and is higher for PGD than FGSM — the
  iterative attack moves layer-e features further, which is exactly why
  it fools the recommender better (the paper's Table III/IV inversion).

The benchmark times the visual-metric evaluation (PSNR + SSIM + PSM)
over one attacked category — the analysis cost of RQ2.
"""

import numpy as np
import pytest

from repro.experiments import format_table4
from repro.metrics import PerceptualSimilarity, batch_psnr, batch_ssim


@pytest.fixture(scope="module")
def grids(men_grids, women_grids):
    return {"men": men_grids[0], "women": women_grids[0]}  # the VBPR grids


def test_table4_visual_quality(men_context, grids, benchmark):
    epsilons = men_context.config.epsilons_255
    for name, grid in grids.items():
        print(f"\n[{name}] " + format_table4(grid.rows(), epsilons))

    for grid in grids.values():
        for attack_name in ("FGSM", "PGD"):
            cells = sorted(
                grid.cells(attack_name=attack_name), key=lambda o: o.epsilon_255
            )
            by_eps = {}
            for outcome in cells:
                by_eps.setdefault(outcome.epsilon_255, []).append(outcome)
            eps_sorted = sorted(by_eps)
            mean_psnr = [
                np.mean([o.visual.psnr for o in by_eps[eps]]) for eps in eps_sorted
            ]
            mean_ssim = [
                np.mean([o.visual.ssim for o in by_eps[eps]]) for eps in eps_sorted
            ]
            mean_psm = [
                np.mean([o.visual.psm for o in by_eps[eps]]) for eps in eps_sorted
            ]
            # (1) distortion grows with ε ...
            assert mean_psnr[0] > mean_psnr[-1]
            assert mean_ssim[0] >= mean_ssim[-1] - 1e-6
            assert mean_psm[-1] >= mean_psm[0]
            # (2) ... but stays in the paper's "imperceptible" bands.
            assert min(mean_psnr) > 20.0
            assert min(mean_ssim) > 0.8

        # (3) PGD distorts features (PSM) at least as much as FGSM
        #     at the largest budget — the Table IV inversion.
        top_eps = max(o.epsilon_255 for o in grid.outcomes)
        psm_fgsm = np.mean(
            [
                o.visual.psm
                for o in grid.cells(attack_name="FGSM")
                if o.epsilon_255 == top_eps
            ]
        )
        psm_pgd = np.mean(
            [
                o.visual.psm
                for o in grid.cells(attack_name="PGD")
                if o.epsilon_255 == top_eps
            ]
        )
        assert psm_pgd >= psm_fgsm * 0.5

    # Benchmark: metric evaluation over one attacked set.
    grid = grids["men"]
    outcome = grid.outcomes[0]
    clean = grid.pipeline.dataset.images[outcome.attacked_item_ids]
    attacked = outcome.adversarial_images
    psm_metric = PerceptualSimilarity(men_context.classifier)

    def evaluate_metrics():
        return (
            float(np.mean(batch_psnr(clean, attacked))),
            float(np.mean(batch_ssim(clean, attacked))),
            float(np.mean(psm_metric(clean, attacked))),
        )

    psnr_value, ssim_value, psm_value = benchmark(evaluate_metrics)
    assert psnr_value > 20.0
    assert 0.0 <= ssim_value <= 1.0
    assert psm_value >= 0.0
