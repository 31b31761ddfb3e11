"""Shared fixtures for the benchmark suite.

All table benchmarks reproduce the paper's evaluation on one trained
system per dataset.  Training is expensive on CPU, so the context is

* built once per pytest session (in-process registry), and
* cached to ``benchmarks/.cache`` on disk, so a second
  ``pytest benchmarks/`` run skips classifier/recommender training.

Tables II, III and IV read one attack grid per dataset: the
``men_grids`` / ``women_grids`` fixtures run it once per session for
VBPR and AMR together, as the paper derives all three tables from one
set of attack executions.

Scale knobs live here: raise ``BENCH_SCALE`` for results closer to the
paper's statistics (at proportional cost).
"""

import os

import pytest

from repro.experiments import build_context, men_config, run_attack_grids, women_config

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.006"))
CACHE_DIR = os.path.join(os.path.dirname(__file__), ".cache")

MEN_CONFIG = men_config(scale=BENCH_SCALE)
WOMEN_CONFIG = women_config(scale=BENCH_SCALE)


@pytest.fixture(scope="session")
def men_context():
    """Trained Amazon-Men-like system (dataset, classifier, VBPR, AMR)."""
    return build_context(MEN_CONFIG, cache_dir=CACHE_DIR, verbose=True)


@pytest.fixture(scope="session")
def women_context():
    """Trained Amazon-Women-like system."""
    return build_context(WOMEN_CONFIG, cache_dir=CACHE_DIR, verbose=True)



@pytest.fixture(scope="session")
def men_grids(men_context):
    """[VBPR, AMR] attack grids on the Men-like system (one shared ladder run)."""
    return run_attack_grids(men_context, ("VBPR", "AMR"))


@pytest.fixture(scope="session")
def women_grids(women_context):
    """[VBPR, AMR] attack grids on the Women-like system."""
    return run_attack_grids(women_context, ("VBPR", "AMR"))
