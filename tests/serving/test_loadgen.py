"""Unit tests for the Zipf load generator."""

import numpy as np
import pytest

from repro.serving import ZipfLoadGenerator


class TestZipfLoadGenerator:
    def test_deterministic_given_seed(self):
        a = ZipfLoadGenerator(50, exponent=1.1, seed=3, stream="t").sample(200)
        b = ZipfLoadGenerator(50, exponent=1.1, seed=3, stream="t").sample(200)
        np.testing.assert_array_equal(a, b)

    def test_stream_advances(self):
        gen = ZipfLoadGenerator(50, seed=0, stream="t")
        assert not np.array_equal(gen.sample(100), gen.sample(100))

    def test_skewed_traffic(self):
        gen = ZipfLoadGenerator(100, exponent=1.5, seed=0, stream="t")
        users = gen.sample(5000)
        counts = np.bincount(users, minlength=100)
        # The hottest decile should dwarf the coldest decile.
        counts = np.sort(counts)
        assert counts[-10:].sum() > 5 * counts[:10].sum()

    def test_zero_exponent_is_uniform(self):
        gen = ZipfLoadGenerator(10, exponent=0.0, seed=0, stream="t")
        np.testing.assert_allclose(gen.probabilities, np.full(10, 0.1))

    def test_all_users_in_range(self):
        users = ZipfLoadGenerator(7, seed=1, stream="t").sample(500)
        assert users.min() >= 0 and users.max() < 7

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfLoadGenerator(0, stream="t")
        with pytest.raises(ValueError):
            ZipfLoadGenerator(5, exponent=-1.0, stream="t")
        with pytest.raises(ValueError):
            ZipfLoadGenerator(5, stream="t").sample(0)
