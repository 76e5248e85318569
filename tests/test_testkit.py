"""The planted-episode generator is reproducible for a fixed seed, and a
WindowSpec rejects a window that cannot exist."""

import numpy as np
import pytest

from corrgeom.testkit import WindowSpec, coupling_benchmark, simulate


def test_simulate_is_reproducible_for_a_fixed_seed():
    first, second = simulate(coupling_benchmark(3)), simulate(coupling_benchmark(3))
    assert first.ids == second.ids
    assert np.array_equal(first.matrix(), second.matrix())
    assert not np.array_equal(first.matrix(), simulate(coupling_benchmark(4)).matrix())


class TestWindowSpec:
    def test_rejects_short_window(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 1)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 2, 0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            WindowSpec(-1, 2)
