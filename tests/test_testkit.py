"""The planted-episode generator is reproducible for a fixed seed."""

import numpy as np

from corrgeom.testkit import coupling_benchmark, simulate


def test_simulate_is_reproducible_for_a_fixed_seed():
    first, second = simulate(coupling_benchmark(3)), simulate(coupling_benchmark(3))
    assert first.ids == second.ids
    assert np.array_equal(first.matrix(), second.matrix())
    assert not np.array_equal(first.matrix(), simulate(coupling_benchmark(4)).matrix())
