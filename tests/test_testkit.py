"""The planted-episode generator: reproducible for a fixed seed, unmoved by
zero-strength episodes, strict about its recipe, and free of the package's
engine, so that no test oracle creeps back into the package."""

import ast
from pathlib import Path

import numpy as np
import pytest

from corrgeom import testkit
from corrgeom.testkit import SyntheticSpec, coupling_benchmark, simulate
from oracles import simulate_by_series

RECIPE = dict(n_series=4, length=100, episodes=((10, 40, 0.9),), noise_sigma=0.1, rng_seed=0)


def test_simulate_is_reproducible_for_a_fixed_seed():
    first, second = simulate(coupling_benchmark(3)), simulate(coupling_benchmark(3))
    assert first.ids == second.ids
    assert np.array_equal(first.matrix(), second.matrix())
    assert not np.array_equal(first.matrix(), simulate(coupling_benchmark(4)).matrix())


@pytest.mark.parametrize("seed", range(20))
def test_zero_strength_episodes_reproduce_the_unperturbed_output_bit_for_bit(seed):
    plain = simulate(SyntheticSpec(5, 300, (), 0.1, seed))
    episodes = ((0, 40, 0.0), (100, 220, 0.0), (250, 300, 0.0))
    zero = simulate(SyntheticSpec(5, 300, episodes, 0.1, seed))
    assert zero.matrix().tobytes() == plain.matrix().tobytes()


# The specs simulate is held to its per-series reference on: the benchmark's
# seeds 0-29, the four benchmark workloads' shapes at seed 950, near-copies at
# strength 1 with 1e-9 noise, and zero-strength episodes.
PARITY_SPECS = [
    *(coupling_benchmark(seed) for seed in range(30)),
    coupling_benchmark(950 * 4),
    *(SyntheticSpec(n, length, ((length // 4, length // 2, 0.9),), 0.1, 950)
      for n, length in ((16, 600), (64, 300), (32, 800))),
    *(SyntheticSpec(2 + seed, 500, ((100, 300, 1.0),), 1e-9, seed) for seed in range(7)),
    *(SyntheticSpec(5, 300, ((0, 40, 0.0), (100, 220, 0.0), (250, 300, 0.0)), 0.1, seed)
      for seed in range(6)),
]


@pytest.mark.parametrize("spec", PARITY_SPECS, ids=range(len(PARITY_SPECS)))
def test_simulate_equals_its_per_series_reference_bit_for_bit(spec):
    made, want = simulate(spec), simulate_by_series(spec)
    assert (made.ids, made.start, made.step) == (want.ids, want.start, want.step)
    assert made.matrix().tobytes() == want.matrix().tobytes()


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(n_series=0), "need at least one series"),
        (dict(length=0), "length must be positive"),
        (dict(noise_sigma=0.0), "noise_sigma must be finite and > 0, got 0.0"),
        (dict(noise_sigma=-0.1), "noise_sigma must be finite and > 0, got -0.1"),
        (dict(noise_sigma=float("nan")), "noise_sigma must be finite and > 0, got nan"),
        (dict(noise_sigma=float("inf")), "noise_sigma must be finite and > 0, got inf"),
        (dict(rng_seed=-1), "rng_seed must be >= 0, got -1"),
        (dict(episodes=((10, 101, 0.9),)), r"episode \(10, 101\) out of range"),
        (dict(episodes=((-1, 40, 0.9),)), r"episode \(-1, 40\) out of range"),
        (dict(episodes=((40, 40, 0.9),)), r"episode \(40, 40\) out of range"),
        (dict(episodes=((50, 60, 0.9), (10, 40, 0.9))), "sorted and non-overlapping"),
        (dict(episodes=((10, 40, 0.9), (39, 60, 0.9))), "sorted and non-overlapping"),
        (dict(episodes=((10, 40, 1.5),)), r"coupling strength 1.5 outside \[0, 1\]"),
        (dict(episodes=((10, 40, -0.1),)), r"coupling strength -0.1 outside \[0, 1\]"),
    ],
    ids=[
        "no-series", "no-samples", "sigma-0", "sigma-negative", "sigma-nan", "sigma-inf",
        "seed-negative", "episode-past-end", "episode-before-start", "episode-empty", "episodes-unsorted",
        "episodes-overlapping", "strength-above-1", "strength-below-0",
    ],
)
def test_a_bad_recipe_is_rejected(change, message):
    with pytest.raises(ValueError, match=message):
        SyntheticSpec(**{**RECIPE, **change})


def test_testkit_imports_only_series_from_the_package():
    tree = ast.parse(Path(testkit.__file__).read_text())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package += [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "corrgeom":
            package.append(node.module)
        elif isinstance(node, ast.Import):
            package += [a.name for a in node.names if a.name.split(".")[0] == "corrgeom"]
    assert package == ["series"]
