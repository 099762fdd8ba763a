"""Generator determinism against published reference values.

The scalar draws uniform, below and gauss_pair are the reference
loops in _oracles.py that the block draws are held to; they are checked
here against the generator's own outputs and their distributions.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multikd.rng import SplitMix64, derive_seed

from _oracles import below, gauss_pair, reference_permutation, uniform

# First outputs of splitmix64 from state 0, per the reference C stream.
SEED0_OUTPUTS = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_seed0_reference_vector():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == SEED0_OUTPUTS


def test_same_seed_same_sequence():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_distinct_seeds_distinct_first_outputs():
    seen = {SplitMix64(seed).next_u64() for seed in range(64)}
    assert len(seen) == 64


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_uniform_in_unit_interval():
    rng = SplitMix64(7)
    draws = [uniform(rng) for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(np.mean(draws) - 0.5) < 0.02


def test_below_bounds_and_reachability():
    rng = SplitMix64(3)
    draws = [below(rng, 11) for _ in range(4000)]
    assert set(draws) == set(range(11))
    with pytest.raises(ValueError):
        below(rng, 0)


def test_gauss_pair_moments():
    rng = SplitMix64(42)
    zs = []
    for _ in range(4000):
        z1, z2 = gauss_pair(rng)
        zs.extend((z1, z2))
    zs = np.array(zs)
    assert np.isfinite(zs).all()
    assert abs(zs.mean()) < 0.03
    assert abs(zs.std() - 1.0) < 0.03


def test_gauss_pair_consumes_two_uniforms():
    a = SplitMix64(5)
    b = SplitMix64(5)
    u1, u2 = uniform(b), uniform(b)
    z1, z2 = gauss_pair(a)
    r = math.sqrt(-2.0 * math.log(1.0 - u1))
    assert z1 == pytest.approx(r * math.cos(2.0 * math.pi * u2), abs=1e-15)
    assert z2 == pytest.approx(r * math.sin(2.0 * math.pi * u2), abs=1e-15)
    assert a.next_u64() == b.next_u64()


def test_permutation_is_a_permutation_and_deterministic():
    assert SplitMix64(9).permutation(50) == SplitMix64(9).permutation(50)
    perm = SplitMix64(10).permutation(200)
    assert sorted(perm) == list(range(200))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(0, 3000))
@example(0, 2000)
@example(2**64 - 1, 2000)
@example(0, 3000)
@example(2**64 - 1, 1)
@example(7, -3)
@example(2742, 2000)  # draw 1097's low partial products carry into the high word
def test_permutation_matches_scalar_fisher_yates(seed, n):
    prng, reference = SplitMix64(seed), SplitMix64(seed)
    assert prng.permutation(n) == reference_permutation(reference, n)
    assert prng.state == reference.state


def test_derive_seed_is_splitmix_of_sum():
    assert derive_seed(0, 0) == SEED0_OUTPUTS[0]
    assert derive_seed(5, 2) == SplitMix64(7).next_u64()
    assert derive_seed(1, 0) != derive_seed(1, 1)
