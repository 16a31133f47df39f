"""The synthetic corpora are pinned byte for byte.

A seed names a corpus: benchmarks, golden digests and bug reports refer to
corpora by their `SynthParams` alone. The table below reaches every branch
of `synth.generate_tables`, so any change to what it draws, or in which
order, moves a digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from fieldstrength.synth import SynthParams, _Draws, generate

# sha256 of each written CSV. A change that alters the corpora on purpose
# updates these and says so in CHANGES.md.
PINNED = {
    "default": (SynthParams(), {
        "authorships": "ed4dbba340623a56676bf39e054b112e122ff0399953983e826373c11984a775",
        "publications": "46ab852bbd82fe62a3d04bf1cc1776ca6d59113cebe164269f22d985cadece82",
        "researchers": "4069cf4482d1abf6d5a5f85c92bea1c8c049c0d09ccfa6f7ce12c6e3a42313df",
        "taxonomy": "53436dbafadaace91498d17e9f9729b9e9425573fa02b228f87e7d83a45e79a8",
    }),
    # the threshold_sweep benchmark shape at seed 1: 1,000 categories, none of them home
    "threshold_sweep": (SynthParams(seed=1, n_udas=7, n_fields_per_uda=25,
                                    professors_per_field=(8, 16), n_categories=1000,
                                    home_category_bias=0.0), {
        "authorships": "fa3e1f8b9a3910384fe6cfcb5296b585c165fedb1a04ae042a8e415c41d2d291",
        "publications": "f16cea900aa7a5e44d17dd3b730630ee035cfdb6c4cbf49f33e4022a390d63b6",
        "researchers": "8dbdf241ab47d91b2d80e155356d2d6e451c8108ece32b3fd5130677c9921bca",
        "taxonomy": "175542e556db435be7d46a6d39774d479b9c6b006ec67537528d2a29841f4201",
    }),
    # baseline flood above every cell's top
    "flood": (SynthParams(seed=3, n_udas=2, n_fields_per_uda=3, hca_fraction=0.4), {
        "authorships": "b746cb917d2059b7024ec7368dba461e1ea897a0b7ab03473adf61421406ccba",
        "publications": "bf397c9aecb584c21ff2b10de67c5ac61557873f5b668dedfb28ceded93fb7df",
        "researchers": "34f83874ee956110003c8d885ad6d8702284d53488a47ff4d09f31060a56da88",
        "taxonomy": "daa4770480304ae529ec0448df9a1c1a3a759ba66294d30eef6db2f95823b3c1",
    }),
    # draws over a range of one, which take nothing from the stream
    "one_category": (SynthParams(seed=4, n_udas=2, n_fields_per_uda=3, n_categories=1,
                                 categories_per_pub=(1, 1)), {
        "authorships": "b7a942c4ef54c9faca5fe75f36fd2cf9feb44b8fac0f55809ca23935d7c5cb23",
        "publications": "8efdb8ea9f9a6b97bc6559c2470e3658208029f1598c1b157a4203db2b2f0589",
        "researchers": "67f5b869131be5ab3096fdb6907ee98a9b3bc728cc9306461e01afa13f86fc93",
        "taxonomy": "daa4770480304ae529ec0448df9a1c1a3a759ba66294d30eef6db2f95823b3c1",
    }),
    # one professor per field: no co-author pool
    "lone_professors": (SynthParams(seed=5, n_udas=3, n_fields_per_uda=4,
                                    professors_per_field=(1, 1)), {
        "authorships": "5114f4ba76e9352a914a4a43d888abbc718edb702af625353f1d3b4c12ca4b57",
        "publications": "da29612df5069995ba3e4f5353e0006a4904b566abd7fefab215cd66776a2d91",
        "researchers": "ecfffb3a23657def025b8671d523a88bfb6882df788ac5f9301a4c0b2624f08b",
        "taxonomy": "50b360c4139fa93cfe89c08b9ec96e000779b561ec2e6937d62e1c8531a4cb96",
    }),
    # a window shorter than min_years: every span is the whole window, and a
    # promotion year is drawn from a one-year list
    "short_window": (SynthParams(seed=6, n_udas=2, n_fields_per_uda=3, window=(2015, 2016)), {
        "authorships": "143a1d9493266c2a764ae1b934085f798aff9a6491137c2104def6eb619d5293",
        "publications": "d1d2cb465f6aa3706e8c89b56fc762a2d9ad3f2bfa120814f5c6262208adc3ac",
        "researchers": "5b4f95c60c54ebb2c7b2573e1ac6eda3bccb95eb3c6257f316d849af10681834",
        "taxonomy": "daa4770480304ae529ec0448df9a1c1a3a759ba66294d30eef6db2f95823b3c1",
    }),
    # partial spans, a promotion for everyone below full, and co-authors
    # sampled from a pool of one
    "whole_pool": (SynthParams(seed=7, n_udas=2, n_fields_per_uda=3, professors_per_field=(2, 2),
                               full_window_prob=0.0, promotion_prob=1.0, coauthor_prob=1.0), {
        "authorships": "d6fd581939fb0b3a57b601abc375273321047e50de28100f0038832d980dbca3",
        "publications": "a3c71bd3d2e2c6936d1e2f2bd667413932b4d41d31d4e032f656b26b1873f489",
        "researchers": "4e582fb6a27554e2534eb1ca8ec826c63085731aba33184167e2882d55eee11f",
        "taxonomy": "daa4770480304ae529ec0448df9a1c1a3a759ba66294d30eef6db2f95823b3c1",
    }),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_corpus_bytes_are_pinned(case, tmp_path):
    params, digests = PINNED[case]
    paths = generate(params, tmp_path)
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items()} == digests


# The generator takes its scalar draws through synth._Draws, which must
# make the very draws of the Generator call each method names. Both sides
# run from one seed. After every helper draw the two bit generator states,
# the half-used next_uint32 word included, must be equal, and a random,
# lognormal and poisson on each side must agree.
def _streams(seed: int):
    return np.random.default_rng(seed), _Draws(np.random.default_rng(seed))


def _same_after(expected: np.random.Generator, draws: _Draws) -> None:
    assert draws.rng.bit_generator.state == expected.bit_generator.state
    assert draws.random() == expected.random()
    assert draws.rng.lognormal(1.2, 1.1) == expected.lognormal(1.2, 1.1)
    assert draws.rng.poisson(3.0) == expected.poisson(3.0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1])
def test_below_draws_as_integers(n):
    for seed in range(200):
        expected, draws = _streams(seed)
        for _ in range(5):
            assert draws.below(n) == int(expected.integers(0, n))
            _same_after(expected, draws)


@pytest.mark.parametrize("k", [1, 2])
def test_sample_draws_as_choice_without_replacement(k):
    for seed in range(60):
        expected, draws = _streams(seed)
        for n in [*range(k, 51), 20_000]:
            assert draws.sample(n, k) == expected.choice(n, size=k, replace=False).tolist()
            _same_after(expected, draws)


def test_pick_and_weighted_draw_as_choice():
    seq = [2012, 2013, 2014, 2015, 2016]
    mixes = [(0.35, 0.40, 0.25), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.1, 0.2, 0.7)]
    for seed in range(200):
        expected, draws = _streams(seed)
        for length in range(1, len(seq) + 1):
            assert draws.pick(seq[:length]) == int(expected.choice(seq[:length]))
            _same_after(expected, draws)
        for p in mixes:
            assert draws.weighted(draws.cdf(p)) == int(expected.choice(3, p=p))
            _same_after(expected, draws)


def test_sample_draws_as_choice_up_to_floyds_limit():
    # the largest k for which numpy still takes Floyd's loop at n = 20,000
    for seed in range(3):
        expected, draws = _streams(seed)
        assert draws.sample(20_000, 400) == expected.choice(20_000, size=400, replace=False).tolist()
        _same_after(expected, draws)
