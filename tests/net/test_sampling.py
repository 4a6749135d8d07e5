"""Tests for address-space sampling strategies."""

import random

import pytest

from repro.net.address import Subnet
from repro.net.sampling import (
    SubnetConcentratedSampler,
    UniformSampler,
    routable_slash8_blocks,
)
from repro.util.validation import ValidationError


class TestRoutableBlocks:
    def test_excludes_reserved(self):
        blocks = routable_slash8_blocks()
        for reserved in (0, 10, 127, 169, 172, 192, 224, 255):
            assert reserved not in blocks

    def test_includes_common(self):
        blocks = routable_slash8_blocks()
        for common in (4, 58, 67, 121, 200):
            assert common in blocks


class TestUniformSampler:
    def test_samples_in_routable_blocks(self):
        rng = random.Random(1)
        sampler = UniformSampler()
        blocks = set(routable_slash8_blocks())
        for _ in range(200):
            assert sampler.sample(rng).slash8 in blocks

    def test_wide_spread(self):
        rng = random.Random(1)
        sampler = UniformSampler()
        seen = {sampler.sample(rng).slash8 for _ in range(500)}
        assert len(seen) > 80  # touches a large share of the /8 space

    def test_restricted_blocks(self):
        rng = random.Random(1)
        sampler = UniformSampler(blocks=[42])
        assert all(sampler.sample(rng).slash8 == 42 for _ in range(20))

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValidationError):
            UniformSampler(blocks=[])

    def test_rejects_bad_block(self):
        with pytest.raises(ValidationError):
            UniformSampler(blocks=[300])

    def test_sample_distinct(self):
        rng = random.Random(2)
        addrs = UniformSampler().sample_distinct(rng, 50)
        assert len(set(addrs)) == 50

    def test_sample_distinct_small_space_raises(self):
        rng = random.Random(2)
        sampler = SubnetConcentratedSampler([Subnet.parse("1.2.3.0/30")])
        with pytest.raises(ValidationError):
            sampler.sample_distinct(rng, 10)


class TestSubnetConcentratedSampler:
    def test_stays_in_home_subnets(self):
        rng = random.Random(3)
        homes = [Subnet.parse("58.32.0.0/16"), Subnet.parse("121.14.0.0/16")]
        sampler = SubnetConcentratedSampler(homes)
        for _ in range(100):
            addr = sampler.sample(rng)
            assert any(addr in subnet for subnet in homes)

    def test_leak_escapes_sometimes(self):
        rng = random.Random(3)
        home = [Subnet.parse("58.32.0.0/16")]
        sampler = SubnetConcentratedSampler(home, leak=0.5)
        outside = sum(
            1 for _ in range(200) if sampler.sample(rng) not in home[0]
        )
        assert 40 < outside < 160

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SubnetConcentratedSampler([])

    def test_rejects_bad_leak(self):
        with pytest.raises(ValidationError):
            SubnetConcentratedSampler([Subnet.parse("1.0.0.0/8")], leak=1.5)

    def test_concentration_vs_uniform(self):
        rng = random.Random(4)
        concentrated = SubnetConcentratedSampler([Subnet.parse("58.32.0.0/16")])
        blocks = {concentrated.sample(rng).slash8 for _ in range(100)}
        assert blocks == {58}
