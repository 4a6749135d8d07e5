"""Sampling strategies over the IPv4 space.

Two population signatures matter for the paper's Figure 5:

* **Widespread** — worm-infected hosts scattered over most of the
  routable space (:class:`UniformSampler`), because autonomous scanning
  worms infect victims wherever vulnerable hosts exist.
* **Concentrated** — bot populations clustered in a handful of specific
  networks (:class:`SubnetConcentratedSampler`), as observed for the
  IRC-controlled clusters.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Sequence

from repro.net.address import IPv4Address, Subnet
from repro.util.validation import require


def routable_slash8_blocks() -> list[int]:
    """First octets we treat as routable source space.

    Excludes 0/8, 10/8, 127/8, 169/8 (link-local host block), 172/8 and
    192/8 (containing the common private blocks — excluded wholesale to
    keep the model simple), 224/8 and above (multicast/reserved).
    """
    excluded = {0, 10, 127, 169, 172, 192}
    return [b for b in range(1, 224) if b not in excluded]


class AddressSampler(ABC):
    """Draws attacker source addresses for one population."""

    @abstractmethod
    def sample(self, rng: random.Random) -> IPv4Address:
        """Draw one source address."""

    def sample_distinct(
        self, rng: random.Random, count: int, *, max_tries: int = 50
    ) -> list[IPv4Address]:
        """Draw ``count`` distinct addresses; raises if the space is too small."""
        seen: set[int] = set()
        out: list[IPv4Address] = []
        tries = 0
        while len(out) < count:
            addr = self.sample(rng)
            if int(addr) in seen:
                tries += 1
                require(
                    tries < max_tries * max(count, 1),
                    "address space too small for requested distinct sample",
                )
                continue
            seen.add(int(addr))
            out.append(addr)
        return out


class UniformSampler(AddressSampler):
    """Uniform over the routable space — the widespread worm signature."""

    def __init__(self, blocks: Sequence[int] | None = None) -> None:
        self._blocks = list(blocks) if blocks is not None else routable_slash8_blocks()
        require(len(self._blocks) > 0, "UniformSampler needs at least one /8 block")
        for b in self._blocks:
            require(0 <= b <= 255, f"bad /8 block {b}")

    @property
    def blocks(self) -> list[int]:
        """The /8 blocks addresses are drawn from."""
        return list(self._blocks)

    def sample(self, rng: random.Random) -> IPv4Address:
        block = rng.choice(self._blocks)
        return IPv4Address((block << 24) | rng.getrandbits(24))


class SubnetConcentratedSampler(AddressSampler):
    """Concentrated in a few subnets — the bot-population signature.

    With probability ``leak`` a draw falls back to the uniform routable
    space, modelling occasional members outside the home networks.
    """

    def __init__(self, subnets: Sequence[Subnet], *, leak: float = 0.0) -> None:
        require(len(subnets) > 0, "need at least one home subnet")
        require(0.0 <= leak <= 1.0, "leak must be a probability")
        self._subnets = list(subnets)
        self._leak = leak
        self._fallback = UniformSampler()

    @property
    def subnets(self) -> list[Subnet]:
        """The home subnets of the population."""
        return list(self._subnets)

    def sample(self, rng: random.Random) -> IPv4Address:
        if self._leak > 0 and rng.random() < self._leak:
            return self._fallback.sample(rng)
        subnet = rng.choice(self._subnets)
        return subnet.nth(rng.randrange(subnet.size))
