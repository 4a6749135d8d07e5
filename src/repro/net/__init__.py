"""IPv4 address space model.

The propagation-context analysis in the paper (Figure 5) hinges on *where*
attacking hosts live in the IPv4 space: self-propagating worms show
populations spread across most of the space, while bot populations
concentrate in a few networks.  This package provides the address model
and the sampling strategies the synthetic landscape uses to produce those
two signatures.
"""

from repro.net.address import (
    IPv4Address,
    Subnet,
    ip_from_string,
    ip_to_string,
)
from repro.net.sampling import (
    AddressSampler,
    SubnetConcentratedSampler,
    UniformSampler,
    routable_slash8_blocks,
)

__all__ = [
    "IPv4Address",
    "Subnet",
    "ip_from_string",
    "ip_to_string",
    "AddressSampler",
    "SubnetConcentratedSampler",
    "UniformSampler",
    "routable_slash8_blocks",
]
