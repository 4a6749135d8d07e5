"""A low-cost SGNET sensor.

Sensors answer known activities from the shared FSM model and hand
unknown ones to the gateway.  Per-sensor counters record how much
traffic was handled autonomously versus proxied — the economics that
motivated ScriptGen learning in the first place.
"""

from __future__ import annotations

from repro.honeypot.fsm import Conversation, UNKNOWN_PATH_ID
from repro.honeypot.gateway import Gateway
from repro.net.address import IPv4Address


class HoneypotSensor:
    """One monitored IP address of the deployment."""

    def __init__(self, address: IPv4Address, gateway: Gateway) -> None:
        self.address = address
        self.gateway = gateway
        self.n_handled_locally = 0
        self.n_proxied = 0

    def handle(self, conversation: Conversation) -> int:
        """Process one inbound conversation; returns the FSM path id.

        :data:`UNKNOWN_PATH_ID` means the conversation was proxied and is
        not yet explained by the model.
        """
        path_id = self.gateway.process(conversation)
        if path_id != UNKNOWN_PATH_ID:
            self.n_handled_locally += 1
            return path_id
        self.n_proxied += 1
        return path_id
