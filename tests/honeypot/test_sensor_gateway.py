"""Tests for sensors and the gateway."""

import random

from repro.honeypot.fsm import FSMLearner, UNKNOWN_PATH_ID
from repro.honeypot.gateway import Gateway
from repro.honeypot.sensor import HoneypotSensor
from repro.malware.propagation import ExploitSpec, fixed, rand
from repro.net.address import IPv4Address


def _spec():
    return ExploitSpec(name="e", dst_port=445, dialogue=((fixed("GO"), rand(4)),))


class TestGateway:
    def test_unknown_goes_to_factory(self):
        # An unexplained conversation is proxied: unknown path, and its
        # suffix is buffered for refinement at the state it fell off.
        learner = FSMLearner(refine_threshold=10, min_support=4)
        gateway = Gateway(learner)
        result = gateway.process([("A", "x")])
        assert result == UNKNOWN_PATH_ID
        assert learner._buffers == {0: [(("A", "x"),)]}

    def test_finalize_flushes(self):
        gateway = Gateway(FSMLearner(refine_threshold=100, min_support=3))
        rng = random.Random(0)
        convs = [_spec().generate_conversation(rng) for _ in range(5)]
        for conv in convs:
            gateway.process(conv)
        assert gateway.classify(convs[0]) == UNKNOWN_PATH_ID
        gateway.finalize()
        assert gateway.classify(convs[0]) != UNKNOWN_PATH_ID


class TestSensor:
    def test_autonomy_grows_with_learning(self):
        gateway = Gateway(FSMLearner(refine_threshold=10, min_support=4))
        sensor = HoneypotSensor(IPv4Address(0x01010101), gateway)
        rng = random.Random(0)
        spec = _spec()
        for _ in range(40):
            sensor.handle(spec.generate_conversation(rng))
        # Once the FSM is refined, the sensor stops proxying.
        assert sensor.n_proxied >= 10
        assert sensor.n_handled_locally >= 20
        late = sensor.n_handled_locally
        sensor.handle(spec.generate_conversation(rng))
        assert sensor.n_handled_locally == late + 1

    def test_sensors_share_one_model(self):
        gateway = Gateway(FSMLearner(refine_threshold=10, min_support=4))
        sensor_a = HoneypotSensor(IPv4Address(0x01010101), gateway)
        sensor_b = HoneypotSensor(IPv4Address(0x02020202), gateway)
        rng = random.Random(0)
        spec = _spec()
        for _ in range(30):
            sensor_a.handle(spec.generate_conversation(rng))
        # B benefits from what A's traffic taught the gateway.
        sensor_b.handle(spec.generate_conversation(rng))
        assert sensor_b.n_handled_locally == 1
        assert sensor_b.n_proxied == 0
