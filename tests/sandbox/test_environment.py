"""Tests for the time-varying execution environment."""

import pytest

from repro.sandbox.environment import Environment, Window
from repro.util.validation import ValidationError


class TestWindow:
    def test_open_ended(self):
        window = Window(start=10)
        assert window.contains(10)
        assert window.contains(10**9)
        assert not window.contains(9)

    def test_closed(self):
        window = Window(5, 10)
        assert window.contains(5)
        assert window.contains(9)
        assert not window.contains(10)

    def test_validation(self):
        with pytest.raises(ValidationError):
            Window(10, 10)


class TestEnvironment:
    def test_unlisted_domain_never_resolves(self):
        assert not Environment().resolves("nope.example", 0)

    def test_dns_windows(self):
        env = Environment()
        env.add_dns("iliketay.cn", Window(0, 100))
        assert env.resolves("iliketay.cn", 50)
        assert not env.resolves("iliketay.cn", 100)

    def test_dns_default_window_is_forever(self):
        env = Environment()
        env.add_dns("always.example")
        assert env.resolves("always.example", 10**10)

    def test_multiple_dns_windows(self):
        env = Environment()
        env.add_dns("flaky.example", Window(0, 10), Window(20, 30))
        assert env.resolves("flaky.example", 5)
        assert not env.resolves("flaky.example", 15)
        assert env.resolves("flaky.example", 25)

    def test_unlisted_component_available(self):
        assert Environment().component_available("a.cn", "/x", 0)

    def test_component_windows(self):
        env = Environment()
        env.set_component_window("a.cn", "/x", Window(0, 50))
        assert env.component_available("a.cn", "/x", 10)
        assert not env.component_available("a.cn", "/x", 60)
        assert env.component_available("a.cn", "/other", 60)
