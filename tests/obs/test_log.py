"""The structured logger: namespacing, formatters, reconfiguration."""

import io
import json
import logging
import sys

import pytest

from repro.obs.log import (
    ConsoleFormatter,
    JsonLineFormatter,
    configure_logging,
    get_logger,
)


def _record(message: str, **fields) -> logging.LogRecord:
    record = logging.LogRecord(
        "repro.cli", logging.INFO, __file__, 1, message, (), None
    )
    for key, value in fields.items():
        setattr(record, key, value)
    return record


class TestGetLogger:
    def test_names_land_under_the_library_namespace(self):
        assert get_logger().name == "repro"
        assert get_logger("cli").name == "repro.cli"
        assert get_logger("repro.cli").name == "repro.cli"


class TestConsoleFormatter:
    def test_renders_level_logger_and_message(self):
        line = ConsoleFormatter().format(_record("scenario starting"))
        assert line == "[info   ] repro.cli: scenario starting"

    def test_structured_fields_trail_sorted(self):
        line = ConsoleFormatter().format(_record("done", seconds=1.5, events=10))
        assert line.endswith("done  events=10 seconds=1.5")


class TestJsonLineFormatter:
    def test_one_parseable_object_per_record(self):
        payload = json.loads(
            JsonLineFormatter().format(_record("done", events=10))
        )
        assert payload["level"] == "info"
        assert payload["logger"] == "repro.cli"
        assert payload["message"] == "done"
        assert payload["events"] == 10
        assert "ts" in payload

    def test_non_json_values_fall_back_to_repr(self):
        payload = json.loads(
            JsonLineFormatter().format(_record("done", path={1, 2}))
        )
        assert isinstance(payload["path"], str)


class TestConfigureLogging:
    def test_console_lines_reach_the_stream(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        get_logger("test").info("hello", extra={"n": 3})
        assert "[info   ] repro.test: hello  n=3" in stream.getvalue()

    def test_level_filters(self):
        stream = io.StringIO()
        configure_logging("warning", stream=stream)
        get_logger("test").info("quiet")
        get_logger("test").warning("loud")
        output = stream.getvalue()
        assert "quiet" not in output and "loud" in output

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("loudest")

    def test_reconfigure_replaces_managed_handlers_only(self):
        foreign = logging.NullHandler()
        logger = logging.getLogger("repro")
        logger.addHandler(foreign)
        configure_logging("info", stream=io.StringIO())
        configure_logging("debug", stream=io.StringIO())
        managed = [h for h in logger.handlers if getattr(h, "_repro_obs_managed", False)]
        assert len(managed) == 1  # not accumulated across reconfigurations
        assert foreign in logger.handlers

    def test_json_sink_writes_json_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        configure_logging("info", json_path=str(path), stream=io.StringIO())
        get_logger("test").info("structured", extra={"events": 7})
        lines = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        assert any(
            entry["message"] == "structured" and entry["events"] == 7
            for entry in lines
        )

    def test_default_console_follows_a_swapped_stderr(self, monkeypatch):
        first = io.StringIO()
        monkeypatch.setattr(sys, "stderr", first)
        configure_logging("info")
        first.close()
        second = io.StringIO()
        monkeypatch.setattr(sys, "stderr", second)
        get_logger("test").info("after the swap")
        assert second.getvalue() == "[info   ] repro.test: after the swap\n"

    def test_does_not_touch_the_root_logger(self):
        before = list(logging.getLogger().handlers)
        configure_logging("info", stream=io.StringIO())
        assert list(logging.getLogger().handlers) == before
