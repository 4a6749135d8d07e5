"""Structured logging on top of stdlib :mod:`logging`.

All repro loggers live under the ``"repro"`` namespace
(:func:`get_logger`), so one :func:`configure_logging` call controls
the whole library without touching the root logger.  Two formatters:

* :class:`ConsoleFormatter` — terse human lines on a stream
  (``[info   ] repro.cli: scenario starting seed=2010 ...``);
* :class:`JsonLineFormatter` — one JSON object per line, structured
  fields preserved, for the ``--log-json PATH`` sink.

Structured fields travel the stdlib way, via ``extra``::

    log.info("scenario finished", extra={"events": 14687, "seconds": 12.3})

Both formatters pick every non-reserved record attribute up, so the
same call renders ``events=14687 seconds=12.3`` on the console and
``{"events": 14687, "seconds": 12.3, ...}`` in the JSON file.
"""

from __future__ import annotations

import json
import logging
import sys
from typing import IO

#: Root of the library's logger namespace.
LOGGER_NAME = "repro"

#: Marker attribute identifying handlers installed by configure_logging.
_MANAGED = "_repro_obs_managed"

#: Attributes every LogRecord carries (plus formatter-injected ones);
#: anything else on a record is a user-supplied structured field.
_RESERVED = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def get_logger(name: str | None = None) -> logging.Logger:
    """A logger under the library namespace (``repro`` or ``repro.<name>``)."""
    if not name:
        return logging.getLogger(LOGGER_NAME)
    if name.startswith(LOGGER_NAME + ".") or name == LOGGER_NAME:
        return logging.getLogger(name)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def _structured_fields(record: logging.LogRecord) -> dict[str, object]:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _RESERVED and not key.startswith("_")
    }


class ConsoleFormatter(logging.Formatter):
    """Human-oriented one-liners with trailing ``key=value`` fields."""

    def format(self, record: logging.LogRecord) -> str:
        line = f"[{record.levelname.lower():<7}] {record.name}: {record.getMessage()}"
        fields = _structured_fields(record)
        if fields:
            line += "  " + " ".join(f"{key}={fields[key]}" for key in sorted(fields))
        if record.exc_info:
            line += "\n" + self.formatException(record.exc_info)
        return line


class JsonLineFormatter(logging.Formatter):
    """One key-sorted JSON object per record, structured fields inline."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, object] = {
            "ts": self.formatTime(record, "%Y-%m-%dT%H:%M:%S"),
            "level": record.levelname.lower(),
            "logger": record.name,
            "message": record.getMessage(),
        }
        for key, value in _structured_fields(record).items():
            if not isinstance(value, (str, int, float, bool, type(None))):
                value = repr(value)
            payload[key] = value
        if record.exc_info:
            payload["exception"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=repr)


class _StderrHandler(logging.StreamHandler):
    """A console handler that writes to ``sys.stderr`` as it is at emit time.

    Binding the stream at configuration time would keep writing to a
    stream that has since been swapped out and closed (a test runner's
    capture, a redirected CLI); stdlib's ``logging.lastResort`` looks
    the stream up per record for the same reason.
    """

    def __init__(self) -> None:
        logging.Handler.__init__(self)

    @property
    def stream(self) -> IO[str]:
        return sys.stderr


def configure_logging(
    level: str | int = "info",
    json_path: str | None = None,
    *,
    stream: IO[str] | None = None,
) -> logging.Logger:
    """Configure the library logger once; reconfiguring replaces handlers.

    ``level`` is a name (``"debug"``..``"error"``) or a stdlib level
    int.  Console lines go to ``stream`` (default: whatever
    ``sys.stderr`` is when each record is written);
    ``json_path``, if given, additionally appends one JSON object per
    record to that file.  Only handlers this function installed are
    replaced, so embedders' own handlers survive.  Returns the
    configured ``repro`` logger.
    """
    if isinstance(level, str):
        if level.lower() not in _LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        level = _LEVELS[level.lower()]
    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(level)
    logger.propagate = False
    for handler in list(logger.handlers):
        if getattr(handler, _MANAGED, False):
            logger.removeHandler(handler)
            handler.close()
    console = logging.StreamHandler(stream) if stream is not None else _StderrHandler()
    console.setFormatter(ConsoleFormatter())
    setattr(console, _MANAGED, True)
    logger.addHandler(console)
    if json_path:
        json_handler = logging.FileHandler(json_path, encoding="utf-8")
        json_handler.setFormatter(JsonLineFormatter())
        setattr(json_handler, _MANAGED, True)
        logger.addHandler(json_handler)
    return logger
