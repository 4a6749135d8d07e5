"""Hashing helpers used across the reproduction.

``md5_hex`` mirrors the paper's use of MD5 as the identity of a collected
malware binary.  ``stable_hash64`` provides a process-stable 64-bit hash
for strings (Python's builtin ``hash`` is salted per process and cannot
be used for reproducible simulation decisions).
"""

from __future__ import annotations

import hashlib


def md5_hex(data: bytes) -> str:
    """Return the hex MD5 digest of ``data`` (sample identity, as in SGNET)."""
    return hashlib.md5(data).hexdigest()


def stable_hash64(text: str, *, salt: str = "") -> int:
    """Return a process-stable unsigned 64-bit hash of ``text``.

    >>> stable_hash64("abc") == stable_hash64("abc")
    True
    >>> stable_hash64("abc") != stable_hash64("abd")
    True
    """
    digest = hashlib.sha256((salt + "\x00" + text).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
