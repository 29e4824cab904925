"""Parsing and validation of the COHERENCE_LAB_THREADS environment variable.

The variable takes a nonnegative integer (0 means one per CPU, unset means
1); anything else is a ``ConfigError``. Scans validate it but always run
serially, with the same results at every setting.
"""

from __future__ import annotations

import os

from .errors import ConfigError

ENV_VAR = "COHERENCE_LAB_THREADS"


def thread_budget() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ConfigError(f"{ENV_VAR} must be >= 0, got {n}")
    if n == 0:
        return os.cpu_count() or 1
    return n
