"""Deterministic retry with exponential backoff for sweep cells.

:class:`~repro.pipeline.sweep.ParameterSweep` retries transiently-failing
cells under a frozen :class:`RetryPolicy`:

- attempt *k* (1-based) that fails sleeps ``backoff_s * 2**(k-1)`` before
  the next attempt — the classic doubling ladder;
- **no jitter**: randomised backoff would make retried runs wall-clock
  dependent.  The sweep is single-tenant on its own files, so the
  thundering-herd argument for jitter does not apply;
- the sleep function is injectable, so tests assert the exact schedule
  without sleeping.

:func:`run_with_retry` is the execution helper: call a thunk up to
``policy.attempts()`` times, re-raising the last exception once the
attempts are exhausted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a failing unit of work, and how to wait.

    ``max_retries=0`` (the default) means one attempt, no retries — the
    policy is then a no-op wrapper.  ``backoff_s`` is the sleep before the
    *first* retry; each further retry doubles it.
    """

    max_retries: int = 0
    backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0.0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )

    def attempts(self) -> int:
        """Total attempts a unit of work gets (first try + retries)."""
        return 1 + self.max_retries

    def backoff_for(self, failed_attempts: int) -> float:
        """Seconds to sleep after the *failed_attempts*-th failure (1-based).

        Deterministic — same inputs, same schedule, no jitter.
        """
        if failed_attempts < 1:
            raise ConfigurationError(
                f"failed_attempts is 1-based, got {failed_attempts}"
            )
        return self.backoff_s * 2.0 ** (failed_attempts - 1)


def run_with_retry(
    fn: Callable[[], Any],
    policy: RetryPolicy,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[Any, int]:
    """Call *fn* under *policy*; return ``(value, attempt_number)``.

    On failure before the final attempt, sleeps ``policy.backoff_for(k)``
    (skipping zero-length sleeps) and tries again; once the attempts are
    exhausted the last exception propagates unchanged.
    """
    total = policy.attempts()
    for attempt in range(1, total + 1):
        try:
            return fn(), attempt
        except Exception:  # retry isolation boundary
            if attempt >= total:
                raise
            delay = policy.backoff_for(attempt)
            if delay > 0.0:
                sleep(delay)
    raise AssertionError("unreachable: retry loop exited without returning")
