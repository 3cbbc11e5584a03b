"""Bounded-retry policy for the prediction service's worker dispatch.

:class:`repro.serve.batching.MicroBatcher` retries a failed or timed-out
batch group under a :class:`RetryPolicy` (``ServeConfig.retry_policy``);
the policy lives with the rest of the fault machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery knobs for a bounded-retry dispatch loop.

    ``task_timeout_s`` bounds one attempt of one task; a worker that
    hangs (or dies without reporting — a hard crash leaves its task
    forever pending) is detected through it.  Failed attempts are
    retried up to ``max_retries`` times with exponential backoff
    (``backoff_s * backoff_mult**(attempt - 1)``); a group that
    exhausts its retries fails its requests with a retryable error.
    """

    task_timeout_s: float = 120.0
    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_mult: float = 2.0

    def __post_init__(self):
        if self.task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be > 0, got {self.task_timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_mult < 1.0:
            raise ValueError(f"backoff_mult must be >= 1, got {self.backoff_mult}")

    def backoff_for(self, attempt: int) -> float:
        """Sleep before retry number ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_mult ** (attempt - 1)
