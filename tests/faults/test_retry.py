"""Tests for :class:`repro.faults.RetryPolicy`, the bounded-retry
policy the prediction service's worker dispatch recovers with."""

import pytest

from repro.faults import RetryPolicy

pytestmark = pytest.mark.faults


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_mult=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    @pytest.mark.parametrize("bad", [
        {"task_timeout_s": 0.0},
        {"max_retries": -1},
        {"backoff_s": -0.1},
        {"backoff_mult": 0.5},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)
