"""Construction-time validation of :class:`CampaignService` settings.

A setting that can never work must fail when the service is built,
before its root directory is created: a heartbeat TTL at or below the
worker heartbeat interval expires every live worker on its first poll
(kills never charge the retry budget, so jobs livelock through
kill→resume cycles), and a checkpoint cadence below 1 fails every job
inside its worker once the retries are spent.
"""

from __future__ import annotations

import pytest

from repro.service.manager import CampaignService
from repro.service.worker import HEARTBEAT_INTERVAL


IMPOSSIBLE = [
    ("max_workers", 0, "max_workers must be >= 1, got 0"),
    ("queue_capacity", 0, "capacity must be >= 1, got 0"),
    ("checkpoint_every", 0, "checkpoint_every must be >= 1, got 0"),
    ("checkpoint_every", -3, "checkpoint_every must be >= 1, got -3"),
    ("heartbeat_ttl", 0, "heartbeat_ttl must be >"),
    ("heartbeat_ttl", -1.0, "heartbeat_ttl must be >"),
    ("heartbeat_ttl", HEARTBEAT_INTERVAL, "heartbeat_ttl must be >"),
    ("retention", -1.0, "retention must be >= 0"),
]


@pytest.mark.parametrize(
    "name,value,message",
    IMPOSSIBLE,
    ids=[f"{name}={value}" for name, value, _ in IMPOSSIBLE],
)
def test_impossible_setting_refused_before_root_is_touched(
    tmp_path, name, value, message
):
    root = tmp_path / "svc"
    with pytest.raises(ValueError, match=message):
        CampaignService(root, **{name: value})
    assert not root.exists()


def test_heartbeat_ttl_above_the_interval_is_accepted(tmp_path):
    service = CampaignService(
        tmp_path / "svc", heartbeat_ttl=HEARTBEAT_INTERVAL * 2
    )
    assert service.heartbeat_ttl == HEARTBEAT_INTERVAL * 2
    assert service.store.jobs_dir.is_dir()
