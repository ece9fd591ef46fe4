"""Shared fixtures."""

import concurrent.futures

import pytest

from posverif import stats


@pytest.fixture
def pool_sizes(monkeypatch):
    """Let stats.tally see two cores and record the size of every process
    pool it starts, so a test can check that trials really left the
    calling process."""
    sizes = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def recording_pool(max_workers):
        sizes.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 2)
    return sizes
