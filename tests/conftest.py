"""Shared fixtures: small, fast contexts for unit/integration tests."""

from __future__ import annotations

import pytest

from repro import StarkConfig, StarkContext
from repro.cluster.cost_model import RecordSizer


@pytest.fixture(autouse=True)
def derived_sizes_match_the_walk(monkeypatch):
    """Cross-check every partition size an operator derives from its
    inputs' byte counts (``RecordSizer.cogroup_sizes`` / ``known_sizes``)
    against walking the output with ``RecordSizer.sizes``, in every
    context a test creates.  A mismatch fails the test at teardown."""
    mismatches = []

    def check(sizer, derived, output, helper):
        if derived is None:
            return
        walked = sizer.sizes(output)
        if derived != walked or type(derived[0]) is not int:
            mismatches.append(f"{helper}: derived {derived!r}, "
                              f"walked {walked!r}")

    cogroup_sizes = RecordSizer.cogroup_sizes
    known_sizes = RecordSizer.known_sizes

    def checked_cogroup_sizes(self, inputs, input_bytes, output):
        derived = cogroup_sizes(self, inputs, input_bytes, output)
        check(self, derived, output, "cogroup_sizes")
        return derived

    def checked_known_sizes(self, records, serialized):
        derived = known_sizes(self, records, serialized)
        check(self, derived, records, "known_sizes")
        return derived

    monkeypatch.setattr(RecordSizer, "cogroup_sizes", checked_cogroup_sizes)
    monkeypatch.setattr(RecordSizer, "known_sizes", checked_known_sizes)
    yield
    assert not mismatches, "derived sizes differ from the walk:\n" + \
        "\n".join(mismatches[:10])


@pytest.fixture
def sc() -> StarkContext:
    """Default small cluster with all Stark features enabled."""
    return StarkContext(num_workers=4, cores_per_worker=2,
                        memory_per_worker=1e9)


@pytest.fixture
def spark_sc() -> StarkContext:
    """Baseline context with Stark features disabled (plain Spark)."""
    return StarkContext(
        num_workers=4, cores_per_worker=2, memory_per_worker=1e9,
        config=StarkConfig(
            locality_enabled=False, mcf_enabled=False,
            replication_enabled=False,
        ),
    )


def make_pairs(n: int, num_keys: int = 10) -> list:
    """Simple deterministic (key, value) data used across tests."""
    return [(f"k{i % num_keys}", i) for i in range(n)]
