"""Tests for the cost model and record sizer."""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster.cost_model import CostModel, RecordSizer, SimStr
from repro.columnar.batch import ColumnarBatch


class TestCostModel:
    def setup_method(self):
        self.model = CostModel()

    def test_compute_cost_linear_in_records(self):
        assert self.model.compute_cost(2000) == pytest.approx(
            2 * self.model.compute_cost(1000)
        )

    def test_compute_cost_zero_records(self):
        assert self.model.compute_cost(0) == 0.0

    def test_disk_read_of_120mb_takes_about_a_second(self):
        assert self.model.disk_read_cost(120e6) == pytest.approx(1.0)

    def test_network_has_fixed_latency(self):
        assert self.model.network_cost(0) == 0.0
        small = self.model.network_cost(1)
        assert small >= self.model.network_latency

    def test_network_faster_than_disk_is_false_here(self):
        # 1 GbE effective < spinning disk sequential in this calibration;
        # the remote penalty = network + remote disk.
        one_gb = 1e9
        assert self.model.network_cost(one_gb) > self.model.disk_read_cost(one_gb)

    def test_memory_read_much_faster_than_disk(self):
        size = 100e6
        assert self.model.memory_read_cost(size) < self.model.disk_read_cost(size) / 10

    def test_shuffle_reduce_costs_more_than_narrow_compute(self):
        assert self.model.shuffle_reduce_cost(1000) > self.model.compute_cost(1000)

    def test_gc_baseline_fraction(self):
        gc = self.model.gc_cost(10.0, 0.3)
        assert gc == pytest.approx(10.0 * self.model.gc_base_fraction)

    def test_gc_explodes_past_knee(self):
        relaxed = self.model.gc_cost(10.0, 0.5)
        pressured = self.model.gc_cost(10.0, 0.95)
        assert pressured > 3 * relaxed

    def test_gc_clamps_utilisation(self):
        assert self.model.gc_cost(1.0, 1.5) == self.model.gc_cost(1.0, 1.0)
        assert self.model.gc_cost(1.0, -0.5) == self.model.gc_cost(1.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=100.0))
    def test_gc_non_negative_and_monotone_in_compute(self, u, compute):
        gc = self.model.gc_cost(compute, u)
        assert gc >= 0.0
        assert gc <= self.model.gc_cost(compute + 1.0, u)

    @given(st.floats(min_value=0.0, max_value=0.99))
    def test_gc_monotone_in_utilisation(self, u):
        assert self.model.gc_cost(1.0, u) <= self.model.gc_cost(1.0, u + 0.01) + 1e-12


class TestRecordSizer:
    def setup_method(self):
        self.sizer = RecordSizer()

    def test_string_size_includes_length(self):
        small = self.sizer.size_of("ab")
        large = self.sizer.size_of("ab" * 100)
        assert large - small == 198

    def test_tuple_recurses(self):
        assert self.sizer.size_of(("key", "value")) > self.sizer.size_of("key")

    def test_int_and_float_have_fixed_payload(self):
        assert self.sizer.size_of(5) == self.sizer.size_of(123456789)
        assert self.sizer.size_of(1.5) == self.sizer.size_of(5)

    def test_none_has_base_size(self):
        assert self.sizer.size_of(None) == self.sizer.base + 8

    def test_dict_sums_items(self):
        d = {"a": 1, "b": 2}
        assert self.sizer.size_of(d) > self.sizer.size_of({"a": 1})

    def test_partition_size_is_sum(self):
        records = [("k", "v")] * 10
        assert self.sizer.size_of_partition(records) == pytest.approx(
            10 * self.sizer.size_of(("k", "v"))
        )

    def test_opaque_object_has_default_size(self):
        class Thing:
            pass

        assert self.sizer.size_of(Thing()) == self.sizer.base + 48

    @given(st.lists(st.text(max_size=50), max_size=30))
    def test_partition_size_non_negative_and_additive(self, values):
        total = self.sizer.size_of_partition(values)
        assert total == sum(self.sizer.size_of(v) for v in values)


# ---- single-pass sizing exactness -------------------------------------------


def reference_payload(value: object) -> int:
    """The generic sizing rules, without the exact-type fast path."""
    declared = getattr(value, "sim_size", None)
    if declared is not None:
        return int(declared)
    if value is None or isinstance(value, (bool, int, float)):
        return 8
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, (tuple, list)):
        return sum(reference_payload(v) for v in value) + 8 * len(value)
    if isinstance(value, dict):
        return sum(reference_payload(k) + reference_payload(v)
                   for k, v in value.items())
    return 48


def reference_sizes(sizer: RecordSizer, records: list) -> tuple:
    """Two separate passes with the generic rules, as the serialized size
    and the heap footprint were computed before the single pass."""
    serialized = sum(sizer.base + reference_payload(r) for r in records)
    in_memory = 0.0
    for r in records:
        declared = getattr(r, "sim_memory_size", None)
        if declared is not None:
            in_memory += sizer.base + declared
        else:
            in_memory += (sizer.base + reference_payload(r)) \
                * sizer.memory_overhead
    return serialized, in_memory


Point = namedtuple("Point", ["x", "y"])


@dataclass(frozen=True)
class Declared:
    name: str
    sim_size: int


class Opaque:
    pass


BATCHES = [
    ColumnarBatch([("k", "int"), ("v", "float")],
                  {"k": np.arange(3), "v": np.ones(3)}),
    ColumnarBatch([("s", "str")], {"s": np.array(["a", "bcd"])}),
]

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.binary(max_size=8),
    st.builds(SimStr, st.text(max_size=8),
              st.integers(min_value=0, max_value=10**6)),
    st.builds(Point, st.integers(), st.text(max_size=4)),
    st.builds(Declared, st.text(max_size=4),
              st.integers(min_value=0, max_value=10**6)),
    st.sampled_from(BATCHES),
    st.builds(Opaque),
)
records_strategy = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()),
                        children, max_size=3),
    ),
    max_leaves=20,
)


class TestSinglePassSizing:
    # Batches also drawn at the top level, where ``sim_memory_size``
    # applies; an overhead above 1 keeps the two heap rules apart.
    @given(st.lists(st.one_of(records_strategy, st.sampled_from(BATCHES)),
                    max_size=12),
           st.integers(min_value=0, max_value=64),
           st.floats(min_value=1.5, max_value=4.0))
    def test_sizes_match_the_views_and_the_generic_rules(self, records, base,
                                                         overhead):
        sizer = RecordSizer(base=base, memory_overhead=overhead)
        both = sizer.sizes(records)
        assert both == (sizer.size_of_partition(records),
                        sizer.in_memory_size(records))
        assert both == reference_sizes(sizer, records)
        assert type(both[0]) is int

    def test_subclass_declarations_are_never_shadowed(self):
        class SizedStr(str):
            pass

        class SizedTuple(tuple):
            pass

        sizer = RecordSizer()
        text = SizedStr("abc")
        text.sim_size = 1000
        pair = SizedTuple(("k", "v"))
        pair.sim_size = 5000
        pair.sim_memory_size = 7000
        assert sizer.size_of(text) == sizer.base + 1000
        assert sizer.size_of(pair) == sizer.base + 5000
        # Nested inside plain containers the declaration still wins.
        assert sizer.size_of(("k", text)) == sizer.base + 2 * 8 + 1 + 1000
        assert sizer.size_of([pair]) == sizer.base + 8 + 5000
        assert sizer.sizes([text, pair]) == (
            2 * sizer.base + 6000,
            (sizer.base + 1000) * sizer.memory_overhead + sizer.base + 7000)

    def test_columnar_batch_skips_memory_overhead(self):
        sizer = RecordSizer()
        batch = BATCHES[0]
        assert sizer.sizes([batch]) == (sizer.base + batch.sim_size,
                                        float(sizer.base + batch.sim_size))
