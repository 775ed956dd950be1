"""Interleave policies: determinism, proportional shares, exhaustion."""

import heapq

import numpy as np
import pytest

from repro.corun.interleave import interleave_order
from repro.spec import InterleaveSpec, SpecError


def materialize(key, lengths):
    """The merged order a key defines: workload indices, stably sorted on
    ``(key, workload)``."""
    keys = np.concatenate([key(w, np.arange(n)) for w, n in enumerate(lengths)])
    owner = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    return owner[np.argsort(keys, kind="stable")]


def order_of(lengths, spec=None, weights=None):
    return materialize(interleave_order(lengths, spec, weights=weights),
                       lengths)


def reference_order(lengths, spec=None, weights=None):
    """The merge one instruction at a time: a virtual-time heap for
    ``cpi``, quantum turns skipping exhausted workloads for
    ``round_robin``."""
    spec = spec or InterleaveSpec()
    remaining = list(lengths)
    order = []
    if spec.policy == "round_robin":
        while any(remaining):
            for i, left in enumerate(remaining):
                take = min(spec.quantum, left)
                order += [i] * take
                remaining[i] -= take
        return order
    weights = weights or [1.0] * len(lengths)
    heap = [(0.0, i) for i in range(len(lengths))]
    while heap:
        vtime, i = heapq.heappop(heap)
        order.append(i)
        remaining[i] -= 1
        if remaining[i]:
            heapq.heappush(heap, (vtime + weights[i], i))
    return order


def counts(order, n_work):
    return [int(np.count_nonzero(order == i)) for i in range(n_work)]


class TestContract:
    def test_covers_every_instruction_exactly_once(self):
        order = order_of([300, 200, 100])
        assert order.dtype == np.int32
        assert len(order) == 600
        assert counts(order, 3) == [300, 200, 100]

    def test_deterministic_across_calls(self):
        a = order_of([500, 400], weights=[0.47, 1.93])
        b = order_of([500, 400], weights=[0.47, 1.93])
        assert np.array_equal(a, b)

    def test_rejects_single_workload(self):
        with pytest.raises(SpecError, match="at least 2"):
            interleave_order([100])

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(SpecError, match="positive"):
            interleave_order([100, 0])

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(SpecError, match="match"):
            interleave_order([100, 100], weights=[1.0])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(SpecError, match="positive"):
            interleave_order([100, 100], weights=[1.0, 0.0])


class TestCpiPolicy:
    def test_equal_weights_alternate(self):
        order = order_of([8, 8])
        assert np.array_equal(order, np.tile([0, 1], 8))

    def test_shares_proportional_to_rate(self):
        # weight 1 vs 3: workload 0 issues 3x as fast, so it exhausts
        # its 300 instructions while workload 1 has issued only ~100;
        # the tail is then pure workload 1
        order = order_of([300, 300], weights=[1.0, 3.0])
        head = order[:400]
        assert int(np.count_nonzero(head == 0)) == 300
        assert np.all(order[400:] == 1)

    def test_ties_break_to_lowest_index(self):
        order = order_of([4, 4], weights=[1.0, 1.0])
        assert order[0] == 0 and order[1] == 1

    def test_virtual_time_is_a_running_sum(self):
        """Keys are sequential float sums, as the heap adds them: with
        these weights ``k * w`` keys would reorder ties."""
        lengths, weights = [50, 50], [0.1, 0.3]
        expected = reference_order(lengths, weights=weights)
        assert order_of(lengths, weights=weights).tolist() == expected
        product = materialize(lambda w, idx: idx * weights[w], lengths)
        assert product.tolist() != expected

    def test_running_sum_carries_across_blocks(self):
        key = interleave_order([2, 2], weights=[0.1, 0.3])
        idx = [0, 1, 65_535, 65_536, 65_537, 140_000]
        vtime, expected = 0.0, []
        for i in range(idx[-1] + 1):
            if i in idx:
                expected.append(vtime)
            vtime += 0.3
        assert key(1, np.array(idx)).tolist() == expected


class TestRoundRobinPolicy:
    def test_quantum_turns(self):
        order = order_of(
            [10, 10], InterleaveSpec(policy="round_robin", quantum=4))
        expected = [0] * 4 + [1] * 4 + [0] * 4 + [1] * 4 + [0] * 2 + [1] * 2
        assert order.tolist() == expected

    def test_skips_exhausted_workloads(self):
        order = order_of(
            [4, 12], InterleaveSpec(policy="round_robin", quantum=4))
        assert order.tolist() == [0] * 4 + [1] * 12

    def test_quantum_one_is_fine_grained(self):
        order = order_of(
            [5, 5], InterleaveSpec(policy="round_robin", quantum=1))
        assert np.array_equal(order, np.tile([0, 1], 5))

    def test_matches_turn_loop_on_unequal_lengths(self):
        lengths = [37, 300, 5]
        spec = InterleaveSpec(policy="round_robin", quantum=16)
        assert order_of(lengths, spec).tolist() == reference_order(
            lengths, spec)
