"""Tests for the interconnect cost model."""

import pytest

from repro.parallel.network import Interconnect, NetworkWeights


class TestTrafficAccounting:
    def test_send_accumulates(self):
        net = Interconnect()
        net.send(0, 1, tuples=10, tuple_bytes=16)
        net.send(0, 1, tuples=5, tuple_bytes=16)
        assert net.total_tuples == 15
        assert net.total_bytes == 240

    def test_local_delivery_is_free(self):
        net = Interconnect()
        net.send(2, 2, tuples=100, tuple_bytes=16)
        assert net.total_tuples == 0
        assert net.cost_ms() == 0.0

    def test_zero_tuples_free(self):
        net = Interconnect()
        net.send(0, 1, tuples=0, tuple_bytes=16)
        assert net.total_bytes == 0


class TestCosting:
    def test_cost_prices_messages_and_bytes(self):
        weights = NetworkWeights(ms_per_message=2.0, ms_per_kib=0.5, batch_bytes=1024)
        net = Interconnect(weights)
        net.send(0, 1, tuples=64, tuple_bytes=16)  # 1024 bytes = 1 batch
        assert net.cost_ms() == pytest.approx(2.0 + 0.5)

    def test_partial_batch_rounds_up(self):
        weights = NetworkWeights(ms_per_message=1.0, ms_per_kib=0.0, batch_bytes=1024)
        net = Interconnect(weights)
        net.send(0, 1, tuples=1, tuple_bytes=8)
        assert net.cost_ms() == pytest.approx(1.0)

    def test_empty_network_costs_nothing(self):
        assert Interconnect().cost_ms() == 0.0
        assert Interconnect().busiest_receiver_ms() == 0.0


class TestBottleneckView:
    def test_busiest_receiver_identifies_collection_site(self):
        net = Interconnect()
        # Everyone ships to node 0 (a collection site)...
        for sender in range(1, 8):
            net.send(sender, 0, tuples=100, tuple_bytes=16)
        # ...plus one small side transfer.
        net.send(0, 3, tuples=1, tuple_bytes=16)
        assert net.busiest_receiver_ms() < net.cost_ms()
        assert net.busiest_receiver_ms() == pytest.approx(
            net._price(7 * 100 * 16)
        )

    def test_balanced_traffic_has_low_bottleneck(self):
        net = Interconnect()
        for sender in range(4):
            for receiver in range(4):
                if sender != receiver:
                    net.send(sender, receiver, tuples=50_000, tuple_bytes=16)
        # Each receiver gets 1/4 of the traffic; once bytes dominate the
        # per-message overhead, the bottleneck is ~1/4 of the total.
        assert net.busiest_receiver_ms() <= net.cost_ms() / 3
