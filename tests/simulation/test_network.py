"""Tests for the network: traffic counters and the drop knob, no mailbox."""

import pytest

from repro.simulation.network import Network


class TestConstruction:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Network(0)
        with pytest.raises(ValueError):
            Network(2, drop_probability=1.5)
        with pytest.raises(ValueError):
            Network(2, drop_probability=-0.5)

    @pytest.mark.parametrize("drop_probability", [0.0, 0.5, 1.0])
    def test_drop_probability_needs_no_randomness(self, drop_probability):
        # Drops are drawn by the algorithm from its keyed streams; the
        # network only carries the probability.
        net = Network(3, drop_probability=drop_probability)
        assert net.drop_probability == drop_probability
        assert not any("rng" in key for key in vars(net))

    def test_no_drops_by_default(self):
        assert Network(2).drop_probability == 0.0


class TestNoMailbox:
    @pytest.mark.parametrize(
        "name", ["send", "broadcast", "receive", "receive_by_sender", "pending", "clear"]
    )
    def test_mailbox_api_is_gone(self, name):
        assert not hasattr(Network(2), name)

    def test_message_type_is_gone(self):
        import repro.simulation.network as network

        assert not hasattr(network, "Message")


class TestAccounting:
    def test_message_and_float_counters(self):
        net = Network(2)
        net.record_bulk("grad", 1, 10)
        net.record_bulk("grad", 1, 7)
        summary = net.traffic_summary()
        assert summary["messages_sent"] == 2
        assert summary["floats_sent"] == 17
        assert summary["traffic_by_tag"]["grad"] == 17

    def test_tags_are_independent(self):
        net = Network(2)
        net.record_bulk("a", 2, 1)
        net.record_bulk("b", 3, 2)
        assert net.traffic_by_tag == {"a": 2, "b": 6}

    def test_round_counter(self):
        net = Network(2)
        assert net.current_round == 0
        net.advance_round()
        net.advance_round()
        assert net.current_round == 2

    def test_empty_tag_rejected(self):
        net = Network(2)
        with pytest.raises(ValueError):
            net.record_bulk("", 1, 1)
