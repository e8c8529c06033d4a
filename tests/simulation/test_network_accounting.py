"""Network byte accounting: compressed exchanges, drops, latency, checkpoints.

``Network`` counts messages, floats and *wire bytes* — dense exchanges at
``8 * floats``, compressed ones at the codec's encoded size — plus the
simulated transit times the event-driven time model observes.  These tests
pin every accounting rule: what counts (every sent message, dropped ones
included), what does not (a dropped message never arrives), and how the
counters survive a checkpoint round trip.
"""

import numpy as np
import pytest

from repro.simulation.network import Network

from tests.core.test_engine_equivalence import build_algorithm


def test_record_bulk_defaults_to_dense_bytes():
    net = Network(4)
    net.record_bulk("mix", num_messages=6, floats_per_message=10)
    assert net.messages_sent == 6
    assert net.floats_sent == 60
    assert net.bytes_sent == 480


def test_record_bulk_accepts_compressed_bytes():
    net = Network(4)
    net.record_bulk("mix", num_messages=6, floats_per_message=3, bytes_per_message=36)
    assert net.floats_sent == 18
    assert net.bytes_sent == 216
    assert net.bytes_by_tag == {"mix": 216}
    with pytest.raises(ValueError, match="non-negative"):
        net.record_bulk("mix", num_messages=1, floats_per_message=1, bytes_per_message=-1)
    with pytest.raises(ValueError, match="non-negative"):
        net.record_bulk("mix", num_messages=-1, floats_per_message=1)


def test_dropped_messages_still_count_as_traffic():
    # Fault injection models loss on the wire: the sender transmitted, so
    # the bandwidth was spent even though nothing arrives.
    net = Network(2, drop_probability=1.0)
    net.record_bulk("model", 3, 4, dropped=3)
    assert net.messages_sent == 3
    assert net.messages_dropped == 3
    assert net.floats_sent == 12
    assert net.bytes_sent == 96
    assert net.messages_arrived == 0


def test_dropped_count_is_bounded_by_the_messages_sent():
    net = Network(2)
    with pytest.raises(ValueError, match="dropped"):
        net.record_bulk("model", 2, 4, dropped=3)
    with pytest.raises(ValueError, match="dropped"):
        net.record_bulk("model", 2, 4, dropped=-1)


def test_lossy_round_counts_dropped_bytes_but_no_extra_messages():
    reliable, _ = build_algorithm("PDSL", "full")
    lossy, _ = build_algorithm("PDSL", "full")
    lossy.network = Network(lossy.num_agents, drop_probability=0.5)
    reliable.run_round()
    lossy.run_round()
    sent = lossy.network.traffic_summary()
    full = reliable.network.traffic_summary()
    # Every model and gossip message is sent; a cross-gradient is only
    # sent back for a model that arrived.
    assert sent["traffic_by_tag"]["model"] == full["traffic_by_tag"]["model"]
    assert sent["traffic_by_tag"]["mix"] == full["traffic_by_tag"]["mix"]
    assert sent["traffic_by_tag"]["cross_grad"] < full["traffic_by_tag"]["cross_grad"]
    assert 0 < sent["messages_dropped"] < sent["messages_sent"]
    assert sent["bytes_sent"] == 8 * sent["floats_sent"]


def test_traffic_summary_keys():
    net = Network(3)
    net.record_bulk("model", 1, 2)
    summary = net.traffic_summary()
    assert set(summary) == {
        "messages_sent",
        "messages_dropped",
        "floats_sent",
        "bytes_sent",
        "traffic_by_tag",
        "bytes_by_tag",
        "messages_arrived",
        "latency_seconds_total",
        "latency_by_tag",
    }
    assert summary["bytes_sent"] == 16
    assert summary["bytes_by_tag"] == {"model": 16}


def test_state_dict_roundtrip_preserves_byte_counters():
    net = Network(3, drop_probability=0.5)
    net.record_bulk("model", 2, 4, dropped=1)
    net.record_bulk("mix", 1, 2, bytes_per_message=24)
    state = net.state_dict()
    assert set(state) == {"round", *net.traffic_summary()}

    restored = Network(3, drop_probability=0.5)
    restored.load_state_dict(state)
    assert restored.traffic_summary() == net.traffic_summary()


def test_load_state_dict_requires_every_counter():
    # Only format-3 algorithm checkpoints reach the network, and they all
    # carry the byte and latency counters: nothing is back-filled.
    net = Network(2)
    net.record_bulk("model", 1, 5)
    for key in ("bytes_sent", "bytes_by_tag", "messages_arrived", "latency_by_tag"):
        state = net.state_dict()
        del state[key]
        with pytest.raises(KeyError):
            Network(2).load_state_dict(state)


# ---------------------------------------------------------------------------
# Accounting under asynchrony: latency is tagged per message *arrival*
# ---------------------------------------------------------------------------


def test_record_latency_tags_arrivals():
    net = Network(3)
    net.record_bulk("model", 2, 4)
    net.record_latency("model", 0.25)
    net.record_latency("model", 0.75)
    assert net.messages_arrived == 2
    assert net.latency_seconds_total == pytest.approx(1.0)
    assert net.latency_by_tag == {"model": pytest.approx(1.0)}
    # Byte accounting is unchanged by the latency annotation.
    assert net.bytes_sent == 64
    summary = net.traffic_summary()
    assert summary["messages_arrived"] == 2
    assert summary["latency_seconds_total"] == pytest.approx(1.0)


def test_synchronous_exchanges_record_no_arrival_statistics():
    # Synchronous exchanges carry no simulated transit time: the latency
    # counters stay untouched, so real-time-only runs report zeros.
    net = Network(3)
    net.record_bulk("model", 4, 4)
    assert net.messages_arrived == 0
    assert net.latency_seconds_total == 0.0
    assert net.latency_by_tag == {}


def test_record_latency_validates_its_input():
    net = Network(3)
    with pytest.raises(ValueError, match="non-negative"):
        net.record_latency("model", -0.1)
    with pytest.raises(ValueError, match="non-empty"):
        net.record_latency("", 0.1)


def test_bulk_record_latency_sums_like_one_call_per_message():
    seconds = np.random.default_rng(0).exponential(size=257)
    bulk, single = Network(2), Network(2)
    bulk.record_latency("model", 0.1)
    single.record_latency("model", 0.1)
    bulk.record_latency("model", seconds)
    for value in seconds:
        single.record_latency("model", value)
    assert bulk.messages_arrived == single.messages_arrived == 258
    assert bulk.latency_seconds_total == single.latency_seconds_total
    assert bulk.latency_by_tag == single.latency_by_tag


def test_state_dict_roundtrip_preserves_latency_counters():
    net = Network(3)
    net.record_bulk("model", 1, 4)
    net.record_latency("model", 0.25)
    net.record_latency("grad", [0.25, 0.25, 0.5])
    state = net.state_dict()

    restored = Network(3)
    restored.load_state_dict(state)
    assert restored.traffic_summary() == net.traffic_summary()
    assert restored.messages_arrived == 4
    assert restored.latency_by_tag == {"model": 0.25, "grad": 1.0}
