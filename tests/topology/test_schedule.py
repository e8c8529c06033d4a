"""Unit tests for time-varying topology schedules."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.topology.graphs import ring_graph, torus_graph
from repro.topology.mixing import validate_mixing_matrix
from repro.topology.schedule import (
    DYNAMICS_KEYS,
    DynamicTopologySchedule,
    ShiftOneSchedule,
    StaticSchedule,
    churn_schedule,
    edge_failure_schedule,
    periodic_rewiring_schedule,
    schedule_from_dynamics,
    straggler_schedule,
)


def edge_set(topology):
    return {tuple(sorted(edge)) for edge in topology.edges()}


class TestStaticSchedule:
    def test_returns_the_base_objects_verbatim(self):
        base = ring_graph(6)
        schedule = StaticSchedule(base)
        assert schedule.is_static
        for round_index in (0, 1, 17):
            assert schedule.topology_at(round_index) is base
            assert schedule.operator_at(round_index) is base.mixing_operator()
            assert schedule.active_mask_at(round_index).all()
            assert schedule.events_at(round_index) == []


class TestShiftOneSnapshots:
    @pytest.mark.parametrize("num_agents", [6, 7])
    def test_round_matrix_is_half_identity_plus_matching(self, num_agents):
        schedule = ShiftOneSchedule(ring_graph(num_agents))
        for round_index in range(schedule.period):
            expected = np.eye(num_agents)
            for u, v in schedule.pairs_at(round_index):
                expected[[u, u, v, v], [u, v, u, v]] = 0.5
            topology = schedule.topology_at(round_index)
            assert isinstance(topology.mixing_matrix, sp.csr_array)
            np.testing.assert_array_equal(topology.mixing_matrix.toarray(), expected)

    def test_snapshot_never_allocates_the_dense_matrix(self):
        # A dense 4096 x 4096 float64 matrix alone is 128 MiB; the edge-wise
        # CSR assembly of the 8192 nonzeros stays far below that.
        schedule = ShiftOneSchedule(ring_graph(4096))
        tracemalloc.start()
        try:
            schedule.operator_at(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestPeriodicRewiring:
    def test_epoch_zero_is_the_base_graph(self):
        base = ring_graph(8)
        schedule = periodic_rewiring_schedule(base, rewire_every=3, seed=1)
        for round_index in range(3):
            assert edge_set(schedule.topology_at(round_index)) == edge_set(base)

    def test_quiet_rounds_reuse_the_base_topology_object(self):
        # The base's mixing matrix is NOT Metropolis–Hastings; a round with
        # no deviation must serve it verbatim, not rebuild MH weights.
        from repro.topology.graphs import Topology
        from repro.topology.mixing import uniform_neighbor_weights

        base = Topology(
            uniform_neighbor_weights(6, ring_graph(6).edges()), name="uniform_ring"
        )
        schedule = periodic_rewiring_schedule(base, rewire_every=3, seed=1)
        for round_index in range(3):
            assert schedule.topology_at(round_index) is base
        assert schedule.topology_at(3) is not base

    def test_pure_rewire_permutes_the_base_weights(self):
        # A rewire is a node relabelling: the base's (non-MH) weighting
        # scheme must survive verbatim, w'_{perm(u),perm(v)} = w_{uv}.
        from repro.topology.graphs import Topology
        from repro.topology.mixing import uniform_neighbor_weights

        base = Topology(
            uniform_neighbor_weights(6, ring_graph(6).edges()), name="uniform_ring"
        )
        schedule = periodic_rewiring_schedule(base, rewire_every=2, seed=1)
        rewired = schedule.topology_at(2)
        assert rewired is not base
        validate_mixing_matrix(rewired.mixing_matrix)
        base_w = base.mixing_operator().toarray()
        rewired_w = rewired.mixing_operator().toarray()
        # Same multiset of weights, and every base edge weight reappears on
        # some relabelled edge with identical self-weights on the diagonal.
        np.testing.assert_allclose(np.sort(rewired_w.ravel()), np.sort(base_w.ravel()))
        np.testing.assert_allclose(np.sort(np.diag(rewired_w)), np.sort(np.diag(base_w)))
        perm = schedule._permutation_for_epoch(1)
        for u in range(6):
            for v in range(6):
                assert rewired_w[perm[u], perm[v]] == base_w[u, v]

    def test_rewire_changes_edges_but_preserves_structure(self):
        base = ring_graph(8)
        schedule = periodic_rewiring_schedule(base, rewire_every=3, seed=1)
        rewired = schedule.topology_at(3)
        assert edge_set(rewired) != edge_set(base)
        assert len(rewired.edges()) == len(base.edges())
        degrees = sorted(rewired.degree(agent) for agent in range(8))
        assert degrees == sorted(base.degree(agent) for agent in range(8))
        validate_mixing_matrix(rewired.mixing_matrix)

    def test_rewire_event_emitted_at_epoch_boundaries(self):
        schedule = periodic_rewiring_schedule(ring_graph(6), rewire_every=2, seed=0)
        kinds = [
            [event.kind for event in schedule.events_at(t)] for t in range(5)
        ]
        assert kinds == [[], [], ["rewire"], [], ["rewire"]]

    def test_snapshots_are_cached_within_an_epoch(self):
        schedule = periodic_rewiring_schedule(ring_graph(12), rewire_every=5, seed=0)
        topologies = {id(schedule.topology_at(t)) for t in range(5)}
        assert len(topologies) == 1
        info = schedule.cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 4
        assert schedule.topology_at(5) is not schedule.topology_at(0)

    def test_operator_is_cached_per_snapshot(self):
        schedule = periodic_rewiring_schedule(ring_graph(12), rewire_every=5, seed=0)
        assert schedule.operator_at(0) is schedule.operator_at(4)


class TestChurn:
    def test_masks_and_events_are_consistent(self):
        schedule = churn_schedule(ring_graph(10), churn_rate=0.3, rejoin_rate=0.4, seed=2)
        previous = schedule.active_mask_at(0)
        assert previous.all()  # the fleet starts whole
        for t in range(1, 15):
            mask = schedule.active_mask_at(t)
            events = schedule.events_at(t)
            left = {e.detail["agent"] for e in events if e.kind == "leave"}
            joined = {e.detail["agent"] for e in events if e.kind == "join"}
            for agent in range(10):
                if agent in left:
                    assert previous[agent] and not mask[agent]
                elif agent in joined:
                    assert not previous[agent] and mask[agent]
                else:
                    assert mask[agent] == previous[agent]
            previous = mask

    def test_inactive_agents_get_identity_mixing_rows(self):
        schedule = churn_schedule(ring_graph(8), churn_rate=0.4, rejoin_rate=0.2, seed=0)
        for t in range(8):
            topology = schedule.topology_at(t)
            validate_mixing_matrix(topology.mixing_matrix)
            mask = schedule.active_mask_at(t)
            w = topology.mixing_operator().toarray()
            for agent in np.flatnonzero(~mask):
                expected = np.zeros(8)
                expected[agent] = 1.0
                np.testing.assert_array_equal(w[agent], expected)
                assert topology.neighbors(agent, include_self=False) == []

    def test_min_active_floor_is_respected(self):
        schedule = churn_schedule(
            ring_graph(6), churn_rate=0.9, rejoin_rate=0.0, min_active=2, seed=0
        )
        for t in range(25):
            assert int(schedule.active_mask_at(t).sum()) >= 2

    def test_deterministic_in_seed_and_access_order(self):
        make = lambda: churn_schedule(ring_graph(9), churn_rate=0.25, seed=5)
        forward, backward = make(), make()
        rounds = list(range(10))
        masks_fwd = [forward.active_mask_at(t).copy() for t in rounds]
        masks_bwd = [backward.active_mask_at(t).copy() for t in reversed(rounds)][::-1]
        for a, b in zip(masks_fwd, masks_bwd):
            np.testing.assert_array_equal(a, b)


class TestEdgeFailures:
    def test_failed_edges_leave_the_round_graph_and_recover(self):
        base = torus_graph(3)
        schedule = edge_failure_schedule(base, failure_rate=0.3, recovery_rate=0.5, seed=1)
        down = set()
        for t in range(1, 12):
            for event in schedule.events_at(t):
                if event.kind == "edge_failure":
                    down.add(tuple(event.detail["edge"]))
                elif event.kind == "edge_recovery":
                    down.discard(tuple(event.detail["edge"]))
            snapshot_edges = edge_set(schedule.topology_at(t))
            assert snapshot_edges == edge_set(base) - down
            validate_mixing_matrix(schedule.topology_at(t).mixing_matrix)
        assert down  # the chain actually exercised failures


class TestStragglers:
    def test_straggler_count_follows_the_fraction(self):
        schedule = straggler_schedule(ring_graph(10), straggler_fraction=0.3, seed=0)
        for t in range(6):
            events = schedule.events_at(t)
            stragglers = [e for e in events if e.kind == "straggle"]
            assert len(stragglers) == 1
            assert len(stragglers[0].detail["agents"]) == 3  # floor(0.3 * 10)
            assert int(schedule.active_mask_at(t).sum()) == 7

    def test_straggler_draw_respects_min_active(self):
        # Churn floors membership at min_active; the straggler draw must not
        # push the round's participation below that floor either.
        schedule = DynamicTopologySchedule(
            ring_graph(6),
            churn_rate=0.5,
            rejoin_rate=0.0,
            straggler_fraction=0.5,
            min_active=4,
            seed=0,
        )
        for t in range(20):
            assert int(schedule.active_mask_at(t).sum()) >= 4

    def test_straggling_is_per_round(self):
        schedule = straggler_schedule(ring_graph(10), straggler_fraction=0.2, seed=3)
        masks = {schedule.active_mask_at(t).tobytes() for t in range(10)}
        assert len(masks) > 1  # a fresh draw each round


class TestValidationAndFactory:
    def test_parameter_validation(self):
        base = ring_graph(5)
        with pytest.raises(ValueError):
            DynamicTopologySchedule(base, rewire_every=0)
        with pytest.raises(ValueError):
            DynamicTopologySchedule(base, churn_rate=1.5)
        with pytest.raises(ValueError):
            DynamicTopologySchedule(base, straggler_fraction=1.0)
        with pytest.raises(ValueError):
            DynamicTopologySchedule(base, min_active=0)
        with pytest.raises(ValueError):
            DynamicTopologySchedule(base, cache_size=0)

    def test_schedule_from_dynamics(self):
        base = ring_graph(5)
        assert isinstance(schedule_from_dynamics(base, None), StaticSchedule)
        assert isinstance(schedule_from_dynamics(base, {}), StaticSchedule)
        dynamic = schedule_from_dynamics(
            base, {"rewire_every": 4, "churn_rate": 0.05}, seed=9
        )
        assert isinstance(dynamic, DynamicTopologySchedule)
        assert dynamic.rewire_every == 4
        assert dynamic.churn_rate == 0.05
        assert dynamic.seed == 9

    def test_schedule_from_dynamics_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown dynamics keys"):
            schedule_from_dynamics(ring_graph(5), {"rewire_evry": 4})

    def test_validate_dynamics_checks_value_ranges(self):
        from repro.topology.schedule import validate_dynamics

        validate_dynamics({"churn_rate": 0.5, "rewire_every": 3})
        with pytest.raises(ValueError, match="churn_rate"):
            validate_dynamics({"churn_rate": 2.0})
        with pytest.raises(ValueError, match="straggler_fraction"):
            validate_dynamics({"straggler_fraction": 1.5})
        with pytest.raises(ValueError, match="rewire_every"):
            validate_dynamics({"rewire_every": 0})

    def test_dynamics_keys_vocabulary(self):
        assert "churn_rate" in DYNAMICS_KEYS
        assert "straggler_fraction" in DYNAMICS_KEYS

    def test_describe_is_serialisable(self):
        import json

        dynamic = schedule_from_dynamics(
            ring_graph(5), {"churn_rate": 0.1, "seed": 3}
        )
        payload = json.loads(json.dumps(dynamic.describe()))
        assert payload["churn_rate"] == 0.1
        assert payload["seed"] == 3

    def test_lru_eviction_bounds_the_cache(self):
        schedule = churn_schedule(ring_graph(8), churn_rate=0.4, seed=1, cache_size=4)
        for t in range(20):
            schedule.topology_at(t)
        assert schedule.cache_info()["size"] <= 4

    def test_round_states_stay_bounded_and_replayable(self):
        # The round-state chain keeps a bounded LRU plus sparse checkpoints;
        # states evicted from both must be recomputed bit-for-bit, so a
        # second consumer replaying the schedule from round 0 (as
        # run_comparison's later algorithms do) sees the same trajectory.
        def make():
            return DynamicTopologySchedule(
                ring_graph(8),
                rewire_every=3,
                churn_rate=0.25,
                rejoin_rate=0.4,
                straggler_fraction=0.2,
                seed=5,
            )

        reference = make()
        expected = [reference.active_mask_at(t).copy() for t in range(30)]

        evicting = make()
        evicting._recent_capacity = 4  # force heavy eviction
        for t in range(30):
            np.testing.assert_array_equal(evicting.active_mask_at(t), expected[t])
        assert len(evicting._recent_states) <= 4
        # Replay from the start after eviction (the shared-schedule pattern).
        for t in range(30):
            np.testing.assert_array_equal(evicting.active_mask_at(t), expected[t])
            assert [e.as_dict() for e in evicting.events_at(t)] == [
                e.as_dict() for e in reference.events_at(t)
            ]
