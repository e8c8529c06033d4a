"""The sharding layer: row-blocked fleet state and block sizing."""

import numpy as np
import pytest

from repro.sharding import (
    DEFAULT_BLOCK_BYTES,
    FleetState,
    resolve_block_rows,
    row_blocks,
)
from repro.topology.graphs import ring_graph


class TestResolveBlockRows:
    def test_explicit_wins(self):
        assert resolve_block_rows(100, 8, block_rows=7) == 7

    def test_explicit_clamped_to_fleet(self):
        assert resolve_block_rows(100, 8, block_rows=10_000) == 100

    def test_rejects_nonpositive_block(self):
        with pytest.raises(ValueError):
            resolve_block_rows(100, 8, block_rows=0)

    def test_auto_targets_block_bytes(self):
        rows = resolve_block_rows(10**6, 64)
        assert 1 <= rows <= 10**6
        assert rows * 64 * 8 <= DEFAULT_BLOCK_BYTES

    def test_small_fleet_is_one_block(self):
        assert resolve_block_rows(16, 8) == 16

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            resolve_block_rows(0, 8)
        with pytest.raises(ValueError):
            resolve_block_rows(8, 0)


class TestRowBlocks:
    def test_covers_every_row_once(self):
        spans = list(row_blocks(10, 3))
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_single_block(self):
        assert list(row_blocks(5, 100)) == [(0, 5)]

    def test_rejects_nonpositive_block(self):
        with pytest.raises(ValueError):
            list(row_blocks(5, 0))


class TestFleetState:
    def test_ram_roundtrip(self, rng):
        source = rng.normal(size=(20, 6))
        fleet = FleetState(20, 6, block_rows=7)
        fleet.fill_from(source)
        np.testing.assert_array_equal(fleet.to_array(), source)
        assert fleet.nbytes == source.nbytes

    def test_blocks_cover_fleet(self, rng):
        fleet = FleetState(10, 4, block_rows=3)
        fleet.fill_from(rng.normal(size=(10, 4)))
        seen = [(start, stop, view.shape) for start, stop, view in fleet.blocks()]
        assert [s[:2] for s in seen] == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert all(shape == (stop - start, 4) for start, stop, shape in seen)

    def test_map_blocks_in_place(self, rng):
        source = rng.normal(size=(10, 4))
        fleet = FleetState(10, 4, block_rows=4)
        fleet.fill_from(source)
        fleet.map_blocks(lambda block: block * 2.0)
        np.testing.assert_array_equal(fleet.to_array(), source * 2.0)

    def test_mix_from_matches_operator(self, rng):
        operator = ring_graph(12).mixing_operator()
        source = FleetState(12, 5, block_rows=5)
        source.fill_from(rng.normal(size=(12, 5)))
        target = FleetState(12, 5, block_rows=5)
        target.mix_from(operator, source)
        np.testing.assert_array_equal(
            target.to_array(), operator.apply(source.array)
        )

    def test_wrap_is_a_view(self, rng):
        backing = rng.normal(size=(8, 3))
        fleet = FleetState.wrap(backing, block_rows=4)
        fleet.map_blocks(lambda block: block + 1.0)
        assert fleet.array is backing

    def test_float32_state(self):
        fleet = FleetState(6, 4, dtype=np.float32)
        assert fleet.array.dtype == np.float32

    def test_memmap_storage_roundtrip(self, rng):
        source = rng.normal(size=(16, 4))
        with FleetState(16, 4, storage="memmap", block_rows=5) as fleet:
            fleet.fill_from(source)
            fleet.flush()
            np.testing.assert_array_equal(fleet.to_array(), source)
            assert isinstance(fleet.array, np.memmap)

    def test_rejects_unknown_storage(self):
        with pytest.raises(ValueError):
            FleetState(4, 2, storage="cloud")

    def test_rejects_shape_mismatch_fill(self, rng):
        fleet = FleetState(4, 2)
        with pytest.raises(ValueError):
            fleet.fill_from(rng.normal(size=(4, 3)))

    def test_readonly_blocks_reject_writes(self, rng):
        source = rng.normal(size=(10, 4))
        fleet = FleetState(10, 4, block_rows=3)
        fleet.fill_from(source)
        for start, stop, view in fleet.blocks(readonly=True):
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 1.0
        # The protection is on the view only; the fleet stays writable and
        # unchanged by the failed assignments.
        np.testing.assert_array_equal(fleet.to_array(), source)
        assert fleet.array.flags.writeable

    def test_readonly_blocks_reject_writes_memmap(self, rng):
        source = rng.normal(size=(10, 4))
        with FleetState(10, 4, storage="memmap", block_rows=4) as fleet:
            fleet.fill_from(source)
            for _, _, view in fleet.blocks(readonly=True):
                with pytest.raises(ValueError):
                    view[...] = 0.0
            np.testing.assert_array_equal(fleet.to_array(), source)

    def test_readonly_array_rejects_writes(self, rng):
        fleet = FleetState(6, 3)
        fleet.fill_from(rng.normal(size=(6, 3)))
        snapshot = fleet.readonly_array
        with pytest.raises(ValueError):
            snapshot[2] = 0.0
