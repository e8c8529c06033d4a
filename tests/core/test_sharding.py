"""The sharding layer's block sizing, and the fleet matrices it streams over."""

import os
import tempfile

import numpy as np
import pytest

from repro.baselines import DPNetFleet
from repro.core.config import NetFleetConfig
from repro.data.partition import partition_iid
from repro.data.synthetic import make_classification_dataset
from repro.nn.zoo import make_linear_classifier
from repro.sharding import DEFAULT_BLOCK_BYTES, resolve_block_rows, row_blocks
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


def _algorithm(**config):
    data = make_classification_dataset(40, num_features=4, num_classes=3, seed=0)
    shards = partition_iid(data, 5, np.random.default_rng(0)).shards
    return DPNetFleet(
        make_linear_classifier(4, 3, seed=0),
        ring_graph(5),
        shards,
        NetFleetConfig(sigma=0.5, batch_size=4, **config),
    )


class TestAllocFleetMatrix:
    @pytest.mark.parametrize("storage", ["ram", "memmap"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_zeroed_matrix_of_the_fleet_shape(self, storage, dtype):
        algorithm = _algorithm(storage=storage, dtype=dtype)
        matrix = algorithm._alloc_fleet_matrix()
        assert matrix.shape == (5, algorithm.dimension)
        assert matrix.dtype == np.dtype(dtype)
        assert not matrix.any()
        assert isinstance(matrix, np.memmap) == (storage == "memmap")
        assert algorithm._alloc_fleet_matrix(np.float64).dtype == np.float64
        algorithm.close()

    @pytest.mark.parametrize("storage", ["ram", "memmap"])
    def test_every_fleet_matrix_is_on_the_configured_storage(self, storage):
        algorithm = _algorithm(storage=storage, block_rows=2)
        algorithm.run_round()
        matrices = [
            algorithm.state,
            algorithm.momentum_state,
            algorithm.tracking_state,
            algorithm.previous_gradient_state,
            *algorithm._scratch.values(),
        ]
        assert len(matrices) > 4
        for matrix in matrices:
            assert isinstance(matrix, np.memmap) == (storage == "memmap")
        algorithm.close()

    def test_memmap_files_are_unlinked_while_mapped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        algorithm = _algorithm(storage="memmap", block_rows=2)
        algorithm.run_round()
        assert os.path.dirname(algorithm.state.filename) == str(tmp_path)
        assert list(tmp_path.glob(".fleet.*")) == []
        algorithm.close()
        assert list(tmp_path.glob(".fleet.*")) == []
