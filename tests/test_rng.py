"""Seed derivation and deterministic block scheduling."""

import math
from concurrent.futures import Future

import numpy as np
import pytest

from polyaurn import rng as rng_module
from polyaurn.rng import (
    block_ranges,
    derive_seed,
    resolve_master_seed,
    run_blocks,
)


def test_derive_seed_frozen_values():
    # frozen: any change here silently breaks reproducibility of shipped runs
    assert derive_seed(12345, 0) == 2454886589211414944
    assert derive_seed(12345, 1) == 3778200017661327597
    assert derive_seed(0, 0) == 16294208416658607535


def test_derive_seed_distinct_across_indices():
    seen = {derive_seed(7, i) for i in range(2000)}
    assert len(seen) == 2000


def test_block_ranges_partition():
    ranges = block_ranges(10, 4)
    assert ranges == [(0, 0, 4), (1, 4, 8), (2, 8, 10)]
    assert block_ranges(8, 4) == [(0, 0, 4), (1, 4, 8)]
    assert block_ranges(0, 4) == []


def _sum_worker(seed: int, count: int):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [float(np.sum(rng.random(count)))]


def test_run_blocks_thread_count_invariant():
    out1 = run_blocks(_sum_worker, total=10_000, block_size=1024, master_seed=5, threads=1)
    out2 = run_blocks(_sum_worker, total=10_000, block_size=1024, master_seed=5, threads=3)
    s1 = math.fsum(row[0] for row in out1)
    s2 = math.fsum(row[0] for row in out2)
    assert s1 == s2  # bit identical, not merely close


def test_run_blocks_depends_on_master_seed():
    out1 = run_blocks(_sum_worker, total=4096, block_size=1024, master_seed=5, threads=1)
    out2 = run_blocks(_sum_worker, total=4096, block_size=1024, master_seed=6, threads=1)
    assert math.fsum(r[0] for r in out1) != math.fsum(r[0] for r in out2)


def test_resolve_master_seed(monkeypatch):
    assert resolve_master_seed(42) == 42
    monkeypatch.setenv("POLYA_SEED", "777")
    assert resolve_master_seed(None) == 777
    assert resolve_master_seed(1) == 1  # explicit beats environment
    monkeypatch.delenv("POLYA_SEED")
    assert resolve_master_seed(None) == 0


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs each
    job in this process, so no worker is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("threads,total,pool", [
    (4, 2048, 2), (64, 2048, 2), (2, 4096, 2), (3, 10_000, 3), (1_000_000, 3072, 3),
])
def test_run_blocks_starts_no_idle_workers(monkeypatch, threads, total, pool):
    # the pool is capped at one worker per block; the results do not move
    monkeypatch.setattr(rng_module, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    out = run_blocks(_sum_worker, total=total, block_size=1024, master_seed=5, threads=threads)
    assert _RecordingPool.sizes == [pool]
    assert out == run_blocks(_sum_worker, total=total, block_size=1024, master_seed=5, threads=1)


@pytest.mark.parametrize("threads", [0, -1])
def test_run_blocks_rejects_fewer_than_one_thread(monkeypatch, threads):
    monkeypatch.setattr(rng_module, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    with pytest.raises(ValueError, match="^threads must be >= 1$"):
        run_blocks(_sum_worker, total=4096, block_size=1024, master_seed=5, threads=threads)
    assert _RecordingPool.sizes == []
