"""Deterministic seed derivation and order-independent parallel reduction.

Block i of any experiment uses the seed derive_seed(master_seed, i).
Work is partitioned into fixed-size blocks whose seeds depend only on the
block index, never on the execution schedule, so results are bit-identical
for any thread or process count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence

__all__ = ["derive_seed", "run_blocks", "resolve_master_seed"]

_MASK64 = (1 << 64) - 1


def derive_seed(master_seed: int, index: int) -> int:
    """SplitMix64 finalizer applied to (master_seed + golden-ratio * (index+1)).

    A documented, reproducible 64-bit mixing function: the avalanche constants
    are the standard SplitMix64 ones, so any independent implementation of
    SplitMix64 reproduces the stream.
    """
    z = (int(master_seed) + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def resolve_master_seed(explicit: int | None = None) -> int:
    """Explicit seed wins; else POLYA_SEED from the environment; else 0."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get("POLYA_SEED")
    if env is not None:
        return int(env)
    return 0


def block_ranges(total: int, block_size: int) -> list[tuple[int, int, int]]:
    """Fixed partition of range(total) into (block_index, start, stop) triples."""
    starts = range(0, total, block_size)
    return [(index, start, min(start + block_size, total)) for index, start in enumerate(starts)]


def run_blocks(
    worker: Callable,
    total: int,
    block_size: int,
    master_seed: int,
    threads: int = 1,
    worker_args: tuple = (),
):
    """Run `worker(block_seed, block_count, *worker_args)` over a fixed block
    partition and return the list of results in block-index order.

    The partition and per-block seeds depend only on (total, block_size,
    master_seed); `threads` affects scheduling only.  Workers must be
    deterministic functions of their arguments.  With threads > 1 the blocks
    run in separate processes (numpy-heavy workers do not share state), at
    most one per block.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    blocks = block_ranges(total, block_size)
    jobs = [(derive_seed(master_seed, idx), stop - start) for idx, start, stop in blocks]
    if threads == 1 or len(jobs) <= 1:
        return [worker(seed, count, *worker_args) for seed, count in jobs]
    with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
        futures = [pool.submit(worker, seed, count, *worker_args) for seed, count in jobs]
        return [fut.result() for fut in futures]


def fsum_rows(rows: Iterable[Sequence[float]]) -> list[float]:
    """Columnwise compensated sum of equal-length rows, in the order given."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncol = len(mat[0])
    return [math.fsum(row[j] for row in mat) for j in range(ncol)]
