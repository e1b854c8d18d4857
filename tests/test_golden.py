"""The word and two-colour kernels pinned to their outputs at commit
e5b62c2e03649a2f82a990edae1b691b4ee2e6b0, before the word kernel tracked
symbol spans and the two-colour kernel ran in place: same seeds, same dtype
and shape, same bytes (by sha256)."""

import hashlib

import numpy as np
import pytest

from polyaurn.stirling import simulate_block_counts
from polyaurn.urns import polya_young, simulate_white_batch, triangular, with_white_immigration

BLOCKS = {  # (d, p, t, N, n_reps, seed) -> sha256 of the int64 block counts
    (2, 2, 1, 8, 100_000, 1): "a368cd978d5eae7311f5b2895dd54702f3a105e484d0eb2c28e75dbb3751ee49",
    (3, 2, 2, 12, 50_000, 9): "f0677e234bc81ad9c2c5cb9dd48dafe996b03dc4b55a38dc4804e5e2ea6af497",
}

WHITE = {  # name -> (spec, checkpoints, n_reps, seed, sha256 of the stacked white counts)
    "std_tail_sum": (polya_young(2, 1, 1, 1, 1), [1000, 9000], 8192, 3,
                     "058c289312a3126cd12d682914ccfd6918bfd5c20f640583d824765d8b34c38a"),
    "q_1": (polya_young(2, 1, 1, 1, 0), [0, 50, 400], 4096, 5,
            "dfaa60f3613b1f38df6e24f4f65d392b32877248f1e6786c3739a3f75d1d6b2b"),
    "sigma_2": (triangular(2, 2, 1, 3, 2, 1), [10, 300], 4096, 7,
                "703dad36d9438a2a0283ad17052ef5d9dcdf1f11a9e6e8fb4611f1ae5f053d7b"),
    "immigration": (with_white_immigration(triangular(2, 1, 1, 2, 1, 1), [0, 1]), [7, 200],
                    4096, 11, "787ff1688e0302ea97e0f456c4045e1db4b91e81d1802f5d47ec888597891735"),
}


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("args", list(BLOCKS), ids=lambda a: "_".join(map(str, a)))
def test_block_counts_golden(args):
    counts = simulate_block_counts(*args)
    assert counts.dtype == np.int64 and counts.shape == (args[4],)
    assert _sha256(counts) == BLOCKS[args]


@pytest.mark.parametrize("name", list(WHITE))
def test_white_batch_golden(name):
    spec, checkpoints, n_reps, seed, digest = WHITE[name]
    out = np.stack(simulate_white_batch(spec, checkpoints, n_reps, seed))
    assert out.dtype == np.float64 and out.shape == (len(checkpoints), n_reps)
    assert _sha256(out) == digest
