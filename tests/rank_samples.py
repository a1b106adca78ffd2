"""Random sector states of bounded Slater rank, for tests that sample them."""

import numpy as np

from slaterkit import mixed
from slaterkit import witnesses as wi
from slaterkit.linalg import as_rng


def sample_rank_bounded(space: mixed.StateSpace, rank: int, n: int, rng) -> np.ndarray:
    """``n`` random normalized sector vectors of Slater rank <= ``rank``.

    Built from sums of ``rank`` outer products, which is surjective onto
    the bounded-rank manifold.
    """
    rng = as_rng(rng)
    d = space.dims[0]
    if space.kind == mixed.ANTISYMMETRIC:
        a = rng.standard_normal((n, rank, d)) + 1j * rng.standard_normal((n, rank, d))
        b = rng.standard_normal((n, rank, d)) + 1j * rng.standard_normal((n, rank, d))
        ab = a.swapaxes(1, 2) @ b
        w = ab - ab.swapaxes(1, 2)
    else:
        c = rng.standard_normal((n, rank, d)) + 1j * rng.standard_normal((n, rank, d))
        w = c.swapaxes(1, 2) @ c
    vecs = wi._pair_amps(space.kind, w)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs
