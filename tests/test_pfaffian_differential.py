"""Differential test: the stacked Parlett-Reid Pfaffian against the matching sum.

``_matching_table`` and ``_matching_pfaffians`` below are the former
Pfaffian of ``linalg.epsilon_contract``: the sum over all (n-1)!! perfect
matchings, each a product of n/2 entries with its sign.  They are kept here
only as an independent oracle.
"""

from functools import lru_cache

import numpy as np
import pytest

from slaterkit import linalg as la


@lru_cache(maxsize=None)
def _matching_table(n):
    """Perfect matchings of ``range(n)``: flat positions ``a * n + b`` of
    their pairs ``a < b``, shape ``(n // 2, (n-1)!!)``, and their signs.

    Expansion along the first element: pairing 0 with ``j`` contributes
    ``(-1)**(j - 1)`` times the sign of a matching of the other elements.
    """
    if n == 0:
        return np.zeros((0, 1), dtype=np.int16), np.ones(1)
    sub, sub_signs = _matching_table(n - 2)
    rows, cols = divmod(sub, max(n - 2, 1))
    blocks, signs = [], []
    for j in range(1, n):
        others = np.array([x for x in range(1, n) if x != j], dtype=np.int16)
        blocks.append(np.vstack([np.full((1, sub.shape[1]), j, dtype=np.int16),
                                 others[rows] * n + others[cols]]))
        signs.append(sub_signs if j % 2 else -sub_signs)
    return np.hstack(blocks), np.concatenate(signs)


def _matching_pfaffians(stack):
    """Pfaffians of a stack ``(m, n, n)`` by the perfect-matching expansion."""
    m, n = stack.shape[0], stack.shape[-1]
    flat, signs = _matching_table(n)
    minors = stack.reshape(m, n * n)
    prod = minors.take(flat[0], axis=1)
    for column in flat[1:]:
        prod = prod * minors.take(column, axis=1)
    return prod.dot(signs)


def _antisymmetric(gen, m, n):
    a = gen.standard_normal((m, n, n)) + 1j * gen.standard_normal((m, n, n))
    return a - a.transpose(0, 2, 1)


def _stack(shape, n, seed):
    """A seeded stack of 24 antisymmetric ``n x n`` matrices of one shape."""
    gen = np.random.default_rng([seed, n])
    a = _antisymmetric(gen, 24, n)
    if shape == "sparse":
        # about 60% exact zeros, so pivot columns vanish at some steps
        keep = np.triu(gen.random((24, n, n)) >= 0.6, 1)
        a = np.where(keep | keep.transpose(0, 2, 1), a, 0)
    elif shape == "rank_deficient":
        # B X B^T with X antisymmetric of even rank r < n (Pf = 0), at the
        # norm of the full-rank matrices between them, which set the scale
        for i in range(0, 24, 2):
            r = 2 * int(gen.integers(0, n // 2))
            b = gen.standard_normal((n, r)) + 1j * gen.standard_normal((n, r))
            low = b @ _antisymmetric(gen, 1, r)[0] @ b.T
            a[i] = low * (np.linalg.norm(a[i]) / max(np.linalg.norm(low), 1.0))
    elif shape == "zero_pivot":
        # every other matrix has a zero first row and column: Pf = 0 at step one
        a[::2, 0, :] = 0
        a[::2, :, 0] = 0
    return a


SHAPES = ("random", "sparse", "rank_deficient", "zero_pivot")


@pytest.mark.parametrize("n", range(2, 13, 2))
@pytest.mark.parametrize("shape", SHAPES)
def test_stacked_pfaffians_match_the_matching_sum(shape, n):
    for seed in range(3):
        stack = _stack(shape, n, seed)
        got = la._pfaffians(stack)
        want = _matching_pfaffians(stack)
        scale = np.abs(want).max()
        assert scale > 0
        assert np.abs(got - want).max() <= 1e-12 * scale
        if shape == "zero_pivot":
            assert not got[::2].any()
        # the one-row Pfaffian is the same kernel on a stack of one; a row
        # alone can round differently from the same row inside a stack
        single = np.array([la.pfaffian(w) for w in stack])
        assert np.abs(single - got).max() <= 1e-12 * scale


def test_stacked_pfaffians_leave_their_input_unchanged():
    stack = _stack("sparse", 8, 0)
    before = stack.copy()
    la._pfaffians(stack)
    assert np.array_equal(stack, before)
