"""Canonical forms, Pfaffians and Levi-Civita contractions."""

import math

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit.errors import (
    ArityMismatchError,
    NotAntisymmetricError,
    NotSymmetricError,
    OddDimensionError,
)

rng = np.random.default_rng(42)


def random_antisymmetric(n, generator=rng):
    a = generator.standard_normal((n, n)) + 1j * generator.standard_normal((n, n))
    return a - a.T


def random_symmetric(n, generator=rng):
    a = generator.standard_normal((n, n)) + 1j * generator.standard_normal((n, n))
    return a + a.T


def youla_target(values, n):
    out = np.zeros((n, n), dtype=complex)
    for i, z in enumerate(values):
        out[2 * i, 2 * i + 1] = z
        out[2 * i + 1, 2 * i] = -z
    return out


# ---------------------------------------------------------------------------
# Youla canonical form
# ---------------------------------------------------------------------------

def test_youla_already_canonical():
    w = np.array([[0, 0.5], [-0.5, 0]], dtype=complex)
    form = la.youla_canonical(w)
    assert np.allclose(form.transform, np.eye(2))
    assert np.allclose(form.values, [0.5])


def test_youla_round_trip_4x4():
    q = la.haar_unitary(4, np.random.default_rng(1))
    w = q @ youla_target([0.4, 0.3], 4) @ q.T
    form = la.youla_canonical(w)
    assert np.allclose(form.values, [0.4, 0.3], atol=1e-9)
    assert form.residual <= 1e-9


def test_youla_6x6_rank_two():
    q = la.haar_unitary(6, np.random.default_rng(2))
    w = q @ youla_target([0.7], 6) @ q.T
    form = la.youla_canonical(w)
    assert form.rank == 1
    assert np.allclose(form.values, [0.7], atol=1e-9)
    canon = form.transform @ w @ form.transform.T
    assert np.max(np.abs(canon[2:, 2:])) < 1e-9  # 4x4 zero block


def test_youla_reconstruction_and_invariance():
    gen = np.random.default_rng(3)
    for n in (4, 5, 6, 8):
        w = random_antisymmetric(n, gen)
        form = la.youla_canonical(w)
        canon = form.transform @ w @ form.transform.T
        target = youla_target(form.values, n)
        assert np.max(np.abs(canon - target)) <= 1e-9 * max(1.0, np.abs(w).max())
        q = la.haar_unitary(n, gen)
        rotated = la.youla_canonical(q @ w @ q.T)
        assert np.allclose(np.sort(rotated.values), np.sort(form.values), atol=1e-9)


def test_youla_degenerate_values():
    z = 1 / (2 * np.sqrt(2))
    q = la.haar_unitary(4, np.random.default_rng(4))
    w = q @ youla_target([z, z], 4) @ q.T
    form = la.youla_canonical(w)
    assert np.allclose(form.values, [z, z], atol=1e-10)
    assert form.residual <= 1e-9


def test_youla_rejects_non_antisymmetric():
    with pytest.raises(NotAntisymmetricError):
        la.youla_canonical(np.eye(4))


# ---------------------------------------------------------------------------
# Takagi canonical form
# ---------------------------------------------------------------------------

def test_takagi_diagonal_input():
    form = la.takagi_canonical(np.diag([0.5, 0.5]).astype(complex))
    assert np.allclose(form.values, [0.5, 0.5])
    # transform stays a diagonal phase matrix
    off = form.transform - np.diag(np.diagonal(form.transform))
    assert np.max(np.abs(off)) < 1e-12


def test_takagi_off_diagonal_pair():
    b = 1 / (2 * np.sqrt(2))
    form = la.takagi_canonical(np.array([[0, b], [b, 0]], dtype=complex))
    assert np.allclose(form.values, [b, b], atol=1e-12)


def test_takagi_round_trip():
    q = la.haar_unitary(3, np.random.default_rng(5))
    v = q @ np.diag([0.7, 0.1, 0.0]).astype(complex) @ q.T
    form = la.takagi_canonical(v)
    assert np.allclose(form.values, [0.7, 0.1], atol=1e-9)
    assert form.residual <= 1e-9


def test_takagi_reconstruction_and_invariance():
    gen = np.random.default_rng(6)
    for n in (2, 3, 4, 6):
        v = random_symmetric(n, gen)
        form = la.takagi_canonical(v)
        canon = form.transform @ v @ form.transform.T
        target = np.zeros((n, n), dtype=complex)
        target[: form.rank, : form.rank] = np.diag(form.values)
        assert np.max(np.abs(canon - target)) <= 1e-9 * max(1.0, np.abs(v).max())
        q = la.haar_unitary(n, gen)
        rotated = la.takagi_canonical(q @ v @ q.T)
        assert np.allclose(rotated.values, form.values, atol=1e-8 * np.abs(v).max())


def test_takagi_rejects_non_symmetric():
    with pytest.raises(NotSymmetricError):
        la.takagi_canonical(np.array([[0, 1], [-1, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def test_pfaffian_2x2():
    a = 0.3 - 0.7j
    w = np.array([[0, a], [-a, 0]])
    assert abs(la.pfaffian(w) - a) < 1e-14


def test_pfaffian_block_diagonal():
    w = youla_target([1.5, 2.0], 4)
    assert abs(la.pfaffian(w) - 3.0) < 1e-12


def test_pfaffian_squares_to_determinant():
    gen = np.random.default_rng(7)
    for n in (4, 6, 8):
        for _ in range(10):
            w = random_antisymmetric(n, gen)
            pf2 = la.pfaffian(w) ** 2
            det = np.linalg.det(w)
            assert abs(pf2 - det) <= 1e-9 * abs(det)


def test_pfaffian_congruence_covariance():
    gen = np.random.default_rng(8)
    for _ in range(5):
        w = random_antisymmetric(6, gen)
        q = la.haar_unitary(6, gen)
        lhs = la.pfaffian(q @ w @ q.T)
        rhs = np.linalg.det(q) * la.pfaffian(w)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_pfaffian_odd_dimension_rejected():
    with pytest.raises(OddDimensionError):
        la.pfaffian(np.zeros((3, 3)))


def test_pfaffian_rejects_non_antisymmetric():
    with pytest.raises(NotAntisymmetricError):
        la.pfaffian(np.eye(4))


# ---------------------------------------------------------------------------
# Levi-Civita contractions
# ---------------------------------------------------------------------------

def slater_pair_matrix(entries, d):
    w = np.zeros((d, d), dtype=complex)
    for (i, j), val in entries.items():
        w[i, j] = val
        w[j, i] = -val
    return w


def test_epsilon_single_determinant_vanishes():
    w = slater_pair_matrix({(0, 1): 0.5}, 4)
    values = la.epsilon_contract(la.EpsilonContractionSpec((w, w), "single", 0))
    assert abs(values[()]) < 1e-14


def test_epsilon_maximally_correlated_is_one():
    s = 1 / (2 * np.sqrt(2))
    w = slater_pair_matrix({(0, 1): s, (2, 3): s}, 4)
    values = la.epsilon_contract(la.EpsilonContractionSpec((w, w), "single", 0))
    assert abs(abs(values[()]) - 1.0) < 1e-12


def test_epsilon_bosonic_rank_one_vanishes():
    v = np.diag([0.5, 0, 0]).astype(complex)
    values = la.epsilon_contract(la.EpsilonContractionSpec((v, v), "paired", 1))
    assert len(values) == 3
    assert max(abs(x) for x in values.values()) < 1e-14


def test_epsilon_full_contraction_matches_pfaffian():
    gen = np.random.default_rng(9)
    for n in (4, 6, 8):
        big_k = n // 2
        w = random_antisymmetric(n, gen)
        spec = la.EpsilonContractionSpec((w,) * big_k, "single", 0)
        value = la.epsilon_contract(spec)[()]
        expected = 2 ** big_k * math.factorial(big_k) * la.pfaffian(w)
        assert abs(value - expected) <= 1e-9 * abs(expected)


def test_epsilon_mixed_operands():
    gen = np.random.default_rng(10)
    w1, w2 = random_antisymmetric(4, gen), random_antisymmetric(4, gen)
    v12 = la.epsilon_contract(la.EpsilonContractionSpec((w1, w2), "single", 0))[()]
    v21 = la.epsilon_contract(la.EpsilonContractionSpec((w2, w1), "single", 0))[()]
    assert abs(v12 - v21) < 1e-12 * abs(v12)


def dense_levi_civita(d):
    import itertools
    eps = np.zeros((d,) * d)
    for perm in itertools.permutations(range(d)):
        eps[perm] = np.linalg.det(np.eye(d)[list(perm)])
    return eps


def test_epsilon_single_matches_dense_sum():
    # independent oracle: literal sum over all index tuples with a dense
    # Levi-Civita tensor, distinct operands and free indices included
    gen = np.random.default_rng(20)
    eps4 = dense_levi_civita(4)
    w1, w2 = random_antisymmetric(4, gen), random_antisymmetric(4, gen)
    expect = np.einsum("ijkl,ij,kl->", eps4, w1, w2)
    got = la.epsilon_contract(la.EpsilonContractionSpec((w1, w2), "single", 0))[()]
    assert abs(got - expect) < 1e-10 * max(1.0, abs(expect))

    eps6 = dense_levi_civita(6)
    w6a, w6b = random_antisymmetric(6, gen), random_antisymmetric(6, gen)
    dense = np.einsum("ijklab,ij,kl->ab", eps6, w6a, w6b)
    table = la.epsilon_contract(la.EpsilonContractionSpec((w6a, w6b), "single", 2))
    for (a, b), value in table.items():
        assert abs(value - dense[a, b]) < 1e-10 * max(1.0, np.abs(dense).max())


def test_epsilon_paired_matches_dense_sum():
    gen = np.random.default_rng(21)
    eps3 = dense_levi_civita(3)
    v1, v2 = random_symmetric(3, gen), random_symmetric(3, gen)
    dense = np.einsum("ika,jlb,ij,kl->ab", eps3, eps3, v1, v2)
    table = la.epsilon_contract(la.EpsilonContractionSpec((v1, v2), "paired", 1))
    for (a,), value in table.items():
        assert abs(value - dense[a, a]) < 1e-10 * max(1.0, np.abs(dense).max())


def test_epsilon_arity_checks():
    w = slater_pair_matrix({(0, 1): 1.0}, 4)
    with pytest.raises(ArityMismatchError):
        la.epsilon_contract(la.EpsilonContractionSpec((w, w), "single", 1))
    with pytest.raises(ArityMismatchError):
        la.epsilon_contract(la.EpsilonContractionSpec((w.astype(complex),), "paired", 1))


def test_epsilon_requires_declared_symmetry():
    with pytest.raises(NotAntisymmetricError):
        la.epsilon_contract(la.EpsilonContractionSpec((np.eye(4),), "single", 2))


# ---------------------------------------------------------------------------
# shared utilities
# ---------------------------------------------------------------------------

def test_singular_values_sorted_and_rank_monotone():
    gen = np.random.default_rng(11)
    m = gen.standard_normal((6, 6)) + 1j * gen.standard_normal((6, 6))
    s = la.singular_values(m)
    assert np.all(s >= 0) and np.all(np.diff(s) <= 0)
    ranks = [la.numerical_rank(m, rtol) for rtol in (1e-12, 1e-8, 1e-2, 0.5)]
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def test_haar_unitary_is_unitary_and_seeded():
    u1 = la.haar_unitary(5, np.random.default_rng(12))
    u2 = la.haar_unitary(5, np.random.default_rng(12))
    assert np.allclose(u1, u2)
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(5))) < 1e-12
