"""Seeded differential test of the shared congruence skeleton.

``youla_canonical`` and ``takagi_canonical`` run the SVD, the rank cut, the
clustering and the residual check in two shared helpers, and the Youla
pairing takes the complement of the used columns from ``_range_split``.
The oracle below is the former pair of functions, each with its own copy of
that skeleton and with the Youla complement from ``_orthonormal_complement``.
The skeleton runs the clusters of one size as one stack; the oracle runs
them one at a time.  Every result must be bit-identical: transform, values
and residual.
"""

import itertools

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit.errors import NumericalFailureError


def _orthonormal_complement(used: np.ndarray, dim: int) -> np.ndarray:
    if used.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    proj = np.eye(dim, dtype=complex) - used @ used.conj().T
    evals, evecs = np.linalg.eigh(proj)
    return evecs[:, evals > 0.5]


def _oracle_youla(w, rank_rtol=la.RANK_RTOL) -> la.CongruenceCanonicalForm:
    w = la.as_complex_matrix(w)
    la.require_antisymmetric(w)
    n = w.shape[0]
    if n == 0:
        return la.CongruenceCanonicalForm(np.eye(0, dtype=complex), np.array([]), 0.0)
    _, z, vh = np.linalg.svd(w)
    vecs = vh.conj().T
    smax = z[0]
    thr = rank_rtol * smax
    cluster_atol = max(la.TOL_RECON, 1e3 * np.finfo(float).eps) * max(smax, 1.0)
    nonzero = [i for i in range(n) if z[i] > thr]
    column_blocks = []
    for group in la._cluster_by_gap(z[: len(nonzero)], cluster_atol):
        m2 = len(group)
        if m2 % 2:
            raise NumericalFailureError(f"odd-sized singular cluster of size {m2}")
        sub = vecs[:, group]
        bil = sub.T @ w @ sub
        pairs = []
        used = np.zeros((m2, 0), dtype=complex)
        while used.shape[1] < m2:
            u = _orthonormal_complement(used, m2)[:, 0]
            partner = -np.conj(bil @ u)
            for c in itertools.chain(pairs, [u]):
                partner = partner - c * (c.conj() @ partner)
            partner = partner / np.linalg.norm(partner)
            pairs.extend([u, partner])
            used = np.column_stack([used, u, partner])
        column_blocks.append(sub @ np.column_stack(pairs))
    kernel = vecs[:, len(nonzero):]
    phi = np.column_stack(column_blocks + [kernel]) if column_blocks else kernel
    r = len(nonzero) // 2
    probe = phi.T @ w @ phi
    values = np.array([probe[2 * i, 2 * i + 1].real for i in range(r)])
    perm = np.argsort(-values, kind="stable")
    if not np.array_equal(perm, np.arange(r)):
        cols = np.arange(n)
        for slot, src in enumerate(perm):
            cols[2 * slot], cols[2 * slot + 1] = 2 * src, 2 * src + 1
        phi = phi[:, cols]
        values = values[perm]
    for i in range(r):
        a = phi[:, 2 * i]
        ph = a[int(np.argmax(np.abs(a)))]
        rot = ph / abs(ph)
        phi[:, 2 * i] = a / rot
        phi[:, 2 * i + 1] = phi[:, 2 * i + 1] * rot
    for j in range(2 * r, n):
        c = phi[:, j]
        ph = c[int(np.argmax(np.abs(c)))]
        if abs(ph) > 0:
            phi[:, j] = c / (ph / abs(ph))
    u_out = phi.T
    target = np.zeros((n, n), dtype=complex)
    for i, zi in enumerate(values):
        target[2 * i, 2 * i + 1] = zi
        target[2 * i + 1, 2 * i] = -zi
    residual = la.max_abs(u_out @ w @ u_out.T - target)
    if residual > la.TOL_RECON * max(1.0, smax):
        raise NumericalFailureError(f"Youla reconstruction residual {residual:.3e}")
    return la.CongruenceCanonicalForm(u_out, values, residual)


def _oracle_takagi(v, rank_rtol=la.RANK_RTOL) -> la.CongruenceCanonicalForm:
    v = la.as_complex_matrix(v)
    la.require_symmetric(v)
    n = v.shape[0]
    if n == 0:
        return la.CongruenceCanonicalForm(np.eye(0, dtype=complex), np.array([]), 0.0)
    _, z, vh = np.linalg.svd(v)
    vecs = vh.conj().T
    smax = z[0]
    thr = rank_rtol * smax
    cluster_atol = max(la.TOL_RECON, 1e3 * np.finfo(float).eps) * max(smax, 1.0)
    nonzero = [i for i in range(n) if z[i] > thr]
    column_blocks = []
    for group in la._cluster_by_gap(z[: len(nonzero)], cluster_atol):
        sub = vecs[:, group]
        zc = float(np.mean(z[group]))
        bil = sub.T @ v @ sub
        o, theta = la._symmetric_unitary_factor(bil / zc)
        column_blocks.append(sub @ (o * np.exp(-0.5j * theta)))
    kernel = vecs[:, len(nonzero):]
    phi = np.column_stack(column_blocks + [kernel]) if column_blocks else kernel
    probe = phi.T @ v @ phi
    values = np.diagonal(probe)[: len(nonzero)].real.copy()
    perm = np.argsort(-values, kind="stable")
    if not np.array_equal(perm, np.arange(len(values))):
        cols = np.arange(n)
        cols[: len(values)] = perm
        phi = phi[:, cols]
        values = values[perm]
    for j in range(n):
        c = phi[:, j]
        ph = c[int(np.argmax(np.abs(c)))]
        if ph.real < 0 or (ph.real == 0 and ph.imag < 0):
            phi[:, j] = -c
    u_out = phi.T
    target = np.zeros((n, n), dtype=complex)
    target[: len(values), : len(values)] = np.diag(values)
    residual = la.max_abs(u_out @ v @ u_out.T - target)
    if residual > la.TOL_RECON * max(1.0, smax):
        raise NumericalFailureError(f"Takagi reconstruction residual {residual:.3e}")
    return la.CongruenceCanonicalForm(u_out, values, residual)


def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _canonical(symmetric: bool, values: np.ndarray) -> np.ndarray:
    d = len(values)
    if symmetric:
        return np.diag(values).astype(complex)
    core = np.zeros((d, d), dtype=complex)
    for i in range(d // 2):
        core[2 * i, 2 * i + 1], core[2 * i + 1, 2 * i] = values[i], -values[i]
    return core


def _mixed_values(d: int) -> np.ndarray:
    """``(1, 1, 0.6, 0.3, 0.15, ...)``: one repeated value, then distinct ones,
    so one call runs cluster stacks of two sizes."""
    return np.concatenate([[1.0, 1.0], 0.6 * 0.5 ** np.arange(d)])[:d]


def _matrices(symmetric: bool, d: int, seed: int) -> dict[str, np.ndarray]:
    """Generic, rank-deficient, rotated maximally correlated and zero inputs,
    plus rotated values spread below the cluster gap, which come out of one
    merged cluster unordered and so take the reordering branch, and rotated
    values with clusters of two sizes."""
    rng = np.random.default_rng(1000 * d + seed + (500 if symmetric else 0))
    u = la.haar_unitary(d, rng)
    generic = _ginibre(rng, d, d)
    if symmetric:
        generic = generic + generic.T
        a = _ginibre(rng, d, max(d // 2, 1))
        deficient = a @ a.T
    else:
        generic = generic - generic.T
        a, b = _ginibre(rng, d, max(d // 3, 1)), _ginibre(rng, d, max(d // 3, 1))
        deficient = a @ b.T - b @ a.T
    degenerate = u @ _canonical(symmetric, np.ones(d)) @ u.T
    near = u @ _canonical(symmetric, 1.0 - 8e-10 * rng.random(d)) @ u.T
    mixed = u @ _canonical(symmetric, _mixed_values(d)) @ u.T
    return {"generic": generic, "deficient": deficient, "degenerate": degenerate,
            "near-degenerate": near, "zero": np.zeros((d, d), dtype=complex),
            "mixed-clusters": mixed}


def _assert_identical(form, oracle):
    assert np.array_equal(form.transform, oracle.transform)
    assert np.array_equal(form.values, oracle.values)
    assert form.residual == oracle.residual


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("seed", range(3))
def test_youla_skeleton_matches_the_former_construction(d, seed):
    for matrix in _matrices(False, d, seed).values():
        _assert_identical(la.youla_canonical(matrix), _oracle_youla(matrix))


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("seed", range(3))
def test_takagi_skeleton_matches_the_former_construction(d, seed):
    for matrix in _matrices(True, d, seed).values():
        _assert_identical(la.takagi_canonical(matrix), _oracle_takagi(matrix))


def test_the_inputs_reach_every_cluster_shape():
    """The degenerate inputs put all nonzero values in one cluster, and the
    deficient ones leave a kernel."""
    for symmetric, canonical in ((False, la.youla_canonical), (True, la.takagi_canonical)):
        mats = _matrices(symmetric, 8, 0)
        full = 8 if symmetric else 4
        values = canonical(mats["degenerate"]).values
        assert len(values) == full and np.ptp(values) < 1e-12
        assert 0 < canonical(mats["deficient"]).rank < full
        assert canonical(mats["zero"]).rank == 0


@pytest.mark.parametrize("symmetric", (False, True))
def test_one_cluster_step_per_cluster_size(symmetric, monkeypatch):
    """The clusters of one size run as one stack: a per-cluster loop fails here."""
    name = "_takagi_columns" if symmetric else "_youla_pairs"
    step, shapes = getattr(la, name), []
    monkeypatch.setattr(la, name, lambda bil, z: shapes.append(z.shape) or step(bil, z))
    canonical = la.takagi_canonical if symmetric else la.youla_canonical
    mats = _matrices(symmetric, 10, 0)
    canonical(mats["generic"])
    assert shapes == ([(10, 1)] if symmetric else [(5, 2)])
    del shapes[:]
    canonical(mats["mixed-clusters"])
    assert shapes == ([(1, 2), (8, 1)] if symmetric else [(1, 4), (3, 2)])


def test_odd_youla_cluster_in_a_stack_raises_with_its_value():
    """Singular values ``(1, 1, 0.6, 0.3, 0.3, 0.1)`` cluster as sizes 2, 1, 2, 1:
    the size-1 stack holds the clusters at 0.6 and 0.1, and the first of them
    is reported."""
    rng = np.random.default_rng(7)
    values = np.array([1.0, 1.0, 0.6, 0.3, 0.3, 0.1])
    m = la.haar_unitary(6, rng) @ np.diag(values) @ la.haar_unitary(6, rng)
    with pytest.raises(NumericalFailureError, match=r"size 1 at z ~ 6\.000e-01"):
        la._congruence_columns(m, la.RANK_RTOL, la._youla_pairs)
