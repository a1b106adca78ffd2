"""Differential test: the stacked L-BFGS manifold search against the restart loop.

``_SectorChart``, ``_quadratic_objective`` and ``_sequential_search`` (the
former ``_search_rank_manifold``) below are the former witness-layer code:
one ``scipy.optimize.minimize`` (L-BFGS-B) call per restart, with per-tuple
sector conversions.  They are kept here only as the reference for the
stacked search that replaced them, and for the closed-form infimum that
identity-plus-rank-one operators take; scipy comes with the ``test`` extra.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from rank_samples import sample_rank_bounded

from slaterkit import linalg as la
from slaterkit import mixed, sectors
from slaterkit import states as st
from slaterkit import witnesses as wi
from slaterkit.linalg import as_rng, haar_unitary

FAMILIES = [(kind, big_k, k) for kind in ("fermion", "boson")
            for big_k, k in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3))]


@dataclass(frozen=True)
class _SectorChart:
    """Outer-product chart of the Slater rank <= k-1 manifold.

    Fermionic states come from k-1 vector pairs (``w = sum a b^T - b a^T``),
    bosonic ones from k-1 single vectors (``v = sum c c^T``); both maps are
    surjective by the canonical decomposition and polynomial in the
    parameters, so quadratic objectives get exact gradients.
    """

    space: mixed.StateSpace
    k: int

    @property
    def d(self) -> int:
        return self.space.dims[0]

    @property
    def n_vectors(self) -> int:
        per_block = 2 if self.space.kind == mixed.ANTISYMMETRIC else 1
        return per_block * (self.k - 1)

    @property
    def n_params(self) -> int:
        return 2 * self.d * self.n_vectors

    def vectors(self, x: np.ndarray) -> np.ndarray:
        half = x.size // 2
        return (x[:half] + 1j * x[half:]).reshape(self.n_vectors, self.d)

    def pair_matrix(self, vecs: np.ndarray) -> np.ndarray:
        if self.space.kind == mixed.ANTISYMMETRIC:
            a, b = vecs[0::2], vecs[1::2]
            return np.einsum("ri,rj->ij", a, b) - np.einsum("ri,rj->ij", b, a)
        return np.einsum("ri,rj->ij", vecs, vecs)

    def sector_vector(self, w: np.ndarray) -> np.ndarray:
        tuples = sectors.sector_tuples(self.space.kind, self.d, 2)
        vec = np.empty(len(tuples), dtype=complex)
        for col, (i, j) in enumerate(tuples):
            if self.space.kind == mixed.ANTISYMMETRIC:
                vec[col] = w[i, j] - w[j, i]
            elif i == j:
                vec[col] = math.sqrt(2.0) * w[i, i]
            else:
                vec[col] = w[i, j] + w[j, i]
        return vec

    def grad_matrix(self, grad_vec: np.ndarray) -> np.ndarray:
        """Adjoint of ``sector_vector`` on an unconstrained w matrix."""
        g = np.zeros((self.d, self.d), dtype=complex)
        for col, (i, j) in enumerate(sectors.sector_tuples(self.space.kind, self.d, 2)):
            if self.space.kind == mixed.ANTISYMMETRIC:
                g[i, j] += grad_vec[col]
                g[j, i] -= grad_vec[col]
            elif i == j:
                g[i, i] += math.sqrt(2.0) * grad_vec[col]
            else:
                g[i, j] += grad_vec[col]
                g[j, i] += grad_vec[col]
        return g


def _quadratic_objective(chart: _SectorChart, m_matrix: np.ndarray):
    """``f(x) = <psi|M|psi>`` on normalized chart states, with gradient."""

    def fun(x: np.ndarray):
        vecs = chart.vectors(x)
        w = chart.pair_matrix(vecs)
        psi = chart.sector_vector(w)
        den = float(np.real(np.vdot(psi, psi)))
        if den < 1e-18:
            return 1e6, np.zeros_like(x)
        mpsi = m_matrix @ psi
        num = float(np.real(np.vdot(psi, mpsi)))
        f = num / den
        grad_vec = (mpsi - f * psi) / den  # d f / d conj(psi)
        g = chart.grad_matrix(grad_vec)
        if chart.space.kind == mixed.ANTISYMMETRIC:
            gm = g - g.T
            a, b = vecs[0::2], vecs[1::2]
            ga = np.conj(b) @ gm.T  # rows: d f / d conj(a_r)
            gb = -np.conj(a) @ gm.T
            gv = np.empty_like(vecs)
            gv[0::2], gv[1::2] = ga, gb
        else:
            gv = np.conj(vecs) @ (g + g.T).T
        flat = gv.ravel()
        return f, np.concatenate([2.0 * flat.real, 2.0 * flat.imag])

    return fun


def _sequential_search(space: mixed.StateSpace, k: int, m_matrix: np.ndarray,
                          budget: int, iters: int, rng
                          ) -> list[tuple[float, np.ndarray]]:
    """Multi-restart minimization of ``<psi|M|psi>`` over the rank-(k-1)
    manifold.  Returns per-restart minima with their states."""
    import scipy.optimize  # deferred: most of the package import time, needed only here

    rng = as_rng(rng)
    chart = _SectorChart(space, k)
    fun = _quadratic_objective(chart, m_matrix)
    results = []
    for _ in range(budget):
        x0 = rng.standard_normal(chart.n_params)
        res = scipy.optimize.minimize(
            fun, x0, jac=True, method="L-BFGS-B",
            options={"maxiter": iters, "ftol": 1e-15, "gtol": 1e-10})
        psi = chart.sector_vector(chart.pair_matrix(chart.vectors(res.x)))
        n = np.linalg.norm(psi)
        if n < 1e-9:
            continue
        results.append((float(res.fun), psi / n))
    return sorted(results, key=lambda t: t[0])


def _as_restarts(space, k, m_matrix, budget, iters, rng):
    """The restart loop with its minima in the stacked search's record type."""
    return [wi.Restart(value, psi, False, 0)
            for value, psi in _sequential_search(space, k, m_matrix, budget, iters, rng)]


@pytest.fixture()
def searched(monkeypatch):
    """Run a witness-layer call with the closed form switched off, so every
    infimum searches: on the stacked search, or with ``loop=True`` on the
    restart loop."""

    def run(fn, *args, loop=False, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(wi, "_identity_plus_rank_one_infimum", lambda *args: None)
            if loop:
                patch.setattr(wi, "_search_rank_manifold", _as_restarts)
            return fn(*args, **kwargs)

    return run


def _span_dim(minima) -> int:
    tangent = np.array([psi for value, psi, *_ in minima if value <= 1e-7])
    svals = np.linalg.svd(tangent, compute_uv=False)
    return int(np.count_nonzero(svals > 1e-6 * svals[0]))


@pytest.mark.parametrize("family", FAMILIES)
def test_optimal_families_agree(family, searched):
    kind, big_k, k = family
    w = wi.optimal_witness_example(big_k, k, kind)
    seed = 100 + FAMILIES.index(family)
    old = _sequential_search(w.space, k, w.matrix, 64, 400, seed)
    new = wi._search_rank_manifold(w.space, k, w.matrix, 64, 400, seed)
    assert abs(old[0][0] - new[0].value) <= 1e-10
    assert len(new) == len(old) == 64
    assert _span_dim(new) == _span_dim(old)
    # witness_optimize takes the closed form on the family; both sides search
    assert searched(wi.witness_optimize, w, seed=seed).optimal == searched(
        wi.witness_optimize, w, seed=seed, loop=True).optimal


@pytest.mark.parametrize("family", [f for f in FAMILIES if f[2] == 2])
def test_canonical_form_agrees(family):
    # the shifted family is identity plus rank one, so its check is the
    # closed form; the reference is the restart loop it would have run
    kind, big_k, k = family
    w = wi.optimal_witness_example(big_k, k, kind)
    for seed in range(3):
        new = wi.canonical_witness_form(w, seed=seed)
        old = _sequential_search(w.space, k, new.w_tilde, 16, 300, seed)[0][0]
        assert new.verified and new.epsilon <= old + 1e-6
        assert abs(new.epsilon - (big_k / (k - 1) - 1)) <= 1e-10
        assert abs(new.infimum_check - old) <= 1e-10


def _edge_state(seed):
    """The edge part of a rotated mixture of a cross-pair determinant and the
    maximally correlated state of two fermions with d = 4."""
    rng = np.random.default_rng(seed)
    det = st.fermion_state(4, 2, {(0, 2): 1.0})
    mc = st.maximally_correlated_state("fermion", 2)
    p = float(rng.uniform(0.3, 0.7))
    rho = mixed.density_from_mixture([(1 - p, det), (p, mc)])
    lift = sectors.lift_unitary(sectors.ANTISYMMETRIC, haar_unitary(4, rng), 2)
    rho = mixed.density_matrix(rho.space, lift @ rho.matrix @ lift.conj().T)
    return wi.edge_state_decompose(rho, 2, seed=seed).edge_state


@pytest.mark.parametrize("seed", range(6))
def test_edge_witness_agrees(seed):
    # the edge part is pure, so eps is the closed form; the reference is the
    # restart loop on the same kernel projector P, and W = P - eps * 1
    delta = _edge_state(seed)
    new = wi.witness_from_edge(delta, 2, seed=seed)
    _, basis, _ = la._range_split(delta.matrix)
    kernel = np.eye(delta.space.dim) - basis @ basis.conj().T
    eps_old = _sequential_search(delta.space, 2, kernel, 64, 400, seed)[0][0]
    eps_new = -np.linalg.eigvalsh(new.matrix)[0]
    assert abs(eps_new - eps_old) <= 1e-9
    assert np.max(np.abs(new.matrix - (kernel - eps_old * np.eye(delta.space.dim)))) <= 1e-9


def test_bisection_path_agrees(searched):
    # the closed form against the restart loop it replaces
    w = wi.optimal_witness_example(2, 2, "fermion")
    shifted = wi.witness_operator(w.space, w.matrix + 0.1 * np.eye(6), 2)
    new = wi.witness_optimize(shifted, budget=24, seed=9)
    old = searched(wi.witness_optimize, shifted, budget=24, seed=9, loop=True)
    assert new.diagnostics["tangent_samples"] == old.diagnostics["tangent_samples"] == 0
    assert abs(new.subtracted_weight - old.subtracted_weight) <= 1e-9
    assert np.max(np.abs(new.witness.matrix - old.witness.matrix)) <= 1e-9


@pytest.mark.parametrize("family", [("fermion", 3, 3), ("boson", 4, 2)])
def test_zero_iterations_score_the_starts(family):
    # the old loop's maxiter=0 still took one L-BFGS-B step, so the
    # reference here is its objective at the same starts
    kind, big_k, k = family
    w = wi.optimal_witness_example(big_k, k, kind)
    chart = _SectorChart(w.space, k)
    fun = _quadratic_objective(chart, w.matrix)
    starts = np.random.default_rng(4).standard_normal((16, chart.n_params))
    expected = sorted(fun(x0)[0] for x0 in starts)
    new = wi._search_rank_manifold(w.space, k, w.matrix, 16, 0, 4)
    assert np.max(np.abs(np.array([m.value for m in new]) - expected)) <= 1e-12
    assert all(m.iterations == 0 and not m.converged for m in new)


def test_generator_state_matches_the_loop():
    w = wi.optimal_witness_example(3, 2, "boson")
    old_rng, new_rng = np.random.default_rng(5), np.random.default_rng(5)
    _sequential_search(w.space, 2, w.matrix, 12, 50, old_rng)
    wi._search_rank_manifold(w.space, 2, w.matrix, 12, 50, new_rng)
    assert old_rng.bit_generator.state == new_rng.bit_generator.state
    assert old_rng.standard_normal() == new_rng.standard_normal()


def _looped_samples(space, rank, n, rng):
    """The former column loop of ``sample_rank_bounded``."""
    rng = as_rng(rng)
    d = space.dims[0]
    if space.kind == mixed.ANTISYMMETRIC:
        a = rng.standard_normal((n, rank, d)) + 1j * rng.standard_normal((n, rank, d))
        b = rng.standard_normal((n, rank, d)) + 1j * rng.standard_normal((n, rank, d))
        w = np.einsum("nri,nrj->nij", a, b) - np.einsum("nri,nrj->nij", b, a)
    else:
        c = rng.standard_normal((n, rank, d)) + 1j * rng.standard_normal((n, rank, d))
        w = np.einsum("nri,nrj->nij", c, c)
    tuples = sectors.sector_tuples(space.kind, d, 2)
    vecs = np.empty((n, len(tuples)), dtype=complex)
    for col, (i, j) in enumerate(tuples):
        vecs[:, col] = (math.sqrt(2.0) if i == j else 2.0) * w[:, i, j]
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


def test_rank_bounded_samples_match_the_column_loop():
    # the gather scales a diagonal entry by 2/sqrt(2) where the loop used sqrt(2)
    for d in range(2, 9):
        for space in (mixed.antisymmetric_space(d), mixed.symmetric_space(d)):
            for rank in (1, max(1, d // 2)):
                new = sample_rank_bounded(space, rank, 40, d)
                old = _looped_samples(space, rank, 40, d)
                assert np.max(np.abs(new - old)) <= 1e-15
