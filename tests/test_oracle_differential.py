"""Differential test: the stacked convex-roof search against the per-start loop.

``_sequential_oracle`` below is the former body of
``mixed.convex_roof_oracle``: every start runs its own projected descent,
one after another, with an SVD retraction.  It is kept here only as the
reference for the stacked search that replaced it.
"""

import math

import numpy as np
import pytest

from slaterkit import mixed as mx
from slaterkit import states as st
from slaterkit.linalg import as_rng


def _sequential_oracle(rho, n_starts=12, n_iters=300, seed=0):
    system = mx.canonical_system_of_space(rho.space)
    spec = mx.subnormalized_spectrum(rho)
    r = spec.rank
    ud = st.dual_unitary(system)
    tau = spec.vectors.T @ ud.conj().T @ spec.vectors
    tau = 0.5 * (tau + tau.T)
    if r == 1:
        return float(abs(tau[0, 0]))
    m = min(r * r, 16)
    rng = as_rng(seed)

    def objective(x, mu):
        z = np.einsum("ki,ij,kj->k", x, tau, x)
        mags = np.sqrt(np.abs(z) ** 2 + mu * mu)
        f = float(mags.sum())
        grad = (z / mags)[:, None] * np.conj(x @ tau)
        return f, grad

    def retract(x):
        u, _, vh = np.linalg.svd(x, full_matrices=False)
        return u @ vh

    best = math.inf
    starts = [np.eye(m, r, dtype=complex)]
    while len(starts) < n_starts:
        g = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        starts.append(retract(g))
    for x in starts:
        for mu in (1e-2, 1e-3, 1e-4, 1e-5, 1e-7):
            step = 0.1
            f_prev, grad = objective(x, mu)
            for _ in range(n_iters):
                x_new = retract(x - step * grad)
                f_new, grad_new = objective(x_new, mu)
                if f_new <= f_prev:
                    x, f_prev, grad = x_new, f_new, grad_new
                    step = min(step * 1.3, 1.0)
                else:
                    step *= 0.5
                    if step < 1e-12:
                        break
        z = np.einsum("ki,ij,kj->k", x, tau, x)
        best = min(best, float(np.abs(z).sum()))
        if best < 1e-8:
            break
    return best


SYSTEMS = (("bipartite", (2, 2)), ("fermion", 4), ("boson", 2))
CASES = [(kind, d, rank) for kind, d in SYSTEMS for rank in (2, 3, 4)
         if rank <= (3 if kind == "boson" else 4)]


def _unentangled_state(kind, d, gen):
    """A product state, a single Slater determinant or a two-boson condensate."""
    if kind == "bipartite":
        a, b = (gen.standard_normal(2) + 1j * gen.standard_normal(2) for _ in range(2))
        return st.bipartite_state(np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
    return st.random_slater_rank_state(kind, d, 1, gen)


def _mixture(kind, d, rank, gen, entangled):
    while True:
        draw = st.random_pure_state if entangled else _unentangled_state
        pairs = [(p, draw(kind, d, 2, gen) if entangled else draw(kind, d, gen))
                 for p in gen.dirichlet(np.ones(rank))]
        rho = mx.density_from_mixture(pairs)
        if rho.rank() == rank and (mx.wootters_concurrence(rho) > 1e-3) == entangled:
            return rho


@pytest.mark.parametrize("kind,d,rank", CASES, ids=[f"{k}-rank{r}" for k, _, r in CASES])
@pytest.mark.parametrize("entangled", (True, False), ids=("entangled", "separable"))
@pytest.mark.parametrize("n_starts,n_iters,seeds", ((8, 400, (0, 1)), (2, 50, (0, 1, 2))),
                         ids=("8x400", "2x50"))
def test_stacked_search_matches_sequential_loop(kind, d, rank, entangled, n_starts, n_iters,
                                                seeds):
    for seed in seeds:
        rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, n_starts]), entangled)
        reference = _sequential_oracle(rho, n_starts, n_iters, seed)
        value = mx.convex_roof_oracle(rho, n_starts, n_iters, seed)
        if entangled or min(reference, value) >= 1e-8:
            # no early stop: the same starts follow the same descent
            assert abs(value - reference) <= 1e-10
        else:
            # either search stops once a start is below 1e-8, at different points
            assert max(reference, value) < 1e-8
        if not entangled and rank == 2:
            assert value < 1e-8


def test_rank_deficient_trial_is_rejected():
    x = np.stack([np.eye(4, 2, dtype=complex)] * 2)
    # a step of 0.1 along this gradient zeroes the first column of start 0
    grad = np.zeros_like(x)
    grad[0, :, 0] = 10.0 * x[0, :, 0]

    def objective(y):
        return np.ones(len(y)), grad

    _, ok = mx._polar_retract(x - 0.1 * grad)
    assert ok.tolist() == [False, True]
    out = mx._descend(x, objective, 1)
    assert np.array_equal(out, x)
    assert np.allclose(out.conj().swapaxes(1, 2) @ out, np.eye(2), atol=1e-14)


def test_polar_retraction_is_the_svd_polar_factor():
    gen = np.random.default_rng(0)
    y = gen.standard_normal((5, 9, 3)) + 1j * gen.standard_normal((5, 9, 3))
    q, ok = mx._polar_retract(y)
    u, _, vh = np.linalg.svd(y, full_matrices=False)
    assert ok.all()
    assert np.allclose(q, u @ vh, atol=1e-12)


def test_oracle_zero_iterations_scores_the_starts():
    rho = _mixture("boson", 2, 2, np.random.default_rng(1), True)
    assert abs(mx.convex_roof_oracle(rho, 3, 0, 5) - _sequential_oracle(rho, 3, 0, 5)) <= 1e-12
