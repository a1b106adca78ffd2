"""Differential tests of the convex-roof oracle against the searches it replaced.

``_sequential_oracle`` below is the first body of
``mixed.convex_roof_oracle``: every start runs its own projected descent,
one after another, with an SVD retraction.  ``_stacked_descent_oracle`` is
the second: the same descent with all starts stacked and a polar
retraction (``_descend``).  The stacked descent is pinned to the loop, and
the Riemannian L-BFGS search that replaced it must be no worse than it and
never below the closed form.
"""

import functools
import math

import numpy as np
import pytest

from slaterkit import linalg as la
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


def _stacked_descent_oracle(rho, n_starts=12, n_iters=300, seed=0):
    tau = mx._dual_overlap(rho, mx.canonical_system_of_space(rho.space))
    r = len(tau)
    if r == 1:
        return float(abs(tau[0, 0]))
    m = min(r * r, 16)
    rng = as_rng(seed)

    def objective(x, mu):
        xt = x @ tau
        z = (xt * x).sum(-1)
        mags = np.sqrt(np.abs(z) ** 2 + mu * mu)
        # Wirtinger gradient wrt conj(x); descent follows its negative
        return mags.sum(-1), (z / mags)[..., None] * xt.conj()

    draws = [rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
             for _ in range(n_starts - 1)]
    x, _ = mx._polar_retract(np.stack([np.eye(m, r, dtype=complex)] + draws))
    for mu in (1e-2, 1e-3, 1e-4, 1e-5, 1e-7):
        x = _descend(x, lambda y: objective(y, mu), n_iters)
        best = float(np.abs((x @ tau * x).sum(-1)).sum(-1).min())
        if best < 1e-8:
            break
    return best


def _descend(x, objective, n_iters):
    """Backtracking descent of each isometry in a stack: a start's trial is accepted
    if its value does not rise and its polar factor exists, else its step halves."""
    step, active = np.full(len(x), 0.1), np.ones(len(x), dtype=bool)
    f_prev, grad = objective(x)
    for _ in range(n_iters):
        x_new, ok = mx._polar_retract(x - step[:, None, None] * grad)
        f_new, grad_new = objective(x_new)
        accept = active & ok & (f_new <= f_prev)
        keep = accept[:, None, None]
        x, grad = np.where(keep, x_new, x), np.where(keep, grad_new, grad)
        f_prev = np.where(accept, f_new, f_prev)
        step = np.where(accept, np.minimum(step * 1.3, 1.0), np.where(active, step * 0.5, step))
        active &= step >= 1e-12
        if not active.any():
            break
    return x


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


@functools.lru_cache(maxsize=None)
def _reference(kind, d, rank, entangled, n_starts, n_iters, seed):
    """A seeded mixture and the stacked descent's value on it."""
    rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, n_starts]), entangled)
    return rho, _stacked_descent_oracle(rho, n_starts, n_iters, seed)


BUDGETS = pytest.mark.parametrize("n_starts,n_iters,seeds",
                                  ((8, 400, (0, 1)), (2, 50, (0, 1, 2))), ids=("8x400", "2x50"))
MIXTURES = pytest.mark.parametrize("kind,d,rank", CASES,
                                   ids=[f"{k}-rank{r}" for k, _, r in CASES])
ENTANGLED = pytest.mark.parametrize("entangled", (True, False), ids=("entangled", "separable"))


@MIXTURES
@ENTANGLED
@BUDGETS
def test_stacked_search_matches_sequential_loop(kind, d, rank, entangled, n_starts, n_iters,
                                                seeds):
    for seed in seeds:
        rho, value = _reference(kind, d, rank, entangled, n_starts, n_iters, seed)
        reference = _sequential_oracle(rho, n_starts, n_iters, seed)
        if entangled or min(reference, value) >= 1e-8:
            # no early stop: the same starts follow the same descent
            assert abs(value - reference) <= 1e-10
        else:
            # either search stops once a start is below 1e-8, at different points
            assert max(reference, value) < 1e-8
        if not entangled and rank == 2:
            assert value < 1e-8


@MIXTURES
@ENTANGLED
@BUDGETS
def test_lbfgs_search_is_no_worse_than_descent(kind, d, rank, entangled, n_starts, n_iters,
                                               seeds):
    for seed in seeds:
        rho, reference = _reference(kind, d, rank, entangled, n_starts, n_iters, seed)
        value = mx.convex_roof_oracle(rho, n_starts, n_iters, seed)
        # an upper bound on the convex roof, which the closed form gives exactly
        assert mx.wootters_concurrence(rho) - 1e-10 <= value
        assert value <= reference + 1e-10 or max(reference, value) < 1e-8
        if not entangled and rank == 2:
            assert value < 1e-8


SEPARABLE_HIGH_RANK = [(kind, d, rank) for kind, d, rank in CASES if rank >= 3]


@pytest.mark.parametrize("kind,d,rank", SEPARABLE_HIGH_RANK,
                         ids=[f"{k}-rank{r}" for k, _, r in SEPARABLE_HIGH_RANK])
def test_separable_high_rank_mixtures_reach_zero(kind, d, rank):
    # the stacked descent stopped at 3.6e-5 to 1.2e-3 on such mixtures
    for seed in range(12):
        rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, 8]), False)
        assert mx.convex_roof_oracle(rho, 8, 400, seed) < 1e-6


def test_rank_deficient_trial_is_rejected(monkeypatch):
    # real 4 x 2 isometries as rows; f is linear, so every trial with a polar
    # factor meets the Armijo test
    x = np.stack([np.eye(4, 2), np.eye(4, 2)[[3, 0, 1, 2]]]).reshape(2, 8)
    c = np.zeros(8)
    c[0] = 1.0

    def fun(rows):
        return rows @ c, np.broadcast_to(c, rows.shape).copy()

    def retract(rows):
        q, ok = mx._polar_retract(rows.reshape(-1, 4, 2))
        return q.reshape(-1, 8), ok

    # the unit step along -c zeroes the first column of start 0 only
    _, ok = retract(x - c)
    assert ok.tolist() == [False, True]
    monkeypatch.setattr(la, "_LINE_SEARCH_TRIALS", 1)
    out, f, converged, iterations = la._lbfgs(fun, x, 1, retract)
    assert np.array_equal(out[0], x[0]) and f[0] == 1.0
    assert iterations.tolist() == [0, 1] and not converged[0]
    q = out[1].reshape(4, 2)
    assert f[1] < 0.0 and np.allclose(q.T @ q, np.eye(2), atol=1e-14)


def test_stage_iterates_stay_isometries():
    rho = _mixture("fermion", 4, 3, np.random.default_rng(7), True)
    tau = mx._dual_overlap(rho, mx.canonical_system_of_space(rho.space))
    gen = np.random.default_rng(8)
    x0, _ = mx._polar_retract(gen.standard_normal((6, 9, 3)) + 1j * gen.standard_normal((6, 9, 3)))
    x, converged, iterations = mx._roof_stage(x0, tau, 1e-2, 100)
    assert iterations.min() > 0
    assert np.abs(x.conj().swapaxes(1, 2) @ x - np.eye(3)).max() <= 1e-12


def test_details_report_the_search():
    rho = _mixture("bipartite", (2, 2), 3, np.random.default_rng(3), True)
    details = mx.convex_roof_details(rho, 6, 200, 4)
    assert details.value == mx.convex_roof_oracle(rho, 6, 200, 4)
    assert 0 < details.max_iterations <= 200 and 0 <= details.starts_converged <= 6
    with pytest.raises(AttributeError):
        details.value = 0.0
    separable = _mixture("fermion", 4, 2, np.random.default_rng(3), False)
    assert mx.convex_roof_details(separable, 6, 200, 4).value < 1e-8
    pure = mx.convex_roof_details(mx.density_from_pure(st.random_pure_state("boson", 2, 2, 1)))
    assert (pure.max_iterations, pure.starts_converged) == (0, 0)


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
