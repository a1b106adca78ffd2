"""Differential tests of Wootters' optimal decomposition against the convex-roof searches.

``mixed.convex_roof_details`` builds the decomposition that attains the
closed-form concurrence.  ``_roof_search`` below is the search it replaced,
kept as the independent oracle it is held against: every start an ``m x r``
decomposition isometry, ``m = max(r, 4)``, all starts descending at once by
Riemannian L-BFGS (``_roof_stage``) on the concurrence smoothed at width
``ROOF_SMOOTHING``, with trials retracted by their Cholesky QR factor
(``_qr_retract``).  The searches before it are kept as its own references.
``_sequential_oracle`` is the first body of ``mixed.convex_roof_oracle``:
every start runs its own projected descent, one after another, with an SVD
retraction.  ``_stacked_descent_oracle`` is the second: the same descent
with all starts stacked and a polar retraction (``_descend``).  The stacked
descent is pinned to the loop, and the L-BFGS search must be no worse than
it and never below the closed form.  ``_caratheodory_details`` is that
search with its ``m = min(r^2, 16)`` decompositions, before their width
came from the Wootters and Sanpera-Tarrach-Vidal bounds as ``max(r, 4)``.
``_polar_details`` is that search before its smoothing width grew from 1e-2
to ``ROOF_SMOOTHING`` and its trials were retracted by the Cholesky QR
factor instead of the polar one (``_polar_roof_stage``).
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import mixed as mx
from slaterkit import states as st
from slaterkit.linalg import _lbfgs, as_rng

#: the search smooths every ``|z_k|`` to ``sqrt(|z_k|^2 + mu^2)`` at this
#: ``mu``.  The width only conditions the search: for ``m = 4`` every ``mu >
#: 0`` has the optimal decompositions as its global minimizers, and a wider
#: one takes fewer steps to reach them.
ROOF_SMOOTHING = 1e-1


def _tau(rho):
    """The bilinear overlaps ``tau`` of ``rho``'s subnormalized spectrum."""
    return mx._dual_overlap(mx.subnormalized_spectrum(rho).vectors,
                            mx.canonical_system_of_space(rho.space))


@dataclass(frozen=True)
class SearchResult:
    """The search's value, the most steps any start took, the starts converged."""

    value: float
    max_iterations: int
    starts_converged: int


def _roof_search(rho, n_starts=12, n_iters=300, seed=0) -> SearchResult:
    """Convex-roof search returning its value and convergence.

    Minimizes ``sum_k p_k C(phi_k)`` over decompositions of ``rho``
    obtained by mixing the subnormalized eigenvectors with an ``m x r``
    isometry, ``m = max(r, 4)``.  An entangled state has an optimal
    decomposition with ``r`` elements (Wootters, PRL 80, 2245 (1998)), and a
    separable one is a mixture of at most 4 product states (Sanpera,
    Tarrach & Vidal, PRA 58, 826 (1998)).  The starts are the identity and
    ``n_starts - 1`` seeded random isometries, descending together for at
    most ``n_iters`` steps (``_roof_stage``); ``value`` scores the best
    final isometry without smoothing, an upper bound on the convex roof.  A
    rank-1 state needs no search and reports zero steps and starts.

    The width does not move the minimizers when ``m = 4`` (rank <= 4).
    With ``z_k = (x tau x^T)_kk`` every isometry has ``sum |z_k| >= C``, and
    ``g(t) = sqrt(t^2 + mu^2)`` is convex and increasing, so ``sum_k
    g(|z_k|) >= m g(C / m)`` (Jensen).  Wootters' decomposition has every
    ``|z_k| = C / m`` and attains that bound for each ``mu``.
    """
    if n_starts < 1 or n_iters < 0:
        raise mx.ValidationError(
            f"need n_starts >= 1 and n_iters >= 0, got {n_starts}, {n_iters}")
    tau = _tau(rho)
    r = len(tau)
    if r == 1:
        return SearchResult(float(abs(tau[0, 0])), 0, 0)
    m = max(r, 4)
    rng = as_rng(seed)
    draws = [rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
             for _ in range(n_starts - 1)]
    x, _ = _polar_retract(np.stack([np.eye(m, r, dtype=complex)] + draws))
    x, converged, iterations = _roof_stage(x, tau, ROOF_SMOOTHING, n_iters)
    best = float(np.abs((x @ tau * x).sum(-1)).sum(-1).min())
    return SearchResult(best, int(iterations.max()), int(converged.sum()))


def _roof_stage(x: np.ndarray, tau: np.ndarray, mu: float, n_iters: int):
    """Minimize ``sum_k sqrt(|x_k^T tau x_k|^2 + mu^2)`` over a stack of
    isometries by ``linalg._lbfgs``; returns the isometries, the converged
    flags and the step counts.

    Each isometry is one real row of interleaved ``(Re, Im)`` entries.  The
    gradient is the tangent projection ``G - x herm(x^H G)`` of the
    Wirtinger gradient ``G`` with respect to ``conj(x)``, doubled for real
    coordinates; directions are projected the same way.  Every trial is
    retracted by its QR factor ``Y L^-H`` (``_qr_retract``; Absil, Mahony &
    Sepulchre, ch. 4), which costs less than a polar factor.  A trial
    ``Y = x + t d`` from an isometry ``x`` along a tangent ``d`` has Gram
    ``Y^H Y = I + t^2 d^H d >= I``, so its Cholesky factor ``L`` always
    exists and no trial is refused.
    """
    m, r = x.shape[1:]

    def unpack(rows):
        return rows.view(complex).reshape(len(rows), m, r)

    def tangent(y, v):
        yv = y.conj().swapaxes(-1, -2) @ v
        return (v - y @ (0.5 * (yv + yv.conj().swapaxes(-1, -2)))).reshape(len(y), -1).view(float)

    def fun(rows):
        y = unpack(rows)
        yt = y @ tau
        z = (yt * y).sum(-1)
        mags = np.sqrt(np.abs(z) ** 2 + mu * mu)
        return mags.sum(-1), tangent(y, (2.0 * z / mags)[..., None] * yt.conj())

    def retract(rows):
        q = _qr_retract(unpack(rows))
        return q.reshape(len(q), -1).view(float), True

    rows, _, converged, iterations = _lbfgs(
        fun, x.reshape(len(x), -1).view(float), n_iters, retract,
        lambda rows, v: tangent(unpack(rows), unpack(v)))
    return unpack(rows), converged, iterations


def _polar_retract(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked polar factors ``Y (Y^H Y)^(-1/2)``; ``ok`` marks Gram eigenvalue ratios >= 1e-12."""
    w, v = np.linalg.eigh(y.conj().swapaxes(-1, -2) @ y)
    ok = w[..., 0] > 1e-12 * w[..., -1]
    scale = 1.0 / np.sqrt(w if ok.all() else np.where(ok[..., None], w, 1.0))
    return y @ ((v * scale[..., None, :]) @ v.conj().swapaxes(-1, -2)), ok


def _qr_retract(y: np.ndarray) -> np.ndarray:
    """Stacked QR factors ``Y L^-H`` of full-rank ``Y``, ``L`` the Cholesky factor of ``Y^H Y``."""
    yh = y.conj().swapaxes(-1, -2)
    return np.linalg.solve(np.linalg.cholesky(yh @ y), yh).conj().swapaxes(-1, -2)


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
    tau = _tau(rho)
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
    x, _ = _polar_retract(np.stack([np.eye(m, r, dtype=complex)] + draws))
    for mu in (1e-2, 1e-3, 1e-4, 1e-5, 1e-7):
        x = _descend(x, lambda y: objective(y, mu), n_iters)
        best = float(np.abs((x @ tau * x).sum(-1)).sum(-1).min())
        if best < 1e-8:
            break
    return best


def _caratheodory_details(rho, n_starts=12, n_iters=300, seed=0):
    if n_starts < 1 or n_iters < 0:
        raise mx.ValidationError(
            f"need n_starts >= 1 and n_iters >= 0, got {n_starts}, {n_iters}")
    tau = _tau(rho)
    r = len(tau)
    if r > 6:
        raise mx.ValidationError(f"oracle restricted to rank <= 6, got {r}")
    if r == 1:
        return SearchResult(float(abs(tau[0, 0])), 0, 0)
    m = min(r * r, 16)
    rng = as_rng(seed)
    draws = [rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
             for _ in range(n_starts - 1)]
    x, _ = _polar_retract(np.stack([np.eye(m, r, dtype=complex)] + draws))
    x, converged, iterations = _roof_stage(x, tau, ROOF_SMOOTHING, n_iters)
    best = float(np.abs((x @ tau * x).sum(-1)).sum(-1).min())
    return SearchResult(best, int(iterations.max()), int(converged.sum()))


def _polar_details(rho, n_starts=12, n_iters=300, seed=0):
    tau = _tau(rho)
    r = len(tau)
    if r == 1:
        return SearchResult(float(abs(tau[0, 0])), 0, 0)
    m = max(r, 4)
    rng = as_rng(seed)
    draws = [rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
             for _ in range(n_starts - 1)]
    x, _ = _polar_retract(np.stack([np.eye(m, r, dtype=complex)] + draws))
    x, converged, iterations = _polar_roof_stage(x, tau, 1e-2, n_iters)
    best = float(np.abs((x @ tau * x).sum(-1)).sum(-1).min())
    return SearchResult(best, int(iterations.max()), int(converged.sum()))


def _polar_roof_stage(x: np.ndarray, tau: np.ndarray, mu: float, n_iters: int):
    """Minimize ``sum_k sqrt(|x_k^T tau x_k|^2 + mu^2)`` over a stack of
    isometries by ``linalg._lbfgs``; returns the isometries, the converged
    flags and the step counts.

    Each isometry is one real row of interleaved ``(Re, Im)`` entries.  The
    gradient is the tangent projection ``G - x herm(x^H G)`` of the
    Wirtinger gradient ``G`` with respect to ``conj(x)``, doubled for real
    coordinates; directions are projected the same way, and every trial is
    retracted by its polar factor (``_polar_retract``).
    """
    m, r = x.shape[1:]

    def unpack(rows):
        return rows.view(complex).reshape(len(rows), m, r)

    def tangent(y, v):
        yv = y.conj().swapaxes(-1, -2) @ v
        return (v - y @ (0.5 * (yv + yv.conj().swapaxes(-1, -2)))).reshape(len(y), -1).view(float)

    def fun(rows):
        y = unpack(rows)
        yt = y @ tau
        z = (yt * y).sum(-1)
        mags = np.sqrt(np.abs(z) ** 2 + mu * mu)
        return mags.sum(-1), tangent(y, (2.0 * z / mags)[..., None] * yt.conj())

    def retract(rows):
        q, ok = _polar_retract(unpack(rows))
        return q.reshape(len(q), -1).view(float), ok

    rows, _, converged, iterations = la._lbfgs(
        fun, x.reshape(len(x), -1).view(float), n_iters, retract,
        lambda rows, v: tangent(unpack(rows), unpack(v)))
    return unpack(rows), converged, iterations


def _descend(x, objective, n_iters):
    """Backtracking descent of each isometry in a stack: a start's trial is accepted
    if its value does not rise and its polar factor exists, else its step halves."""
    step, active = np.full(len(x), 0.1), np.ones(len(x), dtype=bool)
    f_prev, grad = objective(x)
    for _ in range(n_iters):
        x_new, ok = _polar_retract(x - step[:, None, None] * grad)
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
        value = _roof_search(rho, n_starts, n_iters, seed).value
        # an upper bound on the convex roof, which the closed form gives exactly
        assert mx.wootters_concurrence(rho) - 1e-10 <= value
        assert value <= reference + 1e-10 or max(reference, value) < 1e-8
        if not entangled and rank == 2:
            assert value < 1e-8


@MIXTURES
@ENTANGLED
def test_theorem_width_is_no_worse_than_caratheodory_width(kind, d, rank, entangled):
    for seed in range(4):
        rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, 8]), entangled)
        value = _roof_search(rho, 8, 400, seed).value
        reference = _caratheodory_details(rho, 8, 400, seed).value
        closed = mx.wootters_concurrence(rho)
        assert closed - 1e-10 <= value
        if entangled:
            assert abs(value - closed) <= 1e-10 and value <= reference + 1e-10
        else:
            assert max(value, reference) < 1e-6


def test_decomposition_width_follows_the_rank(monkeypatch):
    shapes = []
    stage = _roof_stage

    def recording_stage(x, tau, mu, n_iters):
        shapes.append(x.shape)
        return stage(x, tau, mu, n_iters)

    monkeypatch.setattr(sys.modules[__name__], "_roof_stage", recording_stage)
    for rank in range(2, 7):
        rho = _mixture("fermion", 4, rank, np.random.default_rng([rank, 8]), True)
        _roof_search(rho, 3, 0, rank)
        assert shapes[-1] == (3, max(rank, 4), rank)
    assert len(shapes) == 5


@pytest.mark.parametrize("rank", (5, 6))
@ENTANGLED
def test_fermion_mixtures_above_rank_four_meet_the_closed_form(rank, entangled):
    # ranks 5 and 6 are the ones whose decompositions have m = r elements
    for seed in range(8):
        rho = _mixture("fermion", 4, rank, np.random.default_rng([seed, rank, 8]), entangled)
        value = _roof_search(rho, 8, 400, seed).value
        if entangled:
            assert abs(value - mx.wootters_concurrence(rho)) <= 1e-10
        else:
            assert value < 1e-6


SEPARABLE_HIGH_RANK = [(kind, d, rank) for kind, d, rank in CASES if rank >= 3]


@pytest.mark.parametrize("kind,d,rank", SEPARABLE_HIGH_RANK,
                         ids=[f"{k}-rank{r}" for k, _, r in SEPARABLE_HIGH_RANK])
def test_separable_high_rank_mixtures_reach_zero(kind, d, rank):
    # the stacked descent stopped at 3.6e-5 to 1.2e-3 on such mixtures
    for seed in range(12):
        rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, 8]), False)
        assert _roof_search(rho, 8, 400, seed).value < 1e-6


def test_rank_deficient_trial_is_rejected(monkeypatch):
    # real 4 x 2 isometries as rows; f is linear, so every trial with a polar
    # factor meets the Armijo test
    x = np.stack([np.eye(4, 2), np.eye(4, 2)[[3, 0, 1, 2]]]).reshape(2, 8)
    c = np.zeros(8)
    c[0] = 1.0

    def fun(rows):
        return rows @ c, np.broadcast_to(c, rows.shape).copy()

    def retract(rows):
        q, ok = _polar_retract(rows.reshape(-1, 4, 2))
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
    tau = _tau(rho)
    gen = np.random.default_rng(8)
    x0, _ = _polar_retract(gen.standard_normal((6, 9, 3)) + 1j * gen.standard_normal((6, 9, 3)))
    x, converged, iterations = _roof_stage(x0, tau, 1e-2, 100)
    assert iterations.min() > 0
    assert np.abs(x.conj().swapaxes(1, 2) @ x - np.eye(3)).max() <= 1e-12


def test_details_report_the_search():
    rho = _mixture("bipartite", (2, 2), 3, np.random.default_rng(3), True)
    details = _roof_search(rho, 6, 200, 4)
    assert abs(details.value - mx.wootters_concurrence(rho)) <= 1e-10
    assert 0 < details.max_iterations <= 200 and 0 <= details.starts_converged <= 6
    with pytest.raises(AttributeError):
        details.value = 0.0
    separable = _mixture("fermion", 4, 2, np.random.default_rng(3), False)
    assert _roof_search(separable, 6, 200, 4).value < 1e-8
    pure = _roof_search(mx.density_from_pure(st.random_pure_state("boson", 2, 2, 1)))
    assert (pure.max_iterations, pure.starts_converged) == (0, 0)


def test_polar_retraction_is_the_svd_polar_factor():
    gen = np.random.default_rng(0)
    y = gen.standard_normal((5, 9, 3)) + 1j * gen.standard_normal((5, 9, 3))
    q, ok = _polar_retract(y)
    u, _, vh = np.linalg.svd(y, full_matrices=False)
    assert ok.all()
    assert np.allclose(q, u @ vh, atol=1e-12)


def test_oracle_zero_iterations_scores_the_starts():
    rho = _mixture("boson", 2, 2, np.random.default_rng(1), True)
    assert abs(_roof_search(rho, 3, 0, 5).value - _sequential_oracle(rho, 3, 0, 5)) <= 1e-12


ALL_RANKS = ([("fermion", 4, rank) for rank in range(1, 7)]
             + [("bipartite", (2, 2), rank) for rank in range(1, 5)]
             + [("boson", 2, rank) for rank in range(1, 4)])


@pytest.mark.parametrize("kind,d,rank", ALL_RANKS, ids=[f"{k}-rank{r}" for k, _, r in ALL_RANKS])
@ENTANGLED
def test_wide_smoothing_with_qr_trials_matches_the_polar_search(kind, d, rank, entangled):
    for seed in range(3):
        rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, 8]), entangled)
        value = _roof_search(rho, 8, 400, seed).value
        reference = _polar_details(rho, 8, 400, seed).value
        assert value >= mx.wootters_concurrence(rho) - 1e-10
        if entangled:
            assert abs(value - reference) <= 1e-8
        else:
            assert max(value, reference) < 1e-6


def _decomposition_isometry(rho):
    """The isometry ``x`` of ``mixed.convex_roof_details``: its vectors are
    ``V x^T`` for the subnormalized spectrum ``V``, whose columns are
    orthogonal with squared norms ``lambda``."""
    spec = mx.subnormalized_spectrum(rho)
    vectors = mx.convex_roof_details(rho).vectors
    return (spec.vectors.conj().T @ vectors / spec.weights[:, None]).T


def _stage_gradient(monkeypatch, x, tau, mu):
    """The Riemannian gradient ``_roof_stage`` descends along, at a stack ``x``."""
    seen = []

    def first_gradient(fun, rows, iters, retract, project):
        seen.append(fun(rows)[1])
        return rows, None, np.zeros(len(rows), dtype=bool), np.zeros(len(rows), dtype=int)

    monkeypatch.setattr(sys.modules[__name__], "_lbfgs", first_gradient)
    _roof_stage(x, tau, mu, 0)
    return seen[0]


STATIONARY = CASES + [("fermion", 4, 5), ("fermion", 4, 6)]


@pytest.mark.parametrize("mu", (1e-2, 1e-1, 1.0))
def test_wootters_decomposition_is_stationary_at_every_width(monkeypatch, mu):
    # every m-element decomposition has sum_k g(|z_k|) >= m g(C / m) for the
    # smoothed g (Jensen); Wootters' attains it at every width, so the
    # gradient of the search over m x r isometries vanishes there
    for kind, d, rank in STATIONARY:
        for entangled in (True, False):
            for seed in range(3):
                rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, 8]), entangled)
                tau = _tau(rho)
                x = _decomposition_isometry(rho)
                assert x.shape == (4 if rank <= 4 else 8, rank)
                assert np.abs(x.conj().T @ x - np.eye(rank)).max() <= 1e-12
                z = (x @ tau * x).sum(-1)
                assert np.abs(np.abs(z) - mx.wootters_concurrence(rho) / len(x)).max() <= 1e-12
                assert np.abs(_stage_gradient(monkeypatch, x[None], tau, mu)).max() <= 1e-12


def test_qr_retraction_of_a_tangent_trial():
    gen = np.random.default_rng(0)
    x, _ = _polar_retract(gen.standard_normal((5, 6, 3)) + 1j * gen.standard_normal((5, 6, 3)))
    v = gen.standard_normal(x.shape) + 1j * gen.standard_normal(x.shape)
    xv = x.conj().swapaxes(1, 2) @ v
    d = v - x @ (0.5 * (xv + xv.conj().swapaxes(1, 2)))
    for t in (1e-3, 0.1, 1.0):
        y = x + t * d
        # the Gram of a tangent trial is I + t^2 d^H d >= I
        assert np.linalg.eigvalsh(y.conj().swapaxes(1, 2) @ y).min() >= 1.0 - 1e-13
        q = _qr_retract(y)
        ell = np.linalg.cholesky(y.conj().swapaxes(1, 2) @ y)
        assert np.abs(q.conj().swapaxes(1, 2) @ q - np.eye(3)).max() <= 1e-13
        assert np.abs(q @ ell.conj().swapaxes(1, 2) - y).max() <= 1e-13 * (1 + t)
        polar, ok = _polar_retract(y)
        assert ok.all()
        span = q @ q.conj().swapaxes(1, 2)
        assert np.abs(span - polar @ polar.conj().swapaxes(1, 2)).max() <= 1e-13


def test_oracle_objective_call_budget(monkeypatch):
    # 2084 objective calls with smoothing 1e-2 and polar trials, 1453 with
    # ROOF_SMOOTHING and QR trials: a slower search fails here
    calls = []

    def counting(fun, *args):
        def counted(rows):
            calls.append(len(rows))
            return fun(rows)

        return la._lbfgs(counted, *args)

    monkeypatch.setattr(sys.modules[__name__], "_lbfgs", counting)
    for kind, d, rank in CASES:
        for entangled in (True, False):
            for seed in (0, 1):
                rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, 8]), entangled)
                _roof_search(rho, 8, 400, seed)
    assert len(calls) <= 1600


@pytest.mark.parametrize("n_starts,n_iters", ((0, 10), (-1, 10), (2, -1)))
def test_search_rejects_bad_budgets(n_starts, n_iters):
    rho = _mixture("fermion", 4, 2, np.random.default_rng(0), True)
    with pytest.raises(mx.ValidationError):
        _roof_search(rho, n_starts, n_iters)


def _check_decomposition(rho, search):
    """``convex_roof_details`` rebuilds ``rho``, its weighted concurrences sum
    to its value, and that value is the closed form and no worse than the
    search's value ``search``."""
    details = mx.convex_roof_details(rho)
    vectors = details.vectors
    r = rho.rank()
    assert vectors.shape == (rho.space.dim, 1 if r == 1 else 4 if r <= 4 else 8)
    assert la.max_abs(vectors @ vectors.conj().T - rho.matrix) <= 1e-12
    assert abs(details.value - mx.wootters_concurrence(rho)) <= 1e-12
    weights = np.linalg.norm(vectors, axis=0) ** 2
    average = sum(p * st.concurrence_pure(mx.state_from_sector_vector(rho.space, v))
                  for p, v in zip(weights, vectors.T) if p > 0)
    assert abs(average - details.value) <= 1e-12
    assert details.value <= search + 1e-10
    return details


@pytest.mark.parametrize("kind,d,rank", ALL_RANKS, ids=[f"{k}-rank{r}" for k, _, r in ALL_RANKS])
def test_decomposition_meets_the_closed_form_and_the_search(kind, d, rank):
    gen = np.random.default_rng([rank, 5])
    for trial in range(4):
        # drawn as in acceptance criterion 5
        pairs = [(p, st.random_pure_state(kind, d, 2, gen)) for p in gen.dirichlet(np.ones(rank))]
        rho = mx.density_from_mixture(pairs)
        _check_decomposition(rho, _roof_search(rho, 8, 400, trial).value)
    for seed in range(2):
        rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, 5]), False)
        assert _check_decomposition(rho, _roof_search(rho, 8, 400, seed).value).value <= 1e-12


@pytest.mark.parametrize("rank", (5, 6))
def test_equal_values_close_a_polygon_at_ranks_five_and_six(rank):
    # the sides l_1, l_2 and l_3 + ... + l_r close no triangle here, as
    # (r - 2) l > 2 l; three sides filled largest-first onto the shortest do
    b = st.magic_basis("fermions")[:, :rank]
    rho = mx.density_matrix(mx.antisymmetric_space(4), b @ b.conj().T / rank)
    assert np.abs(mx.concurrence_lambdas(rho)[:rank] - 1 / rank).max() <= 1e-15
    assert _check_decomposition(rho, _roof_search(rho, 8, 400, rank).value).value <= 1e-12


@pytest.mark.parametrize("r", range(3, 7))
def test_closing_phases_close_the_polygon(r):
    gen = np.random.default_rng(r)
    draws = [np.ones(r), np.r_[1.0, 1.0, 1e-15, np.zeros(r - 3)]]
    draws += [np.sort(gen.random(r))[::-1] for _ in range(100)]
    closed = 0
    for l in draws:
        if l[0] >= l[1:].sum():
            continue
        phases = mx._closing_phases(l)
        assert np.abs(np.abs(phases) - 1.0).max() <= 1e-15
        assert abs(phases @ l) <= 1e-14 * l.sum()
        closed += 1
    assert closed >= 20


def test_a_pure_state_is_its_own_decomposition():
    psi = st.random_pure_state("boson", 2, 2, 1)
    details = mx.convex_roof_details(mx.density_from_pure(psi))
    assert details.vectors.shape == (3, 1)
    assert abs(details.value - st.concurrence_pure(psi)) <= 1e-12
    assert abs(abs(np.vdot(details.vectors[:, 0], psi.flat())) - 1.0) <= 1e-12
    with pytest.raises(AttributeError):
        details.value = 0.0
