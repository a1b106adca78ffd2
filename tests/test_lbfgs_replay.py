"""Replay of seeded searches through the stacked L-BFGS and its former body.

``_PairMemory``, ``_lbfgs``, ``_quadratic_objective`` and ``_polar_retract``
below are kept verbatim from before each search iteration was cut to fewer
numpy calls.  The rewrite must leave every result bit for bit as it was.  An
objective's rows can round differently with the number of rows in one call
(a row alone and the same row among 64 can differ by up to 1e-15 relative), so
the replay requires that every call to the objective and to the retraction
sees the same rows in the same order, not only equal final outputs.  (A
start run alone matches the same start in a stack only for objectives
whose rows round alike at any batch size, such as the double well of
``test_witnesses.test_stacked_lbfgs_runs_each_start_as_if_alone``, which
makes no BLAS call.)  The convex-roof search replayed is
``test_oracle_differential._roof_search``, kept there as the oracle that
Wootters' closed decomposition in ``mixed`` is held against.
"""

import hashlib

import numpy as np
import pytest
from test_manifold_differential import FAMILIES, _edge_state
import test_oracle_differential as roof
from test_oracle_differential import CASES, _mixture, _roof_search
from test_witnesses import perturbed_optimal_witness

from slaterkit import linalg as la
from slaterkit import mixed, sectors
from slaterkit import witnesses as wi
from slaterkit.linalg import (_ARMIJO, _F_ROUNDING, _FTOL, _GTOL, _LBFGS_MEMORY,
                              _LINE_SEARCH_TRIALS)
from slaterkit.witnesses import _pair_amps, _SectorChart


class _PairMemory:
    """The last ``_LBFGS_MEMORY`` curvature pairs of every start, in ring slots.

    Push ``i`` writes slot ``i % _LBFGS_MEMORY`` of every row, and a row that
    refuses its pair clears its whole memory instead, so all rows hold their
    pairs in one common age order and the oldest pair sits in the slot about
    to be written.  Empty slots are zero.  The inverse Hessian is applied in
    the compact form of Byrd, Nocedal & Schnabel, "Representations of
    quasi-Newton matrices and their use in limited memory methods", *Math.
    Prog.* 63 (1994), from ``R^-1`` (``R`` is the upper triangle of ``S^T Y``
    in age order) and ``Y^T Y``, both kept with zero rows and columns at
    empty slots.
    """

    def __init__(self, n: int, p: int):
        m = _LBFGS_MEMORY
        self.pairs = np.zeros((n, 2 * m, p))  # s in slots [:m], y in slots [m:]
        self.r_inv = np.zeros((n, m, m))
        self.yy = np.zeros((n, m, m))
        self.sy = np.zeros((n, m))  # the diagonal of S^T Y
        self.gamma = np.ones(n)  # H0 = gamma I: s.y / y.y of the newest pair
        self.held = np.zeros(n, dtype=bool)  # some pair is stored
        self.pushes = 0

    def direction(self, g: np.ndarray) -> np.ndarray:
        """``-H g = gamma (Y z - g) - S u``, with ``z = R^-1 S^T g`` and
        ``u = R^-T (D z + gamma (Y^T Y z - Y^T g))``."""
        m = _LBFGS_MEMORY
        proj = (self.pairs @ g[:, :, None])[:, :, 0]  # S^T g and Y^T g
        z = (self.r_inv @ proj[:, :m, None])[:, :, 0]
        gamma = self.gamma[:, None]
        w = self.sy * z + gamma * ((self.yy @ z[:, :, None])[:, :, 0] - proj[:, m:])
        u = (w[:, None] @ self.r_inv)[:, 0]
        coef = np.concatenate([-u, gamma * z], axis=1)
        return (coef[:, None] @ self.pairs)[:, 0] - gamma * g

    def push(self, s: np.ndarray, y: np.ndarray, sy: np.ndarray, store: np.ndarray) -> None:
        """Store each row's pair ``(s, y)`` with ``s.y = sy`` where ``store``
        holds, and clear the memory of every other row."""
        m = _LBFGS_MEMORY
        k = self.pushes % m
        self.pushes += 1
        # slot k holds the oldest pair; dropping it from R drops its row and
        # column of R^-1
        self.r_inv[:, k] = 0.0
        self.r_inv[:, :, k] = 0.0
        self.pairs[:, k], self.pairs[:, m + k] = s, y
        proj = (self.pairs @ y[:, :, None])[:, :, 0]  # S^T y and Y^T y
        inv = 1.0 / np.where(store, sy, 1.0)
        column = -(self.r_inv @ proj[:, :m, None])[:, :, 0] * inv[:, None]
        column[:, k] = inv
        self.r_inv[:, :, k] = column
        self.yy[:, k] = proj[:, m:]
        self.yy[:, :, k] = proj[:, m:]
        self.sy[:, k] = sy
        self.gamma = sy / np.where(store, proj[:, m + k], 1.0)
        clear = ~store
        for block in (self.pairs, self.r_inv, self.yy, self.sy):
            block[clear] = 0.0
        self.gamma[clear] = 1.0
        self.held = store.copy()

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row not selected by ``rows``."""
        self.pairs, self.r_inv, self.yy = self.pairs[rows], self.r_inv[rows], self.yy[rows]
        self.sy, self.gamma, self.held = self.sy[rows], self.gamma[rows], self.held[rows]


def _lbfgs(fun, x: np.ndarray, iters: int, retract=None, project=None):
    """Minimize ``fun`` from every row of ``x`` at once by L-BFGS.

    ``fun`` maps a stack of rows to their values and gradients.  Each start
    keeps its own memory of the last ``_LBFGS_MEMORY`` curvature pairs
    (``_PairMemory``: ring slots in one age order shared by all starts, and
    the compact form of the inverse Hessian, so a direction costs the same
    few stacked products at any depth).  A start takes backtracking Armijo
    steps from a unit L-BFGS step, or from a unit-length step along ``-g``
    while its memory is empty: at the start and after a step with
    ``s.y <= 0``, which stores no pair and clears the memory.  The full step
    is tried alone; the halvings of the starts it fails for are tried in
    stacked chunks of 1, 2, 4, ... trials, and each start takes its first
    trial with Armijo decrease, as a halving loop would.  A start stops after
    ``iters`` steps, at a relative decrease ``<= _FTOL``, at
    ``max|g| <= _GTOL``, or when its line search fails within
    ``_LINE_SEARCH_TRIALS`` halvings.  Returns the final rows, their values,
    the converged flags and the iteration counts.  A start counts as
    converged when a tolerance was met, or when its line search failed
    without any trial changing ``f`` by more than its rounding,
    ``_F_ROUNDING * max(1, |f|)``.

    The optional hooks run the same search on a manifold embedded in the
    rows (Riemannian L-BFGS; Absil, Mahony & Sepulchre, *Optimization
    Algorithms on Matrix Manifolds*, 2008).  ``project(rows, v)`` maps each
    direction into the tangent space at its row, and ``retract(rows)``
    returns ``(rows, ok)``, the trial points pulled back onto the manifold;
    a trial with ``ok`` False fails like a trial without Armijo decrease, so
    its step halves.  ``fun`` should then return the tangent (Riemannian)
    gradient.  Curvature pairs stay plain differences of rows and of
    gradients, with no vector transport.  Without hooks the search is plain
    L-BFGS in the flat rows.
    """
    x = np.array(x, dtype=float)
    n, p = x.shape
    f, g = fun(x)
    converged = np.abs(g).max(axis=1, initial=0.0) <= _GTOL
    iterations = np.zeros(n, dtype=int)
    run = np.flatnonzero(~converged)  # the start behind each working row
    xw, fw, gw = x[run], f[run], g[run]
    memory = _PairMemory(run.size, p)
    for _ in range(iters):
        if run.size == 0:
            break
        direction = memory.direction(gw)
        if project is not None:
            direction = project(xw, direction)
        slope = np.einsum("ni,ni->n", gw, direction)
        step = np.where(memory.held, 1.0,
                        1.0 / np.maximum(np.linalg.norm(gw, axis=1), 1e-300))
        x_new, f_new, g_new = xw.copy(), fw.copy(), gw.copy()
        accepted = np.zeros(run.size, dtype=bool)
        pending = np.flatnonzero(slope < 0.0)  # an uphill direction fails its search
        moved = np.full(run.size, np.inf)  # largest |f_trial - f|; none tried: inf
        moved[pending] = 0.0
        tried = 0
        while pending.size and tried < _LINE_SEARCH_TRIALS:
            # the full step alone, then the next halvings in stacked chunks of 1, 2, 4, ...
            width = min(max(tried, 1), _LINE_SEARCH_TRIALS - tried)
            steps = np.ldexp(step[pending, None], -np.arange(tried, tried + width))
            trial = (xw[pending, None] + steps[:, :, None] * direction[pending, None]).reshape(-1, p)
            on_manifold = True
            if retract is not None:
                trial, on_manifold = retract(trial)
            f_t, g_t = fun(trial)
            bound = fw[pending, None] + _ARMIJO * steps * slope[pending, None]
            ok = (on_manifold & (f_t <= bound.ravel())).reshape(-1, width)
            hit = ok.any(axis=1)
            # moved is read only where every trial failed, so it may take in
            # the trials past a start's first accepted one
            moved[pending] = np.maximum(moved[pending],
                                        np.abs(f_t.reshape(-1, width) - fw[pending, None]).max(axis=1))
            pick = np.flatnonzero(hit) * width + ok[hit].argmax(axis=1)
            done = pending[hit]
            x_new[done], f_new[done], g_new[done] = trial[pick], f_t[pick], g_t[pick]
            accepted[done] = True
            pending = pending[~hit]
            tried += width
        s, y = x_new - xw, g_new - gw
        sy = np.einsum("ni,ni->n", s, y)
        # without positive curvature along the step the stored pairs no longer
        # describe the region; skipping the pair alone can stall a start on
        # ever shorter steps near a saddle
        memory.push(s, y, sy, accepted & (sy > 0.0))
        scale = np.maximum(np.maximum(np.abs(fw), np.abs(f_new)), 1.0)
        met = accepted & ((fw - f_new <= _FTOL * scale)
                          | (np.abs(g_new).max(axis=1) <= _GTOL))
        # a search that failed because no trial moved f beyond its rounding
        # stands at the minimum as far as f can tell
        flat = ~accepted & (moved <= _F_ROUNDING * np.maximum(np.abs(fw), 1.0))
        iterations[run[accepted]] += 1
        converged[run] = met | flat
        xw, fw, gw = x_new, f_new, g_new
        # a met tolerance or a failed line search ends a start
        stop = met | ~accepted
        if stop.any():
            x[run[stop]], f[run[stop]] = xw[stop], fw[stop]
            keep = ~stop
            run, xw, fw, gw = run[keep], xw[keep], fw[keep], gw[keep]
            memory.keep(keep)
    x[run], f[run] = xw, fw
    return x, f, converged, iterations


def _quadratic_objective(chart: _SectorChart, m_matrix: np.ndarray, d_matrix=None):
    """``f(x) = <psi|M|psi> / <psi|D|psi>`` on chart states, with gradient, for
    every row of a parameter stack ``x``; ``D`` defaults to the identity.

    A row whose norm vanishes, or whose ``<psi|D|psi>`` falls below ``1e-12
    <psi|psi>`` (0/0 for a ``D`` with a kernel), scores ``1e6`` with a zero
    gradient.
    """
    flats, factors = sectors._gather_table(chart.kind, chart.d, 2)
    m_t = np.ascontiguousarray(m_matrix.T)
    d_t = None if d_matrix is None else np.ascontiguousarray(d_matrix.T)

    def fun(x: np.ndarray):
        n = len(x)
        vecs = chart.vectors(x)
        psi = _pair_amps(chart.kind, chart.pair_matrices(vecs))
        den = np.einsum("ni,ni->n", psi.conj(), psi).real
        degenerate = den < 1e-18
        dpsi = psi
        if d_t is not None:
            dpsi = psi @ d_t
            norm2, den = den, np.einsum("ni,ni->n", psi.conj(), dpsi).real
            degenerate |= den < 1e-12 * norm2
        den[degenerate] = 1.0
        mpsi = psi @ m_t
        f = np.einsum("ni,ni->n", psi.conj(), mpsi).real / den
        grad_vec = (mpsi - f[:, None] * dpsi) / den[:, None]  # d f / d conj(psi)
        # adjoint of the gather: d f / d conj(w) on an unconstrained w
        g = np.zeros((n, chart.d * chart.d), dtype=complex)
        g[:, flats] = grad_vec * factors
        g = g.reshape(n, chart.d, chart.d)
        if chart.kind == mixed.ANTISYMMETRIC:
            gm = g.swapaxes(1, 2) - g  # (g - g^T)^T
            gv = np.empty_like(vecs)
            gv[:, 0::2] = vecs[:, 1::2].conj() @ gm  # rows: d f / d conj(a_r)
            gv[:, 1::2] = -(vecs[:, 0::2].conj() @ gm)
        else:
            gv = vecs.conj() @ (g + g.swapaxes(1, 2))
        flat = gv.reshape(n, -1)
        grad = np.concatenate([2.0 * flat.real, 2.0 * flat.imag], axis=1)
        f[degenerate] = 1e6
        grad[degenerate] = 0.0
        return f, grad

    return fun


def _polar_retract(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked polar factors ``Y (Y^H Y)^(-1/2)``; ``ok`` marks Gram eigenvalue ratios >= 1e-12."""
    w, v = np.linalg.eigh(y.conj().swapaxes(-1, -2) @ y)
    ok = w[..., 0] > 1e-12 * w[..., -1]
    scale = 1.0 / np.sqrt(np.where(ok[..., None], w, 1.0))
    return y @ ((v * scale[..., None, :]) @ v.conj().swapaxes(-1, -2)), ok


# ---------------------------------------------------------------------------
# the replay
# ---------------------------------------------------------------------------

def _digest(rows) -> str:
    # adding 0.0 turns -0.0 into 0.0, which np.array_equal takes as equal too
    return hashlib.sha256((rows + 0.0).tobytes()).hexdigest()


def _replay(monkeypatch, call, reference):
    """Run ``call()`` with every stacked search recorded, through the library
    or, with ``reference``, through the copies above.  Returns the row count
    and digest of every objective and retraction call, in order, and the
    outputs of every search."""
    search = _lbfgs if reference else la._lbfgs
    calls, outputs = [], []

    def recorded(fun, x, iters, retract=None, project=None):
        def logged(name, hook):
            def run(rows):
                calls.append((name, len(rows), _digest(rows)))
                return hook(rows)
            return run

        out = search(logged("fun", fun), x, iters,
                     None if retract is None else logged("retract", retract), project)
        outputs.append(out)
        return out

    with monkeypatch.context() as patch:
        for module in (roof, wi):
            patch.setattr(module, "_lbfgs", recorded)
        if reference:
            patch.setattr(roof, "_polar_retract", _polar_retract)
            patch.setattr(wi, "_quadratic_objective", _quadratic_objective)
        call()
    return calls, outputs


def _assert_replayed(monkeypatch, call):
    """The library and the reference make the same calls and return the same
    ``x, f, converged, iterations`` from every search."""
    new_calls, new_outputs = _replay(monkeypatch, call, False)
    old_calls, old_outputs = _replay(monkeypatch, call, True)
    assert [c[:2] for c in new_calls] == [c[:2] for c in old_calls]  # the calls and row counts
    assert new_calls == old_calls  # and the rows themselves
    assert len(new_outputs) == len(old_outputs) > 0
    for new, old in zip(new_outputs, old_outputs):
        assert all(np.array_equal(a, b) for a, b in zip(new, old))
    return new_outputs


@pytest.mark.parametrize("kind,d,rank", CASES, ids=[f"{k}-rank{r}" for k, _, r in CASES])
@pytest.mark.parametrize("entangled", (True, False), ids=("entangled", "separable"))
def test_oracle_stage_replays(monkeypatch, kind, d, rank, entangled):
    for seed in (0, 1):
        rho = _mixture(kind, d, rank, np.random.default_rng([seed, rank, 8]), entangled)
        _assert_replayed(monkeypatch, lambda: _roof_search(rho, 8, 400, seed))


@pytest.mark.parametrize("family", FAMILIES, ids=["-".join(map(str, f)) for f in FAMILIES])
def test_manifold_search_replays(monkeypatch, family):
    kind, big_k, k = family
    w = wi.optimal_witness_example(big_k, k, kind)
    seed = 100 + FAMILIES.index(family)
    _assert_replayed(monkeypatch, lambda: wi._search_rank_manifold(w.space, k, w.matrix, 64, 400,
                                                                   seed))


def test_ratio_search_replays(monkeypatch):
    w = perturbed_optimal_witness(3, "boson", 1)
    outputs = _assert_replayed(monkeypatch, lambda: wi.witness_optimize(w, seed=1))
    # the infimum, the ratio with D, the check and witness_operator's validity search
    assert len(outputs) == 4


def test_edge_kernel_search_replays(monkeypatch):
    # witness_from_edge takes the closed form on this pure edge part, so the
    # kernel-projector search is replayed directly
    delta = _edge_state(0)
    _, basis, _ = la._range_split(delta.matrix)
    kernel = np.eye(delta.space.dim) - basis @ basis.conj().T
    _assert_replayed(monkeypatch, lambda: wi.infimum_details(kernel, 2, delta.space, 64, 400, 0))


def test_zero_iterations_replay(monkeypatch):
    w = wi.optimal_witness_example(3, 2, "boson")
    outputs = _assert_replayed(monkeypatch, lambda: wi._search_rank_manifold(
        w.space, 2, w.matrix, 16, 0, 4))
    assert not outputs[0][3].any()
