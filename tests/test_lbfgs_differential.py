"""Differential tests of the stacked L-BFGS against the version it replaced.

``_two_loop_direction``, ``_shift_store`` and ``_sequential_lbfgs`` below are
the former body of ``linalg._lbfgs``: the two-loop recursion over a memory
whose pairs shift down one slot per stored pair (slot 0 the newest), and a
backtracking line search that halves the pending steps one trial at a time.
They are kept here only as the reference for the compact-form direction over
ring slots (``linalg._PairMemory``) and the chunked line search.
"""

import numpy as np
import pytest

from slaterkit import linalg as la


def _two_loop_direction(g, s_mem, y_mem, rho):
    """``-H g`` by the L-BFGS two-loop recursion, one row per start.

    Slot 0 of the memory holds each start's newest pair; a slot the start
    has not filled has ``rho == 0`` and drops out.
    """
    q = g.copy()
    depth = int(np.count_nonzero(rho.any(axis=0)))
    alphas = []
    for back in range(depth):
        alpha = rho[:, back] * np.einsum("ni,ni->n", s_mem[:, back], q)
        q -= alpha[:, None] * y_mem[:, back]
        alphas.append(alpha)
    if depth:
        yy = np.einsum("ni,ni->n", y_mem[:, 0], y_mem[:, 0])
        held = rho[:, 0] > 0.0
        q[held] /= (rho[held, 0] * yy[held])[:, None]  # H0 = s.y / y.y of the newest pair
    for back in reversed(range(depth)):
        beta = rho[:, back] * np.einsum("ni,ni->n", y_mem[:, back], q)
        q += (alphas[back] - beta)[:, None] * s_mem[:, back]
    return -q


def _shift_store(s_mem, y_mem, rho, s, y, sy, accepted):
    store = accepted & (sy > 0.0)
    rho[accepted & ~store] = 0.0
    for mem, newest in ((s_mem, s), (y_mem, y), (rho, 1.0 / np.where(store, sy, 1.0))):
        mem[store, 1:] = mem[store, :-1]
        mem[store, 0] = newest[store]


def _sequential_lbfgs(fun, x, iters, retract=None, project=None):
    x = np.array(x, dtype=float)
    n, p = x.shape
    f, g = fun(x)
    converged = np.abs(g).max(axis=1, initial=0.0) <= la._GTOL
    iterations = np.zeros(n, dtype=int)
    run = np.flatnonzero(~converged)
    xw, fw, gw = x[run], f[run], g[run]
    s_mem = np.zeros((run.size, la._LBFGS_MEMORY, p))
    y_mem = np.zeros((run.size, la._LBFGS_MEMORY, p))
    rho = np.zeros((run.size, la._LBFGS_MEMORY))
    for _ in range(iters):
        if run.size == 0:
            break
        direction = _two_loop_direction(gw, s_mem, y_mem, rho)
        if project is not None:
            direction = project(xw, direction)
        slope = np.einsum("ni,ni->n", gw, direction)
        step = np.where(rho[:, 0] > 0.0, 1.0,
                        1.0 / np.maximum(np.linalg.norm(gw, axis=1), 1e-300))
        x_new, f_new, g_new = xw.copy(), fw.copy(), gw.copy()
        accepted = np.zeros(run.size, dtype=bool)
        pending = np.flatnonzero(slope < 0.0)
        moved = np.full(run.size, np.inf)
        moved[pending] = 0.0
        for _ in range(la._LINE_SEARCH_TRIALS):
            if pending.size == 0:
                break
            trial = xw[pending] + step[pending, None] * direction[pending]
            on_manifold = True
            if retract is not None:
                trial, on_manifold = retract(trial)
            f_t, g_t = fun(trial)
            moved[pending] = np.maximum(moved[pending], np.abs(f_t - fw[pending]))
            ok = on_manifold & (f_t <= fw[pending] + la._ARMIJO * step[pending] * slope[pending])
            done = pending[ok]
            x_new[done], f_new[done], g_new[done] = trial[ok], f_t[ok], g_t[ok]
            accepted[done] = True
            pending = pending[~ok]
            step[pending] *= 0.5
        s, y = x_new - xw, g_new - gw
        sy = np.einsum("ni,ni->n", s, y)
        _shift_store(s_mem, y_mem, rho, s, y, sy, accepted)
        scale = np.maximum(np.maximum(np.abs(fw), np.abs(f_new)), 1.0)
        met = accepted & ((fw - f_new <= la._FTOL * scale)
                          | (np.abs(g_new).max(axis=1) <= la._GTOL))
        flat = ~accepted & (moved <= la._F_ROUNDING * np.maximum(np.abs(fw), 1.0))
        iterations[run[accepted]] += 1
        converged[run] = met | flat
        xw, fw, gw = x_new, f_new, g_new
        stop = met | ~accepted
        if stop.any():
            x[run[stop]], f[run[stop]] = xw[stop], fw[stop]
            keep = ~stop
            run, xw, fw, gw = run[keep], xw[keep], fw[keep], gw[keep]
            s_mem, y_mem, rho = s_mem[keep], y_mem[keep], rho[keep]
    x[run], f[run] = xw, fw
    return x, f, converged, iterations


@pytest.mark.parametrize("seed", range(8))
def test_compact_direction_matches_two_loop(seed):
    # curvature pairs of a random SPD model, with refused pairs (s.y <= 0)
    # that clear a row's memory, dropped rows, and three times more stores
    # than slots, so that the ring wraps
    gen = np.random.default_rng(seed)
    n, p = 6, 9
    q, _ = np.linalg.qr(gen.standard_normal((p, p)))
    model = q @ np.diag(np.geomspace(0.1, 10.0, p)) @ q.T
    ring = la._PairMemory(n, p)
    s_mem = np.zeros((n, la._LBFGS_MEMORY, p))
    y_mem = np.zeros((n, la._LBFGS_MEMORY, p))
    rho = np.zeros((n, la._LBFGS_MEMORY))
    g = gen.standard_normal((n, p))
    assert np.array_equal(ring.direction(g), _two_loop_direction(g, s_mem, y_mem, rho))
    for step in range(3 * la._LBFGS_MEMORY + 5):
        s = gen.standard_normal((len(g), p))
        y = s @ model + 0.05 * gen.standard_normal((len(g), p))
        refused = gen.random(len(g)) < 0.08
        y[refused] = -s[refused]
        sy = np.einsum("ni,ni->n", s, y)
        accepted = np.ones(len(g), dtype=bool)
        _shift_store(s_mem, y_mem, rho, s, y, sy, accepted)
        ring.push(s, y, sy, sy > 0.0)
        if step in (7, 19):
            keep = np.arange(len(g)) != step % len(g)
            ring.keep(keep)
            s_mem, y_mem, rho = s_mem[keep], y_mem[keep], rho[keep]
        g = gen.standard_normal((len(s_mem), p))
        want = _two_loop_direction(g, s_mem, y_mem, rho)
        got = ring.direction(g)
        assert np.array_equal(ring.held, rho[:, 0] > 0.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _bowl_and_plateau(x):
    """``|x|^2 / 2``, except on the plateau ``x_0 >= 100``: there ``f`` is
    1000 whatever the step, while the reported gradient keeps pointing
    downhill, like an objective at the rounding level of ``f``."""
    plateau = x[:, 0] >= 100.0
    f = np.where(plateau, 1e3, 0.5 * (x * x).sum(1))
    g = np.where(plateau[:, None], 1e-3, x)
    return f, g


def test_chunked_line_search_matches_halving_loop():
    # from an empty memory both searches start with a unit-length step along
    # -g; a bowl point at distance 0.75 * 2**-t first passes Armijo at
    # halving t, so the first accepted trials fall in every chunk
    gen = np.random.default_rng(11)
    firsts = [0, 1, 2, 3, 4, 6, 7, 8, 11, 15, 16, 19]
    units = gen.standard_normal((len(firsts) + 1, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    radii = 0.75 * 0.5 ** np.array(firsts + [25])  # 2**-25: all 20 trials fail
    x0 = np.vstack([radii[:, None] * units, [[1e3, 0.0, 0.0], [0.0, 0.0, 0.0]]])
    calls = []

    def fun(x):
        calls.append(len(x))
        return _bowl_and_plateau(x)

    out = la._lbfgs(fun, x0, 1)
    want = _sequential_lbfgs(_bowl_and_plateau, x0, 1)
    for got, ref in zip(out, want):
        assert np.array_equal(got, ref)
    x, f, converged, iterations = out
    lengths = np.linalg.norm(x - x0, axis=1)[:len(firsts)]
    assert np.allclose(lengths, 0.5 ** np.array(firsts), rtol=1e-12, atol=0.0)
    # the row whose trials all fail on the bowl moved f: it fails, unconverged;
    # the plateau row never moved f: it counts as converged; the origin starts there
    assert iterations.tolist() == [1] * len(firsts) + [0, 0, 0]
    assert converged[-3:].tolist() == [False, True, True]
    # one call at the start, then the full step and chunks of 1, 2, 4, 8 and 4
    assert len(calls) == 7


def test_chunked_line_search_matches_halving_loop_with_retraction():
    # trials the retraction refuses fail like trials without Armijo decrease
    def retract(rows):
        return rows, np.abs(rows[:, 1]) < 0.3

    gen = np.random.default_rng(5)
    x0 = gen.standard_normal((40, 3)) * np.array([1.0, 4.0, 1.0])
    x0[:, 1] *= gen.random(40) < 0.5
    out = la._lbfgs(_bowl_and_plateau, x0, 1, retract)
    want = _sequential_lbfgs(_bowl_and_plateau, x0, 1, retract)
    for got, ref in zip(out, want):
        assert np.array_equal(got, ref)
    assert 0 < out[3].sum() < len(x0)
