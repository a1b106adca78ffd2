"""Slater witnesses: construction, canonical form, optimization, evaluation.

A class-k witness is a Hermitian operator on the two-particle
(anti)symmetric sector with non-negative expectation on every state of
Slater rank below k and a negative expectation on at least one class-k
state.  Witness validity is certified numerically (a seeded sampling
battery plus infimum searches over the bounded-rank manifold), so
"detected" verdicts are exact while "is a witness" is high-confidence.

All searches are non-convex with fixed restart budgets; restart
dispersion is reported rather than any claim of exactness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import linalg, mixed, sectors, states
from .errors import (
    NotAnEdgeStateError,
    NotInRangeError,
    NumericalFailureError,
    OutOfRangeError,
    SlaterKitError,
    SpaceMismatchError,
    UnsupportedSystemError,
    ValidationError,
)
from .linalg import RANK_RTOL, TOL_SYM, _lbfgs, as_rng, require_hermitian

#: sampled non-negativity threshold for witness validation
WITNESS_SAMPLE_TOL = -1e-8
_BATTERY_SIZE = 500
_BATTERY_SEED = 20020617


# ---------------------------------------------------------------------------
# witness operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessOperator:
    """Hermitian class-k witness candidate on a two-particle sector."""

    space: mixed.StateSpace
    matrix: np.ndarray
    slater_class: int
    epsilon: float = 0.0  # canonical-form shift, see canonical_witness_form


def _max_rank(space: mixed.StateSpace) -> int:
    d = space.dims[0]
    return d // 2 if space.kind == mixed.ANTISYMMETRIC else d


def _pair_amps(kind: str, w: np.ndarray) -> np.ndarray:
    """Sector amplitudes of a stack of (anti)symmetric pair matrices, the
    map ``sectors.amps_from_tensor`` applies to one of them."""
    d = w.shape[-1]
    flats, factors = sectors._gather_table(kind, d, 2)
    return w.reshape(-1, d * d)[:, flats] * factors


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
        w = np.einsum("nri,nrj->nij", a, b) - np.einsum("nri,nrj->nij", b, a)
    else:
        c = rng.standard_normal((n, rank, d)) + 1j * rng.standard_normal((n, rank, d))
        w = np.einsum("nri,nrj->nij", c, c)
    vecs = _pair_amps(space.kind, w)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs


def witness_operator(space: mixed.StateSpace, matrix, slater_class: int,
                     validate: bool = True, n_samples: int = _BATTERY_SIZE,
                     seed: int = _BATTERY_SEED) -> WitnessOperator:
    """Validated witness operator.

    Validation checks hermiticity and runs the seeded non-negativity
    battery: ``Tr(W sigma) >= -1e-8`` on ``n_samples`` random pure
    states of Slater rank below ``slater_class``.
    """
    if space.kind not in (mixed.ANTISYMMETRIC, mixed.SYMMETRIC) or space.particles != 2:
        raise UnsupportedSystemError("witnesses act on two-particle exchange sectors")
    if not 2 <= slater_class <= _max_rank(space):
        raise OutOfRangeError(f"class {slater_class} outside 2..{_max_rank(space)}")
    m = np.asarray(matrix, dtype=complex)
    require_hermitian(m, TOL_SYM)
    m = 0.5 * (m + m.conj().T)
    if validate:
        vecs = sample_rank_bounded(space, slater_class - 1, n_samples, seed)
        vals = np.einsum("ni,ij,nj->n", vecs.conj(), m, vecs).real
        worst = float(vals.min())
        if worst < WITNESS_SAMPLE_TOL:
            raise ValidationError(
                f"sampled expectation {worst:.3e} on a rank-{slater_class - 1} state")
    eps = max(0.0, -float(np.linalg.eigvalsh(m)[0]))
    return WitnessOperator(space, m, slater_class, eps)


def optimal_witness_example(big_k: int, k: int, kind: str) -> WitnessOperator:
    """The canonical optimal witness ``1 - (K/(k-1)) P_maxcorr``.

    ``P_maxcorr`` projects onto the equal-weight sum of K pair states
    (fermions, d = 2K) or K doubly occupied modes (bosons, d = K).
    """
    if not 2 <= k <= big_k:
        raise OutOfRangeError(f"need 2 <= k <= K, got k={k}, K={big_k}")
    if kind == "fermion":
        space = mixed.antisymmetric_space(2 * big_k)
    elif kind == "boson":
        space = mixed.symmetric_space(big_k)
    else:
        raise ValidationError("kind must be 'fermion' or 'boson'")
    psi = states.maximally_correlated_state(kind, big_k).flat()
    w = np.eye(space.dim, dtype=complex) - (big_k / (k - 1)) * np.outer(psi, psi.conj())
    return witness_operator(space, w, k)


@dataclass(frozen=True)
class WitnessValue:
    value: float
    detected: bool


def witness_value(w: WitnessOperator, rho: mixed.DensityMatrix) -> WitnessValue:
    """Expectation ``Tr(W rho)``; detection means a strictly negative value."""
    if w.space != rho.space:
        raise SpaceMismatchError(f"witness on {w.space}, state on {rho.space}")
    value = float(np.trace(w.matrix @ rho.matrix).real)
    return WitnessValue(value, value < -1e-10)


# ---------------------------------------------------------------------------
# bounded-rank manifold searches
# ---------------------------------------------------------------------------

class Restart(NamedTuple):
    """One restart of the manifold search: its minimum and how it ended.

    ``converged`` means the relative-decrease or gradient tolerance was met,
    or that the line search failed at the rounding level of ``f``; an
    exhausted iteration budget or any other failed line search leaves it
    False.
    """

    value: float
    state: np.ndarray
    converged: bool
    iterations: int


class _SectorChart:
    """Outer-product chart of the Slater rank <= k-1 manifold.

    Fermionic states come from k-1 vector pairs (``w = sum a b^T - b a^T``),
    bosonic ones from k-1 single vectors (``v = sum c c^T``); both maps are
    surjective by the canonical decomposition and polynomial in the
    parameters, so quadratic objectives get exact gradients.  Every method
    acts on a stack of parameter rows.
    """

    def __init__(self, space: mixed.StateSpace, k: int):
        self.kind = space.kind
        self.d = space.dims[0]
        self.n_vectors = (2 if self.kind == mixed.ANTISYMMETRIC else 1) * (k - 1)
        self.n_params = 2 * self.d * self.n_vectors

    def vectors(self, x: np.ndarray) -> np.ndarray:
        half = x.shape[1] // 2
        return (x[:, :half] + 1j * x[:, half:]).reshape(len(x), self.n_vectors, self.d)

    def pair_matrices(self, vecs: np.ndarray) -> np.ndarray:
        if self.kind == mixed.ANTISYMMETRIC:
            ab = vecs[:, 0::2].swapaxes(1, 2) @ vecs[:, 1::2]
            return ab - ab.swapaxes(1, 2)
        return vecs.swapaxes(1, 2) @ vecs

    def sector_vectors(self, x: np.ndarray) -> np.ndarray:
        return _pair_amps(self.kind, self.pair_matrices(self.vectors(x)))


def _quadratic_objective(chart: _SectorChart, m_matrix: np.ndarray):
    """``f(x) = <psi|M|psi>`` on normalized chart states, with gradient, for
    every row of a parameter stack ``x``."""
    flats, factors = sectors._gather_table(chart.kind, chart.d, 2)
    m_t = np.ascontiguousarray(m_matrix.T)

    def fun(x: np.ndarray):
        n = len(x)
        vecs = chart.vectors(x)
        psi = _pair_amps(chart.kind, chart.pair_matrices(vecs))
        den = np.einsum("ni,ni->n", psi.conj(), psi).real
        degenerate = den < 1e-18
        den[degenerate] = 1.0
        mpsi = psi @ m_t
        f = np.einsum("ni,ni->n", psi.conj(), mpsi).real / den
        grad_vec = (mpsi - f[:, None] * psi) / den[:, None]  # d f / d conj(psi)
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


def _search_rank_manifold(space: mixed.StateSpace, k: int, m_matrix: np.ndarray,
                          budget: int, iters: int, rng) -> list[Restart]:
    """Multi-restart minimization of ``<psi|M|psi>`` over the rank-(k-1)
    manifold.  All restarts run as one stacked L-BFGS search; returns their
    minima with states and convergence, sorted by value."""
    rng = as_rng(rng)
    chart = _SectorChart(space, k)
    x0 = rng.standard_normal((max(budget, 0), chart.n_params))
    x, f, converged, iterations = _lbfgs(_quadratic_objective(chart, m_matrix), x0, iters)
    psi = chart.sector_vectors(x)
    norms = np.linalg.norm(psi, axis=1)
    results = [Restart(float(f[i]), psi[i] / norms[i], bool(converged[i]), int(iterations[i]))
               for i in np.flatnonzero(norms >= 1e-9)]
    return sorted(results, key=lambda t: t[0])


def infimum_over_rank(operator, k: int, space: mixed.StateSpace, budget: int = 64,
                      iters: int = 400, seed=0) -> float:
    """Best found value of ``inf <psi|P|psi>`` over Slater rank < k states.

    An upper bound on the true infimum; the gap is assessed through the
    dispersion of the restart minima (see ``infimum_details``).
    """
    return infimum_details(operator, k, space, budget, iters, seed)[0]


def infimum_details(operator, k: int, space: mixed.StateSpace, budget: int = 64,
                    iters: int = 400, seed=0):
    """Infimum search returning ``(best, dispersion, minima)``.

    ``minima`` holds one ``Restart`` per kept start, sorted by value.
    """
    p = np.asarray(operator, dtype=complex)
    require_hermitian(p, 1e-8)
    minima = _search_rank_manifold(space, k, p, budget, iters, seed)
    if not minima:
        raise ValidationError("manifold search produced no valid states")
    best = minima[0].value
    dispersion = float(np.std([m.value for m in minima]))
    return best, dispersion, minima


# ---------------------------------------------------------------------------
# subtraction and edge decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubtractionResult:
    lambda_max: float
    remainder: mixed.DensityMatrix | None


def subtract_pure_projector(rho: mixed.DensityMatrix, psi: states.PureState,
                            range_tol: float = 1e-7) -> SubtractionResult:
    """Largest projector weight that keeps ``rho - lambda |psi><psi|`` positive.

    ``lambda_max = 1 / <psi|rho^+|psi>`` with the pseudo-inverse taken on
    the range; the remainder is renormalized.  A full subtraction
    (``lambda_max == 1``) returns no remainder.
    """
    if mixed.space_of_state(psi) != rho.space:
        raise SpaceMismatchError("state and density matrix live in different spaces")
    v = psi.flat()
    v = v / np.linalg.norm(v)
    spec = mixed.subnormalized_spectrum(rho)
    basis, _ = np.linalg.qr(spec.vectors)
    resid = float(np.linalg.norm(v - basis @ (basis.conj().T @ v)))
    if resid > range_tol:
        raise NotInRangeError(f"range-membership residual {resid:.3e} exceeds {range_tol:.1e}")
    pinv = np.linalg.pinv(rho.matrix, rcond=RANK_RTOL, hermitian=True)
    lam = 1.0 / float(np.real(np.vdot(v, pinv @ v)))
    lam = min(lam, 1.0)
    if lam >= 1.0 - 1e-9:
        return SubtractionResult(1.0, None)
    rem = (rho.matrix - lam * np.outer(v, v.conj())) / (1.0 - lam)
    rem = 0.5 * (rem + rem.conj().T)
    return SubtractionResult(lam, mixed.density_matrix(rho.space, rem))


class RangeSearch(NamedTuple):
    """How the restarts of one search for a rank < k vector in a range ended.

    ``tried`` restarts ran (the search stops at the first vector it keeps);
    ``solved`` of them met the Gauss-Newton residual test, so ``tried -
    solved`` failed it.  Of the solved ones, ``truncation_rejected`` could not
    be snapped to the rank < k manifold and ``range_rejected`` left the range
    once snapped.
    """

    tried: int
    solved: int
    truncation_rejected: int
    range_rejected: int


@dataclass(frozen=True)
class EdgeDecomposition:
    """Split ``rho = (1-p) rho_lower + p delta`` with ``delta`` edge-like.

    ``searches`` holds one ``RangeSearch`` per range search, in order.
    """

    lower_class_part: mixed.DensityMatrix | None
    edge_state: mixed.DensityMatrix | None
    weight: float
    subtraction_log: list = field(default_factory=list)
    searches: list = field(default_factory=list)


def _truncate_to_rank(space, k, psi):
    """Project a sector vector onto the Slater rank <= k-1 manifold."""
    d = space.dims[0]
    w = sectors.tensor_from_amps(space.kind, d, 2, psi)
    try:
        if space.kind == mixed.ANTISYMMETRIC:
            form = linalg.youla_canonical(w)
        else:
            form = linalg.takagi_canonical(w)
    except SlaterKitError:
        return None
    vals = form.values[: k - 1]
    target = np.zeros((d, d), dtype=complex)
    if space.kind == mixed.ANTISYMMETRIC:
        target[2 * np.arange(len(vals)), 2 * np.arange(len(vals)) + 1] = vals
        target -= target.T
    else:
        target[: len(vals), : len(vals)] = np.diag(vals)
    u = form.transform
    w_t = u.conj().T @ target @ u.conj()
    vec = sectors.amps_from_tensor(space.kind, w_t)
    n = np.linalg.norm(vec)
    return vec / n if n > 1e-12 else None


def _range_system(mats: np.ndarray, k: int, pattern: str, free: int):
    """The rank < k test on the span of ``mats``, in range coordinates ``c``.

    The contraction is symmetric and multilinear, so its values at ``w = sum_j
    c_j mats[j]`` are ``f(c) = T(c, ..., c)`` and their Jacobian is exactly
    ``k T(c, ..., c, .)``, where ``T[j1, ..., jk]`` is the contraction of
    ``mats[j1], ..., mats[jk]``: one mixed-operand call per multiset of slots.
    Returns ``fill(c, times)``: ``T`` with its first ``times`` slots taken by
    each row of ``c``, flattened per row.  Past ``linalg._MAX_CONTRACTION_TERMS``
    entries of ``T``, ``fill`` contracts every row afresh instead.
    """
    r, d = mats.shape[:2]
    ops = list(mats)  # one object per matrix, so repeated operands are found
    n_values = math.comb(d, free)

    def values(operands):
        spec = linalg.EpsilonContractionSpec(operands, pattern, free)
        return list(linalg.epsilon_contract(spec).values())

    if n_values * r ** k > linalg._MAX_CONTRACTION_TERMS:
        def fill(c, times):
            tails = [()] if times == k else [(b,) for b in ops]
            rows = [[values((w,) * times + tail) for tail in tails]
                    for w in np.tensordot(c, mats, 1)]
            return np.array(rows, dtype=complex).reshape(len(c), len(tails) * n_values)
    else:
        t = np.empty((r,) * k + (n_values,), dtype=complex)
        for slots in itertools.combinations_with_replacement(range(r), k):
            vals = values(tuple(ops[j] for j in slots))
            for perm in set(itertools.permutations(slots)):
                t[perm] = vals

        def fill(c, times):
            p = c @ t.reshape(r, -1)
            for _ in range(times - 1):
                p = np.einsum("nj,njm->nm", c, p.reshape(len(c), r, p.shape[1] // r))
            return p
    return fill


def _find_in_range(space, k, range_basis, budget, iters, rng):
    """Search for a Slater rank < k vector inside a given range.

    Restricted to the range, the rank < k condition is a system of
    homogeneous degree-k polynomials (``_range_system``), solved by damped
    Gauss-Newton from random unit starts, stacked in chunks of 1, 1, 2, 4,
    ... restarts.  A start is solved once ``max|f| <= 1e-12 * factor *
    smax**k``, the bound on the values at largest singular value ``smax``; it
    fails on ``smax < 1e-10``, after ``max(iters // 8, 40)`` steps, or when
    none of 20 halvings of its minimum-norm step, renormalized, lowers
    ``|f|``.  The first solved restart in order whose rank k-1 truncation
    stays in the range is kept, with the generator just past its draw, as if
    the restarts ran one by one.  Returns it (or None) and the tally.
    """
    rng = as_rng(rng)
    d, r = space.dims[0], range_basis.shape[1]
    single = space.kind == mixed.ANTISYMMETRIC
    free = d - (2 * k if single else k)
    mats = np.array([sectors.tensor_from_amps(space.kind, d, 2, v) for v in range_basis.T])
    fill = _range_system(mats, k, "single" if single else "paired", free)
    factor = math.factorial(k) * (2.0 ** k if single else 1.0)
    damping = 0.5 ** np.arange(20)
    tried = solved = truncated = outside = 0
    while tried < budget:
        n = min(max(tried, 1), budget - tried)
        state = rng.bit_generator.state
        z = rng.standard_normal((n, 2, r))
        c = z[:, 0] + 1j * z[:, 1]
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        ok = np.zeros(n, dtype=bool)
        run = np.arange(n)  # the restart behind each unfinished row
        for _ in range(max(iters // 8, 40)):
            smax = np.linalg.svd(np.einsum("nj,jab->nab", c[run], mats), compute_uv=False)[:, 0]
            run, smax = run[smax >= 1e-10], smax[smax >= 1e-10]
            f = fill(c[run], k)
            met = np.abs(f).max(axis=1) <= 1e-12 * factor * smax ** k
            ok[run[met]] = True
            run, f = run[~met], f[~met]
            if run.size == 0:
                break
            jac = k * fill(c[run], k - 1).reshape(run.size, r, -1).swapaxes(1, 2)
            u, sv, vh = np.linalg.svd(jac, full_matrices=False)
            # numpy.linalg.lstsq's cutoff, so the step is its minimum-norm solution
            sv = np.where(sv > np.finfo(float).eps * max(jac.shape[1:]) * sv[:, :1], sv, np.inf)
            step = np.einsum("nij,ni->nj", vh.conj(), np.einsum("nai,na->ni", u.conj(), f) / sv)
            norm_f = np.linalg.norm(f, axis=1)
            pending = np.arange(run.size)
            # the full step, then its 19 halvings at once; the first to lower |f| wins
            for damps in (damping[:1], damping[1:]):
                if pending.size == 0:
                    break
                trial = c[run[pending], None] - damps[:, None] * step[pending, None]
                tn = np.linalg.norm(trial, axis=2)
                trial /= np.where(tn > 1e-12, tn, 1.0)[..., None]
                f_t = np.linalg.norm(fill(trial.reshape(-1, r), k), axis=1).reshape(tn.shape)
                lower = (tn > 1e-12) & (f_t < norm_f[pending, None])
                hit = lower.any(axis=1)
                c[run[pending[hit]]] = trial[hit, lower[hit].argmax(axis=1)]
                pending = pending[~hit]
            run = np.delete(run, pending)
        for i in np.flatnonzero(ok):
            solved += 1
            psi = range_basis @ c[i]
            snapped = _truncate_to_rank(space, k, psi / np.linalg.norm(psi))
            if snapped is None:
                truncated += 1
                continue
            if np.linalg.norm(snapped - range_basis @ (range_basis.conj().T @ snapped)) <= 1e-8:
                rng.bit_generator.state = state
                rng.standard_normal((i + 1, 2, r))
                return snapped, RangeSearch(tried + int(i) + 1, solved, truncated, outside)
            outside += 1
        tried += n
    return None, RangeSearch(tried, solved, truncated, outside)


def edge_state_decompose(rho: mixed.DensityMatrix, k: int, budget: int = 64,
                         iters: int = 400, seed=0) -> EdgeDecomposition:
    """Greedy convex split of a state into a class-(k-1) part and a k-edge part.

    Repeatedly finds Slater rank < k vectors in the range, by a seeded
    Gauss-Newton search over range coordinates with ``budget`` restarts
    (``_find_in_range``), and removes them with the maximal positive weight;
    when no candidate is found within the restart budget, the remainder
    is reported as the edge part.  An exhausted remainder (weight below
    1e-10) means the state itself is class k-1 at this search budget.
    ``searches`` tallies how each search's restarts ended (``RangeSearch``).
    """
    space = rho.space
    if not 2 <= k <= _max_rank(space):
        raise OutOfRangeError(f"class {k} outside 2..{_max_rank(space)}")
    rng = as_rng(seed)
    sigma = rho.matrix.copy()
    log: list = []
    searches: list = []
    # rank drops by one per generic subtraction; the bound guards against
    # stalling on near-kernel candidates
    for _ in range(2 * space.dim + 4):
        trace = float(sigma.trace().real)
        if trace <= 1e-10:
            sigma = None
            break
        # a positive trace keeps at least the largest eigenvalue
        evals, evecs = np.linalg.eigh(sigma)
        basis = evecs[:, evals > RANK_RTOL * evals[-1]]
        psi, search = _find_in_range(space, k, basis, budget, iters, rng)
        searches.append(search)
        if psi is None:
            break
        pinv = np.linalg.pinv(sigma, rcond=RANK_RTOL, hermitian=True)
        lam = 1.0 / float(np.real(np.vdot(psi, pinv @ psi)))
        lam = min(lam, trace)
        sigma = sigma - lam * np.outer(psi, psi.conj())
        sigma = 0.5 * (sigma + sigma.conj().T)
        log.append((mixed.state_from_sector_vector(space, psi), lam))

    weight = 0.0 if sigma is None else float(np.clip(sigma.trace().real, 0.0, 1.0))
    weight = weight if weight > 1e-10 else 0.0
    edge = mixed.density_matrix(space, _clip_psd(sigma / weight)) if weight else None
    lower = None
    if log:
        acc = sum(lam * np.outer(s.flat(), s.flat().conj()) for s, lam in log)
        lower = mixed.density_matrix(space, _clip_psd(acc / acc.trace()))
    return EdgeDecomposition(lower, edge, weight, log, searches)


def _clip_psd(m: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    evals = np.clip(evals, 0.0, None)
    out = (evecs * evals) @ evecs.conj().T
    return out / out.trace()


# ---------------------------------------------------------------------------
# witness construction from edge states
# ---------------------------------------------------------------------------

def witness_from_edge(delta: mixed.DensityMatrix, k: int, c_operator=None,
                      budget: int = 64, iters: int = 400, seed=0) -> WitnessOperator:
    """Witness ``W = P - (eps/c) C`` detecting a given k-edge state.

    ``P`` projects onto the kernel of ``delta``, ``eps`` is the searched
    infimum of ``<psi|P|psi>`` over rank < k states and ``c`` the largest
    eigenvalue of the positive operator ``C`` (identity by default).

    Raises
    ------
    NotAnEdgeStateError
        If the infimum vanishes, i.e. a rank < k vector lies in the
        range of ``delta``.
    """
    space = delta.space
    dim = space.dim
    evals, evecs = np.linalg.eigh(delta.matrix)
    keep = evals > RANK_RTOL * evals[-1]
    range_basis = evecs[:, keep]
    p = np.eye(dim, dtype=complex) - range_basis @ range_basis.conj().T
    eps, dispersion, _ = infimum_details(p, k, space, budget, iters, seed)
    if eps <= 1e-9:
        raise NotAnEdgeStateError(
            f"kernel projector has vanishing infimum ({eps:.3e}); a rank<{k} vector"
            " lies in the range")
    if c_operator is None:
        c_matrix = np.eye(dim, dtype=complex)
    else:
        c_matrix = np.asarray(c_operator, dtype=complex)
        require_hermitian(c_matrix)
        if np.linalg.eigvalsh(c_matrix)[0] < -TOL_SYM:
            raise ValidationError("C must be positive semidefinite")
    if float(np.trace(c_matrix @ delta.matrix).real) <= 0.0:
        raise ValidationError("Tr(delta C) must be positive")
    c_sup = float(np.linalg.eigvalsh(c_matrix)[-1])
    w = p - (eps / c_sup) * c_matrix
    out = witness_operator(space, w, k)
    if not witness_value(out, delta).detected:
        raise NumericalFailureError("constructed witness does not detect its edge state")
    return out


@dataclass(frozen=True)
class CanonicalWitnessForm:
    w_tilde: np.ndarray
    epsilon: float
    infimum_check: float | None
    verified: bool


def canonical_witness_form(w: WitnessOperator, check_budget: int = 16,
                           iters: int = 300, seed=0) -> CanonicalWitnessForm:
    """Shift ``W = W~ - eps 1`` with ``W~ >= 0``.

    ``eps`` is minus the smallest eigenvalue of ``W`` (zero for an
    already positive operator).  Verification searches the rank < k
    manifold and confirms ``eps <= inf <psi|W~|psi>`` within tolerance.
    """
    eps = max(0.0, -float(np.linalg.eigvalsh(w.matrix)[0]))
    w_tilde = w.matrix + eps * np.eye(w.space.dim)
    inf_check = None
    verified = True
    if eps > 0.0:
        inf_check = infimum_over_rank(w_tilde, w.slater_class, w.space,
                                      budget=check_budget, iters=iters, seed=seed)
        verified = bool(eps <= inf_check + 1e-6)
    return CanonicalWitnessForm(w_tilde, eps, inf_check, verified)


# ---------------------------------------------------------------------------
# witness optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizedWitness:
    witness: WitnessOperator
    optimal: bool
    subtracted_weight: float
    diagnostics: dict = field(default_factory=dict)


def _x_e_operator(full: np.ndarray, e: np.ndarray, d: int, fermionic: bool) -> np.ndarray:
    """Single-particle reduction ``X_e`` of a full-space two-particle operator."""
    t = full.reshape(d, d, d, d)
    ec = e.conj()
    t1 = np.einsum("a,afbg,b->fg", ec, t, e)  # <e,.|X|e,.>
    t2 = np.einsum("a,afgb,b->fg", ec, t, e)  # <e,.|X|.,e>
    t3 = np.einsum("a,fabg,b->fg", ec, t, e)  # <.,e|X|e,.>
    t4 = np.einsum("a,fagb,b->fg", ec, t, e)  # <.,e|X|.,e>
    if fermionic:
        return t1 - t2 - t3 + t4
    return t1 + t2 + t3 + t4


def _xe_criterion(w_full: np.ndarray, p_full: np.ndarray, d: int, fermionic: bool,
                  n_samples: int, rng) -> float:
    """inf over sampled e of the minimal eigenvalue of
    ``P_e^{-1/2} W_e P_e^{-1/2}`` restricted to the range of ``P_e``."""
    rng = as_rng(rng)
    best = math.inf
    probes = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    probes += [as_rng(rng).standard_normal(d) + 1j * as_rng(rng).standard_normal(d)
               for _ in range(n_samples)]
    for e in probes:
        e = e / np.linalg.norm(e)
        pe = _x_e_operator(p_full, e, d, fermionic)
        we = _x_e_operator(w_full, e, d, fermionic)
        evals, evecs = np.linalg.eigh(0.5 * (pe + pe.conj().T))
        keep = evals > 1e-10 * max(evals[-1], 1.0)
        if not np.any(keep):
            continue
        scale = evecs[:, keep] * (1.0 / np.sqrt(evals[keep]))
        reduced = scale.conj().T @ we @ scale
        low = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))[0])
        best = min(best, low)
    return best


def witness_optimize(w: WitnessOperator, budget: int = 64, iters: int = 400,
                     seed=0) -> OptimizedWitness:
    """Improve a witness by subtracting a positive operator off its tangent set.

    Samples the tangent set (rank < k states with vanishing expectation)
    through the infimum search.  If the tangent states span the whole
    sector the witness is already optimal and returned unchanged.
    Otherwise a multiple of the projector onto the orthogonal complement
    of the tangent span is removed, with the weight maximized by
    bisection subject to re-checked witness validity.  For class-2
    witnesses the single-particle reduction criterion (the minimal
    eigenvalue of ``P_e^{-1/2} W_e P_e^{-1/2}`` over probe vectors
    ``e``) is evaluated as an additional diagnostic gate.  The
    diagnostics report how many restarts of the first search converged
    and the most iterations any of them took.
    """
    space = w.space
    dim = space.dim
    k = w.slater_class
    rng = as_rng(seed)
    best, dispersion, minima = infimum_details(w.matrix, k, space, budget, iters, rng)
    tangent = [m.state for m in minima if m.value <= 1e-7]
    diagnostics = {
        "infimum": best,
        "restart_dispersion": dispersion,
        "restarts_converged": sum(m.converged for m in minima),
        "max_iterations": max(m.iterations for m in minima),
        "tangent_samples": len(tangent),
    }
    if tangent:
        stack = np.array(tangent)
        svals = np.linalg.svd(stack, compute_uv=False)
        span_dim = int(np.count_nonzero(svals > 1e-6 * svals[0]))
        diagnostics["tangent_span_dim"] = span_dim
        if span_dim == dim:
            return OptimizedWitness(w, True, 0.0, diagnostics)
        _, _, vh = np.linalg.svd(stack)
        comp = vh[span_dim:].conj().T  # orthonormal basis of the complement
        p_c = comp @ comp.conj().T
    else:
        diagnostics["tangent_span_dim"] = 0
        p_c = np.eye(dim, dtype=complex)

    if k == 2:
        d = space.dims[0]
        fermionic = space.kind == mixed.ANTISYMMETRIC
        w_full = sectors.embed_operator(space.kind, d, 2, w.matrix)
        p_full = sectors.embed_operator(space.kind, d, 2, p_c)
        crit = _xe_criterion(w_full, p_full, d, fermionic, 64, rng)
        diagnostics["xe_criterion"] = crit
        if crit <= 1e-10:
            return OptimizedWitness(w, False, 0.0, diagnostics)

    check_budget = max(8, budget // 4)

    def is_witness(mu: float) -> bool:
        cand = w.matrix - mu * p_c
        inf_val = infimum_over_rank(cand, k, space, budget=check_budget,
                                    iters=iters, seed=rng)
        return inf_val >= -1e-9

    if not tangent:
        # expectation is bounded away from zero; remove the slack directly
        mu = best
    else:
        lo, hi = 0.0, max(best, float(np.linalg.eigvalsh(w.matrix)[-1]))
        if hi <= 0.0 or not is_witness(hi * 1e-3):
            return OptimizedWitness(w, False, 0.0, diagnostics)
        mu_probe = hi * 1e-3
        while mu_probe < hi and is_witness(min(2 * mu_probe, hi)):
            mu_probe = min(2 * mu_probe, hi)
            if mu_probe == hi:
                break
        lo = mu_probe
        hi = min(2 * mu_probe, hi)
        for _ in range(6):
            mid = 0.5 * (lo + hi)
            if is_witness(mid):
                lo = mid
            else:
                hi = mid
        mu = lo
    if mu <= 1e-12:
        return OptimizedWitness(w, False, 0.0, diagnostics)
    improved = witness_operator(space, w.matrix - mu * p_c, k)
    diagnostics["subtracted_mu"] = mu
    return OptimizedWitness(improved, False, float(mu), diagnostics)


# ---------------------------------------------------------------------------
# positive maps from witnesses
# ---------------------------------------------------------------------------

def embed_witness_full(w: WitnessOperator, complement: float = 1.0) -> np.ndarray:
    """Witness on the full tensor space.

    The orthogonal complement of the exchange sector carries
    ``complement`` times the identity; the default identity extension
    keeps the canonical example's partial transpose positive and leaves
    expectations on sector states unchanged.
    """
    d = w.space.dims[0]
    return sectors.embed_operator(w.space.kind, d, 2, w.matrix, complement=complement)


def jamiolkowski_map_apply(w: WitnessOperator, rho_ac: mixed.DensityMatrix,
                           complement: float = 1.0) -> np.ndarray:
    """Apply the positive map associated with a witness: ``Tr_A(W rho^T_A)``.

    ``rho_ac`` lives on a bipartite space whose first factor matches the
    witness single-particle dimension; the output operator acts on the
    remaining pair of factors and is positive semidefinite whenever
    ``rho_ac`` is separable.
    """
    d = w.space.dims[0]
    if rho_ac.space.kind != mixed.BIPARTITE or rho_ac.space.dims[0] != d:
        raise SpaceMismatchError(
            f"expected a bipartite state with first factor {d}, got {rho_ac.space}")
    dc = rho_ac.space.dims[1]
    w_full = embed_witness_full(w, complement)
    rho_ta = mixed.partial_transpose(rho_ac, "A")
    t = w_full.reshape(d, d, d, d)
    r4 = rho_ta.reshape(d, dc, d, dc)
    m = np.einsum("abef,ecag->bcfg", t, r4)
    return m.reshape(d * dc, d * dc)
