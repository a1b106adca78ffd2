"""Slater witnesses: construction, canonical form, optimization, evaluation.

A class-k witness is a Hermitian operator on the two-particle
(anti)symmetric sector with non-negative expectation on every state of
Slater rank below k and a negative expectation on at least one class-k
state.  ``witness_operator`` accepts an operator iff its
``infimum_over_rank`` is at least ``WITNESS_SAMPLE_TOL`` and keeps that
value, so no caller searches it again; "detected" verdicts are exact.

Infima of identity-plus-rank-one operators have a closed form, so their
validity is exact, and for ``a 1 - b |v><v|`` so do its minimizers, the
best Slater rank < k truncations of ``v``, whose span ``witness_optimize``
reads off ``v``'s singular values with no draw and no search.  In the
canonical systems the edge split finds its rank-1 range vectors in closed
form too, as the isotropic vectors of the range's bilinear overlap.  All other
searches are non-convex with fixed restart budgets ("is a witness" is then
high-confidence), and their restart dispersion is reported rather than any
claim of exactness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import mixed, sectors, states
from .errors import (
    NotAnEdgeStateError,
    NotInRangeError,
    NumericalFailureError,
    OutOfRangeError,
    SpaceMismatchError,
    UnsupportedSystemError,
    ValidationError,
)
from .linalg import (RANK_RTOL, TOL_SYM, _lbfgs, _range_split, as_rng, require_hermitian,
                     singular_values, takagi_canonical)

#: the lowest infimum over Slater rank < k states that a witness may have
WITNESS_SAMPLE_TOL = -1e-8
#: the largest spread of eigenvalues, relative to the operator norm, that the
#: closed-form infimum reads as one repeated eigenvalue
_RANK_ONE_SPREAD = 1e-10
#: the largest distance from ``z_{k-1}``, relative to the largest canonical
#: value, of the values the tangent states of ``a 1 - b |v><v|`` mix
_TANGENT_CLUSTER = 1e-9
#: the expectation at or below which a rank < k state counts as tangent
_TANGENT_TOL = 1e-7


# ---------------------------------------------------------------------------
# witness operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessOperator:
    """Hermitian class-k witness on a two-particle sector."""

    space: mixed.StateSpace
    matrix: np.ndarray
    slater_class: int
    epsilon: float  # canonical-form shift, see canonical_witness_form
    infimum: float  # inf <psi|W|psi> over Slater rank < k, as validated


def _sector_operator(space: mixed.StateSpace, matrix, tol: float) -> np.ndarray:
    """``matrix`` as a complex operator on the two-particle sector ``space``,
    Hermitian to ``tol``."""
    if space.kind not in (mixed.ANTISYMMETRIC, mixed.SYMMETRIC) or space.particles != 2:
        raise UnsupportedSystemError("witnesses act on two-particle exchange sectors")
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (space.dim, space.dim):
        raise ValidationError(f"matrix shape {m.shape} does not match sector dimension {space.dim}")
    require_hermitian(m, tol)
    return m


def _max_rank(space: mixed.StateSpace) -> int:
    d = space.dims[0]
    return d // 2 if space.kind == mixed.ANTISYMMETRIC else d


def _pair_amps(kind: str, w: np.ndarray) -> np.ndarray:
    """Sector amplitudes of a stack of (anti)symmetric pair matrices, the
    map ``sectors.amps_from_tensor`` applies to one of them."""
    d = w.shape[-1]
    flats, factors = sectors._gather_table(kind, d, 2)
    return w.reshape(-1, d * d)[:, flats] * factors


def _build_witness(space: mixed.StateSpace, matrix, slater_class: int,
                   infimum: float | None = None) -> WitnessOperator:
    """The checked Hermitian part of ``matrix``, unvalidated, with its shift
    and ``infimum`` (``infimum_over_rank`` unless a caller has proved it)."""
    m = _sector_operator(space, matrix, TOL_SYM)
    if not 2 <= slater_class <= _max_rank(space):
        raise OutOfRangeError(f"class {slater_class} outside 2..{_max_rank(space)}")
    m = 0.5 * (m + m.conj().T)
    if infimum is None:
        infimum = infimum_over_rank(m, slater_class, space)
    eps = max(0.0, -float(np.linalg.eigvalsh(m)[0]))
    return WitnessOperator(space, m, slater_class, eps, infimum)


def witness_operator(space: mixed.StateSpace, matrix, slater_class: int) -> WitnessOperator:
    """Validated witness operator.

    Validation checks hermiticity and requires ``infimum_over_rank(W,
    slater_class)`` at or above ``WITNESS_SAMPLE_TOL`` (-1e-8); the operator
    carries that value as ``infimum``.  It is exact, with no search, for an
    identity-plus-rank-one ``W`` (the optimal witness family and witnesses
    from pure edge states); any other ``W`` gets the 64 x 400 restart search,
    whose value bounds the infimum from above.
    """
    w = _build_witness(space, matrix, slater_class)
    if w.infimum < WITNESS_SAMPLE_TOL:
        raise ValidationError(
            f"expectation {w.infimum:.3e} on a state of Slater rank below {slater_class}")
    return w


def optimal_witness_example(big_k: int, k: int, kind: str) -> WitnessOperator:
    """The canonical optimal witness ``1 - (K/(k-1)) P_maxcorr``.

    ``P_maxcorr`` projects onto the equal-weight sum of K pair states
    (fermions, d = 2K) or K doubly occupied modes (bosons, d = K).
    """
    if not 2 <= k <= big_k:
        raise OutOfRangeError(f"need 2 <= k <= K, got k={k}, K={big_k}")
    state = states.maximally_correlated_state(kind, big_k)
    space, psi = mixed.space_of_state(state), state.flat()
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
        bra = psi.conj()
        den = np.einsum("ni,ni->n", bra, psi).real
        degenerate = den < 1e-18
        dpsi = psi
        if d_t is not None:
            dpsi = psi @ d_t
            norm2, den = den, np.einsum("ni,ni->n", bra, dpsi).real
            degenerate |= den < 1e-12 * norm2
        some_degenerate = degenerate.any()
        if some_degenerate:
            den[degenerate] = 1.0
        mpsi = psi @ m_t
        f = np.einsum("ni,ni->n", bra, mpsi).real / den
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
        if some_degenerate:
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
    x0 = rng.standard_normal((budget, chart.n_params))
    x, f, converged, iterations = _lbfgs(_quadratic_objective(chart, m_matrix), x0, iters)
    psi = chart.sector_vectors(x)
    norms = np.linalg.norm(psi, axis=1)
    results = [Restart(float(f[i]), psi[i] / norms[i], bool(converged[i]), int(iterations[i]))
               for i in np.flatnonzero(norms >= 1e-9)]
    return sorted(results, key=lambda t: t[0])


def _search_operator(operator, k: int, space: mixed.StateSpace, budget: int,
                     iters: int) -> np.ndarray:
    """The checked operator of an infimum over Slater rank < k states."""
    p = _sector_operator(space, operator, 1e-8)
    if k < 2:
        raise OutOfRangeError(f"no state has Slater rank below {k}")
    if budget < 1:
        raise ValidationError(f"budget must be at least 1 restart, got {budget}")
    if iters < 1:
        raise ValidationError(f"iters must be at least 1 step, got {iters}")
    return p


class _ClosedInfimum(NamedTuple):
    """A closed-form infimum, with ``v`` and its canonical values when the
    operator is ``a 1 - b |v><v|`` with ``b`` above the spread cut."""

    value: float
    vector: np.ndarray | None = None
    values: np.ndarray | None = None


def _canonical_values(space: mixed.StateSpace, v: np.ndarray) -> np.ndarray:
    """``v``'s Youla (fermions) or Takagi (bosons) values, as many as its Slater
    rank: its pair matrix's singular values (Youla ones twice) cut at ``RANK_RTOL``."""
    s = singular_values(sectors.tensor_from_amps(space.kind, space.dims[0], 2, v))
    nonzero = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    return s[1:nonzero:2] if space.kind == mixed.ANTISYMMETRIC else s[:nonzero]


def _identity_plus_rank_one_infimum(p: np.ndarray, k: int, space: mixed.StateSpace):
    """``inf <psi|P|psi>`` over Slater rank < k states in closed form, or None.

    With the eigenvalues ``l_1 <= ... <= l_D`` of ``P``:

    - if ``l_2 .. l_D`` agree, ``P = a 1 - b |v><v|`` with ``v`` the ``l_1``
      eigenvector, ``a = l_2`` and ``b = l_2 - l_1 >= 0``, and the infimum is
      ``a - b s_{k-1}(v)``.  ``s_{k-1}(v)``, the largest ``|<v|psi>|^2`` over
      unit rank < k states, is the sum of the k-1 largest squared Youla
      (fermions) or Takagi (bosons) values of ``v`` over the sum of all of
      them: Eckart-Young, on values read off singular values.  The result
      carries ``v`` and those values when ``b`` exceeds the spread cut.
    - if ``l_1 .. l_{D-1}`` agree, ``P = a 1 + b |v><v|`` and the infimum is
      ``l_1``: the hyperplane ``v^perp`` meets the rank-one states (the
      Pluecker quadric for fermions, the Veronese variety for bosons).

    "Agree" means a spread of at most ``_RANK_ONE_SPREAD`` times the operator
    norm.  ``P`` is then the operator above plus a positive part no larger
    than that spread, so the value is never above the infimum and at most
    the spread below it.  Any other spectrum, or a sector of dimension
    below 3, returns None.
    """
    evals, evecs = np.linalg.eigh(0.5 * (p + p.conj().T))
    if len(evals) < 3:
        return None
    cut = _RANK_ONE_SPREAD * max(-evals[0], evals[-1])
    if evals[-1] - evals[1] <= cut:
        b = evals[1] - evals[0]
        z = _canonical_values(space, evecs[:, 0])
        value = float(evals[1] - b * (z[:k - 1] ** 2).sum() / (z ** 2).sum())
        return _ClosedInfimum(value, evecs[:, 0], z) if b > cut else _ClosedInfimum(value)
    if evals[-2] - evals[0] <= cut:
        return _ClosedInfimum(float(evals[0]))
    return None


def _tangent_clusters(kind: str, z: np.ndarray, k: int) -> tuple[int, int, int, int]:
    """``(lo, c, r, span_dim)`` of descending canonical values ``z`` for
    ``_tangent_span``: the span fills the sector iff ``r < c`` covers every mode."""
    keep = min(k - 1, len(z))
    edge, tol = z[keep - 1], _TANGENT_CLUSTER * z[0]
    lo = int(np.count_nonzero(z > edge + tol))
    c, r = int(np.count_nonzero(z >= edge - tol)) - lo, keep - lo
    n, sign = (2 * c, -1) if kind == mixed.ANTISYMMETRIC else (c, 1)
    return lo, c, r, 1 if r == c else n * (n + sign) // 2


def _tangent_span(kind: str, slater: states.SchmidtSlaterResult, k: int) -> tuple[int, np.ndarray]:
    """Dimension of the span of the best Slater rank < k approximations of
    the state whose decomposition ``U M U^T = C`` is ``slater``, and the
    projector onto its complement in the sector.

    Eckart-Young keeps the ``lo`` values above ``z = z_{k-1}`` whole (``F``),
    and ``r`` of the ``c`` values within ``_TANGENT_CLUSTER z_1`` of ``z``
    under the cluster's stabilizer: Sp(c) on ``Lambda^2(C^2c) = C J_c +
    Lambda^2_0`` (Youla pairs) or O(c) on ``Sym^2(C^c) = C I_c + Sym^2_0``
    (Takagi values), both parts irreducible.  So for ``r < c`` the orbit
    spans ``C f + Lambda^2_0``, ``f = F + (r/c) z J_c`` being its average,
    and for ``r = c`` it is ``f``.  The basis is ``f`` and the cluster's
    elementary pair matrices less their ``J_c`` part, which sums to zero over
    the diagonal ones, so the last is left out; each maps as ``U^dag T conj(U)``.
    """
    u, z = slater.transforms[0], slater.values
    lo, c, r, span_dim = _tangent_clusters(kind, z, k)
    edge = z[lo + r - 1]
    sign = -1 if kind == mixed.ANTISYMMETRIC else 1
    block = np.array([[0.0, 1.0], [-1.0, 0.0]]) if sign < 0 else np.ones((1, 1))
    start, n = len(block) * lo, len(block) * c
    pairs = np.zeros((span_dim, len(u), len(u)))
    pairs[0, :start + n, :start + n] = np.kron(np.diag(np.append(z[:lo], [r / c * edge] * c)), block)
    if r < c:
        cluster = np.kron(np.eye(c), block)
        rows, cols = np.triu_indices(n, 1 if sign < 0 else 0)
        e = np.eye(n * n)[rows * n + cols].reshape(-1, n, n)
        e = e + sign * e.swapaxes(1, 2)
        e -= np.einsum("nab,ab->n", e, cluster)[:, None, None] * cluster / n
        pairs[1:, start:start + n, start:start + n] = e[:-1]
    basis = np.linalg.qr(_pair_amps(kind, u.conj().T @ pairs @ u.conj()).T)[0]
    return span_dim, np.eye(len(basis)) - basis @ basis.conj().T


def infimum_over_rank(operator, k: int, space: mixed.StateSpace, budget: int = 64,
                      iters: int = 400, seed=0) -> float:
    """``inf <psi|P|psi>`` over unit states of Slater rank < k.

    Exact, with no search, when ``P`` is the identity plus a rank-one term
    (``a 1 - b |v><v|``: ``a - b s_{k-1}(v)``, see
    ``_identity_plus_rank_one_infimum``).  Any other operator gets the best
    value of the restart search of ``infimum_details`` (``budget`` restarts
    of ``iters`` steps), an upper bound on the infimum whose gap is
    assessed through the dispersion of the restart minima.
    """
    p = _search_operator(operator, k, space, budget, iters)
    closed = _identity_plus_rank_one_infimum(p, k, space)
    if closed is not None:
        return closed.value
    return infimum_details(p, k, space, budget, iters, seed)[0]


def infimum_details(operator, k: int, space: mixed.StateSpace, budget: int = 64,
                    iters: int = 400, seed=0):
    """Infimum search returning ``(best, dispersion, minima)``.

    Always the restart search, also where ``infimum_over_rank`` has a closed
    form: ``minima`` holds one ``Restart`` per kept start, sorted by value.
    """
    p = _search_operator(operator, k, space, budget, iters)
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


def subtract_pure_projector(rho: mixed.DensityMatrix, psi: states.PureState) -> SubtractionResult:
    """Largest projector weight that keeps ``rho - lambda |psi><psi|`` positive.

    ``lambda_max = 1 / <psi|rho^+|psi>`` with the pseudo-inverse taken on
    the range (``psi`` must lie in it to 1e-7); the remainder is
    renormalized.  A full subtraction (``lambda_max == 1``) returns none.
    """
    if mixed.space_of_state(psi) != rho.space:
        raise SpaceMismatchError("state and density matrix live in different spaces")
    v = psi.flat()
    v = v / np.linalg.norm(v)
    evals, basis, _ = _range_split(rho.matrix)
    coords = basis.conj().T @ v
    resid = float(np.linalg.norm(v - basis @ coords))
    if resid > 1e-7:
        raise NotInRangeError(f"range-membership residual {resid:.3e} exceeds 1.0e-07")
    lam = min(1.0 / float(np.sum(np.abs(coords) ** 2 / evals)), 1.0)
    if lam >= 1.0 - 1e-9:
        return SubtractionResult(1.0, None)
    rem = (rho.matrix - lam * np.outer(v, v.conj())) / (1.0 - lam)
    rem = 0.5 * (rem + rem.conj().T)
    return SubtractionResult(lam, mixed.density_matrix(rho.space, rem))


class RangeSearch(NamedTuple):
    """How the restarts of one search for a rank < k vector in a range ended.

    ``tried`` restarts ran, counted in order up to the vector kept (the
    search stops there); ``solved`` of them reached ``<psi|P|psi> <= 1e-10``
    on the kernel projector ``P``, and ``range_rejected`` of the solved ones
    were still outside the range after the polish.  A one-dimensional range
    and any range of a canonical system are decided without restarts and
    report ``RangeSearch(0, 0, 0)``.
    """

    tried: int
    solved: int
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


def _polish(chart: _SectorChart, kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The chart state of the row ``x`` after up to 8 Gauss-Newton steps on
    the residual ``kernel @ psi(z)``, as a unit sector vector.

    ``psi`` is quadratic and holomorphic in the chart vectors ``z``, so unit
    central differences give its Jacobian exactly.  Each step is the
    minimum-norm solution orthogonal to ``z``, so no step shrinks ``psi``
    toward the trivial zero of the residual.  The steps end once the
    residual is at most ``1e-14 |psi|``: on a range that fills the sector the
    kernel is rounding noise, and steps on it would drive ``psi`` to zero.
    """
    z = chart.vectors(x[None])[0]
    units = np.eye(z.size).reshape(z.size, *z.shape)
    shifts = np.concatenate([np.zeros_like(units[:1]), units, -units])
    for _ in range(8):
        psi = _pair_amps(chart.kind, chart.pair_matrices(z + shifts))
        residual = kernel @ psi[0]
        if np.linalg.norm(residual) <= 1e-14 * np.linalg.norm(psi[0]):
            break
        jac = kernel @ (psi[1:z.size + 1] - psi[z.size + 1:]).T / 2
        flat = z.ravel()
        across = np.eye(z.size) - np.outer(flat, flat.conj()) / np.vdot(flat, flat).real
        step = np.linalg.lstsq(jac @ across, -residual, rcond=None)[0]
        z = z + step.reshape(z.shape)
    psi = _pair_amps(chart.kind, chart.pair_matrices(z[None]))[0]
    return psi / np.linalg.norm(psi)


def _isotropic_vector(range_basis: np.ndarray, system: str) -> np.ndarray:
    """A unit vector of vanishing concurrence in the range of a canonical system.

    ``psi = B c`` has preconcurrence ``c^T M c`` with ``M`` the bilinear
    overlap ``B^T U_D^dag B`` (``mixed._dual_overlap``), and there Slater rank
    1 is concurrence 0 (Schliemann, Cirac, Kus, Lewenstein & Loss, PRA 64,
    022303 (2001)).  With ``U M U^T = diag(z)`` and ``c = U^T y`` it is ``sum
    z_i y_i^2``, which ``y = e_r`` zeroes when ``M`` is rank-deficient and ``y
    = (sqrt z_2, i sqrt z_1, 0, ...)`` zeroes otherwise.
    """
    takagi = takagi_canonical(mixed._dual_overlap(range_basis, system))
    r, z = range_basis.shape[1], takagi.values
    y = np.zeros(r, dtype=complex)
    if len(z) < r:
        y[-1] = 1.0
    else:
        y[:2] = np.sqrt(z[1]), 1j * np.sqrt(z[0])
    psi = range_basis @ (takagi.transform.T @ y)
    return psi / np.linalg.norm(psi)


def _canonical_sector(space: mixed.StateSpace) -> str | None:
    """The canonical system of a two-particle exchange sector, or None."""
    if space.kind == mixed.BIPARTITE:
        return None
    try:
        return mixed.canonical_system_of_space(space)
    except UnsupportedSystemError:
        return None


def _find_in_range(space, k, range_basis, budget, iters, rng):
    """A Slater rank < k vector inside a given range, or None, and the tally.

    A one-dimensional range holds a single candidate, and a range of a
    canonical system (two fermions with d = 4 or two bosons with d = 2,
    where k is 2) the closed-form ``_isotropic_vector``; either is decided
    by its Slater rank (``_canonical_values``), reports ``RangeSearch(0, 0,
    0)`` and draws nothing from ``rng``.  Otherwise restarts minimize
    ``<psi|P|psi>`` over the rank < k manifold (``_SectorChart``) with ``P``
    the kernel projector, stacked in chunks of 1, 1, 2, 4, ... restarts of
    ``iters`` L-BFGS steps.  A restart with ``f <= 1e-10`` is polished onto the range
    (``_polish``) and kept when its range residual is at most 1e-8; the
    first kept in order ends the search.
    """
    system = _canonical_sector(space)
    if range_basis.shape[1] == 1 or system is not None:
        psi = (range_basis[:, 0] if range_basis.shape[1] == 1
               else _isotropic_vector(range_basis, system))
        return (psi if len(_canonical_values(space, psi)) < k else None), RangeSearch(0, 0, 0)
    rng = as_rng(rng)
    chart = _SectorChart(space, k)
    kernel = np.eye(len(range_basis)) - range_basis @ range_basis.conj().T
    objective = _quadratic_objective(chart, kernel)
    tried = solved = outside = 0
    while tried < budget:
        n = min(max(tried, 1), budget - tried)
        x, f, _, _ = _lbfgs(objective, rng.standard_normal((n, chart.n_params)), iters)
        for i in np.flatnonzero(f <= 1e-10):
            solved += 1
            psi = _polish(chart, kernel, x[i])
            if np.linalg.norm(psi - range_basis @ (range_basis.conj().T @ psi)) <= 1e-8:
                return psi, RangeSearch(tried + int(i) + 1, solved, outside)
            outside += 1
        tried += n
    return None, RangeSearch(tried, solved, outside)


def edge_state_decompose(rho: mixed.DensityMatrix, k: int, budget: int = 64,
                         seed=0) -> EdgeDecomposition:
    """Greedy convex split of a state into a class-(k-1) part and a k-edge part.

    Repeatedly finds Slater rank < k vectors in the range (``_find_in_range``:
    in closed form for the canonical systems, otherwise by a seeded search
    over the rank < k manifold with ``budget`` restarts of 400 steps), and
    removes them with the maximal positive weight; when no candidate is
    found, the remainder is reported as the edge part.  An exhausted
    remainder (weight below 1e-10) means the state itself is class k-1 at
    this search budget.
    ``searches`` tallies how each search's restarts ended (``RangeSearch``).
    A ``budget`` below 1 raises ``ValidationError``.
    """
    space = rho.space
    if not 2 <= k <= _max_rank(space):
        raise OutOfRangeError(f"class {k} outside 2..{_max_rank(space)}")
    if budget < 1:
        raise ValidationError(f"budget must be at least 1 restart, got {budget}")
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
        evals, basis, _ = _range_split(sigma)
        psi, search = _find_in_range(space, k, basis, budget, 400, rng)
        searches.append(search)
        if psi is None:
            break
        # 1 / <psi|sigma^+|psi>, the pseudo-inverse taken on the kept range
        lam = 1.0 / float(np.sum(np.abs(basis.conj().T @ psi) ** 2 / evals))
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
                      budget: int = 64, seed=0) -> WitnessOperator:
    """Witness ``W = P - (eps/c) C`` detecting a given k-edge state.

    ``P`` projects onto the kernel of ``delta``, ``eps`` is
    ``infimum_over_rank(P, k)`` and ``c`` the largest eigenvalue of the
    positive operator ``C`` (identity by default).  For a pure
    ``delta = |phi><phi|``, ``P = 1 - |phi><phi|`` and ``eps = 1 - s_{k-1}(phi)``
    is exact, and a range of dimension ``D - 1`` gives exactly 0.  Any other
    range gets the search (``budget`` restarts of 400 steps), whose ``eps``
    is an upper bound.  ``W`` carries infimum 0, as ``C <= c 1`` gives ``W >= P - eps 1``.

    Raises
    ------
    NotAnEdgeStateError
        If the infimum vanishes, i.e. a rank < k vector lies in the
        range of ``delta``.
    ValidationError
        If ``C`` is not a positive semidefinite operator on the sector, or
        ``Tr(delta C)`` is not positive.
    """
    space = delta.space
    dim = space.dim
    c_matrix = (np.eye(dim, dtype=complex) if c_operator is None
                else _sector_operator(space, c_operator, TOL_SYM))
    c_evals = np.linalg.eigvalsh(c_matrix)
    if c_evals[0] < -TOL_SYM:
        raise ValidationError("C must be positive semidefinite")
    if float(np.trace(c_matrix @ delta.matrix).real) <= 0.0:
        raise ValidationError("Tr(delta C) must be positive")
    _, range_basis, _ = _range_split(delta.matrix)
    p = np.eye(dim, dtype=complex) - range_basis @ range_basis.conj().T
    eps = infimum_over_rank(p, k, space, budget, 400, seed)
    if eps <= 1e-9:
        raise NotAnEdgeStateError(
            f"kernel projector has vanishing infimum ({eps:.3e}); a rank<{k} vector"
            " lies in the range")
    out = _build_witness(space, p - (eps / float(c_evals[-1])) * c_matrix, k, infimum=0.0)
    if not witness_value(out, delta).detected:
        raise NumericalFailureError("constructed witness does not detect its edge state")
    return out


@dataclass(frozen=True)
class CanonicalWitnessForm:
    w_tilde: np.ndarray
    epsilon: float
    infimum_check: float | None
    verified: bool


def canonical_witness_form(w: WitnessOperator, seed=0) -> CanonicalWitnessForm:
    """Shift ``W = W~ - eps 1`` with ``W~ >= 0``.

    ``eps = w.epsilon`` is minus the smallest eigenvalue of ``W`` (zero for
    a positive ``W``).  Verification confirms ``eps <= inf <psi|W~|psi>``
    within 1e-6; an infimum over unit states shifts exactly with the
    identity, so it is ``w.infimum + eps``, unsearched.  ``seed`` is unused.
    """
    eps = w.epsilon
    inf_check = w.infimum + eps if eps > 0.0 else None
    verified = inf_check is None or bool(eps <= inf_check + 1e-6)
    return CanonicalWitnessForm(w.matrix + eps * np.eye(w.space.dim), eps, inf_check, verified)


# ---------------------------------------------------------------------------
# witness optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizedWitness:
    witness: WitnessOperator
    optimal: bool
    subtracted_weight: float
    diagnostics: dict = field(default_factory=dict)


def witness_optimize(w: WitnessOperator, budget: int = 64, iters: int = 400,
                     seed=0) -> OptimizedWitness:
    """Improve a witness by subtracting a positive operator off its tangent set.

    Follows Lewenstein, Kraus, Cirac & Horodecki, "Optimization of
    entanglement witnesses", PRA 62, 052310 (2000).  The tangent set holds
    the rank < k states with vanishing expectation.  For ``W = a 1 - b
    |v><v|`` the infimum is the closed form of ``infimum_over_rank``, and
    where it is at most ``_TANGENT_TOL`` the tangent states are the best
    rank < k truncations of ``v``, whose span the cluster of ``v``'s values at
    ``z_{k-1}`` gives exactly, with nothing sampled (``tangent_samples`` 0);
    only a span short of the sector decomposes ``v``.  An identity-plus-rank-one
    ``W`` with a positive infimum has no tangent states.  Any other ``W``
    gets the search of ``infimum_details``, whose restart minima at or below
    ``_TANGENT_TOL`` (``tangent_samples``) sample the tangent set.

    If the tangent states span the whole sector the witness is optimal and
    returned unchanged.  Otherwise ``P_c`` projects onto the complement of
    their span, and the largest ``mu`` that keeps ``W - mu P_c`` a witness
    is ``inf <psi|W|psi> / <psi|P_c|psi>`` over rank < k states.  Without
    tangent states ``P_c = 1`` and that ratio is the infimum already found;
    otherwise one stacked search of ``budget`` restarts minimizes it.  ``W -
    mu P_c`` is built once, with the infimum ``witness_operator`` proves,
    and kept only if that infimum is at or above -1e-9 where ``P_c`` is a
    complement (``subtraction_check`` in the diagnostics), or at or above
    ``WITNESS_SAMPLE_TOL`` where ``P_c = 1``; otherwise ``W`` is returned
    unchanged, with weight 0 (on the closed form ``budget`` sets only the
    restarts of the ratio search).  The diagnostics also report
    ``infimum_restarts`` (``budget`` when the infimum search ran, 0 for the
    closed form), how many of its restarts converged and the most
    iterations any of them took (both 0 for the closed form).
    """
    space = w.space
    dim = space.dim
    k = w.slater_class
    rng = as_rng(seed)
    p = _search_operator(w.matrix, k, space, budget, iters)
    closed = _identity_plus_rank_one_infimum(p, k, space)
    span_dim, p_c = 0, np.eye(dim, dtype=complex)
    if closed is not None and (closed.value > _TANGENT_TOL or closed.vector is not None):
        best, samples = closed.value, 0
        if best <= _TANGENT_TOL:
            span_dim = _tangent_clusters(space.kind, closed.values, k)[3]
        if 0 < span_dim < dim:
            state = mixed.state_from_sector_vector(space, closed.vector)
            span_dim, p_c = _tangent_span(space.kind, states.slater_decompose_two_particle(state), k)
        search = {"restart_dispersion": 0.0, "restarts_converged": 0, "max_iterations": 0,
                  "infimum_restarts": 0}
    else:
        best, dispersion, minima = infimum_details(p, k, space, budget, iters, rng)
        tangent = np.array([m.state for m in minima if m.value <= _TANGENT_TOL])
        if samples := len(tangent):
            span_dim, p_c = _complement_projector(tangent)
        search = {"restart_dispersion": dispersion,
                  "restarts_converged": sum(m.converged for m in minima),
                  "max_iterations": max(m.iterations for m in minima),
                  "infimum_restarts": budget}
    diagnostics = {"infimum": best, **search, "tangent_samples": samples,
                   "tangent_span_dim": span_dim}
    if span_dim == dim:
        return OptimizedWitness(w, True, 0.0, diagnostics)
    if span_dim:
        chart = _SectorChart(space, k)
        x0 = rng.standard_normal((budget, chart.n_params))
        mu = float(_lbfgs(_quadratic_objective(chart, w.matrix, p_c), x0, iters)[1].min())
        diagnostics["ratio_infimum"] = mu
    else:
        # expectation is bounded away from zero; remove the slack directly
        mu = best
    if mu <= 1e-12:
        return OptimizedWitness(w, False, 0.0, diagnostics)
    improved = _build_witness(space, w.matrix - mu * p_c, k)
    if span_dim:
        diagnostics["subtraction_check"] = improved.infimum
    if improved.infimum < (-1e-9 if span_dim else WITNESS_SAMPLE_TOL):
        return OptimizedWitness(w, False, 0.0, diagnostics)
    diagnostics["subtracted_mu"] = mu
    return OptimizedWitness(improved, False, float(mu), diagnostics)


def _complement_projector(tangent: np.ndarray) -> tuple[int, np.ndarray]:
    """Dimension of the span of the rows of ``tangent`` (singular values above
    1e-6 of the largest) and the projector onto its orthogonal complement.

    ``tangent @ vh^dag = u s``, so every row ``t`` has ``<vh_j|t> = 0`` for
    ``j`` beyond the span: the complement is spanned by the rows ``vh_j``
    themselves, the columns of ``vh[span:].T`` (not of ``vh[span:]^dag``,
    which spans the null space of ``tangent`` as a matrix).
    """
    _, svals, vh = np.linalg.svd(tangent)
    span_dim = int(np.count_nonzero(svals > 1e-6 * svals[0]))
    comp = vh[span_dim:].T
    return span_dim, comp @ comp.conj().T


# ---------------------------------------------------------------------------
# positive maps from witnesses
# ---------------------------------------------------------------------------

def embed_witness_full(w: WitnessOperator) -> np.ndarray:
    """Witness on the full tensor space (the one-particle split of two particles).

    The orthogonal complement of the exchange sector carries the identity;
    this extension keeps the canonical example's partial transpose positive
    and leaves expectations on sector states unchanged.
    """
    s = sectors.split_isometry(w.space.kind, w.space.dims[0], 2)
    return s @ w.matrix @ s.conj().T + (np.eye(len(s)) - s @ s.conj().T)


def jamiolkowski_map_apply(w: WitnessOperator, rho_ac: mixed.DensityMatrix) -> np.ndarray:
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
    w_full = embed_witness_full(w)
    rho_ta = mixed.partial_transpose(rho_ac, "A")
    t = w_full.reshape(d, d, d, d)
    r4 = rho_ta.reshape(d, dc, d, dc)
    m = np.einsum("abef,ecag->bcfg", t, r4)
    return m.reshape(d * dc, d * dc)
