"""Density matrices and mixed-state correlation criteria.

Covers the closed-form concurrence of the three canonical systems, the
class-1 (Slater number one) spectral test, partial transposition on the
one-particle split, separability decisions for bosonic PPT states (by
theorem, or by subtracting the product vectors ``|e, e>`` that the range
search of ``witnesses.edge_state_decompose`` finds), and a convex-roof
minimization used as a numerical oracle for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sectors, states
from .errors import (
    NotAStateError,
    UnsupportedSystemError,
    ValidationError,
)
from .linalg import (
    RANK_RTOL,
    TOL_SYM,
    _lbfgs,
    _range_split,
    as_rng,
    max_abs,
    takagi_canonical,
)

BIPARTITE = states.BIPARTITE
ANTISYMMETRIC = sectors.ANTISYMMETRIC
SYMMETRIC = sectors.SYMMETRIC

#: the partial transpose counts as positive with no eigenvalue below this
PPT_MIN_EIGENVALUE = -1e-9

#: the convex-roof search smooths every ``|z_k|`` to ``sqrt(|z_k|^2 + mu^2)``
#: at this ``mu``.  The width only conditions the search: for ``m = 4`` every
#: ``mu > 0`` has the optimal decompositions as its global minimizers
#: (``convex_roof_details``), and a wider one takes fewer steps to reach them.
ROOF_SMOOTHING = 1e-1


@dataclass(frozen=True)
class StateSpace:
    """State space tag: distinguishable bipartite or an exchange sector."""

    kind: str
    dims: tuple[int, ...]
    particles: int = 2

    @property
    def dim(self) -> int:
        """Dimension of the sector the density matrix acts on."""
        if self.kind == BIPARTITE:
            return self.dims[0] * self.dims[1]
        return sectors.sector_dim(self.kind, self.dims[0], self.particles)


def bipartite_space(d_a: int, d_b: int) -> StateSpace:
    return StateSpace(BIPARTITE, (d_a, d_b))


def antisymmetric_space(d: int, particles: int = 2) -> StateSpace:
    return StateSpace(ANTISYMMETRIC, (d,), particles)


def symmetric_space(d: int, particles: int = 2) -> StateSpace:
    return StateSpace(SYMMETRIC, (d,), particles)


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix on a declared state space."""

    space: StateSpace
    matrix: np.ndarray

    def rank(self) -> int:
        return len(_range_split(self.matrix)[0])


def density_matrix(space: StateSpace, matrix) -> DensityMatrix:
    """Construct a density matrix, enforcing hermiticity, positivity, trace one."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (space.dim, space.dim):
        raise NotAStateError(f"matrix shape {m.shape} does not match sector dimension {space.dim}")
    if not np.all(np.isfinite(m)):
        raise NotAStateError("matrix contains NaN or Inf")
    dev = max_abs(m - m.conj().T)
    if dev > TOL_SYM:
        raise NotAStateError(f"matrix is not Hermitian (deviation {dev:.3e})")
    m = 0.5 * (m + m.conj().T)
    tr = float(m.trace().real)
    if abs(tr - 1.0) > 1e-10:
        raise NotAStateError(f"trace {tr} is not 1 within 1e-10")
    evals = np.linalg.eigvalsh(m)
    if evals[0] < -1e-10:
        raise NotAStateError(f"negative eigenvalue {evals[0]:.3e}")
    return DensityMatrix(space, m)


def space_of_state(state: states.PureState) -> StateSpace:
    if state.kind == BIPARTITE:
        return bipartite_space(*state.dim)
    return StateSpace(states.SECTOR_OF_KIND[state.kind], (state.dim,), state.particles)


def density_from_pure(state: states.PureState) -> DensityMatrix:
    v = state.flat()
    v = v / np.linalg.norm(v)
    return DensityMatrix(space_of_state(state), np.outer(v, v.conj()))


def density_from_mixture(pairs) -> DensityMatrix:
    """Density matrix of a convex mixture of pure states."""
    pairs = list(pairs)
    space = space_of_state(pairs[0][1])
    m = sum(p * density_from_pure(psi).matrix for p, psi in pairs)
    return density_matrix(space, m / m.trace())


def state_from_sector_vector(space: StateSpace, vec) -> states.PureState:
    vec = np.asarray(vec, dtype=complex)
    n = np.linalg.norm(vec)
    if n == 0:
        raise NotAStateError("zero vector")
    vec = vec / n
    if space.kind == BIPARTITE:
        return states.PureState(BIPARTITE, 2, space.dims, vec.reshape(space.dims))
    return states.PureState(states.KIND_OF_SECTOR[space.kind], space.particles, space.dims[0],
                            vec)


def canonical_system_of_space(space: StateSpace) -> str:
    """The canonical system of the states in ``space`` (see ``states.canonical_system_of``)."""
    if space.kind == BIPARTITE:
        return states.canonical_system_of(BIPARTITE, 2, space.dims)
    return states.canonical_system_of(states.KIND_OF_SECTOR[space.kind], space.particles,
                                      space.dims[0])


# ---------------------------------------------------------------------------
# spectral decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubnormalizedSpectrum:
    """Eigenvectors scaled so that ``<Psi_i|Psi_j> = lambda_i delta_ij``."""

    vectors: np.ndarray  # (dim, rank), column i has squared norm lambda_i
    weights: np.ndarray

    @property
    def rank(self) -> int:
        return self.vectors.shape[1]


def subnormalized_spectrum(rho: DensityMatrix, rtol: float = RANK_RTOL) -> SubnormalizedSpectrum:
    lam, basis, _ = _range_split(rho.matrix, rtol)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    return SubnormalizedSpectrum(basis[:, order] * np.sqrt(lam), lam)


def _dual_overlap(rho: DensityMatrix, system: str) -> np.ndarray:
    """Symmetrized bilinear overlaps ``V^T U_D^dag V`` of the subnormalized spectrum ``V``."""
    v = subnormalized_spectrum(rho).vectors
    c = v.T @ states.dual_unitary(system).conj().T @ v
    return 0.5 * (c + c.T)


# ---------------------------------------------------------------------------
# closed-form mixed-state concurrence
# ---------------------------------------------------------------------------

def dualised_density(rho: DensityMatrix) -> np.ndarray:
    """``D rho D^{-1}`` for the canonical system of the space."""
    system = canonical_system_of_space(rho.space)
    ud = states.dual_unitary(system)
    return ud @ rho.matrix.conj() @ ud.conj().T


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Closed-form concurrence ``max(0, l1 - sum_{i>1} l_i)``.

    The ``l_i`` are ``concurrence_lambdas``: the square roots of the (real,
    non-negative) eigenvalues of ``rho @ dualised_density(rho)``, in
    descending order.  Zero exactly on states of correlation class one.
    """
    lam = concurrence_lambdas(rho)
    return float(max(0.0, lam[0] - lam[1:].sum()))


def concurrence_lambdas(rho: DensityMatrix) -> np.ndarray:
    """Wootters' ``l_i`` in descending order, zero-padded to the sector dimension.

    They are the singular values of the bilinear overlap matrix over the
    subnormalized spectrum, whose squares are the eigenvalues of
    ``rho @ dualised_density(rho)``; unlike that product's spectrum they
    carry no sqrt-of-noise on the zero modes.
    """
    system = canonical_system_of_space(rho.space)
    sv = np.linalg.svd(_dual_overlap(rho, system), compute_uv=False)
    return np.pad(sv, (0, rho.space.dim - len(sv)))


@dataclass(frozen=True)
class SlaterNumberOneResult:
    is_class_1: bool
    c_values: np.ndarray


def slater_number_one_test(rho: DensityMatrix) -> SlaterNumberOneResult:
    """Spectral class-1 criterion for two fermions (d=4) or two bosons (d=2).

    Builds the complex symmetric matrix of pairwise bilinear overlaps
    ``C_ij = <dual(Psi_i)|Psi_j>`` over the subnormalized spectrum, takes
    its values under unitary congruence (the Takagi values of a complex
    symmetric matrix are its singular values), and declares Slater number
    one iff the largest ``|c_i|`` does not exceed the sum of the others.
    """
    system = canonical_system_of_space(rho.space)
    if system == "qubits":
        raise UnsupportedSystemError("class-1 spectral test covers the two exchange sectors")
    c = _dual_overlap(rho, system)
    if len(c) == 0:
        return SlaterNumberOneResult(True, np.array([]))
    values = np.linalg.svd(c, compute_uv=False)
    is_one = bool(values[0] <= values[1:].sum() + 1e-10)
    return SlaterNumberOneResult(is_one, values)


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

def partial_transpose_matrix(full: np.ndarray, dims: tuple[int, int],
                             cut: str = "A") -> np.ndarray:
    """Partial transpose of a matrix on a bipartite tensor space."""
    if cut not in ("A", "B"):
        raise ValidationError("cut must be 'A' or 'B'")
    da, db = dims
    t = np.asarray(full, dtype=complex).reshape(da, db, da, db)
    t = t.transpose(2, 1, 0, 3) if cut == "A" else t.transpose(0, 3, 2, 1)
    return t.reshape(da * db, da * db)


def partial_transpose(rho: DensityMatrix, cut: str = "A") -> np.ndarray:
    """Partial transpose of the first particle (``cut="A"``) or the rest ("B").

    A sector matrix is split as ``S rho S^dag`` on ``C^d (x) sector_{N-1}``,
    the full tensor space when N = 2; the full-space transpose has the same
    nonzero spectrum.
    """
    if rho.space.kind == BIPARTITE:
        return partial_transpose_matrix(rho.matrix, rho.space.dims, cut)
    d = rho.space.dims[0]
    s = sectors.split_isometry(rho.space.kind, d, rho.space.particles)
    return partial_transpose_matrix(s @ rho.matrix @ s.conj().T, (d, len(s) // d), cut)


def ppt_min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of the partial transpose (``PT_B`` is ``PT_A`` transposed)."""
    return float(np.linalg.eigvalsh(partial_transpose(rho))[0])


def is_ppt(rho: DensityMatrix) -> bool:
    """Whether no eigenvalue of the partial transpose is below ``PPT_MIN_EIGENVALUE``."""
    return ppt_min_eigenvalue(rho) >= PPT_MIN_EIGENVALUE


# ---------------------------------------------------------------------------
# bosonic separability from PPT
# ---------------------------------------------------------------------------

def _symmetric_pair_vector(e: np.ndarray) -> np.ndarray:
    """Sector coordinates of the normalized product state ``|e, e>``."""
    pair = sectors.amps_from_tensor(SYMMETRIC, np.outer(e, e))
    return pair / np.linalg.norm(pair)


@dataclass(frozen=True)
class SeparabilityResult:
    verdict: str  # "separable" | "not_ppt" | "inconclusive"
    min_eigenvalue: float  # of the partial transpose, from the PPT check
    decomposition: list | None = None
    diagnostics: list = field(default_factory=list)


def bosonic_ppt_separability(rho: DensityMatrix) -> SeparabilityResult:
    """Separability decision for bosonic states with positive partial
    transpose.

    Two bosons, any ``d``: on 2x2 PPT implies separable (Horodecki,
    Horodecki & Horodecki, PLA 223, 1 (1996)), and so does rank <= d
    (Horodecki, Lewenstein, Vidal & Cirac, PRA 62, 032310 (2000)).  Above
    that rank ``witnesses.edge_state_decompose(rho, 2)`` subtracts product
    vectors ``|e, e>`` found in the range; an exhausted split whose
    ``(weight, e)`` pairs rebuild ``rho`` within 1e-8 is the decomposition,
    and anything else is ``inconclusive`` with the edge weight and the
    range searches' tallies.  N-boson qubit states: rank up to 4 for N=3,
    up to N beyond.  Other PPT states (N >= 3, d >= 3) are ``inconclusive``.
    """
    space = rho.space
    if space.kind != SYMMETRIC:
        raise UnsupportedSystemError("separability theorems cover symmetric sectors")
    min_eig = ppt_min_eigenvalue(rho)
    if min_eig < PPT_MIN_EIGENVALUE:
        return SeparabilityResult("not_ppt", min_eig)
    r = rho.rank()

    if space.particles == 2:
        d = space.dims[0]
        if d == 2:
            return SeparabilityResult("separable", min_eig, diagnostics=[
                "PPT on 2x2 (Horodecki, Horodecki & Horodecki, PLA 223, 1 (1996))"])
        if r <= d:
            return SeparabilityResult("separable", min_eig, diagnostics=[
                f"PPT with rank {r} <= {d} (Horodecki, Lewenstein, Vidal & Cirac,"
                " PRA 62, 032310 (2000))"])
        from . import witnesses

        split = witnesses.edge_state_decompose(rho, 2)
        diagnostics = [f"edge weight {split.weight:.3g} after {len(split.subtraction_log)}"
                       " subtractions",
                       *(f"range search: {s.tried} tried, {s.solved} solved,"
                         f" {s.range_rejected} range-rejected" for s in split.searches)]
        if split.weight:
            return SeparabilityResult("inconclusive", min_eig, diagnostics=diagnostics)
        decomposition = [(lam, takagi_canonical(psi.matrix()).transform[0].conj())
                         for psi, lam in split.subtraction_log]
        pairs = np.column_stack([_symmetric_pair_vector(e) for _, e in decomposition])
        weights = [w for w, _ in decomposition]
        err = max_abs((pairs * weights) @ pairs.conj().T - rho.matrix)
        if err > 1e-8:
            return SeparabilityResult("inconclusive", min_eig, diagnostics=[
                f"decomposition reconstruction error {err:.2e}", *diagnostics])
        return SeparabilityResult("separable", min_eig, decomposition, diagnostics)

    if space.dims == (2,) and space.particles >= 3:
        n = space.particles
        bound = 4 if n == 3 else n
        if r <= bound:
            return SeparabilityResult("separable", min_eig,
                                      diagnostics=[f"PPT with rank {r} <= {bound} on {n} bosonic qubits"])
        return SeparabilityResult("inconclusive", min_eig, diagnostics=[f"rank {r} > {bound}"])

    return SeparabilityResult("inconclusive", min_eig, diagnostics=[f"no separability theorem for {space}"])


# ---------------------------------------------------------------------------
# convex-roof oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexRoofResult:
    """The oracle's value, the most steps any start took, the starts converged."""

    value: float
    max_iterations: int
    starts_converged: int


def convex_roof_oracle(rho: DensityMatrix, n_starts: int = 12, n_iters: int = 300,
                       seed=0) -> float:
    """Best convex-roof value found by local search over decompositions.

    An upper bound on the true infimum; ``convex_roof_details`` describes
    the search and reports how it ended.
    """
    return convex_roof_details(rho, n_starts, n_iters, seed).value


def convex_roof_details(rho: DensityMatrix, n_starts: int = 12, n_iters: int = 300,
                        seed=0) -> ConvexRoofResult:
    """Convex-roof search returning its value and convergence.

    Minimizes ``sum_k p_k C(phi_k)`` over decompositions of ``rho``
    obtained by mixing the subnormalized eigenvectors with an ``m x r``
    isometry, ``m = max(r, 4)``.  An entangled state has an optimal
    decomposition with ``r`` elements (Wootters, PRL 80, 2245 (1998)), and a
    separable one is a mixture of at most 4 product states (Sanpera,
    Tarrach & Vidal, PRA 58, 826 (1998)); both carry over to two fermions
    with ``d = 4`` and two bosons with ``d = 2``, so ``m`` need not reach
    Caratheodory's ``min(r^2, 16)``, which bounds any decomposition.  The
    starts are the identity and ``n_starts - 1`` seeded random isometries.
    Every ``|z_k|`` is smoothed to ``sqrt(|z_k|^2 + mu^2)`` with ``mu =
    ROOF_SMOOTHING``, and all starts descend at once by Riemannian L-BFGS
    on the stacked Stiefel manifold (at most ``n_iters`` steps; see
    ``_roof_stage``).  ``value`` scores the best final isometry without
    smoothing.  A rank-1 state needs no search and reports zero steps and
    starts.

    The width does not move the minimizers when ``m = 4`` (rank <= 4).
    With ``z_k = (x tau x^T)_kk`` every isometry has ``sum |z_k| >= C``, and
    ``g(t) = sqrt(t^2 + mu^2)`` is convex and increasing, so ``sum_k
    g(|z_k|) >= m g(C / m)`` (Jensen).  Wootters' decomposition (Takagi form
    of ``tau``, phases that close the polygon, then ``H_4 / 2``) has every
    ``|z_k| = C / m`` and attains that bound for each ``mu``.  A wider
    ``mu`` only makes the smoothed objective better conditioned; ranks 5-6
    (``m = r``) fall outside the argument.
    """
    if n_starts < 1 or n_iters < 0:
        raise ValidationError(f"need n_starts >= 1 and n_iters >= 0, got {n_starts}, {n_iters}")
    tau = _dual_overlap(rho, canonical_system_of_space(rho.space))
    r = len(tau)
    if r > 6:
        raise ValidationError(f"oracle restricted to rank <= 6, got {r}")
    if r == 1:
        return ConvexRoofResult(float(abs(tau[0, 0])), 0, 0)
    m = max(r, 4)
    rng = as_rng(seed)
    draws = [rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
             for _ in range(n_starts - 1)]
    x, _ = _polar_retract(np.stack([np.eye(m, r, dtype=complex)] + draws))
    x, converged, iterations = _roof_stage(x, tau, ROOF_SMOOTHING, n_iters)
    best = float(np.abs((x @ tau * x).sum(-1)).sum(-1).min())
    return ConvexRoofResult(best, int(iterations.max()), int(converged.sum()))


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
