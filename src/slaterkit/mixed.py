"""Density matrices and mixed-state correlation criteria.

Covers the closed-form concurrence of the three canonical systems, the
class-1 (Slater number one) spectral test, partial transposition with
sector embedding, recovery of product vectors in the range of low-rank
bosonic states, the resulting separability decisions, and a convex-roof
minimization used as a numerical oracle for the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import sectors, states
from .errors import (
    DegenerateSystemError,
    NotAStateError,
    UnsupportedSystemError,
    ValidationError,
)
from .linalg import (
    RANK_RTOL,
    TOL_SYM,
    _lbfgs,
    as_rng,
    max_abs,
    takagi_canonical,
)

BIPARTITE = states.BIPARTITE
ANTISYMMETRIC = sectors.ANTISYMMETRIC
SYMMETRIC = sectors.SYMMETRIC


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

    @property
    def full_dims(self) -> tuple[int, int]:
        """Bipartition (first particle, rest) of the full tensor space."""
        if self.kind == BIPARTITE:
            return self.dims
        d = self.dims[0]
        return (d, d ** (self.particles - 1))


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

    def rank(self, rtol: float = RANK_RTOL) -> int:
        evals = np.linalg.eigvalsh(self.matrix)
        top = evals[-1]
        return int(np.count_nonzero(evals > rtol * top)) if top > 0 else 0


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
    if state.kind == states.BIPARTITE:
        return bipartite_space(*state.dim)
    if state.kind == states.FERMION:
        return antisymmetric_space(state.dim, state.particles)
    return symmetric_space(state.dim, state.particles)


def density_from_pure(state: states.PureState) -> DensityMatrix:
    v = state.flat()
    v = v / np.linalg.norm(v)
    return DensityMatrix(space_of_state(state), np.outer(v, v.conj()))


def density_from_mixture(pairs) -> DensityMatrix:
    """Density matrix of a convex mixture of pure states."""
    pairs = list(pairs)
    space = space_of_state(pairs[0][1])
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for p, psi in pairs:
        v = psi.flat()
        v = v / np.linalg.norm(v)
        m += p * np.outer(v, v.conj())
    return density_matrix(space, m / m.trace())


def state_from_sector_vector(space: StateSpace, vec) -> states.PureState:
    vec = np.asarray(vec, dtype=complex)
    n = np.linalg.norm(vec)
    if n == 0:
        raise NotAStateError("zero vector")
    vec = vec / n
    if space.kind == BIPARTITE:
        return states.PureState(states.BIPARTITE, 2, space.dims, vec.reshape(space.dims))
    kind = states.FERMION if space.kind == ANTISYMMETRIC else states.BOSON
    return states.PureState(kind, space.particles, space.dims[0], vec)


def canonical_system_of_space(space: StateSpace) -> str:
    """The canonical system of the states in ``space`` (see ``states.canonical_system_of``)."""
    if space.kind == BIPARTITE:
        return states.canonical_system_of(BIPARTITE, 2, space.dims)
    kind = states.FERMION if space.kind == ANTISYMMETRIC else states.BOSON
    return states.canonical_system_of(kind, space.particles, space.dims[0])


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
    evals, evecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(-evals, kind="stable")
    evals = evals[order]
    evecs = evecs[:, order]
    keep = evals > rtol * max(evals[0], 0.0)
    lam = evals[keep]
    vecs = evecs[:, keep] * np.sqrt(lam)
    return SubnormalizedSpectrum(vecs, lam)


def _dual_overlap(rho: DensityMatrix, system: str, rtol: float = RANK_RTOL) -> np.ndarray:
    """Symmetrized bilinear overlaps ``V^T U_D^dag V`` of the subnormalized spectrum ``V``."""
    v = subnormalized_spectrum(rho, rtol).vectors
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


def wootters_concurrence(rho: DensityMatrix, atol: float = 1e-9) -> float:
    """Closed-form concurrence ``max(0, l1 - sum_{i>1} l_i)``.

    The ``l_i`` are the square roots of the (always real, non-negative)
    eigenvalues of ``rho @ dualised(rho)``, in descending order.  Zero
    exactly on states of correlation class one.
    """
    lam = concurrence_lambdas(rho, atol)
    return float(max(0.0, lam[0] - lam[1:].sum()))


def concurrence_lambdas(rho: DensityMatrix, atol: float = 1e-9) -> np.ndarray:
    system = canonical_system_of_space(rho.space)
    raw = np.linalg.eigvals(rho.matrix @ dualised_density(rho))
    if np.max(np.abs(raw.imag)) > atol:
        raise ValidationError(f"spectrum of rho rho~ not real within {atol}")
    if np.min(raw.real) < -atol:
        raise ValidationError(f"spectrum of rho rho~ not non-negative within {atol}")
    # the nonzero values are exactly the singular values of the bilinear
    # overlap matrix over the subnormalized spectrum; unlike the product
    # spectrum this carries no sqrt-of-noise on the zero modes
    sv = np.linalg.svd(_dual_overlap(rho, system), compute_uv=False)
    return np.pad(sv, (0, rho.space.dim - len(sv)))


@dataclass(frozen=True)
class SlaterNumberOneResult:
    is_class_1: bool
    c_values: np.ndarray


def slater_number_one_test(rho: DensityMatrix, rtol: float = RANK_RTOL) -> SlaterNumberOneResult:
    """Spectral class-1 criterion for two fermions (d=4) or two bosons (d=2).

    Builds the complex symmetric matrix of pairwise bilinear overlaps
    ``C_ij = <dual(Psi_i)|Psi_j>`` over the subnormalized spectrum,
    diagonalizes it by unitary congruence, and declares Slater number one
    iff the largest ``|c_i|`` does not exceed the sum of the others.
    """
    system = canonical_system_of_space(rho.space)
    if system == "qubits":
        raise UnsupportedSystemError("class-1 spectral test covers the two exchange sectors")
    c = _dual_overlap(rho, system, rtol)
    if len(c) == 0:
        return SlaterNumberOneResult(True, np.array([]))
    form = takagi_canonical(c)
    values = np.pad(form.values, (0, len(c) - len(form.values)))
    is_one = bool(values[0] <= values[1:].sum() + 1e-10)
    return SlaterNumberOneResult(is_one, values)


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

def embed_full(rho: DensityMatrix) -> np.ndarray:
    """Density matrix on the full tensor space (isometric sector embedding)."""
    if rho.space.kind == BIPARTITE:
        return rho.matrix.copy()
    return sectors.embed_operator(rho.space.kind, rho.space.dims[0],
                                  rho.space.particles, rho.matrix)


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
    """Partial transpose on the full tensor space.

    Exchange-sector matrices are first embedded into the full space;
    ``cut`` selects which factor of the bipartition (first particle vs
    the rest) is transposed.
    """
    return partial_transpose_matrix(embed_full(rho), rho.space.full_dims, cut)


def is_ppt(rho: DensityMatrix, cut: str = "A", tol: float = 1e-9) -> bool:
    """Whether the partial transpose has no eigenvalue below ``-tol``."""
    return bool(np.linalg.eigvalsh(partial_transpose(rho, cut))[0] >= -tol)


# ---------------------------------------------------------------------------
# product vectors in the range of low-rank symmetric states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductVectorsResult:
    vectors: list
    diagnostics: list = field(default_factory=list)


def _pair_overlap_poly(phi: np.ndarray):
    """Quadratic coefficients of ``<phi|e,e>`` for ``e = (1, z1, z2)``.

    Returns the coefficient dict of a polynomial in (z1, z2), using the
    symmetric-sector tuple basis of d=3.
    """
    idx = sectors.tuple_index(SYMMETRIC, 3, 2)
    c = np.conj(phi)
    s2 = math.sqrt(2.0)
    return {
        (0, 0): c[idx[(0, 0)]],
        (1, 0): s2 * c[idx[(0, 1)]],
        (0, 1): s2 * c[idx[(0, 2)]],
        (2, 0): c[idx[(1, 1)]],
        (1, 1): s2 * c[idx[(1, 2)]],
        (0, 2): c[idx[(2, 2)]],
    }


def _poly_eval(coeffs: dict, z1: complex, z2: complex) -> complex:
    return sum(c * z1 ** i * z2 ** j for (i, j), c in coeffs.items())


def _poly_grad(coeffs: dict, z1: complex, z2: complex) -> tuple[complex, complex]:
    g1 = sum(i * c * z1 ** (i - 1) * z2 ** j for (i, j), c in coeffs.items() if i)
    g2 = sum(j * c * z1 ** i * z2 ** (j - 1) for (i, j), c in coeffs.items() if j)
    return g1, g2


def _resultant_in_z2(p: dict, q: dict) -> np.ndarray:
    """Coefficients (ascending in z1) of the Sylvester resultant in z2."""

    def as_z2_poly(c):
        # entries are polynomials in z1, ascending coefficient arrays
        a0 = np.array([c.get((0, 0), 0.0), c.get((1, 0), 0.0), c.get((2, 0), 0.0)])
        a1 = np.array([c.get((0, 1), 0.0), c.get((1, 1), 0.0)])
        a2 = np.array([c.get((0, 2), 0.0)])
        return [a0, a1, a2]

    pa, qa = as_z2_poly(p), as_z2_poly(q)
    zero = np.zeros(1, dtype=complex)
    rows = [
        [pa[2], pa[1], pa[0], zero],
        [zero, pa[2], pa[1], pa[0]],
        [qa[2], qa[1], qa[0], zero],
        [zero, qa[2], qa[1], qa[0]],
    ]

    def det3(a, b, c, d, e, f, g, h, i):
        # cofactor expansion with polynomial arithmetic
        return npoly.polyadd(
            npoly.polysub(
                npoly.polymul(a, npoly.polysub(npoly.polymul(e, i), npoly.polymul(f, h))),
                npoly.polymul(b, npoly.polysub(npoly.polymul(d, i), npoly.polymul(f, g)))),
            npoly.polymul(c, npoly.polysub(npoly.polymul(d, h), npoly.polymul(e, g))))

    total = np.zeros(1, dtype=complex)
    for col in range(4):
        minor = [row[:col] + row[col + 1:] for r, row in enumerate(rows) if r != 0]
        sub = det3(*minor[0], *minor[1], *minor[2])
        term = npoly.polymul(rows[0][col], sub)
        total = npoly.polyadd(total, term if col % 2 == 0 else npoly.polymul([-1], term))
    return np.asarray(total, dtype=complex)


def product_vectors_in_range(rho: DensityMatrix, rank_rtol: float = RANK_RTOL,
                             range_tol: float = 1e-6) -> ProductVectorsResult:
    """Solve for the product vectors ``|e, e>`` in the range of a rank-4
    two-boson state with three modes.

    The two kernel vectors impose two quadratic equations on
    ``e = (1, z1, z2)``; eliminating ``z2`` by a resultant leaves a
    quartic solved through its companion matrix, followed by damped
    Newton polishing.  Generically there are exactly four solutions;
    projective roots (leading coefficient near zero) are reported in the
    diagnostics rather than silently dropped.

    Raises
    ------
    DegenerateSystemError
        If the polynomial system is non-generic (deficient or infinite
        solution set).
    """
    if rho.space.kind != SYMMETRIC or rho.space.dims != (3,) or rho.space.particles != 2:
        raise UnsupportedSystemError("product-vector recovery expects a two-boson state with d=3")
    evals, evecs = np.linalg.eigh(rho.matrix)
    top = evals[-1]
    kernel = [evecs[:, i] for i in range(6) if evals[i] <= rank_rtol * top]
    if len(kernel) != 2:
        raise ValidationError(f"expected rank 4 (kernel dimension 2), found kernel {len(kernel)}")
    p, q = (_pair_overlap_poly(phi) for phi in kernel)

    res = _resultant_in_z2(p, q)
    scale = np.max(np.abs(res))
    if scale == 0 or np.all(np.abs(res) <= 1e-12):
        raise DegenerateSystemError("resultant vanishes identically; infinite solution family")
    res = res / scale
    diagnostics = []
    coeffs = res.copy()
    n_at_infinity = 0
    while len(coeffs) > 1 and abs(coeffs[-1]) < 1e-9:
        coeffs = coeffs[:-1]
        n_at_infinity += 1
    if n_at_infinity:
        diagnostics.append(
            f"{n_at_infinity} projective root(s) at infinity (vanishing leading coefficient)")
    if len(coeffs) <= 1:
        raise DegenerateSystemError("resultant degenerates to a constant")
    z1_roots = npoly.polyroots(coeffs)

    solutions = []
    for z1 in z1_roots:
        a2 = p.get((0, 2), 0.0)
        a1 = p.get((0, 1), 0.0) + p.get((1, 1), 0.0) * z1
        a0 = p.get((0, 0), 0.0) + p.get((1, 0), 0.0) * z1 + p.get((2, 0), 0.0) * z1 ** 2
        if abs(a2) > 1e-12:
            disc = np.sqrt(a1 ** 2 - 4 * a2 * a0 + 0j)
            candidates = [(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)]
        elif abs(a1) > 1e-12:
            candidates = [-a0 / a1]
        else:
            continue
        best = min(candidates, key=lambda z2: abs(_poly_eval(q, z1, z2)))
        z = np.array([z1, best], dtype=complex)
        # damped Newton on both quadrics
        for _ in range(50):
            f = np.array([_poly_eval(p, *z), _poly_eval(q, *z)])
            if max(abs(f)) < 1e-13:
                break
            jac = np.array([_poly_grad(p, *z), _poly_grad(q, *z)])
            try:
                step = np.linalg.solve(jac, f)
            except np.linalg.LinAlgError:
                break
            damp = 1.0
            while damp > 1e-4:
                trial = z - damp * step
                ft = np.array([_poly_eval(p, *trial), _poly_eval(q, *trial)])
                if max(abs(ft)) < max(abs(f)):
                    z = trial
                    break
                damp /= 2
            else:
                break
        if max(abs(_poly_eval(p, *z)), abs(_poly_eval(q, *z))) > 1e-8:
            diagnostics.append(f"discarded spurious root near z1={z1:.4f}")
            continue
        e = np.array([1.0, z[0], z[1]], dtype=complex)
        e = e / np.linalg.norm(e)
        solutions.append(e)

    # dedupe up to phase
    unique = []
    for e in solutions:
        if all(abs(abs(np.vdot(e, u)) - 1.0) > 1e-8 for u in unique):
            unique.append(e)
    if len(unique) < len(solutions):
        raise DegenerateSystemError("repeated product vectors; solution set is deficient")
    if len(unique) + n_at_infinity < 4:
        raise DegenerateSystemError(
            f"found {len(unique)} affine + {n_at_infinity} infinite product vectors, expected 4")

    # verify range membership
    spec = subnormalized_spectrum(rho, rank_rtol)
    basis, _ = np.linalg.qr(spec.vectors)
    checked = []
    for e in unique:
        pair = _symmetric_pair_vector(e)
        resid = np.linalg.norm(pair - basis @ (basis.conj().T @ pair))
        if resid > range_tol:
            raise DegenerateSystemError(f"recovered vector leaves the range (residual {resid:.2e})")
        checked.append(_phase_fixed(e))
    return ProductVectorsResult(checked, diagnostics)


def _symmetric_pair_vector(e: np.ndarray) -> np.ndarray:
    """Sector coordinates of the normalized product state ``|e, e>``."""
    d = len(e)
    tuples = sectors.sector_tuples(SYMMETRIC, d, 2)
    out = np.empty(len(tuples), dtype=complex)
    for i, (a, b) in enumerate(tuples):
        out[i] = e[a] * e[b] * (1.0 if a == b else math.sqrt(2.0))
    return out / np.linalg.norm(out)


def _phase_fixed(e: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(e)))
    return e * np.exp(-1j * np.angle(e[j]))


# ---------------------------------------------------------------------------
# bosonic separability from PPT
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparabilityResult:
    verdict: str  # "separable" | "not_ppt" | "inconclusive"
    decomposition: list | None = None
    diagnostics: list = field(default_factory=list)


def bosonic_ppt_separability(rho: DensityMatrix, rank_rtol: float = RANK_RTOL,
                             ppt_tol: float = 1e-9) -> SeparabilityResult:
    """Separability decision for low-rank bosonic states with positive
    partial transpose.

    Supported spaces: two bosons with three modes (rank up to 4, with an
    explicit product decomposition recovered at rank 4), and N-boson
    qubit states (rank up to 4 for N=3, up to N beyond).
    """
    space = rho.space
    if space.kind != SYMMETRIC:
        raise UnsupportedSystemError("separability theorems cover symmetric sectors")
    if not is_ppt(rho, "A", ppt_tol):
        return SeparabilityResult("not_ppt")
    r = rho.rank(rank_rtol)

    if space.dims == (3,) and space.particles == 2:
        if r <= 3:
            return SeparabilityResult("separable", diagnostics=[f"PPT with rank {r} <= 3"])
        if r == 4:
            try:
                found = product_vectors_in_range(rho, rank_rtol)
            except DegenerateSystemError as exc:
                return SeparabilityResult("inconclusive", diagnostics=[str(exc)])
            pairs = np.column_stack([_symmetric_pair_vector(e) for e in found.vectors])
            pinv = np.linalg.pinv(rho.matrix, rcond=rank_rtol)
            gram = pairs.conj().T @ pinv @ pairs
            off = max_abs(gram - np.diag(np.diagonal(gram)))
            if off > 1e-7 * max_abs(gram):
                return SeparabilityResult("inconclusive", diagnostics=[
                    f"range-inverse overlap matrix not diagonal (off {off:.2e})",
                    *found.diagnostics,
                ])
            weights = 1.0 / np.diagonal(gram).real
            recon = pairs @ np.diag(weights) @ pairs.conj().T
            err = max_abs(recon - rho.matrix)
            if err > 1e-8:
                return SeparabilityResult("inconclusive", diagnostics=[
                    f"decomposition reconstruction error {err:.2e}", *found.diagnostics])
            decomposition = [(float(w), e) for w, e in zip(weights, found.vectors)]
            return SeparabilityResult("separable", decomposition, found.diagnostics)
        return SeparabilityResult("inconclusive", diagnostics=[f"rank {r} > 4"])

    if space.dims == (2,) and space.particles >= 3:
        n = space.particles
        bound = 4 if n == 3 else n
        if r <= bound:
            return SeparabilityResult("separable",
                                      diagnostics=[f"PPT with rank {r} <= {bound} on {n} bosonic qubits"])
        return SeparabilityResult("inconclusive", diagnostics=[f"rank {r} > {bound}"])

    raise UnsupportedSystemError(f"no separability theorem for {space}")


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
    isometry.  The starts are the identity and ``n_starts - 1`` seeded
    random isometries.  Every ``|z_k|`` is smoothed to ``sqrt(|z_k|^2 +
    mu^2)`` with ``mu = 1e-2``, and all starts descend at once by Riemannian
    L-BFGS on the stacked Stiefel manifold (at most ``n_iters`` steps; see
    ``_roof_stage``).  ``value`` scores the best final isometry without
    smoothing.  A rank-1 state needs no search and reports zero steps and
    starts.
    """
    if n_starts < 1 or n_iters < 0:
        raise ValidationError(f"need n_starts >= 1 and n_iters >= 0, got {n_starts}, {n_iters}")
    tau = _dual_overlap(rho, canonical_system_of_space(rho.space))
    r = len(tau)
    if r > 6:
        raise ValidationError(f"oracle restricted to rank <= 6, got {r}")
    if r == 1:
        return ConvexRoofResult(float(abs(tau[0, 0])), 0, 0)
    m = min(r * r, 16)
    rng = as_rng(seed)
    draws = [rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
             for _ in range(n_starts - 1)]
    x, _ = _polar_retract(np.stack([np.eye(m, r, dtype=complex)] + draws))
    x, converged, iterations = _roof_stage(x, tau, 1e-2, n_iters)
    best = float(np.abs((x @ tau * x).sum(-1)).sum(-1).min())
    return ConvexRoofResult(best, int(iterations.max()), int(converged.sum()))


def _roof_stage(x: np.ndarray, tau: np.ndarray, mu: float, n_iters: int):
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

    rows, _, converged, iterations = _lbfgs(
        fun, x.reshape(len(x), -1).view(float), n_iters, retract,
        lambda rows, v: tangent(unpack(rows), unpack(v)))
    return unpack(rows), converged, iterations


def _polar_retract(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked polar factors ``Y (Y^H Y)^(-1/2)``; ``ok`` marks Gram eigenvalue ratios >= 1e-12."""
    w, v = np.linalg.eigh(y.conj().swapaxes(-1, -2) @ y)
    ok = w[..., 0] > 1e-12 * w[..., -1]
    scale = 1.0 / np.sqrt(np.where(ok[..., None], w, 1.0))
    return y @ ((v * scale[..., None, :]) @ v.conj().swapaxes(-1, -2)), ok
