"""Density matrices and mixed-state correlation criteria.

Covers the closed-form concurrence of the three canonical systems, the
class-1 (Slater number one) spectral test, partial transposition on the
one-particle split, separability decisions for bosonic PPT states (by
theorem, or by subtracting the product vectors ``|e, e>`` that the range
search of ``witnesses.edge_state_decompose`` finds), and Wootters' optimal
decomposition, which attains the closed-form concurrence.
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
    _range_split,
    max_abs,
    read_only,
    takagi_canonical,
)

BIPARTITE = states.BIPARTITE
ANTISYMMETRIC = sectors.ANTISYMMETRIC
SYMMETRIC = sectors.SYMMETRIC

#: the partial transpose counts as positive with no eigenvalue below this
PPT_MIN_EIGENVALUE = -1e-9

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


def _dual_overlap(v: np.ndarray, system: str) -> np.ndarray:
    """Symmetrized bilinear overlaps ``V^T U_D^dag V`` of the subnormalized spectrum ``V``."""
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
    sv = np.linalg.svd(_dual_overlap(subnormalized_spectrum(rho).vectors, system),
                       compute_uv=False)
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
    c = _dual_overlap(subnormalized_spectrum(rho).vectors, system)
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
# Wootters' optimal decomposition
# ---------------------------------------------------------------------------

#: the Sylvester Hadamard matrix ``H_8``, ``(-1)^popcount(i & j)``; its
#: leading ``4 x 4`` block is ``H_4``
_SYLVESTER = read_only(np.array([[(-1.0) ** bin(i & j).count("1") for j in range(8)]
                                 for i in range(8)]))


@dataclass(frozen=True)
class ConvexRoofResult:
    """The convex roof of the concurrence and a decomposition attaining it.

    ``vectors`` holds the subnormalized decomposition states as columns:
    ``rho = vectors @ vectors^dag``, column ``k`` has squared norm ``p_k``,
    and the ``p_k``-weighted concurrences of the normalized columns sum to
    ``value``.
    """

    value: float
    vectors: np.ndarray


def convex_roof_oracle(rho: DensityMatrix, n_starts: int = 12, n_iters: int = 300,
                       seed=0) -> float:
    """The convex roof of the concurrence, ``convex_roof_details(rho).value``.

    ``n_starts``, ``n_iters`` and ``seed`` are unused: they budgeted the
    search this closed construction replaced, and are kept so that calls
    passing them keep working.
    """
    return convex_roof_details(rho).value


def convex_roof_details(rho: DensityMatrix) -> ConvexRoofResult:
    """Wootters' optimal decomposition of ``rho`` and its average concurrence.

    The states ``psi_k = (V x^T)_k`` mixed from the subnormalized spectrum
    ``V`` by an ``m x r`` isometry ``x`` decompose ``rho``, with
    preconcurrences ``z_k = (x tau x^T)_kk`` for ``tau = _dual_overlap`` and
    average concurrence ``sum_k |z_k|`` (Wootters, PRL 80, 2245 (1998); for
    two fermions Schliemann, Cirac, Kus, Lewenstein & Loss, PRA 64, 022303
    (2001)).  Here ``x = (H_m / sqrt(m)) P U``: ``U tau U^T = diag(l)`` is
    the Takagi form, the ``m x r`` diagonal ``P`` scales row ``j`` of ``U``
    by the square root of a phase ``e^{i th_j}``, and ``H_m`` is the
    Sylvester Hadamard matrix, with ``m = 4`` for rank <= 4 and 8 for ranks
    5-6.  Every ``z_k`` is then ``sum_j
    e^{i th_j} l_j / m``.  The phases ``(1, -1, -1, ...)`` make that ``C /
    m`` when ``l_1 >= sum_{j>1} l_j``, and ``_closing_phases`` make it zero
    otherwise, so ``value`` is the closed form ``wootters_concurrence``.  A
    rank-1 state is its own decomposition.
    """
    v = subnormalized_spectrum(rho).vectors
    tau = _dual_overlap(v, canonical_system_of_space(rho.space))
    r = len(tau)
    if r == 1:
        return ConvexRoofResult(float(abs(tau[0, 0])), v)
    takagi = takagi_canonical(tau)
    l = np.pad(takagi.values, (0, r - len(takagi.values)))
    if l[0] >= l[1:].sum():
        phases = np.concatenate(([1.0], -np.ones(r - 1)))
    else:
        phases = _closing_phases(l)
    m = 4 if r <= 4 else 8
    x = (_SYLVESTER[:m, :r] * np.sqrt(phases.astype(complex))) @ takagi.transform / np.sqrt(m)
    value = float(np.abs((x @ tau * x).sum(-1)).sum())
    return ConvexRoofResult(value, v @ x.T)


def _closing_phases(l: np.ndarray) -> np.ndarray:
    """Unit phases ``e^{i th_j}`` with ``sum_j e^{i th_j} l_j = 0``, for
    descending ``l >= 0`` with ``l_1 < sum_{j>1} l_j``.

    Each ``l_j``, largest first, joins the shortest of three sides and
    takes that side's direction in the triangle they close.  No side ``b``
    exceeds half the perimeter ``S``.  Its last term ``t`` joined it as the
    shortest side, so the other two are at least ``b - t`` and ``b <= (S +
    2 t) / 3``.  So ``b > S / 2`` needs ``t > S / 4`` and, as ``l_1 < S /
    2``, an earlier term on that side: four terms of at least ``t``, two
    there and one on each other side, would sum to more than ``S``.
    """
    sides, side_of = np.zeros(3), np.empty(len(l), dtype=int)
    for j, lj in enumerate(l):
        side_of[j] = k = int(np.argmin(sides))
        sides[k] += lj
    a, b, c = sides
    turn = np.exp(1j * np.arccos(np.clip((c * c - a * a - b * b) / (2 * a * b), -1.0, 1.0)))
    return np.array([1.0, turn, np.exp(1j * np.angle(-(a + b * turn)))])[side_of]
