"""Dense complex linear-algebra kernels.

Canonical forms under unitary congruence for antisymmetric (Youla) and
symmetric (Takagi) matrices, the Pfaffian, contractions of coefficient
matrices with Levi-Civita tensors, and seeded Haar sampling.  Everything
here is a pure function of its inputs; randomness enters only through an
explicitly passed generator.

One stacked Parlett-Reid kernel evaluates every Pfaffian: that of a single
matrix and those of the principal minors a contraction reduces to.  A
contraction over ``n x n`` minors of a ``d x d`` operand costs
``C(d, n) n^3`` operations (``n = 2k`` Pfaffians for fermions, ``n = k``
determinants for bosons), times the ``prod(m_i + 1)`` operand
combinations when operands of multiplicities ``m_i`` differ, and is
refused above 20 million.

Both congruence forms run one skeleton: the SVD, the ``RANK_RTOL`` cut, the
gap clusters, the kernel columns and the ``TOL_RECON`` residual check.  They
differ in how a cluster is split, and in their ordering and phase rules.
The clusters of one size are split as one stack, in one call.

Conventions
-----------
A congruence canonical form is a unitary ``U`` such that ``U @ m @ U.T``
is block diagonal: ``diag[Z(z_1), ..., Z(z_r), 0]`` with
``Z(z) = [[0, z], [-z, 0]]`` for antisymmetric input, and
``diag(z_1, ..., z_r, 0, ..., 0)`` for symmetric input.  The values
``z_i`` are real, positive and sorted in descending order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ArityMismatchError,
    NotAntisymmetricError,
    NotSymmetricError,
    NumericalFailureError,
    OddDimensionError,
    ValidationError,
)

#: entrywise tolerance for claimed symmetry properties
TOL_SYM = 1e-10
#: reconstruction tolerance for canonical forms (absolute, at unit scale)
TOL_RECON = 1e-9
#: numerical rank threshold, relative to the largest singular value
RANK_RTOL = 1e-8
#: relative tolerance below which a Levi-Civita contraction counts as zero
CONTRACT_RTOL = 1e-8

_MAX_CONTRACTION_TERMS = 20_000_000


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite, square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix contains NaN or Inf entries")
    return a


def max_abs(m) -> float:
    """Largest entry modulus (0 if empty); ``inf`` if an entry is NaN, which fails every gate."""
    m = np.asarray(m)
    peak = float(np.abs(m).max()) if m.size else 0.0
    return peak if math.isfinite(peak) else math.inf


def require_antisymmetric(w: np.ndarray) -> None:
    dev = max_abs(w + w.T)
    if dev > TOL_SYM:
        raise NotAntisymmetricError(f"max |w + w^T| = {dev:.3e} exceeds tol {TOL_SYM:.1e}")


def require_symmetric(v: np.ndarray) -> None:
    dev = max_abs(v - v.T)
    if dev > TOL_SYM:
        raise NotSymmetricError(f"max |v - v^T| = {dev:.3e} exceeds tol {TOL_SYM:.1e}")


def require_hermitian(h: np.ndarray, tol: float = TOL_SYM) -> None:
    dev = max_abs(h - h.conj().T)
    if dev > tol:
        raise ValidationError(f"max |h - h^dag| = {dev:.3e} exceeds tol {tol:.1e}")


def require_unitary(u: np.ndarray) -> None:
    dev = max_abs(u @ u.conj().T - np.eye(u.shape[0]))
    if dev > 1e-9:
        raise ValidationError(f"max |u u^dag - 1| = {dev:.3e} exceeds tol 1.0e-09")


def singular_values(m) -> np.ndarray:
    """Singular values, non-negative and sorted in descending order."""
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)


def numerical_rank(m, rtol: float = RANK_RTOL) -> int:
    """Number of singular values above ``rtol`` times the largest one."""
    s = singular_values(m)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def _range_split(matrix: np.ndarray, rtol: float = RANK_RTOL):
    """Eigenvalues of a positive matrix above ``rtol`` times the largest
    (ascending), the orthonormal range basis of their eigenvectors, and the
    kernel basis of the rest."""
    evals, evecs = np.linalg.eigh(matrix)
    keep = evals > rtol * max(evals[-1], 0.0)
    return evals[keep], evecs[:, keep], evecs[:, ~keep]


def levi_civita(rows) -> np.ndarray:
    """Levi-Civita symbol of each row of indices (the last axis): the product
    of the signs of its pairwise differences, ``(-1)**inversions`` for
    distinct indices and 0 where an index repeats."""
    rows = np.asarray(rows)
    out = np.ones(rows.shape[:-1], dtype=np.int8)
    for i, j in itertools.combinations(range(rows.shape[-1]), 2):
        out *= np.sign(rows[..., j] - rows[..., i])
    return out


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached, shared array immutable and return it."""
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# seeded Haar sampling
# ---------------------------------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The diagonal of R is phase-normalized so the distribution is exactly
    Haar rather than QR-convention dependent.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random unit vector in C^dim."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def as_rng(seed) -> np.random.Generator:
    """Pass generators through, turn ints/None into a fresh generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# canonical forms under unitary congruence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CongruenceCanonicalForm:
    """Result of a congruence diagonalization ``U @ m @ U.T = canonical``.

    Attributes
    ----------
    transform:
        Unitary ``U`` realizing the canonical form.
    values:
        Canonical values ``z_i``, real positive, descending.
    residual:
        Max-norm deviation of ``U @ m @ U.T`` from the exact canonical
        matrix built from ``values``.
    """

    transform: np.ndarray
    values: np.ndarray
    residual: float

    @property
    def rank(self) -> int:
        return len(self.values)


def _cluster_by_gap(z: np.ndarray, atol: float) -> list[list[int]]:
    """Group indices of a descending array into clusters of nearby values."""
    groups: list[list[int]] = []
    for i in range(len(z)):
        if groups and z[groups[-1][-1]] - z[i] <= atol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _congruence_columns(m: np.ndarray, rank_rtol: float, cluster_step):
    """Columns ``sub @ step`` for each gap cluster of right-singular vectors
    ``sub`` of ``m`` (singular values ``z > rank_rtol * z_max``), in place of
    ``sub``, then the kernel columns; the number of such ``z``; ``z_max``.

    The clusters of one size run as one stack: ``cluster_step`` maps the
    stack ``(c, s, s)`` of forms ``sub.T @ m @ sub`` and the values ``(c, s)``
    to the stack of ``step`` matrices, once per distinct cluster size, in
    the order the sizes first occur."""
    # right-singular vectors span the eigenspaces of m^dag m with singular
    # values accurate to machine epsilon (sqrt of Gram eigenvalues is not)
    _, z, vh = np.linalg.svd(m)
    vecs = vh.conj().T
    nonzero = int(np.count_nonzero(z > rank_rtol * z[0]))
    cluster_atol = max(TOL_RECON, 1e3 * np.finfo(float).eps) * max(z[0], 1.0)
    by_size: dict[int, list[list[int]]] = {}
    for group in _cluster_by_gap(z[:nonzero], cluster_atol):
        by_size.setdefault(len(group), []).append(group)
    phi = vecs.copy()
    for groups in by_size.values():
        idx = np.array(groups)
        # (c, d, s), each slice laid out as the column selection vecs[:, group]
        sub = vecs[:, idx].transpose(1, 0, 2)
        step = cluster_step(sub.transpose(0, 2, 1) @ m @ sub, z[idx])
        phi[:, idx] = (sub @ step).transpose(1, 0, 2)
    return phi, nonzero, z[0]


def _leading_entries(cols: np.ndarray) -> np.ndarray:
    """Each column's entry of largest modulus (the first of equal ones)."""
    return cols[np.abs(cols).argmax(axis=0), np.arange(cols.shape[1])]


def _checked_form(m, phi, values, target, smax: float, name: str) -> CongruenceCanonicalForm:
    """The form ``U = phi.T``, unless ``U @ m @ U.T`` misses ``target`` by
    more than ``TOL_RECON`` (relative above unit scale)."""
    u_out = phi.T
    residual = max_abs(u_out @ m @ u_out.T - target)
    if residual > TOL_RECON * max(1.0, smax):
        raise NumericalFailureError(f"{name} reconstruction residual {residual:.3e}")
    return CongruenceCanonicalForm(u_out, values, residual)


def _youla_pairs(bil: np.ndarray, z: np.ndarray) -> np.ndarray:
    """For each form ``bil`` of a stack ``(c, s, s)`` (values ``z``, ``(c, s)``):
    pairs ``(u, -conj(bil @ u))``, orthonormalized, with the first ``u`` the
    first basis vector and each later one the first eigenvector of the
    projector on the complement of the columns already used."""
    c, m2 = z.shape
    if m2 % 2:
        raise NumericalFailureError(f"odd-sized singular cluster of size {m2} at z ~ {z[0, 0]:.3e}")
    used = np.zeros((c, m2, m2), dtype=complex)
    used[:, 0, 0] = 1.0
    for k in range(0, m2, 2):
        partner = -np.conj(bil @ used[:, :, k : k + 1])
        # numerically re-orthogonalize against everything already used;
        # (c, 1, s) @ (c, s, 1) runs the BLAS dot of a one-dimensional @
        for j in range(k + 1):
            col = used[:, :, j : j + 1]
            partner = partner - col * (col.conj().mT @ partner)
        # the norm as np.linalg.norm computes it
        norm = np.sqrt(partner.real.mT @ partner.real + partner.imag.mT @ partner.imag)
        used[:, :, k + 1 : k + 2] = partner / norm
        if k + 2 < m2:
            done = used[:, :, : k + 2]
            evals, evecs = np.linalg.eigh(np.eye(m2, dtype=complex) - done @ done.conj().mT)
            keep = evals > RANK_RTOL * np.maximum(evals[:, -1:], 0.0)
            used[:, :, k + 2] = evecs[np.arange(c), :, keep.argmax(axis=1)]
    return used


def youla_canonical(w, rank_rtol: float = RANK_RTOL) -> CongruenceCanonicalForm:
    """Canonical form of a complex antisymmetric matrix under congruence.

    Finds a unitary ``U`` with ``U @ w @ U.T = diag[Z_1, ..., Z_r, 0]``,
    each ``Z_i = [[0, z_i], [-z_i, 0]]`` with ``z_i > 0`` descending.

    The construction diagonalizes the Gram matrix ``w^dag w``, whose
    positive eigenvalues come in degenerate pairs ``z_i^2``, and pairs up
    each (clustered) eigenspace through the bilinear form restricted to it.

    Raises
    ------
    NotAntisymmetricError
        If ``max|w + w^T|`` exceeds ``TOL_SYM``.
    NumericalFailureError
        If the reconstruction residual exceeds the tolerance.
    """
    w = as_complex_matrix(w)
    require_antisymmetric(w)
    n = w.shape[0]
    if n == 0:
        return CongruenceCanonicalForm(np.eye(0, dtype=complex), np.array([]), 0.0)

    phi, nonzero, smax = _congruence_columns(w, rank_rtol, _youla_pairs)
    r = nonzero // 2
    values = (phi.T @ w @ phi).diagonal(1)[: 2 * r : 2].real.copy()
    # near-degenerate merged clusters can come out marginally unordered
    perm = np.argsort(-values, kind="stable")
    if not np.array_equal(perm, np.arange(r)):
        cols = np.arange(n)
        cols[: 2 * r] = np.column_stack([2 * perm, 2 * perm + 1]).ravel()
        phi, values = phi[:, cols], values[perm]
    # deterministic phases: opposite rotations inside a pair leave the
    # canonical block invariant, kernel columns carry a free phase
    heads = np.concatenate([np.arange(0, 2 * r, 2), np.arange(2 * r, n)])
    lead = _leading_entries(phi[:, heads])
    rot = lead / np.hypot(lead.real, lead.imag)
    phi[:, heads] = phi[:, heads] / rot
    phi[:, 1 : 2 * r : 2] = phi[:, 1 : 2 * r : 2] * rot[:r]

    target = np.zeros((n, n), dtype=complex)
    pairs = np.arange(0, 2 * r, 2)
    target[pairs, pairs + 1], target[pairs + 1, pairs] = values, -values
    return _checked_form(w, phi, values, target, smax, "Youla")


def _symmetric_unitary_factors(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor each complex symmetric unitary of a stack ``(c, s, s)`` as
    ``m = O diag(e^{i theta}) O.T``; returns the stacks of ``O`` and ``theta``.

    ``m`` unitary symmetric implies real and imaginary parts are commuting
    real symmetric matrices; they are jointly diagonalized by a real
    orthogonal ``O``, to an off-diagonal residual of at most 1e-8.  A
    ``1 x 1`` unitary is its own phase and needs no eigensolver.
    """
    c, s = m.shape[:2]
    if s == 1:
        return np.ones((c, 1, 1)), np.angle(m[:, 0])
    x = np.ascontiguousarray(m.real)
    y = np.ascontiguousarray(m.imag)
    ex, basis = np.linalg.eigh(x)
    o = np.empty_like(basis)
    redo = range(c)
    for atol in (1e-9, 1e-7, 1e-5):
        # a retry starts afresh each factor that missed the residual
        for k in redo:
            o[k] = basis[k]
            # cluster consecutive eigenvalues as returned (ascending)
            start = 0
            while start < s:
                stop = start + 1
                while stop < s and abs(ex[k, stop] - ex[k, stop - 1]) <= atol:
                    stop += 1
                if stop - start > 1:
                    sub = o[k, :, start:stop]
                    _, q = np.linalg.eigh(sub.T @ y[k] @ sub)
                    o[k, :, start:stop] = sub @ q
                start = stop
        diag = o.transpose(0, 2, 1) @ m @ o
        phases = np.diagonal(diag, axis1=1, axis2=2)
        off = np.abs(diag - phases[:, :, None] * np.eye(s)).reshape(c, -1).max(axis=1)
        if off.max() <= 1e-8:
            return o, np.angle(phases)
        redo = np.flatnonzero(off > 1e-8)
    raise NumericalFailureError(
        f"joint diagonalization of a symmetric unitary failed (off-diagonal {off.max():.3e})"
    )


def _symmetric_unitary_factor(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_symmetric_unitary_factors` of one matrix."""
    o, theta = _symmetric_unitary_factors(m[None])
    return o[0], theta[0]


def _takagi_columns(bil: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``O diag(e^{-i theta / 2})`` for ``bil / mean(z) = O diag(e^{i theta}) O.T``,
    for each form ``bil`` of a stack ``(c, s, s)`` and its values ``z`` ``(c, s)``."""
    # the cluster means as np.mean computes them
    o, theta = _symmetric_unitary_factors(bil / (z.sum(axis=1) / z.shape[1])[:, None, None])
    return o * np.exp(-0.5j * theta)[:, None, :]


def takagi_canonical(v, rank_rtol: float = RANK_RTOL) -> CongruenceCanonicalForm:
    """Canonical form of a complex symmetric matrix under congruence.

    Finds a unitary ``U`` with ``U @ v @ U.T = diag(z_1, ..., z_r, 0, ...)``,
    ``z_i > 0`` descending.  Degenerate singular values are handled by a
    joint re-diagonalization inside each degenerate block.

    Raises
    ------
    NotSymmetricError, NumericalFailureError
    """
    v = as_complex_matrix(v)
    require_symmetric(v)
    n = v.shape[0]
    if n == 0:
        return CongruenceCanonicalForm(np.eye(0, dtype=complex), np.array([]), 0.0)

    phi, nonzero, smax = _congruence_columns(v, rank_rtol, _takagi_columns)
    values = (phi.T @ v @ phi).diagonal()[:nonzero].real.copy()
    perm = np.argsort(-values, kind="stable")
    if not np.array_equal(perm, np.arange(nonzero)):
        cols = np.arange(n)
        cols[:nonzero] = perm
        phi, values = phi[:, cols], values[perm]
    # sign normalization: flipping a column leaves the diagonal invariant
    lead = _leading_entries(phi)
    flip = (lead.real < 0) | ((lead.real == 0) & (lead.imag < 0))
    phi[:, flip] = -phi[:, flip]

    target = np.zeros((n, n), dtype=complex)
    target[:nonzero, :nonzero] = np.diag(values)
    return _checked_form(v, phi, values, target, smax, "Takagi")


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def _pfaffians(a: np.ndarray) -> np.ndarray:
    """Pfaffians of a stack ``(m, n, n)`` of antisymmetric matrices, even
    ``n >= 2``, by Parlett-Reid skew tridiagonalization with partial pivoting,
    O(m n^3) (Wimmer, ACM TOMS 38, 30 (2012), Algorithm 923).

    Each step pivots the largest entry of the first column into row 1,
    multiplies in ``a[:, 0, 1]`` and reduces the stack to its updated
    trailing block; the last 2 x 2 block needs no pivot search.  Each matrix
    picks its own pivot, and only the matrices that need a swap swap (which
    flips the sign of their Pfaffian).  A matrix whose pivot column is zero
    has Pf = 0 and takes no division.  The input stack is not modified.
    """
    a = np.array(a, dtype=complex)
    pf = np.ones(len(a), dtype=complex)
    for _ in range(a.shape[-1] // 2 - 1):
        kp = 1 + np.abs(a[:, 1:, 0]).argmax(axis=1)
        flip = kp != 1
        swap = np.flatnonzero(flip)
        if swap.size:
            p = kp[swap]
            a[swap, 1], a[swap, p] = a[swap, p], a[swap, 1]
            a[swap, :, 1], a[swap, :, p] = a[swap, :, p], a[swap, :, 1]
        piv = a[:, 0, 1]
        pf *= np.where(flip, -piv, piv)
        tau = a[:, 0, 2:] / np.where(piv == 0, 1, piv)[:, None]
        outer = tau[:, :, None] * a[:, None, 2:, 1]
        a = a[:, 2:, 2:] + (outer - outer.transpose(0, 2, 1))
    return pf * a[:, 0, 1]


def pfaffian(w) -> complex:
    """Pfaffian of an even-dimensional antisymmetric matrix.

    The one-matrix case of the stacked Parlett-Reid kernel, O(n^3).
    Satisfies ``pfaffian(w)**2 == det(w)`` and
    ``pfaffian(Q w Q^T) == det(Q) pfaffian(w)``.

    Raises
    ------
    OddDimensionError, NotAntisymmetricError
    """
    w = as_complex_matrix(w)
    n = w.shape[0]
    if n % 2:
        raise OddDimensionError(f"Pfaffian requires even dimension, got {n}")
    require_antisymmetric(w)
    if n == 0:
        return 1.0 + 0j
    return complex(_pfaffians(w[None])[0])


# ---------------------------------------------------------------------------
# Levi-Civita contractions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonContractionSpec:
    """Contraction of coefficient matrices with Levi-Civita tensors.

    Two patterns cover the rank criteria for two-particle states:

    ``"single"``
        One epsilon of order ``d``; operand ``k`` occupies index slots
        ``(2k, 2k+1)`` and the trailing ``free_count`` slots stay free:
        ``sum_e eps^{i1 i2 ... i_{2N} a1..am} W1[i1,i2] ... WN[..]``.
        Operands must be antisymmetric.
    ``"paired"``
        Two epsilons of order ``d`` sharing the free slots; operand ``k``
        puts its row index into slot ``k`` of the first epsilon and its
        column index into slot ``k`` of the second:
        ``sum eps^{i1 i3 .. a..} eps^{i2 i4 .. a..} W1[i1,i2] W2[i3,i4] ...``.
        Operands must be symmetric.
    """

    operands: tuple[np.ndarray, ...]
    pattern: str = "single"
    free_count: int = 0


@lru_cache(maxsize=None)
def _minor_index(d: int, size: int):
    """Free tuples (lexicographic), the row-major flat positions of each
    complementary principal minor ``[rest, rest]``, and ``sign(rest + free)``."""
    free_tuples = tuple(itertools.combinations(range(d), d - size))
    alpha = np.array(free_tuples, dtype=np.intp)
    # taking complements reverses the lexicographic order
    rest = np.array(list(itertools.combinations(range(d), size))[::-1], dtype=np.intp)
    positions = (rest[:, :, None] * d + rest[:, None, :]).reshape(len(free_tuples), size * size)
    signs = levi_civita(np.concatenate([rest, alpha], axis=1)).astype(float)
    return free_tuples, read_only(positions), read_only(signs)


@lru_cache(maxsize=None)
def _fourier_nodes(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Polarization of a degree-k form ``P`` at operands of multiplicities ``m_i``.

    The symmetric multilinear form is ``prod(m_i!) / k!`` times the
    coefficient of ``prod t_i**m_i`` in ``P(sum t_i x_i)``; a discrete
    Fourier sum over each ``t_i`` at the ``(m_i + 1)``-th roots of unity
    extracts it exactly, as no other monomial of degree ``k`` aliases onto it.
    """
    m = np.array(counts)
    nodes = np.exp(2j * np.pi * np.indices(m + 1).reshape(len(m), -1).T / (m + 1))
    scale = math.prod(math.factorial(c) / (c + 1) for c in counts) / math.factorial(sum(counts))
    return read_only(nodes), read_only(scale * np.prod(nodes.conj() ** m, axis=1))


def epsilon_contract(spec: EpsilonContractionSpec) -> dict[tuple[int, ...], complex]:
    """Evaluate a Levi-Civita contraction.

    Returns one complex value per strictly increasing assignment ``alpha``
    of the free indices (the empty tuple keys a fully contracted value),
    in lexicographic order.  For ``k`` equal operands each value is a
    principal minor on ``rest``, the complement of ``alpha``:
    ``sign(rest + alpha) * 2**k * k! * Pf(W[rest, rest])`` (single) or
    ``k! * det(V[rest, rest])`` (paired), all gathered in one stack.
    Distinct operands enter through the polarization identity, as a
    weighted sum over ``prod(m_i + 1)`` combinations of the operands
    (multiplicities ``m_i``) evaluated in the same stack.

    The cost per combination is one O(n^3) elimination per ``n x n``
    minor, counted as ``C(d, n) * n**3`` operations: ``n = 2k`` Parlett-Reid
    Pfaffians (single) or ``n = k`` LU determinants (paired); distinct
    operands multiply it by the ``prod(m_i + 1)`` combinations.  At the
    20 million limit, full rank scans (equal operands) run up to ``d = 17``
    for fermions and bosons alike.

    Raises
    ------
    ArityMismatchError
        If operand count, free indices and dimension are inconsistent
        with the epsilon order.
    ValidationError
        If that cost exceeds ``_MAX_CONTRACTION_TERMS``.
    """
    if not spec.operands:
        raise ArityMismatchError("need at least one operand")
    # an operand passed several times is validated and gathered once
    groups: dict[int, list] = {}
    for m in spec.operands:
        groups.setdefault(id(m), [m, 0])[1] += 1
    ops = [as_complex_matrix(m) for m, _ in groups.values()]
    d = ops[0].shape[0]
    for m in ops:
        if m.shape[0] != d:
            raise ArityMismatchError("operands must share a common dimension")
    n_ops = len(spec.operands)
    if spec.free_count < 0:
        raise ArityMismatchError("free_count must be non-negative")

    if spec.pattern == "single":
        if 2 * n_ops + spec.free_count != d:
            raise ArityMismatchError(
                f"single pattern needs 2*{n_ops} + {spec.free_count} == d = {d}"
            )
        for m in ops:
            require_antisymmetric(m)
        size = 2 * n_ops
    elif spec.pattern == "paired":
        if n_ops + spec.free_count != d:
            raise ArityMismatchError(
                f"paired pattern needs {n_ops} + {spec.free_count} == d = {d}"
            )
        for m in ops:
            require_symmetric(m)
        size = n_ops
    else:
        raise ValidationError(f"unknown pattern {spec.pattern!r}")
    n_terms = math.comb(d, size) * size ** 3
    if len(ops) > 1:
        n_terms *= math.prod(count + 1 for _, count in groups.values())
    if n_terms > _MAX_CONTRACTION_TERMS:
        raise ValidationError(f"contraction would expand to {n_terms} terms")

    free_tuples, positions, signs = _minor_index(d, size)
    if len(ops) == 1:
        flat = ops[0].reshape(1, d * d)
    else:
        nodes, weights = _fourier_nodes(tuple(count for _, count in groups.values()))
        flat = nodes.dot(np.array(ops).reshape(len(ops), d * d))
    minors = flat.take(positions, axis=1).reshape(-1, size, size)
    if spec.pattern == "single":
        minor_values = _pfaffians(minors).reshape(len(flat), -1)
        factor = 2 ** n_ops * math.factorial(n_ops) * signs
    else:
        minor_values = np.linalg.det(minors).reshape(len(flat), -1)
        factor = math.factorial(n_ops)
    values = (minor_values[0] if len(ops) == 1 else weights.dot(minor_values)) * factor
    return dict(zip(free_tuples, values.tolist()))


# ---------------------------------------------------------------------------
# stacked L-BFGS
# ---------------------------------------------------------------------------

#: settings of the stacked L-BFGS: stored curvature pairs, trials
#: per backtracking line search, the Armijo constant and the stop tolerances
#: on the relative decrease and on the largest gradient component
_LBFGS_MEMORY = 10
_LINE_SEARCH_TRIALS = 20
_ARMIJO = 1e-4
_FTOL = 1e-15
_GTOL = 1e-10
#: a failed line search whose trials all moved f by at most this many
#: machine epsilons (times max(1, |f|)) ends its start as converged
_F_ROUNDING = 4.0 * np.finfo(float).eps


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
        if self.pushes >= m:
            # slot k holds the oldest pair; dropping it from R drops its row
            # and column of R^-1 (before the ring wraps they are still zero)
            self.r_inv[:, k] = 0.0
            self.r_inv[:, :, k] = 0.0
        self.pushes += 1
        self.pairs[:, k], self.pairs[:, m + k] = s, y
        proj = (self.pairs @ y[:, :, None])[:, :, 0]  # S^T y and Y^T y
        every = store.all()
        inv = 1.0 / (sy if every else np.where(store, sy, 1.0))
        column = -(self.r_inv @ proj[:, :m, None])[:, :, 0] * inv[:, None]
        column[:, k] = inv
        self.r_inv[:, :, k] = column
        self.yy[:, k] = proj[:, m:]
        self.yy[:, :, k] = proj[:, m:]
        self.sy[:, k] = sy
        self.gamma = sy / (proj[:, m + k] if every else np.where(store, proj[:, m + k], 1.0))
        if not every:
            clear = ~store
            for block in (self.pairs, self.r_inv, self.yy, self.sy):
                block[clear] = 0.0
            self.gamma[clear] = 1.0
        self.held = store

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row not selected by ``rows``."""
        self.pairs, self.r_inv, self.yy = self.pairs[rows], self.r_inv[rows], self.yy[rows]
        self.sy, self.gamma, self.held = self.sy[rows], self.gamma[rows], self.held[rows]


def _lbfgs(fun, x: np.ndarray, iters: int, retract=None, project=None):
    """Minimize ``fun`` from every row of ``x`` at once by L-BFGS.

    ``fun`` maps a stack of rows to their values and gradients, as new
    arrays: the full-step trials become the next rows in place.  Each start
    keeps its own memory of the last ``_LBFGS_MEMORY`` curvature pairs
    (``_PairMemory``: ring slots in one age order shared by all starts, and
    the compact form of the inverse Hessian, so a direction costs the same
    few stacked products at any depth).  A start takes backtracking Armijo
    steps from a unit L-BFGS step, or from a unit-length step along ``-g``
    while its memory is empty: at the start and after a step with
    ``s.y <= 0``, which stores no pair and clears the memory.  The full step
    is tried alone; the halvings of the starts it fails for are tried in
    stacked chunks of 1, 2, 4, ... trials, and each start takes its first
    trial with Armijo decrease.  In exact arithmetic that is the step a
    halving loop would take.  In floating point the rows of one call to
    ``fun`` can round differently with the number of rows in that call, so
    the batches each call sees are part of the result.  A start stops after
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
    returns ``(rows, ok)``, the trial points pulled back onto the manifold
    as a new array;
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
    for passes in range(iters):
        if run.size == 0:
            break
        direction = memory.direction(gw)
        if project is not None:
            direction = project(xw, direction)
        slope = np.einsum("ni,ni->n", gw, direction)
        step = np.ones(run.size) if memory.held.all() else np.where(
            memory.held, 1.0, 1.0 / np.maximum(np.linalg.norm(gw, axis=1), 1e-300))
        accepted = slope < 0.0  # an uphill direction fails its search
        pending = np.flatnonzero(accepted)
        # where every row tries the full step, its trials become the new rows
        # (the rows it fails for are overwritten); else all start where they stand
        x_new = None
        if pending.size < run.size:
            x_new, f_new, g_new = xw.copy(), fw.copy(), gw.copy()
        chunks = []  # (pending, f of its trials) per chunk
        tried = 0
        while pending.size and tried < _LINE_SEARCH_TRIALS:
            # the full step alone, then the next halvings in stacked chunks of 1, 2, 4, ...
            width = min(max(tried, 1), _LINE_SEARCH_TRIALS - tried)
            rows = slice(None) if pending.size == run.size else pending
            steps = np.ldexp(step[rows, None], -np.arange(tried, tried + width))
            trial = (xw[rows, None] + steps[:, :, None] * direction[rows, None]).reshape(-1, p)
            on_manifold = True
            if retract is not None:
                trial, on_manifold = retract(trial)
            f_t, g_t = fun(trial)
            bound = fw[rows, None] + _ARMIJO * steps * slope[rows, None]
            ok = (on_manifold & (f_t <= bound.ravel())).reshape(-1, width)
            hit = ok.any(axis=1)
            chunks.append((pending, f_t.reshape(-1, width)))
            if x_new is None:
                x_new, f_new, g_new = trial, f_t, g_t
            else:
                pick = np.flatnonzero(hit) * width + ok[hit].argmax(axis=1)
                done = pending[hit]
                x_new[done], f_new[done], g_new[done] = trial[pick], f_t[pick], g_t[pick]
            pending = pending[~hit]
            tried += width
        flat = np.zeros(run.size, dtype=bool)
        if pending.size:
            # every trial failed for these starts: a search whose trials all
            # stayed within the rounding of f stands at the minimum as far as
            # f can tell.  The new rows may share the first chunk's arrays,
            # so its values are read before these rows are restored.
            f0 = fw[pending]
            moved = np.max([np.abs(f_c[np.searchsorted(rows_c, pending)] - f0[:, None]).max(axis=1)
                            for rows_c, f_c in chunks], axis=0)
            flat[pending] = moved <= _F_ROUNDING * np.maximum(np.abs(f0), 1.0)
            accepted[pending] = False
            x_new[pending], f_new[pending], g_new[pending] = xw[pending], f0, gw[pending]
        s, y = x_new - xw, g_new - gw
        sy = np.einsum("ni,ni->n", s, y)
        # without positive curvature along the step the stored pairs no longer
        # describe the region; skipping the pair alone can stall a start on
        # ever shorter steps near a saddle
        memory.push(s, y, sy, accepted & (sy > 0.0))
        scale = np.maximum(np.maximum(np.abs(fw), np.abs(f_new)), 1.0)
        met = accepted & ((fw - f_new <= _FTOL * scale)
                          | (np.abs(g_new).max(axis=1) <= _GTOL))
        xw, fw, gw = x_new, f_new, g_new
        # a met tolerance or a failed line search ends a start; a start that
        # goes on has met no tolerance and has taken a step in every pass
        stop = met | ~accepted
        if stop.any():
            ended = run[stop]
            x[ended], f[ended], converged[ended] = xw[stop], fw[stop], met[stop] | flat[stop]
            iterations[ended] = passes + accepted[stop]
            keep = ~stop
            run, xw, fw, gw = run[keep], xw[keep], fw[keep], gw[keep]
            memory.keep(keep)
    x[run], f[run], iterations[run] = xw, fw, iters
    return x, f, converged, iterations
