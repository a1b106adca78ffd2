"""Dense complex linear-algebra kernels.

Canonical forms under unitary congruence for antisymmetric (Youla) and
symmetric (Takagi) matrices, the Pfaffian, contractions of coefficient
matrices with Levi-Civita tensors, and seeded Haar sampling.  Everything
here is a pure function of its inputs; randomness enters only through an
explicitly passed generator.

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
    m = np.asarray(m)
    return float(np.abs(m).max()) if m.size else 0.0


def require_antisymmetric(w: np.ndarray, tol: float = TOL_SYM) -> None:
    dev = max_abs(w + w.T)
    if dev > tol:
        raise NotAntisymmetricError(f"max |w + w^T| = {dev:.3e} exceeds tol {tol:.1e}")


def require_symmetric(v: np.ndarray, tol: float = TOL_SYM) -> None:
    dev = max_abs(v - v.T)
    if dev > tol:
        raise NotSymmetricError(f"max |v - v^T| = {dev:.3e} exceeds tol {tol:.1e}")


def require_hermitian(h: np.ndarray, tol: float = TOL_SYM) -> None:
    dev = max_abs(h - h.conj().T)
    if dev > tol:
        raise ValidationError(f"max |h - h^dag| = {dev:.3e} exceeds tol {tol:.1e}")


def require_unitary(u: np.ndarray, tol: float = 1e-9) -> None:
    dev = max_abs(u @ u.conj().T - np.eye(u.shape[0]))
    if dev > tol:
        raise ValidationError(f"max |u u^dag - 1| = {dev:.3e} exceeds tol {tol:.1e}")


def singular_values(m) -> np.ndarray:
    """Singular values, non-negative and sorted in descending order."""
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False)


def numerical_rank(m, rtol: float = RANK_RTOL) -> int:
    """Number of singular values above ``rtol`` times the largest one."""
    s = singular_values(m)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def perm_sign(seq) -> int:
    """Sign of the permutation that sorts ``seq`` (entries distinct)."""
    seq = tuple(seq)
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


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


def _orthonormal_complement(used: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the complement of the columns of ``used``."""
    if used.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    proj = np.eye(dim, dtype=complex) - used @ used.conj().T
    evals, evecs = np.linalg.eigh(proj)
    keep = evals > 0.5
    return evecs[:, keep]


def youla_canonical(w, tol: float = TOL_SYM, rank_rtol: float = RANK_RTOL) -> CongruenceCanonicalForm:
    """Canonical form of a complex antisymmetric matrix under congruence.

    Finds a unitary ``U`` with ``U @ w @ U.T = diag[Z_1, ..., Z_r, 0]``,
    each ``Z_i = [[0, z_i], [-z_i, 0]]`` with ``z_i > 0`` descending.

    The construction diagonalizes the Gram matrix ``w^dag w``, whose
    positive eigenvalues come in degenerate pairs ``z_i^2``, and pairs up
    each (clustered) eigenspace through the bilinear form restricted to it.

    Raises
    ------
    NotAntisymmetricError
        If ``max|w + w^T|`` exceeds ``tol``.
    NumericalFailureError
        If the reconstruction residual exceeds the tolerance.
    """
    w = as_complex_matrix(w)
    require_antisymmetric(w, tol)
    n = w.shape[0]
    if n == 0:
        return CongruenceCanonicalForm(np.eye(0, dtype=complex), np.array([]), 0.0)

    # right-singular vectors span the eigenspaces of w^dag w with singular
    # values accurate to machine epsilon (sqrt of Gram eigenvalues is not)
    _, z, vh = np.linalg.svd(w)
    vecs = vh.conj().T
    smax = z[0]
    thr = rank_rtol * smax
    cluster_atol = max(TOL_RECON, 1e3 * np.finfo(float).eps) * max(smax, 1.0)

    nonzero = [i for i in range(n) if z[i] > thr]
    column_blocks: list[np.ndarray] = []
    for group in _cluster_by_gap(z[: len(nonzero)], cluster_atol):
        m2 = len(group)
        if m2 % 2:
            raise NumericalFailureError(
                f"odd-sized singular cluster of size {m2} at z ~ {z[group[0]]:.3e}"
            )
        sub = vecs[:, group]
        bil = sub.T @ w @ sub  # antisymmetric, bil @ bil^dag ~ z^2 * 1
        pairs: list[np.ndarray] = []
        used = np.zeros((m2, 0), dtype=complex)
        while used.shape[1] < m2:
            rem = _orthonormal_complement(used, m2)
            u = rem[:, 0]
            partner = -np.conj(bil @ u)
            # numerically re-orthogonalize against everything already used
            for c in itertools.chain(pairs, [u]):
                partner = partner - c * (c.conj() @ partner)
            partner = partner / np.linalg.norm(partner)
            pairs.extend([u, partner])
            used = np.column_stack([used, u, partner])
        column_blocks.append(sub @ np.column_stack(pairs))

    kernel = vecs[:, len(nonzero):]
    phi = np.column_stack(column_blocks + [kernel]) if column_blocks else kernel

    r = len(nonzero) // 2
    probe = phi.T @ w @ phi
    values = np.array([probe[2 * i, 2 * i + 1].real for i in range(r)])
    # near-degenerate merged clusters can come out marginally unordered
    perm = np.argsort(-values, kind="stable")
    if not np.array_equal(perm, np.arange(r)):
        cols = np.arange(n)
        for slot, src in enumerate(perm):
            cols[2 * slot], cols[2 * slot + 1] = 2 * src, 2 * src + 1
        phi = phi[:, cols]
        values = values[perm]
    # deterministic phases: opposite rotations inside a pair leave the
    # canonical block invariant, kernel columns carry a free phase
    for i in range(r):
        a = phi[:, 2 * i]
        ph = a[int(np.argmax(np.abs(a)))]
        rot = ph / abs(ph)
        phi[:, 2 * i] = a / rot
        phi[:, 2 * i + 1] = phi[:, 2 * i + 1] * rot
    for j in range(2 * r, n):
        c = phi[:, j]
        ph = c[int(np.argmax(np.abs(c)))]
        if abs(ph) > 0:
            phi[:, j] = c / (ph / abs(ph))

    u_out = phi.T
    canon = u_out @ w @ u_out.T
    target = np.zeros((n, n), dtype=complex)
    for i, zi in enumerate(values):
        target[2 * i, 2 * i + 1] = zi
        target[2 * i + 1, 2 * i] = -zi
    residual = max_abs(canon - target)
    if residual > TOL_RECON * max(1.0, smax):
        raise NumericalFailureError(f"Youla reconstruction residual {residual:.3e}")
    return CongruenceCanonicalForm(u_out, values, residual)


def _symmetric_unitary_factor(m: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Factor a complex symmetric unitary as ``m = O diag(e^{i theta}) O.T``.

    ``m`` unitary symmetric implies real and imaginary parts are commuting
    real symmetric matrices; they are jointly diagonalized by a real
    orthogonal ``O``.
    """
    x = np.ascontiguousarray(m.real)
    y = np.ascontiguousarray(m.imag)
    last_err = None
    for atol in (1e-9, 1e-7, 1e-5):
        ex, basis = np.linalg.eigh(x)
        o = basis.copy()
        # cluster consecutive eigenvalues as returned (ascending)
        start = 0
        while start < len(ex):
            stop = start + 1
            while stop < len(ex) and abs(ex[stop] - ex[stop - 1]) <= atol:
                stop += 1
            if stop - start > 1:
                sub = o[:, start:stop]
                _, q = np.linalg.eigh(sub.T @ y @ sub)
                o[:, start:stop] = sub @ q
            start = stop
        diag = o.T @ m @ o
        off = max_abs(diag - np.diag(np.diagonal(diag)))
        if off <= tol:
            theta = np.angle(np.diagonal(diag))
            return o, theta
        last_err = off
    raise NumericalFailureError(
        f"joint diagonalization of a symmetric unitary failed (off-diagonal {last_err:.3e})"
    )


def takagi_canonical(v, tol: float = TOL_SYM, rank_rtol: float = RANK_RTOL) -> CongruenceCanonicalForm:
    """Canonical form of a complex symmetric matrix under congruence.

    Finds a unitary ``U`` with ``U @ v @ U.T = diag(z_1, ..., z_r, 0, ...)``,
    ``z_i > 0`` descending.  Degenerate singular values are handled by a
    joint re-diagonalization inside each degenerate block.

    Raises
    ------
    NotSymmetricError, NumericalFailureError
    """
    v = as_complex_matrix(v)
    require_symmetric(v, tol)
    n = v.shape[0]
    if n == 0:
        return CongruenceCanonicalForm(np.eye(0, dtype=complex), np.array([]), 0.0)

    _, z, vh = np.linalg.svd(v)
    vecs = vh.conj().T
    smax = z[0]
    thr = rank_rtol * smax
    cluster_atol = max(TOL_RECON, 1e3 * np.finfo(float).eps) * max(smax, 1.0)

    nonzero = [i for i in range(n) if z[i] > thr]
    column_blocks: list[np.ndarray] = []
    for group in _cluster_by_gap(z[: len(nonzero)], cluster_atol):
        sub = vecs[:, group]
        zc = float(np.mean(z[group]))
        bil = sub.T @ v @ sub
        o, theta = _symmetric_unitary_factor(bil / zc, tol=1e-8)
        block = sub @ (o * np.exp(-0.5j * theta))
        column_blocks.append(block)

    kernel = vecs[:, len(nonzero):]
    phi = np.column_stack(column_blocks + [kernel]) if column_blocks else kernel
    probe = phi.T @ v @ phi
    values = np.diagonal(probe)[: len(nonzero)].real.copy()

    perm = np.argsort(-values, kind="stable")
    if not np.array_equal(perm, np.arange(len(values))):
        cols = np.arange(n)
        cols[: len(values)] = perm
        phi = phi[:, cols]
        values = values[perm]
    # sign normalization: flipping a column leaves the diagonal invariant
    for j in range(n):
        c = phi[:, j]
        ph = c[int(np.argmax(np.abs(c)))]
        if ph.real < 0 or (ph.real == 0 and ph.imag < 0):
            phi[:, j] = -c

    u_out = phi.T
    canon = u_out @ v @ u_out.T
    target = np.zeros((n, n), dtype=complex)
    target[: len(values), : len(values)] = np.diag(values)
    residual = max_abs(canon - target)
    if residual > TOL_RECON * max(1.0, smax):
        raise NumericalFailureError(f"Takagi reconstruction residual {residual:.3e}")
    return CongruenceCanonicalForm(u_out, values, residual)


# ---------------------------------------------------------------------------
# Pfaffian
# ---------------------------------------------------------------------------

def pfaffian(w, tol: float = TOL_SYM) -> complex:
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Uses Parlett-Reid skew-symmetric tridiagonalization with partial
    pivoting, O(n^3).  Satisfies ``pfaffian(w)**2 == det(w)`` and
    ``pfaffian(Q w Q^T) == det(Q) pfaffian(w)``.

    Raises
    ------
    OddDimensionError, NotAntisymmetricError
    """
    w = as_complex_matrix(w)
    n = w.shape[0]
    if n % 2:
        raise OddDimensionError(f"Pfaffian requires even dimension, got {n}")
    require_antisymmetric(w, tol)
    if n == 0:
        return 1.0 + 0j

    a = w.copy()
    pf = 1.0 + 0j
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1:, k])))
        if kp != k + 1:
            a[[k + 1, kp], :] = a[[kp, k + 1], :]
            a[:, [k + 1, kp]] = a[:, [kp, k + 1]]
            pf = -pf
        piv = a[k, k + 1]
        if piv == 0:
            return 0j
        pf *= piv
        if k + 2 < n:
            tau = a[k, k + 2:] / piv
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return complex(pf)


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
    rests = [[i for i in range(d) if i not in alpha] for alpha in free_tuples]
    rest = np.array(rests, dtype=np.intp).reshape(len(rests), size)
    positions = (rest[:, :, None] * d + rest[:, None, :]).reshape(len(rests), size * size)
    signs = np.array([perm_sign(r + list(alpha)) for r, alpha in zip(rests, free_tuples)], float)
    return free_tuples, read_only(positions), read_only(signs)


@lru_cache(maxsize=None)
def _matching_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Perfect matchings of ``range(n)``: flat positions ``a * n + b`` of
    their pairs ``a < b``, shape ``(n // 2, (n-1)!!)``, and their real signs.

    Expansion along the first element: pairing 0 with ``j`` contributes
    ``(-1)**(j - 1)`` times the sign of a matching of the other elements.
    The contraction guard admits ``n <= 16``, so the cached positions are
    int16 and the signs real, a quarter and a half of intp and complex.
    """
    if n == 0:
        return read_only(np.zeros((0, 1), dtype=np.int16)), read_only(np.ones(1))
    sub, sub_signs = _matching_table(n - 2)
    rows, cols = divmod(sub, max(n - 2, 1))
    blocks, signs = [], []
    for j in range(1, n):
        others = np.array([x for x in range(1, n) if x != j], dtype=np.int16)
        blocks.append(np.vstack([np.full((1, sub.shape[1]), j, dtype=np.int16),
                                 others[rows] * n + others[cols]]))
        signs.append(sub_signs if j % 2 else -sub_signs)
    return read_only(np.hstack(blocks)), read_only(np.concatenate(signs))


#: complex products held at once by the Pfaffian kernel
_PFAFFIAN_CHUNK = 1 << 20


def _pfaffians(minors: np.ndarray, n: int) -> np.ndarray:
    """Pfaffians of row-major flattened ``n x n`` antisymmetric matrices,
    one per row, by the perfect-matching expansion."""
    flat, signs = _matching_table(n)
    step = max(1, _PFAFFIAN_CHUNK // len(signs))
    parts = []
    for start in range(0, len(minors), step):
        block = minors[start:start + step]
        prod = block.take(flat[0], axis=1)
        for column in flat[1:]:
            prod *= block.take(column, axis=1)
        parts.append(prod.dot(signs))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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

    The cost per combination is ``C(d, 2k) * (2k-1)!!`` matching products
    (single) or ``C(d, k)`` LU factorizations of ``k x k`` minors, about
    ``C(d, k) * k**3`` operations (paired).

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
        n_terms = math.comb(d, size) * math.prod(range(size - 1, 0, -2))
    elif spec.pattern == "paired":
        if n_ops + spec.free_count != d:
            raise ArityMismatchError(
                f"paired pattern needs {n_ops} + {spec.free_count} == d = {d}"
            )
        for m in ops:
            require_symmetric(m)
        size = n_ops
        n_terms = math.comb(d, size) * size ** 3
    else:
        raise ValidationError(f"unknown pattern {spec.pattern!r}")
    if n_terms > _MAX_CONTRACTION_TERMS:
        raise ValidationError(f"contraction would expand to {n_terms} terms")

    free_tuples, positions, signs = _minor_index(d, size)
    if len(ops) == 1:
        flat = ops[0].reshape(1, d * d)
    else:
        nodes, weights = _fourier_nodes(tuple(count for _, count in groups.values()))
        flat = nodes.dot(np.array(ops).reshape(len(ops), d * d))
    minors = flat.take(positions, axis=1).reshape(-1, size * size)
    if spec.pattern == "single":
        minor_values = _pfaffians(minors, size).reshape(len(flat), -1)
        factor = 2 ** n_ops * math.factorial(n_ops) * signs
    else:
        minor_values = np.linalg.det(minors.reshape(-1, size, size)).reshape(len(flat), -1)
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
