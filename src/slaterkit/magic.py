"""Magic-basis representations and the V1 * Ud * V2 unitary factorization.

In a magic basis the dualisation acts as plain complex conjugation, so
the unitaries commuting with it are exactly the real orthogonal ones;
for the three canonical systems these coincide with the lifted
single-particle ("local") transformations.  Any unitary on the full
sector then factors as ``U = V1 @ Ud @ V2`` with ``V1, V2`` in that
invariance group and ``Ud`` diagonal in the magic basis, splitting the
correlation-changing content of ``U`` into ``dim - 1`` phases.  The magic
bases come from ``states``; the group dimensions follow from ``dim`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, UnsupportedSystemError, ValidationError
from .linalg import _symmetric_unitary_factor, max_abs, require_unitary
from .states import SYSTEM_DIMS, magic_basis


def _check_system(op: np.ndarray, system: str) -> int:
    if system not in SYSTEM_DIMS:
        raise UnsupportedSystemError(f"unknown system {system!r}")
    dim = SYSTEM_DIMS[system]
    if op.shape != (dim, dim):
        raise ValidationError(f"operator shape {op.shape} does not match {system} (dim {dim})")
    return dim


def to_magic_basis(op, system: str) -> np.ndarray:
    """Representation of a sector operator in the magic basis."""
    op = np.asarray(op, dtype=complex)
    _check_system(op, system)
    b = magic_basis(system)
    return b.conj().T @ op @ b


def from_magic_basis(op, system: str) -> np.ndarray:
    """Inverse of :func:`to_magic_basis`."""
    op = np.asarray(op, dtype=complex)
    _check_system(op, system)
    b = magic_basis(system)
    return b @ op @ b.conj().T


def is_dualisation_invariant(u, system: str) -> bool:
    """Whether a unitary commutes with the dualisation (to 1e-9).

    Equivalent to its magic-basis representation being real orthogonal;
    lifted special-unitary single-particle transformations qualify, any
    unitary with a nontrivial determinant phase does not.
    """
    u = np.asarray(u, dtype=complex)
    _check_system(u, system)
    require_unitary(u)
    r = to_magic_basis(u, system)
    return bool(max_abs(r @ r.T - np.eye(r.shape[0])) <= 1e-9
                and max_abs(r.imag) <= 1e-9)


@dataclass(frozen=True)
class KakFactors:
    """Factorization ``u = v1 @ ud @ v2`` (all in sector coordinates).

    ``v1`` and ``v2`` are dualisation invariant, ``ud`` is diagonal in
    the magic basis with ``phases`` on its diagonal there.
    """

    v1: np.ndarray
    ud: np.ndarray
    v2: np.ndarray
    phases: np.ndarray
    residual: float


def kak_decompose(u, system: str) -> KakFactors:
    """Split a sector unitary into local factors and a diagonal phase core.

    In the magic basis, ``m = r r^T`` is a complex symmetric unitary
    whose joint real diagonalization ``m = o exp(2i phi) o^T`` yields
    ``v1 = o``, ``ud = exp(i phi)`` and ``v2 = ud^dag o^T r``; both
    ``v`` factors are then real orthogonal with determinant one.

    Raises
    ------
    NumericalFailureError
        On pathological degeneracy of the joint diagonalization or a
        reconstruction residual above 1e-8.
    """
    u = np.asarray(u, dtype=complex)
    dim = _check_system(u, system)
    require_unitary(u)
    r = to_magic_basis(u, system)
    m = r @ r.T
    o, theta = _symmetric_unitary_factor(m)
    phases = 0.5 * theta
    if np.linalg.det(o) < 0:
        o = o.copy()
        o[:, 0] = -o[:, 0]
    v1 = o
    ud = np.exp(1j * phases)
    v2 = (np.conj(ud)[:, None] * o.T) @ r
    # v2 is unitary with v2 v2^T = 1, hence real orthogonal
    if max_abs(v2.imag) > 1e-7:
        raise NumericalFailureError(
            f"second factor not real (max imag {max_abs(v2.imag):.3e});"
            " degenerate phase structure")
    v2 = v2.real.astype(complex)
    if np.linalg.det(v2).real < 0:
        # flip one phase together with the matching row of v2
        phases = phases.copy()
        phases[0] += np.pi
        ud = np.exp(1j * phases)
        v2 = v2.copy()
        v2[0, :] = -v2[0, :]
    recon = v1 @ np.diag(ud) @ v2
    residual = max_abs(recon - r)
    if residual > 1e-8:
        raise NumericalFailureError(f"KAK reconstruction residual {residual:.3e}")
    factors = KakFactors(
        v1=from_magic_basis(v1, system),
        ud=from_magic_basis(np.diag(ud), system),
        v2=from_magic_basis(v2, system),
        phases=phases,
        residual=residual,
    )
    for side in (factors.v1, factors.v2):
        if not is_dualisation_invariant(side, system):
            raise NumericalFailureError("a local factor left the dualisation-invariant group")
    return factors


def dimension_bookkeeping(system: str) -> tuple[int, int, int]:
    """(local group, phase torus, full group) real dimensions on a sector of
    dimension ``n`` (``SYSTEM_DIMS``): ``SO(n)`` in the magic basis, the
    ``n - 1`` phases of a determinant-one diagonal, and ``SU(n)``.  The
    factorization needs ``2 * dim(local) + (n - 1) >= dim(full)``; returned
    for sanity checks.
    """
    if system not in SYSTEM_DIMS:
        raise UnsupportedSystemError(f"unknown system {system!r}")
    n = SYSTEM_DIMS[system]
    return n * (n - 1) // 2, n - 1, n * n - 1
