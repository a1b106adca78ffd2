"""Ordered-tuple bases for (anti)symmetric sectors and their embeddings.

The N-particle antisymmetric sector of ``(C^d)^{x N}`` is indexed by
strictly increasing tuples, the symmetric sector by non-decreasing
tuples.  Amplitudes over these tuples are coefficients in the
orthonormal occupation-number basis, so a normalized state has unit
Euclidean norm in tuple coordinates.

The coefficient-tensor convention used by the rank and decomposition
machinery stores ``w_{i1..iN}`` over all orderings; the occupation
amplitude of the sorted tuple ``t`` relates by

    fermions:  c_t = N! * w_t
    bosons:    c_t = N! * v_t / sqrt(prod_k n_k!)

with ``n_k`` the multiplicity of mode ``k`` in ``t``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .linalg import TOL_SYM, perm_sign, read_only

ANTISYMMETRIC = "antisymmetric"
SYMMETRIC = "symmetric"


@lru_cache(maxsize=None)
def sector_tuples(kind: str, d: int, n: int) -> tuple[tuple[int, ...], ...]:
    if kind == ANTISYMMETRIC:
        return tuple(itertools.combinations(range(d), n))
    if kind == SYMMETRIC:
        return tuple(itertools.combinations_with_replacement(range(d), n))
    raise ValidationError(f"unknown sector kind {kind!r}")


@lru_cache(maxsize=None)
def tuple_index(kind: str, d: int, n: int) -> MappingProxyType:
    return MappingProxyType({t: i for i, t in enumerate(sector_tuples(kind, d, n))})


def sector_dim(kind: str, d: int, n: int) -> int:
    return len(sector_tuples(kind, d, n))


def multiplicity_factor(t: tuple[int, ...]) -> float:
    """sqrt(prod of mode multiplicities factorial) for a sorted tuple."""
    out = 1.0
    for _, grp in itertools.groupby(t):
        out *= math.factorial(sum(1 for _ in grp))
    return math.sqrt(out)


@lru_cache(maxsize=None)
def embedding_isometry(kind: str, d: int, n: int) -> np.ndarray:
    """Isometry from sector coordinates into the full ``d**n`` tensor space.

    Columns are the normalized (anti)symmetrized product states of each
    ordered tuple, so ``E.conj().T @ E == 1`` and ``E @ E.conj().T`` is
    the sector projector.
    """
    positions, sources, coeffs = _expansion_table(kind, d, n)
    e = np.zeros((d ** n, sector_dim(kind, d, n)), dtype=complex)
    e[positions, sources] = np.sign(coeffs)
    return read_only(e / np.linalg.norm(e, axis=0))


def lift_unitary(kind: str, u: np.ndarray, n: int) -> np.ndarray:
    """Sector representation of a single-particle unitary ``u`` on N particles."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    full = u
    for _ in range(n - 1):
        full = np.kron(full, u)
    e = embedding_isometry(kind, d, n)
    return e.conj().T @ full @ e


def embed_operator(kind: str, d: int, n: int, matrix: np.ndarray,
                   complement: float = 0.0) -> np.ndarray:
    """Extend a sector operator to the full tensor space.

    The orthogonal complement of the sector carries ``complement`` times
    the identity (0 for plain embedding, 1 to extend a sector identity to
    the full identity).
    """
    e = embedding_isometry(kind, d, n)
    full = e @ np.asarray(matrix, dtype=complex) @ e.conj().T
    if complement:
        full += complement * (np.eye(d ** n, dtype=complex) - e @ e.conj().T)
    return full


@lru_cache(maxsize=None)
def _expansion_table(kind: str, d: int, n: int):
    """Flat tensor positions, source tuple indices and weights per entry."""
    tuples = sector_tuples(kind, d, n)
    fact = math.factorial(n)
    positions, sources, coeffs = [], [], []
    for i, t in enumerate(tuples):
        if kind == ANTISYMMETRIC:
            perms = itertools.permutations(t)
        else:
            perms = set(itertools.permutations(t))
        weight = 1.0 / fact if kind == ANTISYMMETRIC else multiplicity_factor(t) / fact
        for perm in perms:
            flat = 0
            for v in perm:
                flat = flat * d + v
            positions.append(flat)
            sources.append(i)
            coeffs.append(weight * (perm_sign(perm) if kind == ANTISYMMETRIC else 1.0))
    return (read_only(np.asarray(positions, dtype=np.intp)),
            read_only(np.asarray(sources, dtype=np.intp)),
            read_only(np.asarray(coeffs)))


@lru_cache(maxsize=None)
def _gather_table(kind: str, d: int, n: int):
    tuples = sector_tuples(kind, d, n)
    fact = math.factorial(n)
    flats = np.empty(len(tuples), dtype=np.intp)
    factors = np.empty(len(tuples))
    for i, t in enumerate(tuples):
        flat = 0
        for v in t:
            flat = flat * d + v
        flats[i] = flat
        factors[i] = fact if kind == ANTISYMMETRIC else fact / multiplicity_factor(t)
    return read_only(flats), read_only(factors)


def tensor_from_amps(kind: str, d: int, n: int, amps: np.ndarray) -> np.ndarray:
    """Expand occupation amplitudes into the full coefficient tensor."""
    positions, sources, coeffs = _expansion_table(kind, d, n)
    out = np.zeros(d ** n, dtype=complex)
    out[positions] = coeffs * np.asarray(amps, dtype=complex)[sources]
    return out.reshape((d,) * n)


def amps_from_tensor(kind: str, tensor: np.ndarray) -> np.ndarray:
    """Read occupation amplitudes off a coefficient tensor (sorted tuples)."""
    tensor = np.asarray(tensor, dtype=complex)
    flats, factors = _gather_table(kind, tensor.shape[0], tensor.ndim)
    return tensor.ravel()[flats] * factors


def check_tensor_symmetry(kind: str, tensor: np.ndarray) -> None:
    """Verify total (anti)symmetry of a coefficient tensor (to ``TOL_SYM``, relative)."""
    tensor = np.asarray(tensor)
    n = tensor.ndim
    scale = max(1.0, float(np.max(np.abs(tensor))) if tensor.size else 1.0)
    for axes in itertools.combinations(range(n), 2):
        swapped = np.swapaxes(tensor, *axes)
        if kind == ANTISYMMETRIC:
            dev = np.max(np.abs(tensor + swapped))
        else:
            dev = np.max(np.abs(tensor - swapped))
        if dev > TOL_SYM * scale:
            raise ValidationError(
                f"coefficient tensor is not {kind} (deviation {dev:.3e})"
            )
