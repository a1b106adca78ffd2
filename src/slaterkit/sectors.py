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
from .linalg import TOL_SYM, levi_civita, read_only

ANTISYMMETRIC = "antisymmetric"
SYMMETRIC = "symmetric"

#: the most entries a dense table may hold: a sector's tuples, the ``d**N``
#: positions of a coefficient tensor, or the ``2**d`` amplitudes of an
#: occupation register
MAX_DENSE_ENTRIES = 2 ** 22


def check_dense(count: int, what: str) -> None:
    """Refuse, before allocating, a dense table of more than ``MAX_DENSE_ENTRIES``."""
    if count > MAX_DENSE_ENTRIES:
        raise ValidationError(f"{what} would hold {count} entries, more than {MAX_DENSE_ENTRIES}")


def sector_dim(kind: str, d: int, n: int) -> int:
    if kind == ANTISYMMETRIC:
        return math.comb(d, n)
    if kind == SYMMETRIC:
        return math.comb(d + n - 1, n) if d else int(n == 0)
    raise ValidationError(f"unknown sector kind {kind!r}")


@lru_cache(maxsize=None)
def sector_tuples(kind: str, d: int, n: int) -> tuple[tuple[int, ...], ...]:
    check_dense(sector_dim(kind, d, n), f"the {kind} sector of {n} particles in {d} modes")
    if kind == ANTISYMMETRIC:
        return tuple(itertools.combinations(range(d), n))
    return tuple(itertools.combinations_with_replacement(range(d), n))


@lru_cache(maxsize=None)
def tuple_index(kind: str, d: int, n: int) -> MappingProxyType:
    return MappingProxyType({t: i for i, t in enumerate(sector_tuples(kind, d, n))})


@lru_cache(maxsize=None)
def embedding_isometry(kind: str, d: int, n: int) -> np.ndarray:
    """Isometry from sector coordinates into the full ``d**n`` tensor space.

    Columns are the normalized (anti)symmetrized product states of each
    ordered tuple, so ``E.conj().T @ E == 1`` and ``E @ E.conj().T`` is
    the sector projector.
    """
    check_dense(d ** n * sector_dim(kind, d, n), f"the {kind} embedding of {n} particles in {d} modes")
    positions, sources, coeffs = _expansion_table(kind, d, n)
    e = np.zeros((d ** n, sector_dim(kind, d, n)), dtype=complex)
    e[positions, sources] = np.sign(coeffs)
    return read_only(e / np.linalg.norm(e, axis=0))


def lift_unitary(kind: str, u: np.ndarray, n: int) -> np.ndarray:
    """Sector representation of a single-particle unitary ``u`` on N particles."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    check_dense(d ** (2 * n), f"the full-space operator of {n} {kind} particles in {d} modes")
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
    check_dense(d ** (2 * n), f"the full-space operator of {n} {kind} particles in {d} modes")
    e = embedding_isometry(kind, d, n)
    full = e @ np.asarray(matrix, dtype=complex) @ e.conj().T
    if complement:
        full += complement * (np.eye(d ** n, dtype=complex) - e @ e.conj().T)
    return full


@lru_cache(maxsize=None)
def _tables(kind: str, d: int, n: int):
    """The gather and expansion tables, from one pass over the ``d**n`` tensor positions.

    Each position holds the amplitude of the tuple its modes sort to, times
    ``levi_civita(modes) / N!`` (fermions, 0 where a mode repeats) or
    ``sqrt(prod n_k!) / N!`` (bosons).  The positions whose modes are already
    sorted are the sector's tuples, in ``sector_tuples`` order.
    """
    check_dense(d ** n, f"a coefficient tensor of {n} particles in {d} modes")
    # signed, so mode differences fit, and narrow: the table has d**n rows
    modes = np.indices((d,) * n, dtype=np.min_scalar_type(-d)).reshape(n, d ** n).T
    signs = levi_civita(modes) if kind == ANTISYMMETRIC else 1
    modes.sort(axis=1)
    target, place, product = np.zeros(d ** n, dtype=np.intp), np.ones(d ** n), np.ones(d ** n)
    previous = -1
    for column in modes.T:
        target = target * d + column
        # prod n_k! is the product of each mode's place in its run of equal modes
        place = place * (column == previous) + 1
        product *= place
        previous = column
    roots, fact = np.sqrt(product), math.factorial(n)
    weights = signs * roots / fact
    flats = np.flatnonzero((target == np.arange(d ** n)) & (weights != 0))
    positions = np.flatnonzero(weights)
    return ((read_only(flats), read_only(fact / roots[flats])),
            (read_only(positions), read_only(np.searchsorted(flats, target[positions])),
             read_only(weights[positions])))


def _gather_table(kind: str, d: int, n: int):
    """Flat tensor position of each sorted tuple and its factor ``c_t / w_t``."""
    return _tables(kind, d, n)[0]


def _expansion_table(kind: str, d: int, n: int):
    """Flat positions, source tuple indices and weights of the nonzero tensor entries."""
    return _tables(kind, d, n)[1]


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
