"""Ordered-tuple bases for (anti)symmetric sectors, and their maps.

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

with ``n_k`` the multiplicity of mode ``k`` in ``t``.  The one-particle split
``S`` (annihilation into ``C^d (x) sector_{N-1}``) replaces that space on the
analysis paths; composed over 1..N particles, it builds the tensor maps.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ValidationError
from .linalg import TOL_SYM, as_complex_matrix, read_only

ANTISYMMETRIC = "antisymmetric"
SYMMETRIC = "symmetric"

#: the most entries a dense table may hold: a sector's N-tuples, the ``d**N``
#: positions of a coefficient tensor, the split's ``d D_{N-1}`` rows (and the
#: ``N D_N`` modes it reads) and their square, or an occupation register's ``2**d``
MAX_DENSE_ENTRIES = 2 ** 22

try:  # the most axes of an ndarray, so of a coefficient tensor's particles
    from numpy._core.multiarray import MAXDIMS as MAX_AXES  # 64 on numpy 2
except ImportError:
    from numpy.core.multiarray import MAXDIMS as MAX_AXES  # 32 on numpy 1.x


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
    check_dense(max(n, 1) * sector_dim(kind, d, n), f"the {kind} sector of {n} particles in {d} modes")
    if kind == ANTISYMMETRIC:
        return tuple(itertools.combinations(range(d), n))
    return tuple(itertools.combinations_with_replacement(range(d), n))


@lru_cache(maxsize=None)
def tuple_index(kind: str, d: int, n: int) -> MappingProxyType:
    return MappingProxyType({t: i for i, t in enumerate(sector_tuples(kind, d, n))})


@lru_cache(maxsize=None)
def _split_table(kind: str, d: int, n: int):
    """The split ``S = (1 (x) E_{n-1}^dag) E_n`` (``E_n`` embeds the sector in
    the ``d**n`` tensor space) as a gather table.  Row ``i * D_{n-1} + j``,
    mode ``i`` before the ``j``-th (n-1)-tuple ``T'``, has one entry: in the
    column of ``sorted(T' + (i,))``, of weight ``levi_civita(i, T') / sqrt(n)``
    (fermions) or ``sqrt(n_i(T') + 1) / sqrt(n)`` (bosons)."""
    rest_dim = sector_dim(kind, d, n - 1)
    check_dense(max(d * rest_dim, n * sector_dim(kind, d, n)),  # rows; modes of n-tuples
                f"the split of {n} {kind} particles in {d} modes")
    rest = tuple_index(kind, d, n - 1)  # a rank that cannot overflow
    columns, weights = np.zeros(d * rest_dim, dtype=np.intp), np.zeros(d * rest_dim)
    for column, t in enumerate(sector_tuples(kind, d, n)):
        for k, i in enumerate(t):
            if k == 0 or i != t[k - 1]:  # mode i at place k: levi_civita(i, T') = (-1)**k
                row = i * rest_dim + rest[t[:k] + t[k + 1:]]
                size = (-1) ** k if kind == ANTISYMMETRIC else math.sqrt(t.count(i))
                columns[row], weights[row] = column, size / math.sqrt(n)
    return read_only(columns), read_only(weights)


def split_amps(kind: str, d: int, n: int, amps: np.ndarray) -> np.ndarray:
    """``S a`` as a ``(d, D_{n-1})`` matrix: its row ``i`` is the (n-1)-particle
    state left when mode ``i`` is annihilated, over ``sqrt(n)``."""
    columns, weights = _split_table(kind, d, n)
    return (weights * np.asarray(amps, dtype=complex)[columns]).reshape(d, -1)


@lru_cache(maxsize=None)
def split_isometry(kind: str, d: int, n: int) -> np.ndarray:
    """Dense ``S``, the embedding itself when ``n = 2``.  Its callers build
    operators on ``C^d (x) sector_{n-1}``, so their size is checked."""
    rows = d * sector_dim(kind, d, n - 1)
    check_dense(rows ** 2, f"an operator on the split of {n} {kind} particles in {d} modes")
    columns, weights = _split_table(kind, d, n)
    s = np.zeros((rows, sector_dim(kind, d, n)), dtype=complex)
    live = np.flatnonzero(weights)
    s[live, columns[live]] = weights[live]
    return read_only(s)


def lift_unitary(kind: str, u: np.ndarray, n: int) -> np.ndarray:
    """Sector representation of a single-particle unitary ``u`` on N particles,
    by the recursion ``lift(u, m) = S^dag (u (x) lift(u, m-1)) S``."""
    if n < 0:
        raise ValidationError(f"cannot lift to {n} particles")
    u = as_complex_matrix(u)
    lift = u.copy() if n else np.eye(1, dtype=complex)
    for m in range(2, n + 1):
        s = split_isometry(kind, u.shape[0], m)
        lift = s.conj().T @ np.kron(u, lift) @ s
    return lift


@lru_cache(maxsize=None)
def _tables(kind: str, d: int, n: int):
    """The gather and expansion tables, composed from the splits of 1..n particles.

    Position ``(i, p)``, mode ``i`` before the (m-1)-particle position ``p``,
    reads the column of the m-particle split's row ``(i, source(p))``.  The
    rows' signs and multiplicities ``n_i = m w**2`` multiply to its sign and
    ``prod n_k!``, so it holds ``sign sqrt(prod n_k!) / N!`` times that tuple's
    amplitude.  A tuple's gather position is the first position that reads it.
    """
    if n > MAX_AXES:  # also keeps N! within a double
        raise ValidationError(f"a coefficient tensor of {n} particles has more than {MAX_AXES} axes")
    check_dense(d ** n, f"a coefficient tensor of {n} particles in {d} modes")
    dim = sector_dim(kind, d, n)
    # each position's tuple and sign * prod n_k!; an empty sector has no position
    sources, signed = np.zeros(min(dim, 1), dtype=np.intp), np.ones(min(dim, 1))
    for m in range(1, n + 1):
        columns, weights = _split_table(kind, d, m)
        rows = np.add.outer(np.arange(d) * sector_dim(kind, d, m - 1), sources)
        w = weights[rows]
        sources, signed = columns[rows].ravel(), (np.rint(m * w * np.abs(w)) * signed).ravel()
    positions, roots, fact = np.flatnonzero(signed), np.sqrt(np.abs(signed)), math.factorial(n)
    flats = np.full(dim, d ** n, dtype=np.intp)
    np.minimum.at(flats, sources[positions], positions)
    return ((read_only(flats), read_only(fact / roots[flats])),
            (read_only(positions), read_only(sources[positions]),
             read_only(np.sign(signed[positions]) * roots[positions] / fact)))


def _gather_table(kind: str, d: int, n: int):
    """Flat tensor position of each sorted tuple and its factor ``c_t / w_t``."""
    return _tables(kind, d, n)[0]


def tensor_from_amps(kind: str, d: int, n: int, amps: np.ndarray) -> np.ndarray:
    """Expand occupation amplitudes into the full coefficient tensor."""
    positions, sources, coeffs = _tables(kind, d, n)[1]  # of the nonzero entries
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
    scale = max(1.0, float(np.max(np.abs(tensor))) if tensor.size else 1.0)
    sign = 1 if kind == ANTISYMMETRIC else -1  # tensor + sign * swap vanishes
    for axes in itertools.combinations(range(tensor.ndim), 2):
        dev = np.max(np.abs(tensor + sign * np.swapaxes(tensor, *axes)))
        if dev > TOL_SYM * scale:
            raise ValidationError(f"coefficient tensor is not {kind} (deviation {dev:.3e})")
