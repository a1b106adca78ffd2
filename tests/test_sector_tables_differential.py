"""Differential test: the sign and sector tables against the permutation walks.

The builders below are the former implementation of ``sectors`` and of
``linalg._minor_index``: every sorted tuple is expanded over its N!
orderings, and every ordering and every minor gets its sign from a Python
inversion count (``perm_sign``).  They are kept here only as an independent
oracle; the package builds the same tables from ``linalg.levi_civita`` and
the sorted-tuple array.  Every table must agree byte for byte, ``-0.0``
included.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import sectors
from slaterkit.linalg import read_only
from slaterkit.sectors import ANTISYMMETRIC, sector_tuples


def perm_sign(seq) -> int:
    """Sign of the permutation that sorts ``seq`` (entries distinct)."""
    seq = tuple(seq)
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


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
    positions, sources, coeffs = _expansion_table(kind, d, n)
    e = np.zeros((d ** n, sector_dim(kind, d, n)), dtype=complex)
    e[positions, sources] = np.sign(coeffs)
    return read_only(e / np.linalg.norm(e, axis=0))


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


def _same_bytes(new, old):
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


@pytest.mark.parametrize("kind", [sectors.ANTISYMMETRIC, sectors.SYMMETRIC])
@pytest.mark.parametrize("d", range(1, 9))
def test_sector_tables_match_the_permutation_walks(kind, d):
    gen = np.random.default_rng(d)
    for n in range(1, 5):  # fermions with n > d have an empty sector
        dim = sector_dim(kind, d, n)
        assert sectors.sector_dim(kind, d, n) == dim
        for new, old in zip(sectors._gather_table(kind, d, n), _gather_table(kind, d, n)):
            assert _same_bytes(new, old)
        if n <= 2:  # the one-particle split is the embedding itself
            assert _same_bytes(sectors.split_isometry(kind, d, n), embedding_isometry(kind, d, n))
        amps = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        tensor = sectors.tensor_from_amps(kind, d, n, amps)
        assert _same_bytes(tensor, tensor_from_amps(kind, d, n, amps))
        assert _same_bytes(sectors.amps_from_tensor(kind, tensor), amps_from_tensor(kind, tensor))


@pytest.mark.parametrize("d", range(1, 18))
def test_minor_signs_match_the_inversion_counts(d):
    for size in range(d + 1):
        new, old = la._minor_index(d, size), _minor_index(d, size)
        assert new[0] == old[0]
        assert _same_bytes(new[1], old[1]) and _same_bytes(new[2], old[2])


def test_levi_civita_is_the_inversion_sign_and_vanishes_on_a_repeat():
    rows = np.array(list(itertools.product(range(4), repeat=4)))
    expected = [perm_sign(r) if len(set(r)) == 4 else 0 for r in rows.tolist()]
    assert la.levi_civita(rows).tolist() == expected
    assert la.levi_civita(rows.reshape(16, 16, 4)).tolist() == np.reshape(expected, (16, 16)).tolist()
    assert la.levi_civita(np.zeros((3, 0), dtype=int)).tolist() == [1, 1, 1]
