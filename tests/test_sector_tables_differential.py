"""Differential test: the sign and sector tables against the permutation walks.

The builders below are the former implementations of ``sectors`` and of
``linalg._minor_index``: every sorted tuple is expanded over its N!
orderings, and every ordering and every minor gets its sign from a Python
inversion count (``perm_sign``).  ``positional_tables`` is the one pass over
the ``d^N`` tensor positions that followed them, the second oracle where the
walk is too slow.  They are kept here only as independent oracles; the
package composes the tensor tables from the one-particle splits of 1..N
particles, and signs the minors with ``linalg.levi_civita``.  Every table
must agree byte for byte, ``-0.0`` included.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import sectors
from slaterkit.linalg import levi_civita, read_only
from slaterkit.sectors import ANTISYMMETRIC, check_dense, sector_tuples


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


def _walk_tables(kind: str, d: int, n: int):
    """The walk's gather table, and its expansion table in position order."""
    positions, sources, coeffs = _expansion_table(kind, d, n)
    order = np.argsort(positions)
    return _gather_table(kind, d, n), (positions[order], sources[order], coeffs[order])


def positional_tables(kind: str, d: int, n: int):
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


def _same_tables(new, old):
    return all(_same_bytes(a, b) for a, b in zip((*new[0], *new[1]), (*old[0], *old[1]), strict=True))


def _same_maps(kind, d, n, gen):
    """``tensor_from_amps`` and ``amps_from_tensor`` agree with the walk's, byte for
    byte (a 0-d tensor does not name its ``d``, so N = 0 expands only)."""
    dim = sector_dim(kind, d, n)
    amps = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    tensor = sectors.tensor_from_amps(kind, d, n, amps)
    return _same_bytes(tensor, tensor_from_amps(kind, d, n, amps)) and (n == 0 or _same_bytes(
        sectors.amps_from_tensor(kind, tensor), amps_from_tensor(kind, tensor)))


@pytest.mark.parametrize("kind", [sectors.ANTISYMMETRIC, sectors.SYMMETRIC])
@pytest.mark.parametrize("d", range(1, 9))
def test_sector_tables_match_the_permutation_walks(kind, d):
    gen = np.random.default_rng(d)
    for n in range(5):  # fermions with n > d have an empty sector
        assert sectors.sector_dim(kind, d, n) == sector_dim(kind, d, n)
        assert _same_tables(sectors._tables(kind, d, n), _walk_tables(kind, d, n))
        if 1 <= n <= 2:  # the one-particle split is the embedding itself
            assert _same_bytes(sectors.split_isometry(kind, d, n), embedding_isometry(kind, d, n))
        assert _same_maps(kind, d, n, gen)


@pytest.mark.parametrize("kind, d, n", [
    *((sectors.SYMMETRIC, 2, n) for n in range(5, 9)), (sectors.SYMMETRIC, 3, 5),
    (sectors.SYMMETRIC, 3, 6), (sectors.SYMMETRIC, 4, 6), (sectors.SYMMETRIC, 5, 5),
    (ANTISYMMETRIC, 9, 5), (ANTISYMMETRIC, 10, 4), (ANTISYMMETRIC, 12, 3)])
def test_larger_tensor_tables_match_the_permutation_walks(kind, d, n):
    assert _same_tables(sectors._tables(kind, d, n), _walk_tables(kind, d, n))
    assert _same_maps(kind, d, n, np.random.default_rng(d * 10 + n))


@pytest.mark.parametrize("kind, d, n", [
    (sectors.SYMMETRIC, 2, 18), (sectors.SYMMETRIC, 3, 11), (ANTISYMMETRIC, 16, 4)])
def test_tensor_tables_match_the_position_pass(kind, d, n):
    # tensor_from_amps and amps_from_tensor only apply these tables
    assert _same_tables(sectors._tables(kind, d, n), positional_tables(kind, d, n))


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
