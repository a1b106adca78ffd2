"""The identities behind two closed forms, held on seeded sets.

``mixed.concurrence_lambdas`` takes Wootters' ``l_i`` from one SVD of the
bilinear overlap, and ``states.entanglement_entropy`` takes the entropy from
the one partial trace ``rho_A``.  The computations they stand for are kept
here as the reference: the general spectrum of ``rho @ dualised_density(rho)``
is real, non-negative and the square of the ``l_i`` (``rho`` and its dual are
positive), and both partial traces of a pure state share their nonzero
spectrum (Schmidt), so either gives the entropy.  The tolerances are those
the two functions once checked at run time, on every call.
"""

import numpy as np
import pytest

from slaterkit import mixed as mx
from slaterkit import modes as mo
from slaterkit import states as st

#: the canonical systems as (kind, d, dimension of their state space)
CANONICAL = [(st.BIPARTITE, 2, 4), (st.FERMION, 4, 6), (st.BOSON, 2, 3)]
MIXTURES_PER_RANK = 40


def _canonical_mixture(kind, d, rank, gen):
    """``rank`` random pure states with weights from 1e-8 to 1 (both ends when rank > 1)."""
    exponents = gen.uniform(-8, 0, rank)
    exponents[:2] = (0, -8)[:rank]
    pairs = [(10.0 ** e, st.random_pure_state(kind, d, 2, gen)) for e in exponents]
    return mx.density_from_mixture(pairs)


@pytest.mark.parametrize("kind, d, dim", CANONICAL)
def test_product_spectrum_is_real_non_negative_and_the_squared_lambdas(kind, d, dim):
    gen = np.random.default_rng(dim)
    for rank in range(1, dim + 1):
        for _ in range(MIXTURES_PER_RANK):
            rho = _canonical_mixture(kind, d, rank, gen)
            raw = np.linalg.eigvals(rho.matrix @ mx.dualised_density(rho))
            assert np.max(np.abs(raw.imag)) <= 1e-9
            assert np.min(raw.real) >= -1e-9
            squares = mx.concurrence_lambdas(rho) ** 2
            # the SVD cuts the subnormalized spectrum at RANK_RTOL = 1e-8
            assert np.max(np.abs(np.sort(raw.real)[::-1] - squares)) <= 1e-7


def _entropy(p):
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def _assert_partial_traces_agree(psi, entropy):
    pa = np.sort(np.linalg.eigvalsh(psi @ psi.conj().T))[::-1]
    pb = np.sort(np.linalg.eigvalsh(psi.T @ psi.conj()))[::-1]
    k = min(len(pa), len(pb))
    assert np.max(np.abs(pa[:k] - pb[:k])) <= 1e-10
    assert np.all(np.abs(pa[k:]) <= 1e-10) and np.all(np.abs(pb[k:]) <= 1e-10)
    assert abs(_entropy(pa) - _entropy(pb)) <= 1e-10
    assert abs(entropy - _entropy(pb)) <= 1e-10


@pytest.mark.parametrize("d_a", range(1, 9))
def test_bipartite_partial_traces_agree_at_every_schmidt_rank(d_a):
    gen = np.random.default_rng(d_a)
    for d_b in range(1, 9):
        for rank in range(1, min(d_a, d_b) + 1):
            # Schmidt weights spread over four decades
            left = np.linalg.qr(gen.standard_normal((d_a, rank))
                                + 1j * gen.standard_normal((d_a, rank)))[0]
            right = np.linalg.qr(gen.standard_normal((d_b, rank))
                                 + 1j * gen.standard_normal((d_b, rank)))[0]
            weights = 10.0 ** gen.uniform(-4, 0, rank)
            psi = (left * weights) @ right.T
            psi /= np.linalg.norm(psi)
            state = st.bipartite_state(psi)
            assert np.linalg.matrix_rank(psi, tol=1e-6) == rank
            _assert_partial_traces_agree(state.matrix(), st.entanglement_entropy(state))


@pytest.mark.parametrize("d", range(2, 9))
def test_mode_cut_partial_traces_agree(d):
    gen = np.random.default_rng(100 + d)
    for n in range(1, d):
        occ = mo.fock_to_qubits(st.random_pure_state(st.FERMION, d, n, gen))
        for _ in range(3):
            left = sorted(gen.choice(d, size=gen.integers(1, d), replace=False).tolist())
            right = [k for k in range(d) if k not in left]
            psi = np.transpose(occ.amplitudes.reshape((2,) * d), left + right)
            psi = psi.reshape(2 ** len(left), 2 ** len(right))
            _assert_partial_traces_agree(psi, mo.mode_bipartition_entropy(occ, left))
