"""Magic-basis changes, dualisation invariance and the KAK factorization."""

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import magic as mg
from slaterkit import mixed as mx
from slaterkit import sectors
from slaterkit import states as st
from slaterkit.errors import UnsupportedSystemError, ValidationError

SYSTEM_SETUP = {
    "qubits": ("bipartite", (2, 2)),
    "fermions": ("fermion", 4),
    "bosons": ("boson", 2),
}

rng = np.random.default_rng(0)


def special_unitary(dim, gen):
    q = la.haar_unitary(dim, gen)
    return q / np.linalg.det(q) ** (1 / dim)


def lifted_local(system, gen):
    if system == "qubits":
        return np.kron(special_unitary(2, gen), special_unitary(2, gen))
    if system == "fermions":
        return sectors.lift_unitary(sectors.ANTISYMMETRIC, special_unitary(4, gen), 2)
    return sectors.lift_unitary(sectors.SYMMETRIC, special_unitary(2, gen), 2)


def test_to_magic_basis_identity_and_involution():
    for system, dim in st.SYSTEM_DIMS.items():
        assert np.allclose(mg.to_magic_basis(np.eye(dim), system), np.eye(dim))
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert np.allclose(mg.from_magic_basis(mg.to_magic_basis(x, system), system), x)


def test_dualisation_becomes_conjugation_in_magic_basis():
    for system, dim in st.SYSTEM_DIMS.items():
        b = st.magic_basis(system)
        ud = st.dual_unitary(system)
        # D = U_D K acts on magic coordinates as plain conjugation
        assert np.allclose(b.conj().T @ ud @ b.conj(), np.eye(dim))


def test_spin_flip_real_in_magic_basis():
    isy = np.array([[0, 1], [-1, 0]], dtype=complex)
    r = mg.to_magic_basis(np.kron(isy, isy), "qubits")
    assert np.max(np.abs(r.imag)) < 1e-12


def test_dualisation_invariance_of_local_transformations():
    gen = np.random.default_rng(1)
    for system in st.SYSTEM_DIMS:
        for _ in range(5):
            assert mg.is_dualisation_invariant(lifted_local(system, gen), system)


def test_dualisation_invariance_counterexamples():
    for system, dim in st.SYSTEM_DIMS.items():
        phase = np.eye(dim, dtype=complex)
        phase[0, 0] = np.exp(0.3j)
        assert not mg.is_dualisation_invariant(mg.from_magic_basis(phase, system), system)
        assert mg.is_dualisation_invariant(np.eye(dim), system)


def test_kak_local_input_gives_trivial_core():
    gen = np.random.default_rng(2)
    for system in st.SYSTEM_DIMS:
        u = lifted_local(system, gen)
        factors = mg.kak_decompose(u, system)
        phases = np.exp(1j * factors.phases)
        assert np.max(np.abs(phases - phases[0])) < 1e-8
        assert factors.residual <= 1e-8


def test_kak_diagonal_input():
    gen = np.random.default_rng(3)
    phases = gen.uniform(-np.pi / 2, np.pi / 2, 6)
    u = mg.from_magic_basis(np.diag(np.exp(1j * phases)), "fermions")
    factors = mg.kak_decompose(u, "fermions")
    assert factors.residual <= 1e-10
    assert mg.is_dualisation_invariant(factors.v1, "fermions")
    assert mg.is_dualisation_invariant(factors.v2, "fermions")


def test_kak_random_unitaries():
    gen = np.random.default_rng(4)
    for system, dim in st.SYSTEM_DIMS.items():
        for _ in range(20):
            u = la.haar_unitary(dim, gen)
            factors = mg.kak_decompose(u, system)
            assert factors.residual <= 1e-8
            assert np.max(np.abs(factors.v1 @ factors.ud @ factors.v2 - u)) <= 1e-8
            for v in (factors.v1, factors.v2):
                r = mg.to_magic_basis(v, system)
                assert np.max(np.abs(r.imag)) <= 1e-8
                assert np.max(np.abs(r @ r.T - np.eye(dim))) <= 1e-8
                assert abs(np.linalg.det(r).real - 1.0) <= 1e-8
            udm = mg.to_magic_basis(factors.ud, system)
            assert np.max(np.abs(udm - np.diag(np.diagonal(udm)))) <= 1e-9


def test_kak_factors_preserve_concurrence():
    gen = np.random.default_rng(5)
    for system, (kind, d) in SYSTEM_SETUP.items():
        for _ in range(10):
            u = la.haar_unitary(st.SYSTEM_DIMS[system], gen)
            factors = mg.kak_decompose(u, system)
            psi = st.random_pure_state(kind, d, 2, gen)
            base = st.concurrence_pure(psi)
            for v in (factors.v1, factors.v2):
                moved = mx.state_from_sector_vector(mx.space_of_state(psi), v @ psi.flat())
                assert abs(st.concurrence_pure(moved) - base) <= 1e-9


def test_dimension_bookkeeping():
    assert [mg.dimension_bookkeeping(s) for s in ("qubits", "fermions", "bosons")] == [
        (6, 3, 15), (15, 5, 35), (3, 2, 8)]
    for system in st.SYSTEM_DIMS:
        local, torus, full = mg.dimension_bookkeeping(system)
        assert 2 * local + torus >= full
    with pytest.raises(UnsupportedSystemError):
        mg.dimension_bookkeeping("anyons")


def test_kak_input_validation():
    with pytest.raises(UnsupportedSystemError):
        mg.kak_decompose(np.eye(4), "anyons")
    with pytest.raises(ValidationError):
        mg.kak_decompose(np.eye(5), "qubits")
    with pytest.raises(ValidationError):
        mg.kak_decompose(np.diag([2.0, 1, 1, 1]), "qubits")  # not unitary
    with pytest.raises(ValidationError):
        mg.kak_decompose(np.diag([np.nan, 1, 1, 1]), "qubits")
