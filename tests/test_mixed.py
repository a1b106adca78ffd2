"""Mixed-state concurrence, class-1 tests, PPT and separability."""

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import mixed as mx
from slaterkit import sectors
from slaterkit import states as st
from slaterkit.errors import (
    NotAStateError,
    UnsupportedSystemError,
    ValidationError,
)

PSI_MINUS = np.array([0, 1, -1, 0]) / np.sqrt(2)


def werner(p):
    m = p * np.outer(PSI_MINUS, PSI_MINUS) + (1 - p) * np.eye(4) / 4
    return mx.density_matrix(mx.bipartite_space(2, 2), m)


def boson_pair(e):
    e = np.asarray(e, dtype=complex)
    e = e / np.linalg.norm(e)
    return st.boson_state(len(e), 2, mx._symmetric_pair_vector(e))


def random_mixture(kind, d, rank, gen):
    pairs = [(w, st.random_pure_state(kind, d, 2, gen))
             for w in gen.dirichlet(np.ones(rank))]
    return mx.density_from_mixture(pairs)


# ---------------------------------------------------------------------------
# density-matrix validation
# ---------------------------------------------------------------------------

def test_density_validation():
    space = mx.bipartite_space(2, 2)
    with pytest.raises(NotAStateError):
        mx.density_matrix(space, np.eye(4))  # trace 4
    with pytest.raises(NotAStateError):
        m = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        mx.density_matrix(space, m)
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1
    with pytest.raises(NotAStateError):
        mx.density_matrix(space, bad)


def test_subnormalized_spectrum_contract():
    gen = np.random.default_rng(0)
    rho = random_mixture("fermion", 4, 3, gen)
    spec = mx.subnormalized_spectrum(rho)
    gram = spec.vectors.conj().T @ spec.vectors
    assert np.allclose(gram, np.diag(spec.weights), atol=1e-12)
    assert abs(spec.weights.sum() - 1.0) < 1e-10
    recon = spec.vectors @ spec.vectors.conj().T
    assert np.max(np.abs(recon - rho.matrix)) < 1e-9


# ---------------------------------------------------------------------------
# closed-form concurrence
# ---------------------------------------------------------------------------

def test_wootters_pure_reductions():
    bell = st.bipartite_state(np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    assert abs(mx.wootters_concurrence(mx.density_from_pure(bell)) - 1.0) < 1e-10
    det = st.fermion_state(4, 2, {(0, 1): 1.0})
    assert mx.wootters_concurrence(mx.density_from_pure(det)) < 1e-10
    for kind, d in (("bipartite", (2, 2)), ("fermion", 4), ("boson", 2)):
        gen = np.random.default_rng(1)
        psi = st.random_pure_state(kind, d, 2, gen)
        closed = mx.wootters_concurrence(mx.density_from_pure(psi))
        assert abs(closed - st.concurrence_pure(psi)) < 1e-9


def test_wootters_lambdas_real_nonnegative():
    gen = np.random.default_rng(2)
    for kind, d in (("bipartite", (2, 2)), ("fermion", 4), ("boson", 2)):
        for _ in range(10):
            rho = random_mixture(kind, d, 4, gen)
            lam = mx.concurrence_lambdas(rho)
            assert np.all(lam >= 0) and np.all(np.diff(lam) <= 0)


def test_wootters_local_unitary_invariance():
    gen = np.random.default_rng(3)
    rho = random_mixture("fermion", 4, 3, gen)
    base = mx.wootters_concurrence(rho)
    for _ in range(5):
        u = sectors.lift_unitary(sectors.ANTISYMMETRIC, la.haar_unitary(4, gen), 2)
        rotated = mx.density_matrix(rho.space, u @ rho.matrix @ u.conj().T)
        assert abs(mx.wootters_concurrence(rotated) - base) < 1e-9


def test_wootters_unsupported_space():
    gen = np.random.default_rng(4)
    rho = random_mixture("fermion", 6, 2, gen)
    with pytest.raises(UnsupportedSystemError):
        mx.wootters_concurrence(rho)


def test_wootters_orthogonal_mixture_matches_oracle():
    mc = st.maximally_correlated_state("fermion", 2)
    det = st.fermion_state(4, 2, {(0, 2): 1.0})
    for p in (0.2, 0.5, 0.8):
        rho = mx.density_from_mixture([(p, mc), (1 - p, det)])
        closed = mx.wootters_concurrence(rho)
        oracle = mx.convex_roof_oracle(rho, n_starts=6, n_iters=200, seed=1)
        assert abs(closed - oracle) < 2e-3


# ---------------------------------------------------------------------------
# Slater-number-one spectral test
# ---------------------------------------------------------------------------

def test_slater1_projector_cases():
    det = mx.density_from_pure(st.fermion_state(4, 2, {(0, 1): 1.0}))
    result = mx.slater_number_one_test(det)
    assert result.is_class_1 and np.allclose(result.c_values, [0.0], atol=1e-12)

    mc = mx.density_from_pure(st.maximally_correlated_state("fermion", 2))
    result2 = mx.slater_number_one_test(mc)
    assert not result2.is_class_1
    assert abs(result2.c_values[0] - 1.0) < 1e-10


def test_slater1_magic_mixture_agrees_with_wootters():
    mix = mx.density_from_mixture([(1 / 6, st.magic_state("fermions", i)) for i in range(6)])
    result = mx.slater_number_one_test(mix)
    assert result.is_class_1
    assert mx.wootters_concurrence(mix) < 1e-10


def test_slater1_cross_check_with_wootters():
    gen = np.random.default_rng(5)
    for kind, d in (("fermion", 4), ("boson", 2)):
        for _ in range(100):
            rho = random_mixture(kind, d, int(gen.integers(1, 5)), gen)
            closed = mx.wootters_concurrence(rho)
            verdict = mx.slater_number_one_test(rho)
            assert verdict.is_class_1 == (closed < 1e-9)


def test_slater1_invariance():
    gen = np.random.default_rng(6)
    rho = random_mixture("boson", 2, 3, gen)
    base = mx.slater_number_one_test(rho)
    u = sectors.lift_unitary(sectors.SYMMETRIC, la.haar_unitary(2, gen), 2)
    rotated = mx.density_matrix(rho.space, u @ rho.matrix @ u.conj().T)
    result = mx.slater_number_one_test(rotated)
    assert result.is_class_1 == base.is_class_1
    assert np.allclose(np.sort(result.c_values), np.sort(base.c_values), atol=1e-9)


def test_slater1_rejects_qubits():
    with pytest.raises(UnsupportedSystemError):
        mx.slater_number_one_test(werner(0.5))


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

def test_ppt_werner_examples():
    assert mx.is_ppt(werner(0.25))
    assert not mx.is_ppt(werner(1.0))
    min_eig = np.linalg.eigvalsh(mx.partial_transpose(werner(1.0)))[0]
    assert abs(min_eig + 0.5) < 1e-12


def test_ppt_bosonic_product_state():
    rho = mx.density_from_pure(boson_pair(la.haar_vector(2, np.random.default_rng(7))))
    assert mx.is_ppt(rho)


def test_partial_transpose_involution_and_structure():
    gen = np.random.default_rng(8)
    rho = random_mixture("bipartite", (2, 2), 3, gen)
    pt = mx.partial_transpose(rho, "A")
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
    assert abs(np.trace(pt).real - 1.0) < 1e-12
    again = mx.partial_transpose_matrix(pt, (2, 2), "A")
    assert np.max(np.abs(again - rho.matrix)) < 1e-14
    # B-cut is the transpose of the A-cut
    ptb = mx.partial_transpose(rho, "B")
    assert np.max(np.abs(ptb - pt.T)) < 1e-14


def test_partial_transpose_sector_embedding_is_isometric():
    gen = np.random.default_rng(9)
    rho = random_mixture("fermion", 4, 2, gen)
    full = mx.embed_full(rho)
    assert abs(np.trace(full).real - 1.0) < 1e-12
    evals = np.linalg.eigvalsh(full)
    assert evals[0] > -1e-12


# ---------------------------------------------------------------------------
# product vectors and bosonic separability
# ---------------------------------------------------------------------------

def product_mixture(vectors, weights):
    return mx.density_from_mixture([(w, boson_pair(e)) for w, e in zip(weights, vectors)])


def test_product_vectors_recovery():
    gen = np.random.default_rng(10)
    vectors = [la.haar_vector(3, gen) for _ in range(4)]
    rho = product_mixture(vectors, gen.dirichlet(np.ones(4)))
    found = mx.product_vectors_in_range(rho)
    assert len(found.vectors) == 4
    for e in vectors:
        best = max(abs(np.vdot(e, f)) for f in found.vectors)
        assert best > 1 - 1e-6


def test_product_vectors_projective_root():
    gen = np.random.default_rng(11)
    special = np.array([0.0, 1.0, 0.4 + 0.3j])
    vectors = [special] + [la.haar_vector(3, gen) for _ in range(3)]
    rho = product_mixture(vectors, np.ones(4) / 4)
    found = mx.product_vectors_in_range(rho)
    assert len(found.vectors) == 3
    assert any("infinity" in d for d in found.diagnostics)


def test_product_vectors_rank_precondition():
    gen = np.random.default_rng(12)
    rho = product_mixture([la.haar_vector(3, gen) for _ in range(3)], np.ones(3) / 3)
    with pytest.raises(ValidationError):
        mx.product_vectors_in_range(rho)


def test_bosonic_separability_rank3():
    gen = np.random.default_rng(13)
    rho = product_mixture([la.haar_vector(3, gen) for _ in range(3)],
                          gen.dirichlet(np.ones(3)))
    assert mx.bosonic_ppt_separability(rho).verdict == "separable"


def test_bosonic_separability_rank4_decomposition():
    gen = np.random.default_rng(14)
    vectors = [la.haar_vector(3, gen) for _ in range(4)]
    weights = gen.dirichlet(np.ones(4))
    rho = product_mixture(vectors, weights)
    result = mx.bosonic_ppt_separability(rho)
    assert result.verdict == "separable"
    recon = sum(w * np.outer(mx._symmetric_pair_vector(e), mx._symmetric_pair_vector(e).conj())
                for w, e in result.decomposition)
    assert np.max(np.abs(recon - rho.matrix)) < 1e-8


def test_bosonic_separability_entangled_state():
    mc = st.maximally_correlated_state("boson", 3)
    assert mx.bosonic_ppt_separability(mx.density_from_pure(mc)).verdict == "not_ppt"


def qubit_product_state(e, n):
    import math
    amps = np.zeros(n + 1, dtype=complex)
    for i, t in enumerate(sectors.sector_tuples(sectors.SYMMETRIC, 2, n)):
        ones = sum(t)
        amps[i] = np.sqrt(math.comb(n, ones)) * e[0] ** (n - ones) * e[1] ** ones
    return st.boson_state(2, n, amps)


def test_bosonic_separability_multiqubit():
    gen = np.random.default_rng(15)
    for n in (3, 4):
        bound = 4 if n == 3 else n
        pairs = [(w, qubit_product_state(la.haar_vector(2, gen), n))
                 for w in gen.dirichlet(np.ones(bound))]
        rho = mx.density_from_mixture(pairs)
        assert mx.bosonic_ppt_separability(rho).verdict == "separable"


# ---------------------------------------------------------------------------
# convex-roof oracle
# ---------------------------------------------------------------------------

def test_oracle_pure_state_exact():
    gen = np.random.default_rng(16)
    psi = st.random_pure_state("boson", 2, 2, gen)
    rho = mx.density_from_pure(psi)
    oracle = mx.convex_roof_oracle(rho, n_starts=2, n_iters=50, seed=0)
    assert abs(oracle - st.concurrence_pure(psi)) < 1e-9


@pytest.mark.parametrize("n_starts,n_iters", ((0, 10), (-1, 10), (2, -1)))
def test_oracle_rejects_bad_budgets(n_starts, n_iters):
    rho = random_mixture("fermion", 4, 2, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        mx.convex_roof_oracle(rho, n_starts=n_starts, n_iters=n_iters)


def test_oracle_werner_family():
    for p in (0.2, 0.5, 0.8):
        rho = werner(p)
        oracle = mx.convex_roof_oracle(rho, n_starts=6, n_iters=200, seed=2)
        closed = mx.wootters_concurrence(rho)
        assert closed <= oracle + 2e-3
        assert oracle <= closed + 2e-3


def test_oracle_boson_mixtures():
    gen = np.random.default_rng(17)
    for _ in range(3):
        rho = random_mixture("boson", 2, 3, gen)
        oracle = mx.convex_roof_oracle(rho, n_starts=8, n_iters=250, seed=3)
        closed = mx.wootters_concurrence(rho)
        assert abs(oracle - closed) < 2e-3
