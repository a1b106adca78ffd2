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

def test_positive_matrices_are_cut_at_rank_rtol():
    # one split serves the rank, the spectrum and the witness searches: a value
    # 10x above RANK_RTOL (relative to the largest) stays, one 2x below goes
    gen = np.random.default_rng(1)
    u = la.haar_unitary(4, gen)
    rho = mx.density_matrix(mx.bipartite_space(2, 2),
                            (u * [1.0, 10 * la.RANK_RTOL, 0.5 * la.RANK_RTOL, 0.0]) @ u.conj().T
                            / (1.0 + 10.5 * la.RANK_RTOL))
    values, basis, kernel = la._range_split(rho.matrix)
    assert basis.shape == (4, 2) and kernel.shape == (4, 2)
    assert np.allclose(values * (1.0 + 10.5 * la.RANK_RTOL), [10 * la.RANK_RTOL, 1.0])
    assert rho.rank() == mx.subnormalized_spectrum(rho).rank == 2


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
        oracle = mx.convex_roof_oracle(rho)
        assert abs(closed - oracle) <= 1e-12


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


@pytest.mark.parametrize("kind, d", (("fermion", 4), ("boson", 2)))
def test_slater1_reads_the_concurrence_spectrum(kind, d):
    # the Takagi values of the overlap matrix are its singular values, the
    # nonzero part of the closed-form concurrence spectrum
    gen = np.random.default_rng(31)
    dim = sectors.sector_dim(sectors.ANTISYMMETRIC if kind == "fermion" else sectors.SYMMETRIC, d, 2)
    verdicts = set()
    for rank in range(1, dim + 1):
        for _ in range(4):
            # generic mixtures and mixtures of uncorrelated states
            members = ([st.random_pure_state(kind, d, 2, gen) for _ in range(rank)],
                       [st.random_slater_rank_state(kind, d, 1, gen) for _ in range(rank)])
            for group in members:
                rho = mx.density_from_mixture(zip(gen.dirichlet(np.ones(rank)), group))
                result = mx.slater_number_one_test(rho)
                assert result.is_class_1 == (mx.wootters_concurrence(rho) <= 1e-10)
                assert np.array_equal(result.c_values, mx.concurrence_lambdas(rho)[:rho.rank()])
                verdicts.add(result.is_class_1)
    assert verdicts == {True, False}


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


@pytest.mark.parametrize("space", (
    mx.bipartite_space(2, 2), mx.bipartite_space(2, 3), mx.antisymmetric_space(4),
    mx.symmetric_space(2), mx.symmetric_space(3), mx.symmetric_space(2, 3)),
    ids=("2x2", "2x3", "fermions-d4", "bosons-d2", "bosons-d3", "three-bosons-d2"))
def test_partial_transpose_spectrum_is_the_same_at_either_cut(space):
    # why is_ppt takes no cut: PT_B(rho) is the transpose of PT_A(rho)
    gen = np.random.default_rng(32)
    for rank in (1, 2, space.dim):
        g = gen.standard_normal((space.dim, rank)) + 1j * gen.standard_normal((space.dim, rank))
        m = g @ g.conj().T
        rho = mx.density_matrix(space, m / np.trace(m).real)
        spectra = [np.linalg.eigvalsh(mx.partial_transpose(rho, cut)) for cut in ("A", "B")]
        assert np.max(np.abs(spectra[0] - spectra[1])) <= 1e-12


@pytest.mark.parametrize("kind, d, n", (("fermion", 4, 2), ("fermion", 5, 3), ("boson", 2, 4)))
def test_partial_transpose_sector_split_is_isometric(kind, d, n):
    gen = np.random.default_rng(9)
    rho = mx.density_from_mixture(
        [(w, st.random_pure_state(kind, d, n, gen)) for w in gen.dirichlet(np.ones(2))])
    s = sectors.split_isometry(rho.space.kind, d, n)
    full = s @ rho.matrix @ s.conj().T
    assert abs(np.trace(full).real - 1.0) < 1e-12
    evals = np.linalg.eigvalsh(full)
    assert evals[0] > -1e-12


# ---------------------------------------------------------------------------
# product vectors and bosonic separability
# ---------------------------------------------------------------------------

def product_mixture(vectors, weights):
    return mx.density_from_mixture([(w, boson_pair(e)) for w, e in zip(weights, vectors)])


@pytest.mark.parametrize("n_at_infinity", (1, 2))
@pytest.mark.parametrize("seed", (20, 21, 22))
def test_bosonic_separability_vectors_with_vanishing_first_mode(n_at_infinity, seed):
    gen = np.random.default_rng(seed)
    vectors = [la.haar_vector(3, gen) for _ in range(4)]
    for e in vectors[:n_at_infinity]:
        e[0] = 0.0
        e /= np.linalg.norm(e)
    rho = product_mixture(vectors, gen.dirichlet(np.ones(4)))
    result = mx.bosonic_ppt_separability(rho)
    assert result.verdict == "separable"
    recon = sum(w * np.outer(mx._symmetric_pair_vector(e), mx._symmetric_pair_vector(e).conj())
                for w, e in result.decomposition)
    assert np.max(np.abs(recon - rho.matrix)) < 1e-8
    for e in vectors:
        assert max(abs(np.vdot(e, f)) for _, f in result.decomposition) > 1 - 1e-10


def test_bosonic_separability_three_vectors_on_a_line():
    # |e, e> for three vectors on one line span every |e, e> on that line,
    # so the range holds a whole curve of product vectors; the greedy
    # subtraction stalls and reports why instead of raising
    gen = np.random.default_rng(7)
    u, v, w = (la.haar_vector(3, gen) for _ in range(3))
    rho = product_mixture([u, v, u + 0.7j * v, w], np.ones(4) / 4)
    assert rho.rank() == 4
    result = mx.bosonic_ppt_separability(rho)
    assert result.verdict == "inconclusive" and result.decomposition is None
    assert result.diagnostics[0].startswith("edge weight")
    assert any(line.startswith("range search:") for line in result.diagnostics)


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


def test_bosonic_separability_without_a_theorem(monkeypatch):
    # three bosons in three modes: PPT is inconclusive, after one transpose
    transpose, calls = mx.partial_transpose, []
    monkeypatch.setattr(mx, "partial_transpose", lambda *args: calls.append(args) or transpose(*args))
    space = mx.symmetric_space(3, 3)
    result = mx.bosonic_ppt_separability(mx.density_matrix(space, np.eye(10) / 10))
    assert result.verdict == "inconclusive" and result.decomposition is None and len(calls) == 1
    assert result.diagnostics == [f"no separability theorem for {space}"]
    ghz = st.boson_state(3, 3, {(0, 0, 0): 0.6, (2, 2, 2): 0.8})
    assert mx.bosonic_ppt_separability(mx.density_from_pure(ghz)).verdict == "not_ppt"
    # a space that is not symmetric is refused before any transpose
    with pytest.raises(UnsupportedSystemError):
        mx.bosonic_ppt_separability(random_mixture("fermion", 4, 2, np.random.default_rng(2)))
    assert len(calls) == 2


def test_bosonic_separability_two_modes_by_theorem():
    gen = np.random.default_rng(18)
    rho = product_mixture([la.haar_vector(2, gen) for _ in range(3)], gen.dirichlet(np.ones(3)))
    assert rho.rank() == 3
    result = mx.bosonic_ppt_separability(rho)
    assert result.verdict == "separable" and result.decomposition is None
    assert "PLA 223, 1 (1996)" in result.diagnostics[0]


def _assert_certified(result, rho):
    """A ``separable`` verdict carries a decomposition rebuilding ``rho``
    within 1e-8 or names the theorem that decides it."""
    if result.verdict != "separable":
        return
    if result.decomposition is None:
        assert "(Horodecki" in result.diagnostics[0]
        return
    pair = mx._symmetric_pair_vector
    recon = sum(w * np.outer(pair(e), pair(e).conj()) for w, e in result.decomposition)
    assert np.max(np.abs(recon - rho.matrix)) <= 1e-8


@pytest.mark.parametrize("d,rank", ((4, 5), (4, 6), (5, 6)))
@pytest.mark.parametrize("seed", range(8))
def test_bosonic_separability_above_the_rank_theorem(d, rank, seed):
    gen = np.random.default_rng(100 * d + 10 * rank + seed)
    vectors = [la.haar_vector(d, gen) for _ in range(rank)]
    rho = product_mixture(vectors, gen.dirichlet(np.ones(rank)))
    result = mx.bosonic_ppt_separability(rho)
    assert result.verdict == "separable" and len(result.decomposition) == rank
    _assert_certified(result, rho)
    for e in vectors:
        assert max(abs(np.vdot(e, f)) for _, f in result.decomposition) > 1 - 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_bosonic_separability_is_sound_at_rank_8(seed):
    gen = np.random.default_rng(seed)
    rho = product_mixture([la.haar_vector(4, gen) for _ in range(8)], gen.dirichlet(np.ones(8)))
    result = mx.bosonic_ppt_separability(rho)
    assert result.verdict in ("separable", "inconclusive")
    _assert_certified(result, rho)


@pytest.mark.parametrize("d", (3, 4))
def test_bosonic_separability_is_sound_on_noisy_correlated_states(d):
    mc = st.maximally_correlated_state("boson", d).flat()
    dim = d * (d + 1) // 2
    verdicts = []
    for p in (0.05, 0.15, 0.3):
        rho = mx.density_matrix(mx.symmetric_space(d),
                                p * np.outer(mc, mc.conj()) + (1 - p) * np.eye(dim) / dim)
        result = mx.bosonic_ppt_separability(rho)
        _assert_certified(result, rho)
        verdicts.append(result.verdict)
    assert verdicts[-1] == "not_ppt" and "not_ppt" not in verdicts[:2]


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
# Wootters' optimal decomposition
# ---------------------------------------------------------------------------

def test_oracle_pure_state_exact():
    gen = np.random.default_rng(16)
    psi = st.random_pure_state("boson", 2, 2, gen)
    rho = mx.density_from_pure(psi)
    oracle = mx.convex_roof_oracle(rho)
    assert abs(oracle - st.concurrence_pure(psi)) <= 1e-12


@pytest.mark.parametrize("n_starts,n_iters", ((0, 10), (-1, 10), (2, -1)))
def test_oracle_ignores_the_search_budget(n_starts, n_iters):
    # the budget of the search the closed construction replaced no longer acts
    rho = random_mixture("fermion", 4, 2, np.random.default_rng(0))
    value = mx.convex_roof_oracle(rho, n_starts=n_starts, n_iters=n_iters, seed=n_starts)
    assert value == mx.convex_roof_oracle(rho) == mx.convex_roof_details(rho).value


def test_oracle_werner_family():
    for p in (0.2, 0.5, 0.8):
        rho = werner(p)
        oracle = mx.convex_roof_oracle(rho)
        closed = mx.wootters_concurrence(rho)
        assert abs(oracle - closed) <= 1e-12


def test_oracle_boson_mixtures():
    gen = np.random.default_rng(17)
    for _ in range(3):
        rho = random_mixture("boson", 2, 3, gen)
        oracle = mx.convex_roof_oracle(rho)
        closed = mx.wootters_concurrence(rho)
        assert abs(oracle - closed) <= 1e-12
