"""Pure-state decompositions, rank criteria, dualisation and measures."""

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import sectors
from slaterkit import states as st
from slaterkit.errors import (
    DimensionMismatchError,
    NotAStateError,
    OutOfRangeError,
    ThresholdOutOfRangeError,
    UnsupportedSystemError,
    ValidationError,
    WrongKindError,
)

BELL_PLUS = np.array([[0, 1], [1, 0]]) / np.sqrt(2)


def normalized(state):
    n = state.norm()
    return st.raw_state(state.kind, state.particles, state.dim, state.amps / n)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_normalization_slack_and_rejection():
    st.bipartite_state((1 + 5e-7) * BELL_PLUS)  # renormalized silently
    with pytest.raises(NotAStateError):
        st.bipartite_state(2.0 * BELL_PLUS)


def test_fermion_needs_enough_modes():
    with pytest.raises(ValidationError):
        st.fermion_state(2, 3, {(0, 1): 1.0})


def test_tensor_round_trip_conventions():
    gen = np.random.default_rng(0)
    w3 = st.random_pure_state("fermion", 6, 3, gen)
    t = w3.tensor()
    # normalization: sum over all orderings equals 1/N!
    assert abs(np.sum(np.abs(t) ** 2) - 1 / 6) < 1e-12
    assert np.allclose(st.fermion_state_from_tensor(t).amps, w3.amps)
    v2 = st.random_pure_state("boson", 3, 2, gen)
    tv = v2.tensor()
    assert abs(2 * np.sum(np.abs(tv) ** 2) - 1.0) < 1e-12
    assert np.allclose(st.boson_state_from_tensor(tv).amps, v2.amps)


def test_boson_pair_normalization_matches_component_form():
    a, b, c = 0.3 + 0.1j, 0.2 - 0.4j, 0.1 + 0.2j
    norm2 = 2 * abs(a) ** 2 + 4 * abs(b) ** 2 + 2 * abs(c) ** 2
    v = np.array([[a, b], [b, c]]) / np.sqrt(norm2)
    state = st.boson_state_from_tensor(v)
    assert abs(state.norm() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Schmidt decomposition
# ---------------------------------------------------------------------------

def test_schmidt_product_state():
    psi = np.zeros((2, 2)); psi[0, 1] = 1.0
    result = st.schmidt_decompose(st.bipartite_state(psi))
    assert result.rank == 1 and np.allclose(result.values, [1.0])


def test_schmidt_bell_state():
    result = st.schmidt_decompose(st.bipartite_state(BELL_PLUS))
    assert result.rank == 2
    assert np.allclose(result.values, [1 / np.sqrt(2)] * 2)


def test_schmidt_diagonal_and_reconstruction():
    state = st.bipartite_state(np.diag([0.8, 0.6]))
    result = st.schmidt_decompose(state)
    assert np.allclose(result.values, [0.8, 0.6])
    ua, ub = result.transforms
    recon = ua[:, :result.rank] @ np.diag(result.values) @ ub[:, :result.rank].T
    assert np.max(np.abs(recon - state.matrix())) < 1e-12
    assert result.residual <= 1e-9


def test_schmidt_wrong_kind():
    with pytest.raises(WrongKindError):
        st.schmidt_decompose(st.fermion_state(4, 2, {(0, 1): 1.0}))


# ---------------------------------------------------------------------------
# two-particle Slater decompositions and rank criteria
# ---------------------------------------------------------------------------

def test_slater_decompose_fermion_examples():
    det = st.fermion_state(4, 2, {(0, 1): 1.0})
    assert st.slater_decompose_two_particle(det).rank == 1
    mc = st.maximally_correlated_state("fermion", 2)
    result = st.slater_decompose_two_particle(mc)
    assert result.rank == 2
    assert abs(result.values[0] - result.values[1]) < 1e-12


def test_slater_decompose_boson_offdiagonal():
    state = st.boson_state(2, 2, {(0, 1): 1.0})
    result = st.slater_decompose_two_particle(state)
    assert result.rank == 2
    assert abs(result.values[0] - result.values[1]) < 1e-12


def test_two_fermion_rank_below_d6():
    det = st.fermion_state(6, 2, {(0, 1): 1.0})
    verdict = st.two_fermion_rank_below(det, 2)
    assert verdict.claim == "rank_lt_2"
    assert len(la.epsilon_contract(la.EpsilonContractionSpec(
        (det.matrix(),) * 2, "single", 2))) == 15

    two_block = st.fermion_state(6, 2, {(0, 1): 0.8, (2, 3): 0.6})
    verdict2 = st.two_fermion_rank_below(two_block, 2)
    assert verdict2.claim == "rank_ge_2"
    assert verdict2.certificate["max_abs_contraction"] > verdict2.certificate["tolerance"]


def test_two_fermion_full_rank_vs_pfaffian():
    gen = np.random.default_rng(1)
    for _ in range(10):
        state = st.random_pure_state("fermion", 6, 2, gen)
        verdict = st.two_fermion_rank_below(state, 3)
        pf = la.pfaffian(state.matrix())
        has_full = abs(pf) > 1e-10
        assert verdict.claim == ("rank_ge_3" if has_full else "rank_lt_3")


def test_two_boson_rank_below_examples():
    rank_one = st.boson_state(3, 2, {(0, 0): 1.0})
    assert st.two_boson_rank_below(rank_one, 2).claim == "rank_lt_2"

    gen = np.random.default_rng(2)
    full = st.random_pure_state("boson", 3, 2, gen)
    verdict = st.two_boson_rank_below(full, 3)
    has_full = abs(np.linalg.det(full.matrix())) > 1e-10
    assert verdict.claim == ("rank_ge_3" if has_full else "rank_lt_3")

    two = st.random_slater_rank_state("boson", 3, 2, gen)
    assert st.two_boson_rank_below(two, 3).claim == "rank_lt_3"
    assert st.two_boson_rank_below(two, 2).claim == "rank_ge_2"


def test_rank_threshold_bounds():
    det = st.fermion_state(4, 2, {(0, 1): 1.0})
    with pytest.raises(ThresholdOutOfRangeError):
        st.two_fermion_rank_below(det, 3)
    with pytest.raises(ThresholdOutOfRangeError):
        st.two_fermion_rank_below(det, 0)


def test_rank_agreement_battery():
    gen = np.random.default_rng(3)
    for _ in range(20):
        d = int(gen.choice([4, 6, 8]))
        r = int(gen.integers(1, d // 2 + 1))
        state = st.random_slater_rank_state("fermion", d, r, gen)
        assert st.slater_rank_by_contractions(state) == r
        assert st.slater_decompose_two_particle(state).rank == r
        big_k = int(gen.choice([2, 3, 4]))
        rb = int(gen.integers(1, big_k + 1))
        bos = st.random_slater_rank_state("boson", big_k, rb, gen)
        assert st.slater_rank_by_contractions(bos) == rb
        assert st.slater_decompose_two_particle(bos).rank == rb


@pytest.mark.parametrize("kind, dims", [("fermion", range(4, 13, 2)), ("boson", range(3, 9))])
def test_rank_scan_equals_loop_over_public_tests(kind, dims, monkeypatch):
    # the scan builds the coefficient matrix and its SVD once; in the loop
    # every public test builds its own
    svds = []
    monkeypatch.setattr(st, "singular_values", lambda m: svds.append(m) or la.singular_values(m))
    test = st.two_fermion_rank_below if kind == "fermion" else st.two_boson_rank_below

    def below(state, n):
        st._contraction_operand.cache_clear()
        return test(state, n).claim.startswith("rank_lt")

    gen = np.random.default_rng(21)
    for d in dims:
        upper = d // 2 if kind == "fermion" else d
        for rank in range(1, upper + 1):
            state = st.random_slater_rank_state(kind, d, rank, gen)
            loop = next((n - 1 for n in range(1, upper + 1) if below(state, n)), upper)
            st._contraction_operand.cache_clear()
            del svds[:]
            assert st.slater_rank_by_contractions(state) == loop == rank
            assert len(svds) == 1


def test_rank_scan_sees_amplitudes_changed_in_place():
    state = st.fermion_state(4, 2, {(0, 1): 0.6, (2, 3): 0.8})
    assert st.slater_rank_by_contractions(state) == 2
    state.amps[:] = 0.0
    state.amps[0] = 1.0
    assert st.slater_rank_by_contractions(state) == 1


# ---------------------------------------------------------------------------
# projection and multi-particle rank
# ---------------------------------------------------------------------------

def three_fermion_example(x=0.8, y=0.6):
    return st.fermion_state(6, 3, {(0, 1, 2): x, (2, 4, 5): y})


def test_project_reduce_three_fermion_example():
    state = three_fermion_example()
    reduced = st.project_reduce(state, np.eye(6)[:, 2])
    assert reduced.particles == 2 and reduced.norm() > 0
    two = normalized(reduced)
    # proportional to x f1f2 + y f5f6: rank two
    assert st.slater_rank_by_contractions(two) == 2
    idx = {t: i for i, t in enumerate(sectors.sector_tuples("antisymmetric", 6, 2))}
    amps = np.abs(two.amps)
    assert amps[idx[(0, 1)]] > 0.7 and amps[idx[(4, 5)]] > 0.5
    assert np.sum(amps > 1e-10) == 2


def test_project_reduce_annihilating_probe():
    state = three_fermion_example()
    reduced = st.project_reduce(state, np.eye(6)[:, 3])
    assert reduced.norm() < 1e-14


def test_project_reduce_boson_product():
    state = st.boson_state(2, 4, {(0, 0, 0, 0): 1.0})
    reduced = st.project_reduce(state, np.eye(2)[:, 0])
    assert reduced.particles == 3 and reduced.norm() > 0
    verdict = st.multiparticle_rank_one(normalized(reduced), rng=0)
    assert verdict.claim == "rank_one"


def test_project_reduce_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        st.project_reduce(three_fermion_example(), np.ones(4))


def test_multiparticle_rank_one_elementary():
    det = st.fermion_state(6, 3, {(0, 1, 2): 1.0})
    assert st.multiparticle_rank_one(det, rng=0).claim == "rank_one"


def test_multiparticle_three_fermion_certificate():
    state = three_fermion_example()
    verdict = st.multiparticle_rank_one(state, rng=0)
    assert verdict.claim == "rank_ge_2"
    probes = verdict.certificate["probes"]
    assert len(probes) == 1
    assert np.argmax(np.abs(probes[0])) == 2  # the third basis vector
    assert st.verify_rank_certificate(state, verdict)


def four_fermion_example(x=0.6, y=0.6, z=np.sqrt(1 - 0.72)):
    return st.fermion_state(8, 4, {(0, 1, 2, 3): x, (0, 1, 4, 5): y, (2, 3, 4, 5): z})


def test_multiparticle_four_fermion_example():
    state = four_fermion_example()
    verdict = st.multiparticle_rank_one(state, rng=0)
    assert verdict.claim == "rank_ge_2"
    assert st.verify_rank_certificate(state, verdict)
    # the second basis vector is a valid certificate probe as well
    manual = st.RankVerdict("rank_ge_2", {"kind": "probe_chain",
                                          "probes": (np.eye(8)[:, 1].astype(complex),),
                                          "n_probes": 1})
    assert st.verify_rank_certificate(state, manual)


def test_multiparticle_rotated_batteries():
    gen = np.random.default_rng(4)
    for kind, d, n in (("fermion", 6, 3), ("fermion", 8, 4), ("boson", 3, 3), ("boson", 2, 4)):
        if kind == "fermion":
            state = st.fermion_state(d, n, {tuple(range(n)): 1.0})
        else:
            state = st.boson_state(d, n, {tuple([0] * n): 1.0})
        rotated = st.apply_single_particle(state, la.haar_unitary(d, gen))
        assert st.multiparticle_rank_one(rotated, rng=1).claim == "rank_one"
    # superpositions with both weights above 0.1 are caught
    for _ in range(10):
        x = gen.uniform(0.15, 0.95)
        sup = st.fermion_state(6, 3, {(0, 1, 2): x, (3, 4, 5): np.sqrt(1 - x * x)})
        rot = st.apply_single_particle(sup, la.haar_unitary(6, gen))
        assert st.multiparticle_rank_one(rot, rng=1).claim == "rank_ge_2"
        bsup = st.boson_state(3, 3, {(0, 0, 0): x, (1, 1, 1): np.sqrt(1 - x * x)})
        brot = st.apply_single_particle(bsup, la.haar_unitary(3, gen))
        assert st.multiparticle_rank_one(brot, rng=1).claim == "rank_ge_2"


def test_multiparticle_needs_three_particles():
    with pytest.raises(ValidationError):
        st.multiparticle_rank_one(st.fermion_state(4, 2, {(0, 1): 1.0}))


# ---------------------------------------------------------------------------
# dualisation, concurrence and magic bases
# ---------------------------------------------------------------------------

def test_dual_state_slater_determinant_pattern():
    state = st.fermion_state(4, 2, {(0, 1): 1.0})
    dual = st.dual_state(state)
    idx = {t: i for i, t in enumerate(sectors.sector_tuples("antisymmetric", 4, 2))}
    assert abs(dual.amps[idx[(2, 3)]] - 1.0) < 1e-12
    assert np.sum(np.abs(dual.amps) > 1e-12) == 1


def test_dual_magic_states_are_eigenstates():
    for system in ("qubits", "fermions", "bosons"):
        for i in range(st.SYSTEM_DIMS[system]):
            chi = st.magic_state(system, i)
            assert abs(abs(chi.inner(st.dual_state(chi))) - 1.0) < 1e-12


def test_dual_boson_component_map():
    a, b, c = 0.5, 0.25j, 0.25
    norm = np.sqrt(2 * abs(a) ** 2 + 4 * abs(b) ** 2 + 2 * abs(c) ** 2)
    v = np.array([[a, b], [b, c]]) / norm
    dual = st.dual_state(st.boson_state_from_tensor(v))
    expect = np.array([[np.conj(c), -np.conj(b)], [-np.conj(b), np.conj(a)]]) / norm
    assert np.max(np.abs(dual.tensor() - expect)) < 1e-12


def test_dual_is_involution_up_to_phase():
    gen = np.random.default_rng(5)
    for kind, d in (("bipartite", (2, 2)), ("fermion", 4), ("boson", 2)):
        psi = st.random_pure_state(kind, d, 2, gen)
        twice = st.dual_state(st.dual_state(psi))
        assert abs(abs(psi.inner(twice)) - 1.0) < 1e-12


def test_dual_unsupported_system():
    with pytest.raises(UnsupportedSystemError):
        st.dual_state(st.fermion_state(6, 2, {(0, 1): 1.0}))


def test_concurrence_examples():
    assert abs(st.concurrence_pure(st.bipartite_state(BELL_PLUS)) - 1.0) < 1e-12
    det = st.fermion_state(4, 2, {(0, 1): 1.0})
    assert st.concurrence_pure(det) < 1e-14
    boson = st.boson_state_from_tensor(np.diag([0.5, 0.5]))
    assert abs(st.concurrence_pure(boson) - 1.0) < 1e-12


def test_concurrence_matches_magic_route_and_invariance():
    gen = np.random.default_rng(6)
    for kind, d in (("bipartite", (2, 2)), ("fermion", 4), ("boson", 2)):
        for _ in range(10):
            psi = st.random_pure_state(kind, d, 2, gen)
            alpha = st.magic_basis_coeffs(psi)
            assert abs(np.sum(np.abs(alpha) ** 2) - 1.0) < 1e-10
            assert abs(abs((alpha ** 2).sum()) - st.concurrence_pure(psi)) < 1e-10
            if kind == "bipartite":
                u = (la.haar_unitary(2, gen), la.haar_unitary(2, gen))
            else:
                u = la.haar_unitary(d, gen)
            rotated = st.apply_single_particle(psi, u)
            assert abs(st.concurrence_pure(rotated) - st.concurrence_pure(psi)) < 1e-9


def test_determinant_identity_d4():
    gen = np.random.default_rng(7)
    for _ in range(20):
        psi = st.random_pure_state("fermion", 4, 2, gen)
        det = np.linalg.det(psi.matrix())
        overlap = st.bilinear_overlap(psi, psi)
        assert abs(det - (overlap / 8) ** 2) < 1e-10


def test_bilinear_overlap_symmetry():
    gen = np.random.default_rng(8)
    for kind, d in (("bipartite", (2, 2)), ("fermion", 4), ("boson", 2)):
        a = st.random_pure_state(kind, d, 2, gen)
        b = st.random_pure_state(kind, d, 2, gen)
        assert abs(st.bilinear_overlap(a, b) - st.bilinear_overlap(b, a)) < 1e-12


def test_spin_multiplet_basis_time_reversal():
    b = st.spin_multiplet_basis()
    assert np.max(np.abs(b @ b.conj().T - np.eye(6))) < 1e-12
    # dualisation in the multiplet basis is time reversal on a quintet
    # plus an invariant singlet
    d_mult = b.conj().T @ st.dual_unitary("fermions") @ b.conj()
    expected = np.array([
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, -1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, -1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
    ])
    assert np.max(np.abs(d_mult - expected)) < 1e-12


def test_cached_bases_are_read_only():
    state = st.magic_state("fermions", 2)
    before = st.magic_basis_coeffs(state)
    cached = [st.magic_basis("fermions"), st.magic_basis("qubits"), st.spin_multiplet_basis(),
              st.dual_unitary("fermions"), sectors.embedding_isometry(sectors.ANTISYMMETRIC, 4, 2),
              *sectors._expansion_table(sectors.ANTISYMMETRIC, 4, 2),
              *sectors._gather_table(sectors.SYMMETRIC, 3, 2)]
    for array in cached:
        with pytest.raises(ValueError):
            array *= 0
    with pytest.raises(TypeError):
        sectors.tuple_index(sectors.ANTISYMMETRIC, 4, 2)[(0, 1)] = 5
    assert np.array_equal(st.magic_basis_coeffs(state), before)


def test_magic_coeffs_examples():
    chi1 = st.magic_state("qubits", 0)
    alpha = st.magic_basis_coeffs(chi1)
    assert np.allclose(alpha, np.eye(4)[:, 0])

    b = st.magic_basis("qubits")
    flat = (b @ (np.ones(4) / 2)).reshape(2, 2)
    state = st.bipartite_state(flat)
    assert abs(st.concurrence_pure(state) - 1.0) < 1e-12

    coeffs = np.zeros(4, dtype=complex)
    coeffs[0], coeffs[1] = 1 / np.sqrt(2), 1j / np.sqrt(2)
    state2 = st.bipartite_state((b @ coeffs).reshape(2, 2))
    assert st.concurrence_pure(state2) < 1e-12


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_entanglement_entropy_examples():
    psi = np.zeros((2, 2)); psi[1, 0] = 1.0
    assert st.entanglement_entropy(st.bipartite_state(psi)) < 1e-12
    assert abs(st.entanglement_entropy(st.bipartite_state(BELL_PLUS)) - 1.0) < 1e-12
    state = st.bipartite_state(np.diag([0.8, 0.6]))
    expected = st.binary_entropy(0.64)
    assert abs(st.entanglement_entropy(state) - expected) < 1e-12


def test_entropy_local_unitary_invariance():
    gen = np.random.default_rng(9)
    psi = st.random_pure_state("bipartite", (3, 4), 2, gen)
    base = st.entanglement_entropy(psi)
    values = st.schmidt_decompose(psi).values
    rotated = st.apply_single_particle(psi, (la.haar_unitary(3, gen), la.haar_unitary(4, gen)))
    assert abs(st.entanglement_entropy(rotated) - base) < 1e-9
    assert np.allclose(st.schmidt_decompose(rotated).values, values, atol=1e-9)


def test_eof_from_concurrence():
    assert st.eof_from_concurrence(0.0) == 0.0
    assert abs(st.eof_from_concurrence(1.0) - 1.0) < 1e-12
    assert abs(st.eof_from_concurrence(0.6) - st.binary_entropy(0.9)) < 1e-12
    grid = np.linspace(0, 1, 51)
    vals = [st.eof_from_concurrence(c) for c in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    with pytest.raises(OutOfRangeError):
        st.eof_from_concurrence(1.5)


def test_rank_one_projection_forward_direction():
    gen = np.random.default_rng(10)
    for kind, d, n in (("fermion", 6, 3), ("boson", 3, 3)):
        base = st.fermion_state(d, n, {tuple(range(n)): 1.0}) if kind == "fermion" \
            else st.boson_state(d, n, {tuple([0] * n): 1.0})
        state = st.apply_single_particle(base, la.haar_unitary(d, gen))
        for _ in range(10):
            a = la.haar_vector(d, gen)
            reduced = st.project_reduce(state, a)
            if reduced.norm() < 1e-10:
                continue
            two = normalized(reduced)
            if two.particles == 2:
                assert st.slater_rank_by_contractions(two) <= 1
