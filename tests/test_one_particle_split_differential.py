"""Differential test: the one-particle split against the ``d^N`` embedding.

The oracles below are the former implementation: ``embedding_isometry``
(the sector's isometry into the ``d^N`` tensor space), ``embed_operator``
and ``embed_full`` with the partial transpose over ``(d, d^(N-1))``, the
``kron`` loop of ``lift_unitary``, the ``tensordot`` of ``project_reduce``
and the one-body test on the tensor unfolding ``w.reshape(d, -1)``.  They
are kept here only as the reference for the split
``S = (1 (x) E_{N-1}^dag) E_N``, which is ``E_N`` itself for two particles:
there every result must agree byte for byte, and for N >= 3 up to
rounding (nonzero partial-transpose spectra, since the full space adds
only zeros).  Beyond them, ``apply_single_particle`` (the coefficient tensor,
whose tables the splits compose) and ``lift_unitary`` (the split's recursion)
must rotate a state alike.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import mixed as mx
from slaterkit import sectors
from slaterkit import states as st
from slaterkit import witnesses as wi
from slaterkit.linalg import read_only, singular_values
from slaterkit.sectors import MAX_DENSE_ENTRIES, check_dense, sector_dim

KINDS = {"fermion": sectors.ANTISYMMETRIC, "boson": sectors.SYMMETRIC}
CASES = (*(("boson", 2, n) for n in range(1, 7)), ("boson", 3, 3), ("boson", 3, 4),
         ("boson", 4, 3), ("fermion", 5, 3), ("fermion", 6, 3), ("fermion", 6, 4),
         ("fermion", 8, 4))
MULTI = tuple(case for case in CASES if case[2] >= 3)


def _expansion_table(kind, d, n):
    return sectors._tables(kind, d, n)[1]


@lru_cache(maxsize=None)
def embedding_isometry(kind: str, d: int, n: int) -> np.ndarray:
    check_dense(d ** n * sector_dim(kind, d, n), f"the {kind} embedding of {n} particles in {d} modes")
    positions, sources, coeffs = _expansion_table(kind, d, n)
    e = np.zeros((d ** n, sector_dim(kind, d, n)), dtype=complex)
    e[positions, sources] = np.sign(coeffs)
    return read_only(e / np.linalg.norm(e, axis=0))


def lift_unitary(kind: str, u: np.ndarray, n: int) -> np.ndarray:
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
    check_dense(d ** (2 * n), f"the full-space operator of {n} {kind} particles in {d} modes")
    e = embedding_isometry(kind, d, n)
    full = e @ np.asarray(matrix, dtype=complex) @ e.conj().T
    if complement:
        full += complement * (np.eye(d ** n, dtype=complex) - e @ e.conj().T)
    return full


def embed_full(rho: mx.DensityMatrix) -> np.ndarray:
    if rho.space.kind == mx.BIPARTITE:
        return rho.matrix.copy()
    return embed_operator(rho.space.kind, rho.space.dims[0], rho.space.particles, rho.matrix)


def partial_transpose(rho: mx.DensityMatrix, cut: str = "A") -> np.ndarray:
    d = rho.space.dims[0]
    return mx.partial_transpose_matrix(embed_full(rho), (d, d ** (rho.space.particles - 1)), cut)


def project_reduce(state: st.PureState, a) -> st.PureState:
    a = np.asarray(a, dtype=complex)
    reduced = state.particles * np.tensordot(state.tensor(), a, axes=([state.particles - 1], [0]))
    amps = sectors.amps_from_tensor(state.sector_kind, reduced)
    return st.PureState(state.kind, state.particles - 1, state.dim, amps)


def one_body_test(state: st.PureState, rtol: float) -> tuple[bool, dict]:
    s = singular_values(state.tensor().reshape(state.dim, -1))
    m = state.particles if state.kind == st.FERMION else 1
    tail = float(s[m]) if m < s.size else 0.0
    top = float(s[0])
    return tail <= rtol * top, {"singular_values": s, "ratio": tail / top if top > 0.0 else 0.0}


def _fits(d, n):
    """Whether the oracle's full-space operators stay within ``MAX_DENSE_ENTRIES``."""
    return d ** (2 * n) <= MAX_DENSE_ENTRIES


def _same_bytes(new, old):
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


def _elementary(kind, d, n, gen):
    """A Haar-rotated Slater determinant or ``(b^dag)^N |0>`` state."""
    base = {tuple(range(n)) if kind == "fermion" else (0,) * n: 1.0}
    make = st.fermion_state if kind == "fermion" else st.boson_state
    return st.apply_single_particle(make(d, n, base), la.haar_unitary(d, gen))


def _states(kind, d, n, gen):
    """An elementary state, a 1e-4 admixture to one, and a random state."""
    elementary, other = _elementary(kind, d, n, gen), st.random_pure_state(kind, d, n, gen)
    mixed_in = elementary.amps + 1e-4 * other.amps
    admixed = st.PureState(kind, n, d, mixed_in / np.linalg.norm(mixed_in))
    return elementary, admixed, st.random_pure_state(kind, d, n, gen)


def _densities(kind, d, n, gen, ranks=(1, 2, 3)):
    """Random mixtures of each rank, and mixtures of elementary states (PPT for
    bosons, whose elementary states are products)."""
    out = []
    for rank in ranks:
        pairs = [(w, st.random_pure_state(kind, d, n, gen)) for w in gen.dirichlet(np.ones(rank))]
        out.append(mx.density_from_mixture(pairs))
        pairs = [(w, _elementary(kind, d, n, gen)) for w in gen.dirichlet(np.ones(rank))]
        out.append(mx.density_from_mixture(pairs))
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", range(2, 9))
def test_two_particle_results_are_byte_identical(kind, d):
    gen = np.random.default_rng(100 + d)
    sector = KINDS[kind]
    assert _same_bytes(sectors.split_isometry(sector, d, 2), embedding_isometry(sector, d, 2))
    for rho in _densities(kind, d, 2, gen):
        for cut in ("A", "B"):
            assert _same_bytes(mx.partial_transpose(rho, cut), partial_transpose(rho, cut))
        ppt = np.linalg.eigvalsh(partial_transpose(rho))[0] >= mx.PPT_MIN_EIGENVALUE
        assert mx.is_ppt(rho) == ppt
    u = la.haar_unitary(d, gen)
    assert _same_bytes(sectors.lift_unitary(sector, u, 2), lift_unitary(sector, u, 2))
    space = mx.StateSpace(sector, (d,), 2)
    h = gen.standard_normal((space.dim, space.dim)) + 1j * gen.standard_normal((space.dim, space.dim))
    # no witness: the embedding reads only the matrix
    w = wi.WitnessOperator(space, h + h.conj().T, 2, epsilon=np.nan, infimum=np.nan)
    assert _same_bytes(wi.embed_witness_full(w), embed_operator(sector, d, 2, w.matrix, 1.0))


@pytest.mark.parametrize("kind, d, n", [
    *((kind, d, n) for kind in KINDS.values() for d in range(1, 8) for n in range(1, 7)
      if kind == sectors.SYMMETRIC or n <= d),
    (sectors.SYMMETRIC, 1, 50), (sectors.SYMMETRIC, 3, 40), (sectors.ANTISYMMETRIC, 12, 11)])
def test_split_columns_rank_the_sorted_tuples(kind, d, n):
    # the combinatorial ranks against a lookup of each row's sorted tuple
    columns, weights = sectors._split_table(kind, d, n)
    rest, index = sectors.sector_tuples(kind, d, n - 1), sectors.tuple_index(kind, d, n)
    assert columns.shape == weights.shape == (d * len(rest),)
    for row, (i, tail) in enumerate((i, tail) for i in range(d) for tail in rest):
        if kind == sectors.ANTISYMMETRIC:
            weight = la.levi_civita((i, *tail)) / math.sqrt(n)
        else:
            weight = math.sqrt(tail.count(i) + 1) / math.sqrt(n)
        assert weights[row] == weight
        assert columns[row] == (index[tuple(sorted((i, *tail)))] if weight else 0)


def _nonzero_spectrum_gap(new, old):
    """Largest gap between two sorted spectra once the extra zeros of the longer,
    full-space one are dropped."""
    extra = len(old) - len(new)
    kept = np.sort(old[np.argsort(np.abs(old), kind="stable")[extra:]])
    return float(np.max(np.abs(kept - new)))


@pytest.mark.parametrize("kind, d, n", [c for c in CASES if _fits(c[1], c[2])])
def test_partial_transpose_keeps_the_nonzero_spectrum(kind, d, n):
    gen = np.random.default_rng(d * 10 + n)
    verdicts = set()
    # the full space of (6, 4) has 1296 dimensions: fewer mixtures there
    for rho in _densities(kind, d, n, gen, (1, 3) if d ** n > 1000 else (1, 2, 3)):
        split_pt = mx.partial_transpose(rho)
        assert split_pt.shape == (d * sector_dim(KINDS[kind], d, n - 1),) * 2
        assert np.array_equal(mx.partial_transpose(rho, "B"), split_pt.T)
        full = np.linalg.eigvalsh(partial_transpose(rho))
        assert _nonzero_spectrum_gap(np.linalg.eigvalsh(split_pt), full) <= 1e-12
        ppt = bool(full[0] >= mx.PPT_MIN_EIGENVALUE)
        assert mx.is_ppt(rho) == ppt
        verdicts.add(ppt)
    if kind == "boson" and n >= 2:
        assert verdicts == {True, False}


@pytest.mark.parametrize("kind, d, n", [c for c in CASES if _fits(c[1], c[2])])
def test_lift_unitary_recursion_matches_the_kron_loop(kind, d, n):
    u = la.haar_unitary(d, np.random.default_rng(d * 10 + n))
    new, old = sectors.lift_unitary(KINDS[kind], u, n), lift_unitary(KINDS[kind], u, n)
    assert np.max(np.abs(new - old)) <= 1e-14


@pytest.mark.parametrize("kind, d, n", [
    *(("boson", 2, n) for n in range(3, 9)), *(("boson", 3, n) for n in range(3, 6)),
    ("boson", 4, 3), ("fermion", 6, 3), ("fermion", 8, 4), ("fermion", 9, 5)])
def test_the_tensor_and_split_lifts_agree(kind, d, n):
    # apply_single_particle rotates the coefficient tensor, whose tables the
    # splits of 1..N particles compose; lift_unitary recurses on the split
    gen = np.random.default_rng(d * 10 + n)
    state, u = st.random_pure_state(kind, d, n, gen), la.haar_unitary(d, gen)
    lifted = sectors.lift_unitary(KINDS[kind], u, n) @ state.amps
    assert np.max(np.abs(st.apply_single_particle(state, u).amps - lifted)) <= 1e-13


@pytest.mark.parametrize("kind, d, n", [c for c in CASES if c[2] >= 2])
def test_project_reduce_matches_the_tensordot(kind, d, n):
    gen = np.random.default_rng(d * 10 + n)
    probes = [*np.eye(d, dtype=complex), la.haar_vector(d, gen), la.haar_vector(d, gen)]
    for state in _states(kind, d, n, gen):
        for a in probes:
            new, old = st.project_reduce(state, a), project_reduce(state, a)
            assert (new.kind, new.particles, new.dim) == (old.kind, old.particles, old.dim)
            assert np.max(np.abs(new.amps - old.amps)) <= 1e-14


@pytest.mark.parametrize("kind, d, n", [c for c in CASES if c[2] >= 2])
def test_one_body_spectrum_matches_the_tensor_unfolding(kind, d, n):
    gen = np.random.default_rng(d * 10 + n)
    for state in _states(kind, d, n, gen):
        new_verdict, new = st._one_body_test(state, la.CONTRACT_RTOL)
        old_verdict, old = one_body_test(state, la.CONTRACT_RTOL)
        assert new_verdict == old_verdict
        s_new, s_old = new["singular_values"], old["singular_values"]
        assert s_new.shape == s_old.shape
        # relative to the top value: an elementary state's tail is rounding noise
        assert np.max(np.abs(s_new - s_old)) <= 1e-12 * s_old[0]
        assert abs(new["ratio"] - old["ratio"]) <= 1e-12


def _oracle_chain(state, probes, rtol=la.CONTRACT_RTOL):
    """The probe-chain walk of ``multiparticle_rank_one`` over the tensordot projection."""
    if state.particles == 2:
        test = st.two_fermion_rank_below if state.kind == st.FERMION else st.two_boson_rank_below
        return () if test(state, 2, rtol=rtol).claim.startswith("rank_ge") else None
    scale = state.norm()
    for a in probes:
        sub = project_reduce(state, a)
        sub_norm = sub.norm()
        if sub_norm <= rtol * state.particles * scale:
            continue
        found = _oracle_chain(st.PureState(sub.kind, sub.particles, sub.dim, sub.amps / sub_norm),
                              probes, rtol)
        if found is not None:
            return (a,) + found
    return None


@pytest.mark.parametrize("kind, d, n", MULTI)
def test_multiparticle_verdicts_and_chains_are_unchanged(kind, d, n):
    gen = np.random.default_rng(d * 10 + n)
    for state in _states(kind, d, n, gen):
        verdict = st.multiparticle_rank_one(state, rng=7)
        rank_one = one_body_test(state, la.CONTRACT_RTOL)[0]
        assert verdict.claim == ("rank_one" if rank_one else "rank_ge_2")
        assert st.verify_rank_certificate(state, verdict)
        if not rank_one:
            chain = _oracle_chain(state, st._probe_vectors(d, la.as_rng(7)))
            found = verdict.certificate["probes"]
            assert (chain is None) == (verdict.certificate["kind"] == "one_body")
            assert len(found) == len(chain or ()) and all(
                np.array_equal(x, y) for x, y in zip(found, chain or ()))


def _power_state(e, n):
    """``|e>^{(x) n}`` of a qubit, over the n + 1 bosonic occupation tuples."""
    ones = np.arange(n + 1)
    binom = np.array([math.comb(n, k) for k in ones], dtype=float)
    return np.sqrt(binom) * e[0] ** (n - ones) * e[1] ** ones


def test_is_ppt_accepts_a_twelve_boson_qubit_state():
    # the former embedding would have held 4096**2 = 16.8M entries, over 2**22
    gen = np.random.default_rng(12)
    space = mx.symmetric_space(2, 12)
    vectors = [_power_state(la.haar_vector(2, gen), 12) for _ in range(3)]
    weights = gen.dirichlet(np.ones(3))
    product = mx.density_matrix(space, sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vectors)))
    noon = np.zeros(13, dtype=complex)
    noon[[0, 12]] = 1 / math.sqrt(2)
    cat = mx.density_matrix(space, np.outer(noon, noon.conj()))
    assert mx.partial_transpose(product).shape == (24, 24)
    assert mx.is_ppt(product) and not mx.is_ppt(cat)
    assert mx.bosonic_ppt_separability(product).verdict == "separable"


def test_multiparticle_rank_one_accepts_sixteen_modes_six_fermions():
    # 8008 amplitudes, where the former tensor would have held 16**6 = 16.7M entries
    gen = np.random.default_rng(16)
    orbitals = la.haar_unitary(16, gen)[:, :6]
    tuples = np.array(sectors.sector_tuples(sectors.ANTISYMMETRIC, 16, 6))
    determinant = st.fermion_state(16, 6, np.linalg.det(orbitals[tuples]))
    verdict = st.multiparticle_rank_one(determinant)
    assert verdict.claim == "rank_one" and verdict.certificate["ratio"] < 1e-12
    state = st.random_pure_state("fermion", 16, 6, gen)
    verdict = st.multiparticle_rank_one(state, rng=1)
    assert verdict.claim == "rank_ge_2" and verdict.certificate["kind"] == "probe_chain"
    assert st.verify_rank_certificate(state, verdict)


def test_no_analysis_path_builds_a_tensor_table_beyond_two_particles(monkeypatch):
    gen = np.random.default_rng(3)
    pure = [st.random_pure_state(kind, d, n, gen) for kind, d, n in MULTI]
    pure.append(_elementary("fermion", 6, 3, gen))
    rhos = [mx.density_from_pure(state) for state in pure if _fits(state.dim, state.particles)]
    tables = sectors._tables

    def two_particles_only(kind, d, n):
        if n >= 3:
            raise AssertionError(f"built the d**{n} position table")
        return tables(kind, d, n)

    monkeypatch.setattr(sectors, "_tables", two_particles_only)
    for rho in rhos:
        mx.is_ppt(rho)
        mx.partial_transpose(rho, "B")
    for state in pure:
        st.multiparticle_rank_one(state)
        st.project_reduce(state, la.haar_vector(state.dim, gen))
    with pytest.raises(AssertionError, match="position table"):
        pure[0].tensor()
