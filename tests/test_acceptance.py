"""Acceptance battery.

One test per acceptance criterion, each printing a PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -s`` to see them).  Tolerances
and trial counts are pinned here and are not adjusted at runtime.
"""

import time
from contextlib import contextmanager

import numpy as np
from rank_samples import sample_rank_bounded

from slaterkit import linalg as la
from slaterkit import magic as mg
from slaterkit import mixed as mx
from slaterkit import modes as mo
from slaterkit import sectors
from slaterkit import states as st
from slaterkit import witnesses as wi


@contextmanager
def criterion(num, description):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:02d} FAIL {description} ({time.time() - start:.1f}s)")
        raise
    print(f"ACCEPTANCE {num:02d} PASS {description} ({time.time() - start:.1f}s)")


def double_well_entangled_state():
    """Two electrons over (site1 up, site1 down, site2 up, site2 down)."""
    s = 1 / np.sqrt(2)
    return st.fermion_state(4, 2, {(0, 3): s, (1, 2): s})


def test_criterion_01_concurrence_exactness():
    with criterion(1, "pipeline fixture concurrences exact"):
        start = time.time()
        entangled = double_well_entangled_state()
        assert abs(st.concurrence_pure(entangled) - 1.0) <= 1e-12
        initial = st.fermion_state(4, 2, {(0, 3): 1.0})
        assert st.concurrence_pure(initial) <= 1e-12
        assert time.time() - start < 1.0


def test_criterion_02_decomposition_soundness():
    with criterion(2, "rank criteria match canonical forms on 400 random states"):
        start = time.time()
        gen = np.random.default_rng(2024)
        for _ in range(200):
            d = int(gen.choice([4, 6, 8]))
            rank = int(gen.integers(1, d // 2 + 1))
            state = st.random_slater_rank_state("fermion", d, rank, gen)
            result = st.slater_decompose_two_particle(state)
            assert result.rank == rank
            assert result.residual <= 1e-9
            assert st.slater_rank_by_contractions(state) == rank
        for _ in range(200):
            big_k = int(gen.choice([2, 3, 4]))
            rank = int(gen.integers(1, big_k + 1))
            state = st.random_slater_rank_state("boson", big_k, rank, gen)
            result = st.slater_decompose_two_particle(state)
            assert result.rank == rank
            assert result.residual <= 1e-9
            assert st.slater_rank_by_contractions(state) == rank
        assert time.time() - start < 30.0


def test_criterion_03_pfaffian_identity():
    with criterion(3, "pfaffian squares to the determinant on 100 matrices"):
        gen = np.random.default_rng(3)
        for i in range(100):
            n = (4, 6, 8)[i % 3]
            a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
            w = a - a.T
            pf2 = la.pfaffian(w) ** 2
            det = np.linalg.det(w)
            assert abs(pf2 - det) <= 1e-9 * abs(det)


def test_criterion_04_determinant_identity():
    with criterion(4, "det w equals ((1/8) dual overlap)^2 on 100 states"):
        gen = np.random.default_rng(4)
        for _ in range(100):
            psi = st.random_pure_state("fermion", 4, 2, gen)
            det = np.linalg.det(psi.matrix())
            overlap = st.bilinear_overlap(psi, psi)
            assert abs(det - (overlap / 8) ** 2) <= 1e-10


def test_criterion_05_wootters_vs_oracle():
    with criterion(5, "closed-form concurrence within 2e-3 of the convex-roof oracle"):
        start = time.time()
        gen = np.random.default_rng(5)
        cases = (("bipartite", (2, 2)), ("fermion", 4), ("boson", 2))
        for kind, d in cases:
            for trial in range(30):
                rank = int(gen.integers(1, 5))
                pairs = [(p, st.random_pure_state(kind, d, 2, gen))
                         for p in gen.dirichlet(np.ones(rank))]
                rho = mx.density_from_mixture(pairs)
                closed = mx.wootters_concurrence(rho)
                oracle = mx.convex_roof_oracle(rho, n_starts=8, n_iters=400, seed=trial)
                assert closed <= oracle + 2e-3
                assert oracle <= closed + 2e-3
        assert time.time() - start < 300.0


def test_criterion_06_unitary_invariance():
    with criterion(6, "measures invariant under 20 single-particle conjugations"):
        gen = np.random.default_rng(6)
        psi_f = st.random_pure_state("fermion", 4, 2, gen)
        psi_b = st.random_pure_state("boson", 2, 2, gen)
        psi_q = st.random_pure_state("bipartite", (2, 2), 2, gen)
        rho_f = mx.density_from_mixture(
            [(p, st.random_pure_state("fermion", 4, 2, gen)) for p in gen.dirichlet(np.ones(3))])
        witness = wi.optimal_witness_example(2, 2, "fermion")
        rank_state = st.random_slater_rank_state("fermion", 6, 2, gen)
        rank_boson = st.random_slater_rank_state("boson", 3, 2, gen)

        base = {
            "cf": st.concurrence_pure(psi_f),
            "cb": st.concurrence_pure(psi_b),
            "cq": st.concurrence_pure(psi_q),
            "wf": mx.wootters_concurrence(rho_f),
            "wv": wi.witness_value(witness, rho_f).value,
        }
        for _ in range(20):
            uf = la.haar_unitary(4, gen)
            ub = la.haar_unitary(2, gen)
            ua, ub2 = la.haar_unitary(2, gen), la.haar_unitary(2, gen)
            assert abs(st.concurrence_pure(st.apply_single_particle(psi_f, uf)) - base["cf"]) <= 1e-9
            assert abs(st.concurrence_pure(st.apply_single_particle(psi_b, ub)) - base["cb"]) <= 1e-9
            assert abs(st.concurrence_pure(st.apply_single_particle(psi_q, (ua, ub2))) - base["cq"]) <= 1e-9

            lift_f = sectors.lift_unitary(sectors.ANTISYMMETRIC, uf, 2)
            rho_rot = mx.density_matrix(rho_f.space, lift_f @ rho_f.matrix @ lift_f.conj().T)
            assert abs(mx.wootters_concurrence(rho_rot) - base["wf"]) <= 1e-9
            w_rot = wi.witness_operator(witness.space,
                                        lift_f @ witness.matrix @ lift_f.conj().T, 2)
            assert abs(wi.witness_value(w_rot, rho_rot).value - base["wv"]) <= 1e-9

            u6 = la.haar_unitary(6, gen)
            rotated = st.apply_single_particle(rank_state, u6)
            assert st.slater_rank_by_contractions(rotated) == 2
            u3 = la.haar_unitary(3, gen)
            rotated_b = st.apply_single_particle(rank_boson, u3)
            assert st.slater_rank_by_contractions(rotated_b) == 2


def test_criterion_07_multiparticle_lemmas():
    with criterion(7, "multi-particle rank classification with the stated certificates"):
        # three-fermion correlated state, certificate probe e3
        three = st.fermion_state(6, 3, {(0, 1, 2): 0.8, (2, 4, 5): 0.6})
        verdict = st.multiparticle_rank_one(three, rng=7)
        assert verdict.claim == "rank_ge_2"
        probes = verdict.certificate["probes"]
        assert len(probes) == 1 and np.argmax(np.abs(probes[0])) == 2
        assert st.verify_rank_certificate(three, verdict)

        # four-fermion example, the stated probe e2 certifies the claim
        four = st.fermion_state(8, 4, {(0, 1, 2, 3): 0.6, (0, 1, 4, 5): 0.6,
                                       (2, 3, 4, 5): np.sqrt(1 - 0.72)})
        verdict4 = st.multiparticle_rank_one(four, rng=7)
        assert verdict4.claim == "rank_ge_2"
        assert st.verify_rank_certificate(four, verdict4)
        stated = st.RankVerdict("rank_ge_2", {
            "kind": "probe_chain", "probes": (np.eye(8)[:, 1].astype(complex),),
            "n_probes": 1})
        assert st.verify_rank_certificate(four, stated)

        # 100 rotated elementary determinants / permanents classified rank one
        gen = np.random.default_rng(77)
        cases = [("fermion", 6, 3)] * 30 + [("fermion", 8, 3)] * 15 + \
                [("fermion", 8, 4)] * 10 + [("boson", 2, 3)] * 15 + \
                [("boson", 3, 3)] * 15 + [("boson", 2, 4)] * 10 + [("boson", 3, 4)] * 5
        assert len(cases) == 100
        for kind, d, n in cases:
            if kind == "fermion":
                base = st.fermion_state(d, n, {tuple(range(n)): 1.0})
            else:
                base = st.boson_state(d, n, {tuple([0] * n): 1.0})
            rotated = st.apply_single_particle(base, la.haar_unitary(d, gen))
            assert st.multiparticle_rank_one(rotated, rng=11).claim == "rank_one"


def test_criterion_08_witness_battery():
    with criterion(8, "canonical witness values and sampled non-negativity"):
        witness = wi.optimal_witness_example(2, 2, "fermion")
        target = mx.density_from_pure(st.maximally_correlated_state("fermion", 2))
        assert abs(wi.witness_value(witness, target).value + 1.0) <= 1e-12
        for pair in ((0, 1), (2, 3)):
            rho = mx.density_from_pure(st.fermion_state(4, 2, {pair: 1.0}))
            assert abs(wi.witness_value(witness, rho).value) <= 1e-10
        gen = np.random.default_rng(8)
        for _ in range(50):
            p11, p12, p21, p22 = gen.uniform(0, 2 * np.pi, 4)
            g1 = np.array([np.exp(1j * p11), np.exp(1j * p12),
                           np.exp(1j * p21), np.exp(1j * p22)])
            g2 = np.array([-np.exp(-1j * p12), np.exp(-1j * p11),
                           -np.exp(-1j * p22), np.exp(-1j * p21)])
            w_mat = (np.outer(g1, g2) - np.outer(g2, g1)) / 8
            member = st.fermion_state_from_tensor(w_mat)
            assert abs(wi.witness_value(witness, mx.density_from_pure(member)).value) <= 1e-10
        vecs = sample_rank_bounded(witness.space, 1, 500, 2002)
        values = np.einsum("ni,ij,nj->n", vecs.conj(), witness.matrix, vecs).real
        assert values.min() >= -1e-8


def test_criterion_09_edge_pipeline():
    with criterion(9, "edge decomposition recovers the split and its witness detects"):
        mc = st.maximally_correlated_state("fermion", 2)
        det = st.fermion_state(4, 2, {(0, 2): 1.0})
        rho = mx.density_from_mixture([(0.5, det), (0.5, mc)])
        decomposition = wi.edge_state_decompose(rho, 2, seed=9)
        assert abs(decomposition.weight - 0.5) <= 0.05
        witness = wi.witness_from_edge(decomposition.edge_state, 2, seed=9)
        assert wi.witness_value(witness, decomposition.edge_state).value < -0.1


def test_criterion_10_bosonic_ppt_theorems():
    with criterion(10, "bosonic PPT separability theorems"):
        gen = np.random.default_rng(10)
        for _ in range(20):
            vectors = [la.haar_vector(3, gen) for _ in range(3)]
            rho = mx.density_from_mixture(
                [(p, st.boson_state(3, 2, mx._symmetric_pair_vector(e)))
                 for p, e in zip(gen.dirichlet(np.ones(3)), vectors)])
            assert mx.bosonic_ppt_separability(rho).verdict == "separable"
        for _ in range(20):
            vectors = [la.haar_vector(3, gen) for _ in range(4)]
            rho = mx.density_from_mixture(
                [(p, st.boson_state(3, 2, mx._symmetric_pair_vector(e)))
                 for p, e in zip(gen.dirichlet(np.ones(4)), vectors)])
            result = mx.bosonic_ppt_separability(rho)
            assert result.verdict == "separable" and result.decomposition is not None
            recon = sum(w * np.outer(mx._symmetric_pair_vector(e),
                                     mx._symmetric_pair_vector(e).conj())
                        for w, e in result.decomposition)
            assert np.max(np.abs(recon - rho.matrix)) <= 1e-8
        import math
        for _ in range(10):
            pairs = []
            for p in gen.dirichlet(np.ones(4)):
                e = la.haar_vector(2, gen)
                amps = np.array([np.sqrt(math.comb(3, sum(t)))
                                 * e[0] ** (3 - sum(t)) * e[1] ** sum(t)
                                 for t in sectors.sector_tuples(sectors.SYMMETRIC, 2, 3)])
                pairs.append((p, st.boson_state(2, 3, amps)))
            rho = mx.density_from_mixture(pairs)
            assert mx.bosonic_ppt_separability(rho).verdict == "separable"


def test_criterion_11_kak():
    with criterion(11, "100 KAK factorizations per system, concurrence preserved"):
        gen = np.random.default_rng(11)
        setup = {"qubits": ("bipartite", (2, 2)), "fermions": ("fermion", 4),
                 "bosons": ("boson", 2)}
        for system, (kind, d) in setup.items():
            dim = st.SYSTEM_DIMS[system]
            for _ in range(100):
                u = la.haar_unitary(dim, gen)
                factors = mg.kak_decompose(u, system)
                assert factors.residual <= 1e-8
                psi = st.random_pure_state(kind, d, 2, gen)
                base = st.concurrence_pure(psi)
                for v in (factors.v1, factors.v2):
                    moved = mx.state_from_sector_vector(mx.space_of_state(psi), v @ psi.flat())
                    assert abs(st.concurrence_pure(moved) - base) <= 1e-9


def test_criterion_12_mode_mapping():
    with criterion(12, "site-cut mode entropy of the pipeline fixture is one"):
        s = 1 / np.sqrt(2)
        doubly_occupied = st.fermion_state(4, 2, {(0, 1): s, (2, 3): s})
        occupation = mo.fock_to_qubits(doubly_occupied)
        assert abs(mo.mode_bipartition_entropy(occupation, [0, 1]) - 1.0) <= 1e-12
