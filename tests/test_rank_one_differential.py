"""Differential test: the one-body rank-one test and the bounded descent
against the probe-only recursion.

``_probe_vectors`` and ``_probe_only_rank_one`` below are the former
``states.multiparticle_rank_one``, which decided ``rank_one`` by running
every probe chain depth first, with backtracking.  They are kept here only
as the reference for the spectral test that replaced that verdict and for
the one descent that replaced that search: both paths must give the same
claim and the same certificate probes.
"""

import itertools
import math

import numpy as np
import pytest

from slaterkit import states as st
from slaterkit.errors import ValidationError, WrongKindError
from slaterkit.linalg import CONTRACT_RTOL, as_rng, haar_unitary, haar_vector
from slaterkit.states import (
    BIPARTITE,
    FERMION,
    PureState,
    RankVerdict,
    project_reduce,
    two_boson_rank_below,
    two_fermion_rank_below,
)

MULTI = (("fermion", 6, 3), ("fermion", 8, 3), ("fermion", 8, 4),
         ("boson", 2, 3), ("boson", 3, 3), ("boson", 2, 4), ("boson", 3, 4))
#: deeper sectors, for superpositions only: the oracle would enumerate every
#: chain of an elementary state there
DEEP = (("fermion", 10, 5), ("boson", 3, 6))
SEEDS = (101, 202)


def _probe_vectors(d: int, n_random: int, rng) -> list[np.ndarray]:
    probes = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        v = np.zeros(d, dtype=complex)
        v[i] = v[j] = 1.0 / math.sqrt(2.0)
        probes.append(v)
    probes.extend(haar_vector(d, rng) for _ in range(n_random))
    return probes


def _probe_only_rank_one(state: PureState, n_random: int = 32, rng=0,
                         rtol: float = CONTRACT_RTOL) -> RankVerdict:
    if state.kind == BIPARTITE:
        raise WrongKindError("multiparticle_rank_one acts on fermionic or bosonic states")
    if state.particles < 3:
        raise ValidationError("use the two-particle criteria for N < 3")
    probes = _probe_vectors(state.dim, n_random, as_rng(rng))
    rank_below = two_fermion_rank_below if state.kind == FERMION else two_boson_rank_below

    def violating_chain(st: PureState, chain: tuple) -> tuple | None:
        if st.particles == 2:
            verdict = rank_below(st, 2, rtol=rtol)
            return chain if verdict.claim.startswith("rank_ge") else None
        scale = st.norm()
        for a in probes:
            sub = project_reduce(st, a)
            sub_norm = sub.norm()
            if sub_norm <= rtol * st.particles * scale:
                continue
            sub = PureState(sub.kind, sub.particles, sub.dim, sub.amps / sub_norm)
            found = violating_chain(sub, chain + (a,))
            if found is not None:
                return found
        return None

    chain = violating_chain(state, ())
    if chain is None:
        return RankVerdict("rank_one", {
            "kind": "probe_chain",
            "probes": (),
            "n_probes": len(probes),
        })
    return RankVerdict("rank_ge_2", {
        "kind": "probe_chain",
        "probes": chain,
        "n_probes": len(probes),
    })


def _state(kind, d, n, amplitudes):
    return (st.fermion_state if kind == "fermion" else st.boson_state)(d, n, amplitudes)


def _elementary(kind, d, n, gen):
    main = tuple(range(n)) if kind == "fermion" else (0,) * n
    return st.apply_single_particle(_state(kind, d, n, {main: 1.0}), haar_unitary(d, gen))


def _superposition(kind, d, n, gen):
    """Rotated superposition of two elementary states on disjoint modes."""
    theta = gen.uniform(0.05, math.pi / 2 - 0.05)
    if kind == "fermion":
        amps = {tuple(range(n)): math.cos(theta), tuple(range(d - n, d)): math.sin(theta)}
    else:
        amps = {(0,) * n: math.cos(theta), (1,) * n: math.sin(theta)}
    return st.apply_single_particle(_state(kind, d, n, amps), haar_unitary(d, gen))


def _assert_same(state, probe_seed):
    new = st.multiparticle_rank_one(state, rng=probe_seed)
    old = _probe_only_rank_one(state, rng=probe_seed)
    assert new.claim == old.claim
    new_probes, old_probes = new.certificate["probes"], old.certificate["probes"]
    assert len(new_probes) == len(old_probes)
    assert all(np.array_equal(a, b) for a, b in zip(new_probes, old_probes))
    if new.claim == "rank_ge_2":
        assert new.certificate["kind"] == "probe_chain"
        assert new.certificate["n_probes"] == old.certificate["n_probes"]
        assert st.verify_rank_certificate(state, new)
    else:
        assert new.certificate["kind"] == "one_body" and new.certificate["n_probes"] == 0
    return new


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", MULTI, ids=lambda c: "{}-{}-{}".format(*c))
def test_elementary_states_agree(case, seed):
    gen = np.random.default_rng([seed, *[ord(c) for c in case[0]], case[1], case[2]])
    for _ in range(3):
        verdict = _assert_same(_elementary(*case, gen), int(gen.integers(2**31)))
        assert verdict.claim == "rank_one"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", MULTI + DEEP, ids=lambda c: "{}-{}-{}".format(*c))
def test_superpositions_agree(case, seed):
    gen = np.random.default_rng([seed, 1, case[1], case[2]])
    for _ in range(3):
        verdict = _assert_same(_superposition(*case, gen), int(gen.integers(2**31)))
        assert verdict.claim == "rank_ge_2"


@pytest.mark.parametrize("probe_seed", (0, 7, 11))
def test_paper_examples_agree(probe_seed):
    three = st.fermion_state(6, 3, {(0, 1, 2): 0.8, (2, 4, 5): 0.6})
    four = st.fermion_state(8, 4, {(0, 1, 2, 3): 0.6, (0, 1, 4, 5): 0.6,
                                   (2, 3, 4, 5): math.sqrt(1 - 0.72)})
    for state in (three, four):
        assert _assert_same(state, probe_seed).claim == "rank_ge_2"


@pytest.mark.parametrize("kind, d, amplitudes", [
    ("boson", 2, {(0, 0, 0): 1.0, (0, 1, 1): 1.7e-8}),
    ("boson", 3, {(0, 0, 0): 1.0, (0, 1, 2): 3e-8}),
])
@pytest.mark.parametrize("probe_seed", (0, 1, 2))
def test_admixture_below_the_chain_resolution(kind, d, amplitudes, probe_seed):
    # s[1]/s[0] grows linearly with the admixture, but every two-particle
    # reduction that sees it at all sees it quadratically or below the
    # chain test's norm cut: the probe chains find nothing
    state = _state(kind, d, 3, amplitudes)
    assert _probe_only_rank_one(state, rng=probe_seed).claim == "rank_one"
    verdict = st.multiparticle_rank_one(state, rng=probe_seed)
    cert = verdict.certificate
    assert verdict.claim == "rank_ge_2" and cert["kind"] == "one_body"
    assert cert["probes"] == () and cert["n_probes"] == d + d * (d - 1) // 2 + 32
    assert cert["m"] == 1 and cert["tolerance"] == CONTRACT_RTOL
    s = cert["singular_values"]
    assert cert["ratio"] == s[1] / s[0] and CONTRACT_RTOL < cert["ratio"] < 1e-7
    assert st.verify_rank_certificate(state, verdict)
    # the same certificate does not verify a rank-one claim, nor another state
    assert not st.verify_rank_certificate(state, RankVerdict("rank_one", cert))
    main = st.boson_state(d, 3, {(0, 0, 0): 1.0})
    assert not st.verify_rank_certificate(main, verdict)


@pytest.mark.parametrize("d, n", [(4, 5), (3, 6), (3, 8)])
def test_the_descent_is_bounded_near_the_tolerance(d, n, monkeypatch):
    # one-body ratio eps / sqrt(N) = 1.25e-8, just above CONTRACT_RTOL: the
    # state is correlated, but no chain certifies it, and a depth-first
    # search ran about (d + C(d, 2) + 32)^(N - 2) reductions to find that out
    gen = np.random.default_rng([d, n])
    eps = 1.25e-8 * math.sqrt(n)
    base = st.boson_state(d, n, {(0,) * n: 1.0, (0,) * (n - 2) + (1, 2): eps})
    state = st.apply_single_particle(base, haar_unitary(d, gen))
    reduce_along, calls = st._reduce_along, []
    monkeypatch.setattr(st, "_reduce_along", lambda *args: calls.append(1) or reduce_along(*args))
    verdict = st.multiparticle_rank_one(state)
    n_probes = d + math.comb(d, 2) + 32
    assert verdict.claim == "rank_ge_2" and verdict.certificate["kind"] == "one_body"
    assert verdict.certificate["n_probes"] == n_probes and verdict.certificate["probes"] == ()
    assert abs(verdict.certificate["ratio"] - 1.25e-8) < 1e-12
    assert 0 < len(calls) <= (n - 2) * n_probes


def test_chain_below_the_one_body_resolution_does_not_certify():
    # renormalizing after a projection nearly orthogonal to the main mode
    # shows the chain an admixture of 1e-9 that the one-body test, at the
    # same rtol, counts as rank one: the two verdicts share that resolution
    state = st.boson_state(2, 4, {(0, 0, 0, 0): math.cos(1e-9), (1, 1, 1, 1): math.sin(1e-9)})
    assert st.multiparticle_rank_one(state).claim == "rank_one"
    chained = _probe_only_rank_one(state, rng=3)
    assert chained.claim == "rank_ge_2" and len(chained.certificate["probes"]) == 2
    assert not st.verify_rank_certificate(state, chained)


def test_rotated_elementary_states_sit_far_below_the_tolerance():
    gen = np.random.default_rng(303)
    worst = 0.0
    for case in MULTI:
        for _ in range(10):
            verdict = st.multiparticle_rank_one(_elementary(*case, gen))
            cert = verdict.certificate
            assert cert["m"] == (case[2] if case[0] == "fermion" else 1)
            worst = max(worst, cert["ratio"])
    assert worst < 1e-3 * CONTRACT_RTOL


def test_partial_chain_verifies_through_the_spectrum():
    four = st.fermion_state(8, 4, {(0, 1, 2, 3): 0.6, (0, 1, 4, 5): 0.6,
                                   (2, 3, 4, 5): math.sqrt(1 - 0.72)})
    det = st.fermion_state(8, 4, {(0, 1, 2, 3): 1.0})
    for probe, state, certifies in ((1, four, True), (0, det, False), (6, four, False)):
        verdict = RankVerdict("rank_ge_2", {
            "kind": "probe_chain", "probes": (np.eye(8)[:, probe].astype(complex),),
            "n_probes": 1})
        assert st.verify_rank_certificate(state, verdict) is certifies


def test_a_chain_past_two_particles_does_not_verify():
    # a chain of N - 1 or N probes reduces past the two-particle criteria
    state = st.fermion_state(6, 3, {(0, 1, 2): 0.6, (3, 4, 5): 0.8})
    verdict = st.multiparticle_rank_one(state)
    chain = verdict.certificate["probes"]
    assert verdict.certificate["kind"] == "probe_chain" and len(chain) == 1
    assert st.verify_rank_certificate(state, verdict)
    uniform = np.full(6, 1 / math.sqrt(6), dtype=complex)  # annihilates no reduction
    for extra in (1, 2):
        longer = dict(verdict.certificate, probes=chain + (uniform,) * extra)
        assert st.verify_rank_certificate(state, RankVerdict("rank_ge_2", longer)) is False


def test_rank_one_path_draws_no_probes():
    gen = np.random.default_rng(404)
    state = _elementary("fermion", 8, 4, gen)
    probe_gen = np.random.default_rng(5)
    before = probe_gen.bit_generator.state
    assert st.multiparticle_rank_one(state, rng=probe_gen).claim == "rank_one"
    assert probe_gen.bit_generator.state == before
