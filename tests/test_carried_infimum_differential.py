"""Differential test: the infimum a ``WitnessOperator`` carries against a
fresh search, and ``canonical_witness_form`` against the check it replaced.

``witness_operator`` keeps the ``infimum_over_rank`` that validated ``W``,
and ``witness_from_edge`` the infimum 0 it proves for ``P - (eps/c) C``.
``_searched_canonical_form`` below is the former ``canonical_witness_form``:
an ``eigvalsh`` of ``W`` for the shift and a 16 x 300 restart search of ``W +
eps 1`` for the check (the closed form where ``W`` is identity plus rank
one).  It stays here as the oracle of the form that reads the carried value.
"""

import numpy as np
import pytest
from test_witnesses import perturbed_optimal_witness

from slaterkit import io, mixed
from slaterkit import linalg as la
from slaterkit import states as st
from slaterkit import witnesses as wi


def _searched_canonical_form(w, check_budget=16, seed=0):
    eps = max(0.0, -float(np.linalg.eigvalsh(w.matrix)[0]))
    w_tilde = w.matrix + eps * np.eye(w.space.dim)
    inf_check = None
    verified = True
    if eps > 0.0:
        inf_check = wi.infimum_over_rank(w_tilde, w.slater_class, w.space,
                                         budget=check_budget, iters=300, seed=seed)
        verified = bool(eps <= inf_check + 1e-6)
    return wi.CanonicalWitnessForm(w_tilde, eps, inf_check, verified)


def _pair_state_mixture():
    """Equal mixture of ``(|01>+|23>+|45>)/sqrt(3)`` and ``(|02>+|14>+|35>)/sqrt(3)``,
    two fermions with d = 6: a rank-2 edge state for k = 2 whose kernel
    projector has no closed-form infimum."""
    r = 1 / np.sqrt(3)
    a = st.fermion_state(6, 2, {(0, 1): r, (2, 3): r, (4, 5): r})
    b = st.fermion_state(6, 2, {(0, 2): r, (1, 4): r, (3, 5): r})
    return mixed.density_from_mixture([(0.5, a), (0.5, b)])


def _pure(state):
    return lambda: mixed.density_from_pure(state)


EDGE_STATES = {
    "maxcorr-fermion-2": _pure(st.maximally_correlated_state("fermion", 2)),
    "maxcorr-boson-3": _pure(st.maximally_correlated_state("boson", 3)),
    "random-fermion-6": _pure(st.random_pure_state("fermion", 6, 2, 21)),
    "pair-state-mixture": _pair_state_mixture,
}


def _revalidated(w):
    return wi.witness_operator(w.space, w.matrix, w.slater_class)


# every kind of operator witness_operator builds, keyed by name
BUILT = {f"family-{kind}-{big_k}-{k}": (lambda kind=kind, big_k=big_k, k=k:
                                          wi.optimal_witness_example(big_k, k, kind))
         for kind in ("fermion", "boson") for big_k in (2, 3, 4) for k in range(2, big_k + 1)}
BUILT.update({f"perturbed-{kind}-{seed}": (lambda big_k=big_k, kind=kind, seed=seed:
                                           perturbed_optimal_witness(big_k, kind, seed))
              for big_k, kind in ((2, "fermion"), (3, "boson")) for seed in range(4)})
BUILT.update({f"edge-{name}": (lambda make=make: _revalidated(wi.witness_from_edge(make(), 2)))
              for name, make in EDGE_STATES.items()})
BUILT.update({f"io-{name}": (lambda make=BUILT[name]: io.witness_from_dict(
    io.witness_to_dict(make()))) for name in ("family-fermion-3-2", "perturbed-boson-1")})

# and the witnesses witness_from_edge builds with its proved infimum
EDGE = {f"from-edge-{name}": (lambda make=make: wi.witness_from_edge(make(), 2))
        for name, make in EDGE_STATES.items()}
ALL = {**BUILT, **EDGE}


@pytest.fixture()
def lbfgs_calls(monkeypatch):
    """Row counts of the stacked L-BFGS searches the witness layer starts."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return la._lbfgs(*args, **kwargs)

    monkeypatch.setattr(wi, "_lbfgs", counted)
    return calls


@pytest.mark.parametrize("case", list(BUILT))
def test_the_carried_infimum_is_a_fresh_search(case):
    w = BUILT[case]()
    assert w.infimum == wi.infimum_over_rank(w.matrix, w.slater_class, w.space)
    assert w.infimum >= wi.WITNESS_SAMPLE_TOL


@pytest.mark.parametrize("case", list(EDGE))
def test_edge_witnesses_carry_the_infimum_they_prove(case):
    w = EDGE[case]()
    assert w.infimum == 0.0
    assert abs(wi.infimum_over_rank(w.matrix, w.slater_class, w.space)) <= 1e-9


@pytest.mark.parametrize("case", list(ALL))
def test_canonical_form_meets_the_searched_check(case):
    w = ALL[case]()
    new, old = wi.canonical_witness_form(w), _searched_canonical_form(w)
    assert new.verified is old.verified is True
    assert new.epsilon == old.epsilon
    assert np.array_equal(new.w_tilde, old.w_tilde)
    if old.infimum_check is None:
        assert new.infimum_check is None
        return
    closed = wi._identity_plus_rank_one_infimum(w.matrix, w.slater_class, w.space) is not None
    assert abs(new.infimum_check - old.infimum_check) <= (1e-10 if closed else 1e-6)


@pytest.mark.parametrize("case", list(ALL))
def test_canonical_form_runs_no_search_and_no_eigensolver(case, lbfgs_calls, monkeypatch):
    w = ALL[case]()
    lbfgs_calls.clear()

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("canonical_witness_form ran an eigensolver")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_eigensolver)
    wi.canonical_witness_form(w)
    assert lbfgs_calls == []


def test_optimize_searches_its_candidate_once(lbfgs_calls):
    w = perturbed_optimal_witness(3, "boson", 1)
    lbfgs_calls.clear()
    outcome = wi.witness_optimize(w, seed=1)
    # the infimum, the ratio with P_c and the validity search of W - mu P_c
    assert lbfgs_calls == [64, 64, 64]
    assert outcome.subtracted_weight > 0
    assert outcome.witness.infimum == outcome.diagnostics["subtraction_check"] >= -1e-9


def test_edge_witness_of_a_mixture_searches_once(lbfgs_calls):
    w = wi.witness_from_edge(_pair_state_mixture(), 2)
    assert lbfgs_calls == [64]  # the kernel projector's infimum, eps
    assert wi.witness_value(w, _pair_state_mixture()).detected
