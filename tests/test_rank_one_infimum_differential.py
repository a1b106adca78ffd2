"""Differential test: the closed-form infimum of identity-plus-rank-one
operators against the restart search it replaces.

For ``M = a 1 - b |v><v|`` (``b >= 0``) the infimum of ``<psi|M|psi>`` over
Slater rank < k is ``a - b s_{k-1}(v)``, with ``s_{k-1}`` the share of the
k-1 largest squared Youla or Takagi values of ``v`` (Eckart-Young); for
``M = a 1 + b |v><v|`` it is ``a``.  ``infimum_over_rank`` takes these
without a search; the reference is ``_search_rank_manifold`` at 64 restarts
of 400 steps, which bounds the infimum from above.
"""

import numpy as np
import pytest
from test_manifold_differential import FAMILIES
from test_witnesses import perturbed_optimal_witness

from slaterkit import linalg as la
from slaterkit import mixed
from slaterkit import states as st
from slaterkit import witnesses as wi
from slaterkit.errors import NotAnEdgeStateError

SPACES = [mixed.antisymmetric_space(d) for d in (4, 6, 8)] + [mixed.symmetric_space(d)
                                                              for d in (3, 4)]
CASES = [(space, k) for space in SPACES for k in (2, 3)]


@pytest.fixture()
def lbfgs_calls(monkeypatch):
    """Count the stacked L-BFGS searches the witness layer starts."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return la._lbfgs(*args, **kwargs)

    monkeypatch.setattr(wi, "_lbfgs", counted)
    return calls


def _searched(space, k, m, seed=0):
    return wi._search_rank_manifold(space, k, m, 64, 400, seed)[0].value


def _assert_meets_the_search(closed, searched):
    assert abs(closed - searched) <= 1e-9
    assert closed <= searched + 1e-12


def _operators(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    vv = np.outer(v, v.conj())
    a, b, c = rng.uniform(0.5, 2.0), rng.uniform(0.1, 3.0), rng.uniform(-2.0, 2.0)
    return {"kernel": np.eye(dim) - vv, "a-bvv": a * np.eye(dim) - b * vv, "vv": vv,
            "c1": c * np.eye(dim)}


@pytest.mark.parametrize("space,k", CASES,
                         ids=[f"{s.kind[:4]}{s.dims[0]}-k{k}" for s, k in CASES])
def test_closed_form_meets_the_search(space, k, lbfgs_calls):
    rng = np.random.default_rng([space.dims[0], k, len(space.kind)])
    for m in _operators(space.dim, rng).values():
        closed = wi.infimum_over_rank(m, k, space, seed=1)
        assert not lbfgs_calls
        _assert_meets_the_search(closed, _searched(space, k, m, seed=2))
        lbfgs_calls.clear()


def test_closed_form_matches_the_formula():
    # 1 - |phi><phi| with Slater values (3, 2, 1) in d = 6 fermions: 1 - 9/14, 1 - 13/14
    amps = {(0, 1): 3.0, (2, 3): 2.0, (4, 5): 1.0}
    phi = st.fermion_state(6, 2, {t: z / np.sqrt(14) for t, z in amps.items()}).flat()
    p = np.eye(15) - np.outer(phi, phi.conj())
    space = mixed.antisymmetric_space(6)
    assert abs(wi.infimum_over_rank(p, 2, space) - 5 / 14) <= 1e-14
    assert abs(wi.infimum_over_rank(p, 3, space) - 1 / 14) <= 1e-14
    assert abs(wi.infimum_over_rank(p, 4, space)) <= 1e-14


@pytest.mark.parametrize("family", FAMILIES, ids=["-".join(map(str, f)) for f in FAMILIES])
def test_optimal_families_need_no_search(family, lbfgs_calls):
    kind, big_k, k = family
    w = wi.optimal_witness_example(big_k, k, kind)
    value = wi.infimum_over_rank(w.matrix, k, w.space)
    form = wi.canonical_witness_form(w)
    assert not lbfgs_calls
    _assert_meets_the_search(value, _searched(w.space, k, w.matrix))
    _assert_meets_the_search(form.infimum_check, _searched(w.space, k, form.w_tilde))
    assert form.verified and abs(form.epsilon - (big_k / (k - 1) - 1)) <= 1e-10


def _pure_edge_states():
    rng = np.random.default_rng(21)
    for kind, big_k in (("fermion", 2), ("fermion", 3), ("boson", 3), ("boson", 4)):
        mc = st.maximally_correlated_state(kind, big_k)
        yield mixed.density_from_pure(mc)
        yield mixed.density_from_pure(st.random_pure_state(kind, mc.dim, 2, rng))


@pytest.mark.parametrize("index", range(8))
def test_pure_edge_states_need_no_search(index, lbfgs_calls):
    delta = list(_pure_edge_states())[index]
    w = wi.witness_from_edge(delta, 2, seed=3)
    assert not lbfgs_calls
    eps = -np.linalg.eigvalsh(w.matrix)[0]
    kernel = w.matrix + eps * np.eye(delta.space.dim)
    _assert_meets_the_search(eps, _searched(delta.space, 2, kernel))
    assert wi.witness_value(w, delta).detected


def test_a_range_of_codimension_one_is_no_edge_without_search(lbfgs_calls):
    # the kernel projector is rank one, and v-perp holds a determinant
    phi = st.random_pure_state("fermion", 6, 2, 4).flat()
    rho = mixed.density_matrix(mixed.antisymmetric_space(6),
                               (np.eye(15) - np.outer(phi, phi.conj())) / 14)
    with pytest.raises(NotAnEdgeStateError):
        wi.witness_from_edge(rho, 2)
    assert not lbfgs_calls


@pytest.mark.parametrize("kind", ["fermion", "boson"])
def test_other_operators_still_search(kind, lbfgs_calls):
    w = perturbed_optimal_witness(2 if kind == "fermion" else 3, kind, 5)
    wi.infimum_over_rank(w.matrix, 2, w.space, budget=8)
    assert lbfgs_calls == [8]
    wi.canonical_witness_form(w)
    assert lbfgs_calls == [8, 16]
