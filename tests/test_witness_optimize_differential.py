"""Differential test: ``witness_optimize`` on the closed form against its search path.

For ``W = a 1 - b |v><v|`` the infimum over Slater rank < k states is
``a - b s_{k-1}(v)``, and where it vanishes the tangent states are the best
rank < k truncations of ``v``'s Youla or Takagi decomposition, drawn under
random elements of each degenerate cluster's stabilizer.  The reference is
the same call with the closed form switched off, so the infimum comes from
``infimum_details`` (64 restarts of 400 L-BFGS steps) and the tangent states
from its restart minima: the path every witness took before.
"""

import numpy as np
import pytest
from test_manifold_differential import FAMILIES, searched  # noqa: F401  (fixture)
from test_rank_one_infimum_differential import lbfgs_calls  # noqa: F401  (fixture)

from slaterkit import mixed
from slaterkit import states as st
from slaterkit import witnesses as wi


def _family(kind, big_k, k):
    return wi.optimal_witness_example(big_k, k, kind)


def _shifted(kind, big_k, k):
    w = _family(kind, big_k, k)
    return wi.witness_operator(w.space, w.matrix + 0.1 * np.eye(w.space.dim), k)


def _edge_witness(kind, d, k, seed):
    """``witness_from_edge`` on a seeded random pure state: ``(1 - eps) 1 -
    |phi><phi|``, whose one tangent direction leaves the ratio search to run."""
    phi = st.random_pure_state(kind, d, 2, seed)
    return wi.witness_from_edge(mixed.density_from_pure(phi), k, seed=seed)


def _constant(kind, d, value):
    space = mixed.antisymmetric_space(d) if kind == "fermion" else mixed.symmetric_space(d)
    return wi.witness_operator(space, value * np.eye(space.dim), 2)


EDGES = [("fermion", 4, 2, 0), ("fermion", 4, 2, 1), ("fermion", 6, 2, 2), ("fermion", 6, 3, 3),
         ("boson", 3, 2, 4), ("boson", 3, 3, 5)]
CASES = ([("family", _family, f) for f in FAMILIES] + [("shifted", _shifted, f) for f in FAMILIES]
         + [("edge", _edge_witness, e) for e in EDGES]
         + [("zero", _constant, ("fermion", 4, 0.0)), ("identity", _constant, ("boson", 3, 1.0))])


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=["-".join(map(str, [c[0], *c[2]])) for c in CASES])
def test_closed_form_meets_the_search(index, searched, lbfgs_calls):
    name, make, args = CASES[index]
    w = make(*args)
    new = wi.witness_optimize(w, seed=index)
    if name in ("family", "shifted"):
        assert not lbfgs_calls
    # only the zero operator, where every state is tangent, still searches
    assert new.diagnostics["infimum_restarts"] == (64 if name == "zero" else 0)
    old = searched(wi.witness_optimize, w, seed=index)
    assert new.optimal == old.optimal
    assert new.diagnostics["tangent_span_dim"] == old.diagnostics["tangent_span_dim"]
    if name == "edge":
        # each path runs the ratio search from its own starts, on the
        # complement of its own tangent states, so the weights need not agree
        assert new.subtracted_weight > 0 and old.subtracted_weight > 0
        assert wi.infimum_over_rank(old.witness.matrix, w.slater_class, w.space) >= -1e-8
    else:
        assert abs(new.subtracted_weight - old.subtracted_weight) <= 1e-9
    wi.witness_operator(w.space, new.witness.matrix, w.slater_class)  # the validity rule

