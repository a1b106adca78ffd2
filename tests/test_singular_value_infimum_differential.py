"""Differential test: the closed-form infimum read off singular values against
the Slater decomposition it replaces.

For ``P = a 1 - b |v><v|`` the infimum over Slater rank < k states is ``a - b
s_{k-1}(v)``, with ``s_{k-1}`` the share of the k-1 largest squared Youla or
Takagi values of ``v``.  Those values are the singular values of ``v``'s pair
matrix (each Youla value twice), so ``_identity_plus_rank_one_infimum`` reads
them there, cut at ``RANK_RTOL`` as the decompositions cut, and
``witness_optimize`` reads off them alone whether the tangent span fills the
sector.  The reference is the former path: one ``eigh``, the Youla or Takagi
decomposition of the ``l_1`` eigenvector, and ``_tangent_span`` on it.

The counting test checks that the optimal families reach no Youla or Takagi
decomposition at all, and that a tangent span short of the sector costs
``witness_optimize`` exactly one.
"""

import numpy as np
import pytest
from test_witness_optimize_differential import OPTIMAL, SEEDED, _seeded_witness

from slaterkit import linalg as la
from slaterkit import mixed
from slaterkit import states as st
from slaterkit import witnesses as wi
from slaterkit.witnesses import _TANGENT_CLUSTER, _pair_amps

SPACES = ([("fermion", d) for d in range(4, 11)] + [("boson", d) for d in range(3, 7)])
CASES = [(kind, d, k) for kind, d in SPACES
         for k in range(2, (d // 2 if kind == "fermion" else d) + 1)]
SHAPES = ("random", "maxcorr", "split", "low-rank")


def _space(kind, d):
    return mixed.antisymmetric_space(d) if kind == "fermion" else mixed.symmetric_space(d)


def _vector(kind, d, values, rng):
    """A unit sector vector with canonical values proportional to ``values``
    under a seeded Haar unitary."""
    block = np.array([[0.0, 1.0], [-1.0, 0.0]]) if kind == "fermion" else np.ones((1, 1))
    canonical = np.zeros((d, d))
    width = len(block) * len(values)
    canonical[:width, :width] = np.kron(np.diag(values), block)
    u = la.haar_unitary(d, rng)
    v = _pair_amps(_space(kind, d).kind, u.conj().T @ canonical @ u.conj())[0]
    return v / np.linalg.norm(v)


def _shaped_vector(shape, kind, d, k, rng):
    """``random``: Gaussian; ``maxcorr``: every slot at one value (a single
    cluster); ``split``: a cluster of at least two values at ``z_{k-1}``,
    spread by 1e-12, within ``_TANGENT_CLUSTER``, between values kept whole
    and values below; ``low-rank``: ``k - 2`` values of order one (at least
    one) and a value of 1e-11, below the ``RANK_RTOL`` cut, which counts only
    without it."""
    slots = d // 2 if kind == "fermion" else d
    if shape == "random":
        dim = _space(kind, d).dim
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)
    if shape == "maxcorr":
        values = np.ones(slots)
    elif shape == "split":
        lo = int(rng.integers(0, k - 1))
        c = int(rng.integers(max(k - 1 - lo, 2), slots - lo + 1))
        cluster = 0.5 + 1e-12 * np.arange(c)[::-1]
        values = np.concatenate([np.full(lo, 0.9), cluster, np.full(slots - lo - c, 0.2)])
    else:
        values = np.append(np.linspace(1.0, 0.6, max(k - 2, 1)), 1e-11)
    return _vector(kind, d, values, rng)


def _replaced(p, k, space):
    """The former closed form: the value from the decomposition of the ``l_1``
    eigenvector, and that decomposition."""
    evals, evecs = np.linalg.eigh(0.5 * (p + p.conj().T))
    slater = st.slater_decompose_two_particle(mixed.state_from_sector_vector(space, evecs[:, 0]))
    z2 = slater.values ** 2
    return float(evals[1] - (evals[1] - evals[0]) * z2[:k - 1].sum() / z2.sum()), slater


def _assert_meets_the_decomposition(p, k, space):
    closed = wi._identity_plus_rank_one_infimum(p, k, space)
    value, slater = _replaced(p, k, space)
    assert abs(closed.value - value) <= 1e-12
    assert len(closed.values) == slater.rank
    assert np.max(np.abs(closed.values - slater.values)) <= 1e-12
    fills = wi._tangent_clusters(space.kind, closed.values, k)[3] == space.dim
    assert fills is (wi._tangent_span(space.kind, slater, k)[0] == space.dim)
    return fills


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_singular_values_meet_the_decomposition(case):
    kind, d, k = case
    space = _space(kind, d)
    rng = np.random.default_rng([d, k, kind == "fermion"])
    verdicts = {}
    for shape in SHAPES:
        for _ in range(3):
            v = _shaped_vector(shape, kind, d, k, rng)
            vv = np.outer(v, v.conj())
            a, b = rng.uniform(0.5, 2.0), rng.uniform(0.1, 3.0)
            _assert_meets_the_decomposition(a * np.eye(space.dim) - b * vv, k, space)
            # the operator whose infimum vanishes, where the verdict is read
            gap = wi._identity_plus_rank_one_infimum(np.eye(space.dim) - vv, k, space).value
            p = np.eye(space.dim) - vv / (1.0 - gap)  # 1 - |v><v| / s_{k-1}(v)
            verdicts[shape] = _assert_meets_the_decomposition(p, k, space)
    # one cluster fills the sector iff it covers every mode and is partly kept
    assert verdicts["maxcorr"] is (kind == "boson" or d % 2 == 0)
    assert not verdicts["low-rank"]


@pytest.mark.parametrize("case", [("fermion", 8, 3), ("boson", 5, 4)], ids=lambda c: "-".join(map(str, c)))
def test_the_split_clusters_sit_within_the_cluster_tolerance(case):
    kind, d, k = case
    v = _shaped_vector("split", kind, d, k, np.random.default_rng(0))
    z = st.slater_decompose_two_particle(mixed.state_from_sector_vector(_space(kind, d), v)).values
    steps = -np.diff(z)[-np.diff(z) < 1e-6]
    assert steps.size and np.all(steps > 0) and np.all(steps < _TANGENT_CLUSTER * z[0])


@pytest.mark.parametrize("case", [("family", *f) for f in OPTIMAL] + [("seeded", *c) for c in SEEDED],
                         ids=lambda c: "-".join(map(str, c)))
def test_witnesses_meet_the_decomposition(case):
    if case[0] == "family":
        w = wi.optimal_witness_example(case[2], case[3], case[1])
    else:
        w = _seeded_witness(*case[1:])[0]
    fills = _assert_meets_the_decomposition(w.matrix, w.slater_class, w.space)
    assert fills or case[0] == "seeded"


# ---------------------------------------------------------------------------
# no decomposition on the optimal families
# ---------------------------------------------------------------------------

@pytest.fixture()
def congruence_calls(monkeypatch):
    """Count the Youla and Takagi decompositions, wherever they are called from."""
    calls = []
    for name in ("youla_canonical", "takagi_canonical"):
        original = getattr(la, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (la, st, mixed, wi):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("family", OPTIMAL, ids=lambda f: "-".join(map(str, f)))
def test_optimal_families_decompose_nothing(family, congruence_calls):
    kind, big_k, k = family
    w = wi.optimal_witness_example(big_k, k, kind)
    assert wi.canonical_witness_form(w).verified
    assert abs(wi.infimum_over_rank(w.matrix, k, w.space)) <= 1e-12
    assert wi.witness_optimize(w).optimal
    assert congruence_calls == []


def test_the_counter_sees_a_decomposition(congruence_calls):
    st.slater_decompose_two_particle(st.random_pure_state("fermion", 4, 2, 0))
    st.slater_decompose_two_particle(st.random_pure_state("boson", 3, 2, 0))
    assert congruence_calls == ["youla_canonical", "takagi_canonical"]


# seeded witnesses whose tangent span falls short of the sector
SHORT = [("fermion", 5, 2, 0), ("fermion", 6, 3, 1), ("boson", 3, 2, 0), ("boson", 4, 3, 2)]


@pytest.mark.parametrize("case", SHORT, ids=lambda c: "-".join(map(str, c)))
def test_a_short_tangent_span_decomposes_once(case, congruence_calls):
    w = _seeded_witness(*case)[0]
    outcome = wi.witness_optimize(w)
    assert not outcome.optimal and outcome.diagnostics["tangent_span_dim"] < w.space.dim
    assert len(congruence_calls) == 1
