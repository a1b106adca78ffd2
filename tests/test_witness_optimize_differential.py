"""Differential tests: ``witness_optimize`` on the closed form against its search path,
and the tangent span of ``a 1 - b |v><v|`` against the sampling it replaces.

For ``W = a 1 - b |v><v|`` the infimum over Slater rank < k states is
``a - b s_{k-1}(v)``, and where it vanishes the tangent states are the best
rank < k truncations of ``v``'s Youla or Takagi decomposition.  The library
reads their span off the cluster structure of that decomposition
(``_tangent_span``); the oracle is ``_best_truncations``, which draws them
under random elements of each degenerate cluster's stabilizer, with the
span of 64 draws taken by ``_complement_projector``.  The reference of
``test_closed_form_meets_the_search`` is the same call with the closed form
switched off, so the infimum comes from ``infimum_details`` (64 restarts of
400 L-BFGS steps) and the tangent states from its restart minima.
"""

import numpy as np
import pytest
from test_manifold_differential import FAMILIES, searched  # noqa: F401  (fixture)
from test_rank_one_infimum_differential import lbfgs_calls  # noqa: F401  (fixture)

from slaterkit import linalg as la
from slaterkit import mixed
from slaterkit import states as st
from slaterkit import witnesses as wi
from slaterkit.witnesses import _TANGENT_CLUSTER, _pair_amps


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


# ---------------------------------------------------------------------------
# the tangent span against the sampled truncations
# ---------------------------------------------------------------------------

def _best_truncations(kind: str, slater: st.SchmidtSlaterResult, k: int, n: int,
                      rng) -> np.ndarray:
    """``n`` unit sector vectors drawn from the best Slater rank < k
    approximations of the state whose decomposition ``U M U^T = C`` is
    ``slater`` (Eckart-Young on the canonical form).

    The canonical values above ``z_{k-1}`` are kept whole.  Inside the
    cluster of values within ``_TANGENT_CLUSTER z_1`` of ``z_{k-1}``, the
    ``r`` values still needed are kept under a random element of the
    cluster's stabilizer under unitary congruence: a real orthogonal ``Q``
    (stacked QR) for Takagi values, giving the block ``z Q_r Q_r^T``, and a
    compact-symplectic ``S`` for Youla pairs, giving ``z S (J_r + 0) S^T``.
    ``S`` is the unitary polar factor of a complex Gaussian projected onto
    ``G = -J conj(G) J``, the matrices that commute with the quaternionic
    structure.  Each candidate ``T`` maps back as ``U^dag T conj(U)``.
    """
    u, z = slater.transforms[0], slater.values
    keep = min(k - 1, len(z))
    edge, tol = z[keep - 1], _TANGENT_CLUSTER * z[0]
    lo = int(np.count_nonzero(z > edge + tol))
    c, r = int(np.count_nonzero(z >= edge - tol)) - lo, keep - lo
    if kind == mixed.ANTISYMMETRIC:
        block, size = np.array([[0.0, 1.0], [-1.0, 0.0]]), 2
        j = np.kron(np.eye(c), block)
        g = rng.standard_normal((n, 2 * c, 2 * c)) + 1j * rng.standard_normal((n, 2 * c, 2 * c))
        left, _, right = np.linalg.svd((g - j @ g.conj() @ j) / 2)
        s = (left @ right)[:, :, :2 * r]
        cluster = s @ j[:2 * r, :2 * r] @ s.swapaxes(1, 2)
    else:
        block, size = np.ones((1, 1)), 1
        q = np.linalg.qr(rng.standard_normal((n, c, c)))[0][:, :, :r]
        cluster = q @ q.swapaxes(1, 2)
    t = np.zeros((n, len(u), len(u)), dtype=complex)
    t[:, :size * lo, :size * lo] = np.kron(np.diag(z[:lo]), block)
    t[:, size * lo:size * (lo + c), size * lo:size * (lo + c)] = edge * cluster
    psi = _pair_amps(kind, u.conj().T @ t @ u.conj())
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def _sampled_span(kind, slater, k, seed):
    """The span dimension and complement projector of 64 drawn truncations,
    with the draws: the closed path of ``witness_optimize`` before."""
    samples = _best_truncations(kind, slater, k, 64, np.random.default_rng(seed))
    span_dim, p_c = wi._complement_projector(samples)
    return span_dim, p_c, samples


def _values(kind, d, k, rng):
    """Canonical values for a seeded ``v``, largest first, and how many of the
    ``d // 2`` (fermions) or ``d`` (bosons) values are zero (none in about
    half the draws).

    Of the nonzero values, ``lo`` are drawn from levels 0.6-1.0, the cluster at
    ``z_{k-1}`` is ``c >= r`` values 0.5 with ``r`` of them kept, and the rest
    are drawn from levels 0.1-0.4; repeats within either range are likely.
    """
    slots = d // 2 if kind == "fermion" else d
    nonzero = slots - int(rng.integers(0, slots)) * int(rng.integers(0, 2))
    keep = min(k - 1, nonzero)
    lo = int(rng.integers(0, keep))
    c = int(rng.integers(keep - lo, nonzero - lo + 1))
    above = np.sort(rng.choice([0.6, 0.7, 0.8, 0.9, 1.0], lo))[::-1]
    below = np.sort(rng.choice([0.1, 0.2, 0.3, 0.4], nonzero - lo - c))[::-1]
    return np.concatenate([above, np.full(c, 0.5), below]), slots - nonzero


def _seeded_witness(kind, d, k, seed):
    """``1 - |v><v| / s_{k-1}(v)`` with ``U v U^T`` the canonical form of
    ``_values``, under a seeded Haar ``U``; its infimum vanishes."""
    rng = np.random.default_rng(seed)
    z, zeros = _values(kind, d, k, rng)
    block = np.array([[0.0, 1.0], [-1.0, 0.0]]) if kind == "fermion" else np.ones((1, 1))
    canonical = np.zeros((d, d))
    width = len(block) * len(z)
    canonical[:width, :width] = np.kron(np.diag(z), block)
    u = la.haar_unitary(d, rng)
    v = _pair_amps(mixed.ANTISYMMETRIC if kind == "fermion" else mixed.SYMMETRIC,
                   u.conj().T @ canonical @ u.conj())[0]
    v /= np.linalg.norm(v)
    z2 = np.sort(z)[::-1] ** 2
    space = mixed.antisymmetric_space(d) if kind == "fermion" else mixed.symmetric_space(d)
    w = np.eye(space.dim) - np.outer(v, v.conj()) * z2.sum() / z2[:k - 1].sum()
    return wi.witness_operator(space, w, k), z, zeros


def _structure(z, k):
    """``(lo, c, r)`` of exact values ``z``: the values kept whole, the size of
    the cluster at ``z_{k-1}`` and how many of it are kept."""
    keep = min(k - 1, len(z))
    lo = int(np.count_nonzero(z > z[keep - 1]))
    return lo, int(np.count_nonzero(z == z[keep - 1])), keep - lo


SEEDED = [(kind, d, k, seed) for kind, dims in (("fermion", range(4, 10)), ("boson", range(2, 7)))
          for d in dims for k in range(2, (d // 2 if kind == "fermion" else d) + 1)
          for seed in range(10)]
OPTIMAL = [(kind, big_k, k) for kind in ("fermion", "boson") for big_k in (2, 3, 4)
           for k in range(2, big_k + 1)]


def test_the_seeded_witnesses_cover_every_cluster_structure():
    structures = []
    for kind, d, k, seed in SEEDED:
        _, z, zeros = _seeded_witness(kind, d, k, seed)
        structures.append((kind, d, zeros, *_structure(z, k)))
    assert len(structures) >= 200
    partial = [s for s in structures if s[4] > 1 and s[5] < s[4]]
    assert len(partial) >= 30  # a repeated cluster only partly kept
    assert sum(s[3] > 0 for s in partial) >= 5  # ... below values kept whole
    assert sum(s[2] > 0 for s in partial) >= 10  # ... with zero values
    assert sum(s[3] > 0 for s in structures) >= 30
    assert sum(s[2] > 0 for s in structures) >= 30
    assert sum(s[0] == "fermion" and s[1] % 2 for s in structures) >= 30
    assert sum(s[0] == "boson" for s in partial) >= 10


@pytest.mark.parametrize("case", [("family", *f) for f in OPTIMAL] + [("seeded", *c) for c in SEEDED],
                         ids=lambda c: "-".join(map(str, c)))
def test_tangent_span_meets_the_sampled_truncations(case):
    if case[0] == "family":
        w, seed = wi.optimal_witness_example(case[2], case[3], case[1]), 0
        optimal = True
    else:
        w, z, _ = _seeded_witness(*case[1:])
        lo, c, r = _structure(z, w.slater_class)
        # optimal exactly when a partly kept cluster covers every mode
        optimal = lo == 0 and c * (2 if case[1] == "fermion" else 1) == case[2] and r < c
        seed = case[-1]
    closed = wi._identity_plus_rank_one_infimum(w.matrix, w.slater_class, w.space)
    assert abs(closed.value) <= 1e-12 and closed.slater is not None
    span_dim, p_c = wi._tangent_span(w.space.kind, closed.slater, w.slater_class)
    old_dim, old_p_c, samples = _sampled_span(w.space.kind, closed.slater, w.slater_class, seed)
    assert span_dim == old_dim
    assert (span_dim == w.space.dim) is optimal
    assert np.max(np.abs(p_c - old_p_c)) <= 1e-8
    assert np.max(np.linalg.norm(samples @ p_c.T, axis=1)) <= 1e-8


@pytest.mark.parametrize("family", OPTIMAL, ids=lambda f: "-".join(map(str, f)))
def test_optimal_families_draw_nothing(family, lbfgs_calls):
    kind, big_k, k = family
    w = wi.optimal_witness_example(big_k, k, kind)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        outcome = wi.witness_optimize(w, seed=rng)
        assert outcome.optimal and outcome.witness is w
        assert rng.bit_generator.state == state
        assert outcome.diagnostics["tangent_span_dim"] == w.space.dim
        assert outcome.diagnostics["tangent_samples"] == 0
    assert not lbfgs_calls
