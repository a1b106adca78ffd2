"""Differential test: the manifold range search against the Gauss-Newton loop,
and the closed-form isotropic vector of the canonical systems against both.

``_looped_find_in_range`` below is a former ``witnesses._find_in_range``:
damped Gauss-Newton on the Levi-Civita contraction values in range
coordinates, one restart at a time, each solution snapped to the rank < k
manifold by ``_truncate_to_rank``.  Both are kept here only as the reference
for the search over the rank < k manifold that replaced them.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import mixed, sectors
from slaterkit import states as st
from slaterkit import witnesses as wi
from slaterkit.errors import SlaterKitError
from slaterkit.linalg import RANK_RTOL, as_rng


class LoopSearch(NamedTuple):
    """The loop's tally: ``truncation_rejected`` solved restarts could not be
    snapped to the rank < k manifold."""

    tried: int
    solved: int
    truncation_rejected: int
    range_rejected: int


def _truncate_to_rank(space, k, psi):
    """Project a sector vector onto the Slater rank <= k-1 manifold."""
    d = space.dims[0]
    w = sectors.tensor_from_amps(space.kind, d, 2, psi)
    try:
        if space.kind == mixed.ANTISYMMETRIC:
            form = la.youla_canonical(w)
        else:
            form = la.takagi_canonical(w)
    except SlaterKitError:
        return None
    vals = form.values[: k - 1]
    target = np.zeros((d, d), dtype=complex)
    if space.kind == mixed.ANTISYMMETRIC:
        target[2 * np.arange(len(vals)), 2 * np.arange(len(vals)) + 1] = vals
        target -= target.T
    else:
        target[: len(vals), : len(vals)] = np.diag(vals)
    u = form.transform
    w_t = u.conj().T @ target @ u.conj()
    vec = sectors.amps_from_tensor(space.kind, w_t)
    n = np.linalg.norm(vec)
    return vec / n if n > 1e-12 else None


def _looped_find_in_range(space, k, range_basis, budget, iters, rng):
    """Search for a Slater rank < k vector inside a given range.

    The rank < k condition restricted to the range is a system of
    homogeneous degree-k polynomials in the range coordinates (the
    Levi-Civita contraction values); it is solved by damped Gauss-Newton
    from random starts, exploiting the multilinearity of the contraction
    for the exact Jacobian.  Returns the vector found (or None) and the
    ``RangeSearch`` tally of its restarts.
    """
    from slaterkit.linalg import EpsilonContractionSpec, epsilon_contract, singular_values

    rng = as_rng(rng)
    d = space.dims[0]
    r = range_basis.shape[1]
    mats = [sectors.tensor_from_amps(space.kind, d, 2, range_basis[:, j]) for j in range(r)]
    if space.kind == mixed.ANTISYMMETRIC:
        pattern, free = "single", d - 2 * k
    else:
        pattern, free = "paired", d - k
    if free < 0:
        return None, LoopSearch(0, 0, 0, 0)

    def residuals(w):
        spec = EpsilonContractionSpec((w,) * k, pattern, free)
        return np.array(list(epsilon_contract(spec).values()))

    def jacobian(w):
        cols = []
        for bj in mats:
            spec = EpsilonContractionSpec((w,) * (k - 1) + (bj,), pattern, free)
            cols.append(k * np.array(list(epsilon_contract(spec).values())))
        return np.column_stack(cols)

    gn_iters = max(iters // 8, 40)
    tried = solved = truncated = outside = 0
    for _ in range(budget):
        tried += 1
        c = rng.standard_normal(r) + 1j * rng.standard_normal(r)
        c /= np.linalg.norm(c)
        ok = False
        for _ in range(gn_iters):
            w = sum(cj * bj for cj, bj in zip(c, mats))
            smax = float(singular_values(w)[0])
            if smax < 1e-10:
                break
            f = residuals(w)
            scale = (2.0 ** k if pattern == "single" else 1.0) * math.factorial(k) * smax ** k
            if np.max(np.abs(f)) <= 1e-12 * scale:
                ok = True
                break
            jac = jacobian(w)
            step, *_ = np.linalg.lstsq(jac, f, rcond=None)
            norm_f = np.linalg.norm(f)
            damp = 1.0
            while damp > 1e-6:
                trial = c - damp * step
                tn = np.linalg.norm(trial)
                if tn > 1e-12:
                    trial = trial / tn
                    w_t = sum(cj * bj for cj, bj in zip(trial, mats))
                    if np.linalg.norm(residuals(w_t)) < norm_f:
                        c = trial
                        break
                damp /= 2.0
            else:
                break
        if not ok:
            continue
        solved += 1
        psi = range_basis @ c
        psi = psi / np.linalg.norm(psi)
        snapped = _truncate_to_rank(space, k, psi)
        if snapped is None:
            truncated += 1
            continue
        proj_resid = np.linalg.norm(snapped - range_basis @ (range_basis.conj().T @ snapped))
        if proj_resid <= 1e-8:
            return snapped, LoopSearch(tried, solved, truncated, outside)
        outside += 1
    return None, LoopSearch(tried, solved, truncated, outside)


@pytest.fixture()
def looped(monkeypatch):
    """Run an edge decomposition with the Gauss-Newton loop in place of the search."""

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(wi, "_find_in_range", _looped_find_in_range)
            return wi.edge_state_decompose(*args, **kwargs)

    return run


def _edge_mixture_and_weight(rng):
    """perfbench's ``edge_mixture``: a rotated mixture of a cross-pair
    determinant and the maximally correlated state of two fermions, d = 4,
    and the maximally correlated state's weight ``p``, the split's edge weight."""
    p = float(rng.uniform(0.3, 0.7))
    det = st.fermion_state(4, 2, {(0, 2): 1.0})
    mc = st.maximally_correlated_state("fermion", 2)
    rho = mixed.density_from_mixture([(1 - p, det), (p, mc)])
    lift = sectors.lift_unitary(sectors.ANTISYMMETRIC, la.haar_unitary(4, rng), 2)
    return mixed.density_matrix(rho.space, lift @ rho.matrix @ lift.conj().T), p


def _edge_mixture(seed):
    return _edge_mixture_and_weight(np.random.default_rng(seed))[0]


def _boson_edge_mixture(seed):
    """A rotated mixture of ``|0, 1>`` and the maximally correlated state of
    modes 0 and 1 for two bosons with d = 3, which is no canonical system.

    Its range holds two product lines, exchanged by the sign flip of mode 1,
    which leaves the mixture unchanged.  Unlike the d = 5 and d = 6 fermion
    analogues of ``_edge_mixture``, the loop solves it.
    """
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.3, 0.7))
    pair = st.boson_state(3, 2, {(0, 1): 1.0})
    mc = st.boson_state(3, 2, {(0, 0): math.sqrt(0.5), (1, 1): math.sqrt(0.5)})
    rho = mixed.density_from_mixture([(1 - p, pair), (p, mc)])
    lift = sectors.lift_unitary(sectors.SYMMETRIC, la.haar_unitary(3, rng), 2)
    return mixed.density_matrix(rho.space, lift @ rho.matrix @ lift.conj().T)


def _half_split():
    """``tests/test_witnesses.py``'s edge mixture, also criterion 9's state."""
    return mixed.density_from_mixture([(0.5, st.fermion_state(4, 2, {(0, 2): 1.0})),
                                       (0.5, st.maximally_correlated_state("fermion", 2))])


def _product_vectors():
    """The two ``e`` of ``_boson_products``."""
    rng = np.random.default_rng(6)
    return [la.haar_vector(3, rng) for _ in range(2)]


def _boson_products():
    """Two bosonic product states ``|e, e>`` and the maximally correlated state, d = 3.

    Every restart of the loop fails here: with as many contraction values as
    range coordinates its Jacobian is square and invertible, so the
    Gauss-Newton step of the homogeneous system is the radial ``c / k`` that
    renormalizing undoes.  The manifold search finds both product states.
    """
    pairs = [(0.3, st.boson_state_from_tensor(np.outer(e, e) / math.sqrt(2)))
             for e in _product_vectors()]
    return mixed.density_from_mixture(pairs + [(0.4, st.maximally_correlated_state("boson", 3))])


# (state, k, budget, seed): test_witnesses.py's seeded mixtures, criterion
# 9 and perfbench's edge workload
CASES = {
    "class-one": (lambda: mixed.density_from_mixture([
        (0.6, st.fermion_state(4, 2, {(0, 2): 1.0})),
        (0.4, st.fermion_state(4, 2, {(1, 3): 1.0}))]), 2, 24, 3),
    "known-split": (_half_split, 2, 64, 4),
    "pure-edge": (lambda: mixed.density_from_pure(st.maximally_correlated_state("fermion", 2)),
                  2, 24, 5),
    "class-three": (lambda: mixed.density_from_mixture([
        (0.4, st.fermion_state(6, 2, {(0, 1): 0.8, (2, 3): 0.6})),
        (0.6, st.maximally_correlated_state("fermion", 3))]), 3, 24, 12),
    "reported-searches": (_half_split, 2, 24, 4),
    "boson-products": (_boson_products, 2, 64, 6),
    "boson-class-three": (lambda: mixed.density_from_mixture([
        (0.5, st.random_slater_rank_state("boson", 3, 2, 8)),
        (0.5, st.maximally_correlated_state("boson", 3))]), 3, 64, 8),
    "criterion-9": (_half_split, 2, 64, 9),
    **{f"edge-mixture-{seed}": (lambda seed=seed: _edge_mixture(seed), 2, 64, seed)
       for seed in (1, 2, 3, 7)},
}


# where the two searches part ways: the loop finds no product state in
# ``boson-products`` (weight 1.0), and the greedy split of ``class-three`` is
# not canonical, so another valid rank-2 vector gives another weight
WEIGHTS = {"boson-products": 0.4, "class-three": None}


def _assert_valid(rho, out, k):
    """``out`` rebuilds ``rho``, and each logged vector has rank < k and lies in
    the range of what was left before its subtraction."""
    parts = [(out.weight, out.edge_state), (1 - out.weight, out.lower_class_part)]
    recon = sum(w * part.matrix for w, part in parts if part is not None)
    assert np.max(np.abs(recon - rho.matrix)) <= 1e-8
    sigma = rho.matrix
    for state, lam in out.subtraction_log:
        assert st.slater_rank_by_contractions(state) < k
        evals, evecs = np.linalg.eigh(sigma)
        basis = evecs[:, evals > RANK_RTOL * evals[-1]]
        psi = state.flat()
        assert np.linalg.norm(psi - basis @ (basis.conj().T @ psi)) <= 1e-8
        sigma = sigma - lam * np.outer(psi, psi.conj())


def _assert_same(new, old):
    assert abs(new.weight - old.weight) <= 1e-10
    assert len(new.subtraction_log) == len(old.subtraction_log)
    for (s_new, lam_new), (s_old, lam_old) in zip(new.subtraction_log, old.subtraction_log):
        assert abs(lam_new - lam_old) <= 1e-10
        assert abs(abs(np.vdot(s_new.flat(), s_old.flat())) - 1.0) <= 1e-10


@pytest.mark.parametrize("case", list(CASES))
def test_decomposition_matches_the_loop(case, looped):
    make, k, budget, seed = CASES[case]
    rho = make()
    new = wi.edge_state_decompose(rho, k, budget=budget, seed=np.random.default_rng(seed))
    old = looped(rho, k, budget=budget, seed=np.random.default_rng(seed))
    _assert_valid(rho, new, k)
    _assert_valid(rho, old, k)
    if case not in WEIGHTS:
        _assert_same(new, old)
    elif WEIGHTS[case] is not None:
        assert abs(new.weight - WEIGHTS[case]) <= 1e-10 and old.weight == 1.0
    assert all(type(n) is int for search in new.searches for n in search)
    # an integer seed takes the same path through a fresh generator
    again = wi.edge_state_decompose(rho, k, budget=budget, seed=seed)
    assert again.searches == new.searches
    _assert_same(again, new)


@pytest.mark.parametrize("rejected", [1, 3, 6])
def test_winner_inside_a_chunk_matches_the_loop(rejected, monkeypatch, looped):
    # refusing the first polished vectors moves the kept restart into the
    # chunks of 2 and 4, past solved restarts of its own chunk
    polish = wi._polish
    calls = []

    def reject_first(chart, kernel, x):
        calls.append(x)
        psi = polish(chart, kernel, x)
        return np.roll(psi, 1) if len(calls) <= rejected else psi

    rho = _boson_edge_mixture(11)
    monkeypatch.setattr(wi, "_polish", reject_first)
    new = wi.edge_state_decompose(rho, 2, seed=11)
    _assert_valid(rho, new, 2)
    _assert_same(new, looped(rho, 2, seed=11))
    assert new.searches[0] == wi.RangeSearch(rejected + 1, rejected + 1, rejected)


@pytest.mark.parametrize("case", list(CASES))
def test_each_subtraction_takes_the_largest_weight(case):
    # the weight read off the range's eigenpairs is the pseudo-inverse's
    # 1 / <psi|sigma^+|psi>, and it leaves sigma positive with one rank less
    make, k, budget, seed = CASES[case]
    out = wi.edge_state_decompose(make(), k, budget=budget, seed=seed)
    sigma = make().matrix
    for state, lam in out.subtraction_log:
        psi = state.flat()
        evals = np.linalg.eigvalsh(sigma)
        cutoff = RANK_RTOL * evals[-1]
        pinv = np.linalg.pinv(sigma, rcond=RANK_RTOL, hermitian=True)
        assert abs(lam * np.real(np.vdot(psi, pinv @ psi)) - 1.0) <= 1e-10
        sigma = sigma - lam * np.outer(psi, psi.conj())
        rest = np.linalg.eigvalsh(sigma)
        assert rest[0] >= -1e-10
        assert np.sum(rest > cutoff) == np.sum(evals > cutoff) - 1
    # what no subtraction took is the edge part's weight
    assert abs(np.trace(sigma).real - out.weight) <= 1e-10


# ---------------------------------------------------------------------------
# canonical systems: the closed-form isotropic vector
# ---------------------------------------------------------------------------

def _random_mixture(kind, d, rank, seed):
    rng = np.random.default_rng(seed)
    return mixed.density_from_mixture([(p, st.random_pure_state(kind, d, 2, rng))
                                       for p in rng.dirichlet(np.ones(rank))])


# (kind, d, rank): every rank from 2 to the full sector of both canonical systems
CANONICAL_MIXTURES = [("fermion", 4, rank) for rank in range(2, 7)]
CANONICAL_MIXTURES += [("boson", 2, rank) for rank in (2, 3)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind, d, rank", CANONICAL_MIXTURES)
def test_closed_form_splits_canonical_mixtures(kind, d, rank, seed):
    rho = _random_mixture(kind, d, rank, seed)
    out = wi.edge_state_decompose(rho, 2, seed=seed)
    # every logged vector is in the range left before it, has rank 1, and the
    # split rebuilds rho
    _assert_valid(rho, out, 2)
    assert out.subtraction_log
    for state, _ in out.subtraction_log:
        assert st.concurrence_pure(state) <= 1e-12
    assert all(search == wi.RangeSearch(0, 0, 0) for search in out.searches)


@pytest.mark.parametrize("case", ["known-split", "criterion-9", "class-one",
                                  *(f"edge-mixture-{seed}" for seed in (1, 2, 3, 7))])
def test_closed_form_weights_meet_the_search(case, monkeypatch):
    # in these ranges the rank-1 vectors the split subtracts are unique, or
    # (class-one) are the two determinants, whose order does not change the weight
    make, k, budget, seed = CASES[case]
    rho = make()
    closed = wi.edge_state_decompose(rho, k, budget=budget, seed=seed)
    # the L-BFGS search runs wherever the space reads as no canonical system
    monkeypatch.setattr(wi, "_canonical_sector", lambda space: None)
    searched = wi.edge_state_decompose(rho, k, budget=budget, seed=seed)
    _assert_valid(rho, searched, k)
    assert abs(closed.weight - searched.weight) <= 1e-10
    assert any(search.tried for search in searched.searches)


# every canonical-system state above, keyed by name, with its seed (k is 2)
CANONICAL = {case: (make, seed) for case, (make, _, _, seed) in CASES.items()
             if wi._canonical_sector(make().space) is not None}
CANONICAL.update({f"{kind}-rank-{rank}": (lambda kind=kind, d=d, rank=rank:
                                          _random_mixture(kind, d, rank, 0), 0)
                  for kind, d, rank in CANONICAL_MIXTURES})


@pytest.mark.parametrize("case", list(CANONICAL))
def test_canonical_systems_draw_nothing(case, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the L-BFGS search ran on a canonical system")

    monkeypatch.setattr(wi, "_lbfgs", no_search)
    make, seed = CANONICAL[case]
    gen = np.random.default_rng(seed)
    before = gen.bit_generator.state
    out = wi.edge_state_decompose(make(), 2, seed=gen)
    assert gen.bit_generator.state == before
    assert all(search == wi.RangeSearch(0, 0, 0) for search in out.searches)


def test_edge_mixture_weights_are_exact():
    # the determinant is the double root of the range's preconcurrence, which
    # the polished search only reaches to 1e-11
    rng = np.random.default_rng(7)
    for _ in range(64):
        rho, p = _edge_mixture_and_weight(rng)
        out = wi.edge_state_decompose(rho, 2, seed=int(rng.integers(2**31)))
        assert abs(out.weight - p) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("d", [5, 6])
def test_full_rank_fermion_ranges_subtract_rank_one_vectors(d, seed):
    # the range fills the sector, so its kernel projector is rounding noise;
    # Gauss-Newton steps on that noise drove the first vector to a Slater
    # rank 2 or 3 state
    rho = _random_mixture("fermion", d, d * (d - 1) // 2, seed)
    out = wi.edge_state_decompose(rho, 2, seed=seed)
    _assert_valid(rho, out, 2)
    assert 0.0 < out.weight < 1.0


# ---------------------------------------------------------------------------
# closed-form candidates: the Slater rank from singular values
# ---------------------------------------------------------------------------

SEARCHED_FIND_IN_RANGE = wi._find_in_range


def _decomposed_find_in_range(space, k, range_basis, budget, iters, rng):
    """The former closed-form branch of ``witnesses._find_in_range``: the
    candidate's Slater rank from its full Slater decomposition."""
    system = wi._canonical_sector(space)
    if range_basis.shape[1] == 1 or system is not None:
        psi = (range_basis[:, 0] if range_basis.shape[1] == 1
               else wi._isotropic_vector(range_basis, system))
        rank = st.slater_decompose_two_particle(mixed.state_from_sector_vector(space, psi)).rank
        return (psi if rank < k else None), wi.RangeSearch(0, 0, 0)
    return SEARCHED_FIND_IN_RANGE(space, k, range_basis, budget, iters, rng)


# one-dimensional ranges outside the canonical systems: a determinant, a
# product state and pure states of Slater rank below and at k
PURE = {f"pure-{kind}-{d}-{seed}": (lambda kind=kind, d=d, seed=seed:
                                    _random_mixture(kind, d, 1, seed), 2, seed)
        for kind, d in (("fermion", 5), ("fermion", 6), ("boson", 3)) for seed in range(2)}
PURE["pure-determinant"] = (lambda: mixed.density_from_pure(
    st.fermion_state(6, 2, {(1, 4): 1.0})), 2, 0)
PURE["pure-product"] = (lambda: mixed.density_from_pure(st.boson_state(3, 2, {(2, 2): 1.0})), 2, 0)
PURE["pure-rank-2-k3"] = (lambda: mixed.density_from_pure(st.fermion_state(
    6, 2, {(0, 1): 0.6, (2, 3): 0.8})), 3, 0)
CLOSED_FORM = {**{case: (make, 2, seed) for case, (make, seed) in CANONICAL.items()}, **PURE}


@pytest.mark.parametrize("case", list(CLOSED_FORM))
def test_closed_form_ranks_meet_the_decomposition(case, monkeypatch):
    make, k, seed = CLOSED_FORM[case]
    rho = make()
    new = wi.edge_state_decompose(rho, k, seed=seed)
    monkeypatch.setattr(wi, "_find_in_range", _decomposed_find_in_range)
    old = wi.edge_state_decompose(rho, k, seed=seed)
    assert new.weight == old.weight and new.searches == old.searches
    assert len(new.subtraction_log) == len(old.subtraction_log)
    for (s_new, lam_new), (s_old, lam_old) in zip(new.subtraction_log, old.subtraction_log):
        assert np.array_equal(s_new.flat(), s_old.flat()) and lam_new == lam_old


def test_closed_form_ranks_decompose_nothing(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return decompose(*args, **kwargs)

    decompose = st.slater_decompose_two_particle
    monkeypatch.setattr(st, "slater_decompose_two_particle", counted)
    for make, seed in CANONICAL.values():
        wi.edge_state_decompose(make(), 2, seed=seed)
    assert len(calls) == 0
