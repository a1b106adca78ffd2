"""Differential test: the stacked range search against the restart loop.

``_looped_find_in_range`` below is the former ``witnesses._find_in_range``:
one Gauss-Newton restart at a time, with two Levi-Civita contractions per
residual and one per Jacobian column on every step.  It is kept here only
as the reference for the stacked search over the precomputed range
polynomial (``witnesses._range_system``).
"""

import math

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import mixed, sectors
from slaterkit import states as st
from slaterkit import witnesses as wi
from slaterkit.linalg import as_rng
from slaterkit.witnesses import RangeSearch, _truncate_to_rank


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
        return None, RangeSearch(0, 0, 0, 0)

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
            return snapped, RangeSearch(tried, solved, truncated, outside)
        outside += 1
    return None, RangeSearch(tried, solved, truncated, outside)


@pytest.fixture()
def looped(monkeypatch):
    """Run an edge decomposition with the restart loop in place of the stacked search."""

    def run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(wi, "_find_in_range", _looped_find_in_range)
            return wi.edge_state_decompose(*args, **kwargs)

    return run


def _edge_mixture(seed):
    """perfbench's ``edge_mixture``: a rotated mixture of a cross-pair
    determinant and the maximally correlated state of two fermions, d = 4."""
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.3, 0.7))
    det = st.fermion_state(4, 2, {(0, 2): 1.0})
    mc = st.maximally_correlated_state("fermion", 2)
    rho = mixed.density_from_mixture([(1 - p, det), (p, mc)])
    lift = sectors.lift_unitary(sectors.ANTISYMMETRIC, la.haar_unitary(4, rng), 2)
    return mixed.density_matrix(rho.space, lift @ rho.matrix @ lift.conj().T)


def _half_split():
    """``tests/test_witnesses.py``'s edge mixture, also criterion 9's state."""
    return mixed.density_from_mixture([(0.5, st.fermion_state(4, 2, {(0, 2): 1.0})),
                                       (0.5, st.maximally_correlated_state("fermion", 2))])


def _boson_products():
    """Two bosonic product states ``|e, e>`` and the maximally correlated state, d = 3.

    Every restart fails here: with as many contraction values as range
    coordinates the Jacobian is square and invertible, so the Gauss-Newton
    step of the homogeneous system is the radial ``c / k`` that renormalizing
    undoes.
    """
    rng = np.random.default_rng(6)
    pairs = [(0.3, st.boson_state_from_tensor(np.outer(e, e) / math.sqrt(2)))
             for e in (la.haar_vector(3, rng) for _ in range(2))]
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


def _assert_same(new, old):
    assert new.searches == old.searches
    assert abs(new.weight - old.weight) <= 1e-10
    assert len(new.subtraction_log) == len(old.subtraction_log)
    for (s_new, lam_new), (s_old, lam_old) in zip(new.subtraction_log, old.subtraction_log):
        assert abs(lam_new - lam_old) <= 1e-10
        assert abs(abs(np.vdot(s_new.flat(), s_old.flat())) - 1.0) <= 1e-10
    for part in ("edge_state", "lower_class_part"):
        a, b = getattr(new, part), getattr(old, part)
        assert (a is None) == (b is None)
        if a is not None:
            assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-10


@pytest.mark.parametrize("case", list(CASES))
def test_decomposition_matches_the_loop(case, looped):
    make, k, budget, seed = CASES[case]
    rho = make()
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = wi.edge_state_decompose(rho, k, budget=budget, seed=new_rng)
    old = looped(rho, k, budget=budget, seed=old_rng)
    _assert_same(new, old)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert all(type(n) is int for search in new.searches for n in search)
    # an integer seed takes the same path through a fresh generator
    _assert_same(wi.edge_state_decompose(rho, k, budget=budget, seed=seed), new)


@pytest.mark.parametrize("rejected", [1, 3, 6])
def test_winner_inside_a_chunk_matches_the_loop(rejected, monkeypatch):
    # refusing the first truncations moves the kept restart into the chunks
    # of 2 and 4, past solved restarts of its own chunk
    truncate = wi._truncate_to_rank

    def run(search):
        calls = []

        def reject_first(space, k, psi):
            calls.append(psi)
            return None if len(calls) <= rejected else truncate(space, k, psi)

        rng = np.random.default_rng(11)
        with monkeypatch.context() as patch:
            patch.setattr(wi, "_find_in_range", search)
            patch.setattr(wi, "_truncate_to_rank", reject_first)
            patch.setitem(globals(), "_truncate_to_rank", reject_first)
            out = wi.edge_state_decompose(_edge_mixture(11), 2, seed=rng)
        return out, rng.bit_generator.state

    (new, new_state), (old, old_state) = run(wi._find_in_range), run(_looped_find_in_range)
    _assert_same(new, old)
    assert new_state == old_state
    assert new.searches[0].truncation_rejected == rejected
    assert new.searches[0].tried == new.searches[0].solved == rejected + 1


# ---------------------------------------------------------------------------
# the range polynomial and its size guard
# ---------------------------------------------------------------------------

SYSTEMS = [(mixed.ANTISYMMETRIC, d, k) for d, ks in ((4, (2,)), (6, (2, 3)), (8, (2, 3)))
           for k in ks] + [(mixed.SYMMETRIC, d, k) for d in (3, 4) for k in (2, 3)]


def _range_mats(kind, d, r, rng):
    dim = math.comb(d, 2) if kind == mixed.ANTISYMMETRIC else math.comb(d + 1, 2)
    basis, _ = np.linalg.qr(rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r)))
    return np.array([sectors.tensor_from_amps(kind, d, 2, basis[:, j]) for j in range(r)])


def _pattern(kind, d, k):
    return ("single", d - 2 * k) if kind == mixed.ANTISYMMETRIC else ("paired", d - k)


def _contract(ops, pattern, free):
    spec = la.EpsilonContractionSpec(tuple(ops), pattern, free)
    return np.array(list(la.epsilon_contract(spec).values()))


@pytest.mark.parametrize("system", SYSTEMS)
def test_polynomial_matches_the_contractions(system, monkeypatch):
    kind, d, k = system
    rng = np.random.default_rng(10 * d + k)
    mats = _range_mats(kind, d, 4, rng)
    pattern, free = _pattern(kind, d, k)
    c = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    f_ref = np.array([_contract((w,) * k, pattern, free) for w in np.tensordot(c, mats, 1)])
    j_ref = np.array([np.column_stack([k * _contract((w,) * (k - 1) + (b,), pattern, free)
                                       for b in mats]) for w in np.tensordot(c, mats, 1)])
    scale = np.abs(f_ref).max(), np.abs(j_ref).max()

    def check(fill):
        assert np.abs(fill(c, k) - f_ref).max() <= 1e-12 * scale[0]
        jac = k * fill(c, k - 1).reshape(3, 4, -1).swapaxes(1, 2)
        assert np.abs(jac - j_ref).max() <= 1e-12 * scale[1]
        assert fill(c[:0], k).shape == (0, math.comb(d, free))

    check(wi._range_system(mats, k, pattern, free))
    # one entry short of T: every row is contracted afresh, and each single
    # contraction still fits the budget
    monkeypatch.setattr(la, "_MAX_CONTRACTION_TERMS", math.comb(d, free) * 4 ** k - 1)
    check(wi._range_system(mats, k, pattern, free))


def _counted_contractions(monkeypatch):
    calls = []
    contract = la.epsilon_contract

    def counting(spec):
        calls.append(spec)
        return contract(spec)

    monkeypatch.setattr(la, "epsilon_contract", counting)
    return calls


@pytest.mark.parametrize("case, limit", [("known-split", 3), ("boson-products", 24),
                                         ("edge-mixture-2", 3)])
def test_row_wise_guard_gives_the_same_decomposition(case, limit, monkeypatch):
    make, k, budget, seed = CASES[case]
    rho = make()
    calls = _counted_contractions(monkeypatch)
    polynomial = wi.edge_state_decompose(rho, k, budget=budget, seed=seed)
    n_polynomial = len(calls)
    monkeypatch.setattr(la, "_MAX_CONTRACTION_TERMS", limit)
    row_wise = wi.edge_state_decompose(rho, k, budget=budget, seed=seed)
    assert len(calls) - n_polynomial > n_polynomial
    _assert_same(row_wise, polynomial)
