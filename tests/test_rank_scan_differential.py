"""Seeded differential test of the bracketed contraction rank scan.

``slater_rank_by_contractions`` starts from the spectral rank of the cached
SVD and walks until ``rank_below(n + 1)`` holds and ``rank_below(n)`` fails.
The oracle below is the former scan, which asks every threshold from 1 up.
Both must return the same rank, at every rank, on states whose last
canonical value is 1e-3 to 1e-12 times the first, and at the tolerances
the CLI offers.
"""

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import states as st
from slaterkit.states import BOSON, FERMION, CONTRACT_RTOL, WrongKindError

RTOLS = (1e-8, 1e-6, 1e-4)
RATIOS = (None,) + tuple(10.0 ** -e for e in range(3, 13))


def _linear_scan(state, rtol=CONTRACT_RTOL):
    if state.kind == FERMION:
        upper = state.dim // 2
        test = st.two_fermion_rank_below
    elif state.kind == BOSON:
        upper = state.dim
        test = st.two_boson_rank_below
    else:
        raise WrongKindError("expected a fermionic or bosonic state")
    for n in range(1, upper + 1):
        if test(state, n, rtol=rtol).claim.startswith("rank_lt"):
            return n - 1
    return upper


def _state(kind, d, rank, ratio, rng):
    """Rotated state with ``rank`` canonical values, the last ``ratio`` times
    the first (a generic weight when ``ratio`` is None)."""
    weights = np.abs(rng.standard_normal(rank)) + 0.15
    weights[0] = max(weights)
    if ratio is not None and rank > 1:
        weights[-1] = ratio * weights[0]
    amps = weights / np.linalg.norm(weights) * np.exp(2j * np.pi * rng.random(rank))
    if kind == FERMION:
        base = st.fermion_state(d, 2, {(2 * i, 2 * i + 1): a for i, a in enumerate(amps)})
    else:
        base = st.boson_state(d, 2, {(i, i): a for i, a in enumerate(amps)})
    return st.apply_single_particle(base, la.haar_unitary(d, rng))


def _cases():
    for kind, dims in ((FERMION, range(2, 13)), (BOSON, range(1, 8))):
        for d in dims:
            for rank in range(1, (d // 2 if kind == FERMION else d) + 1):
                yield kind, d, rank


def _guess(state, rtol):
    s = la.singular_values(state.matrix())
    count = int(np.count_nonzero(s > rtol * s[0]))
    upper = state.dim // 2 if state.kind == FERMION else state.dim
    return min((count + 1) // 2 if state.kind == FERMION else count, upper)


@pytest.mark.parametrize("kind, d, rank", list(_cases()))
def test_bracketed_scan_matches_the_linear_scan(kind, d, rank, monkeypatch):
    name = "two_fermion_rank_below" if kind == FERMION else "two_boson_rank_below"
    public = getattr(st, name)
    calls, svds = [], []
    monkeypatch.setattr(st, name, lambda *a, **k: calls.append(a[1]) or public(*a, **k))
    monkeypatch.setattr(st, "singular_values", lambda m: svds.append(m) or la.singular_values(m))
    rng = np.random.default_rng([d, rank, 0 if kind == FERMION else 1])
    for ratio in RATIOS:
        state = _state(kind, d, rank, ratio, rng)
        for rtol in RTOLS:
            st._contraction_operand.cache_clear()
            expected = _linear_scan(state, rtol)
            st._contraction_operand.cache_clear()
            del calls[:], svds[:]
            assert st.slater_rank_by_contractions(state, rtol=rtol) == expected
            assert len(svds) == 1
            off = abs(_guess(state, rtol) - expected)
            assert len(calls) <= off + 2
            if ratio is None:
                assert expected == rank and len(calls) <= 2


def test_a_guess_above_the_rank_walks_down(monkeypatch):
    """Canonical values ``(1, 1e-3, 1e-3)`` all exceed ``rtol = 1e-4`` times the
    first, so the spectrum guesses rank 3; but the threshold-3 contraction,
    the product of all three, is below tolerance: the scan asks 4, 3, 2."""
    public, calls = st.two_boson_rank_below, []
    monkeypatch.setattr(st, "two_boson_rank_below", lambda *a, **k: calls.append(a[1]) or public(*a, **k))
    weights = np.array([1.0, 1e-3, 1e-3]) / np.linalg.norm([1.0, 1e-3, 1e-3])
    state = st.boson_state(4, 2, {(i, i): w for i, w in enumerate(weights)})
    assert _guess(state, 1e-4) == 3 and _linear_scan(state, 1e-4) == 2
    del calls[:]
    assert st.slater_rank_by_contractions(state, rtol=1e-4) == 2
    assert calls == [4, 3, 2]
