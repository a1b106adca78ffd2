"""Differential test: principal-minor contractions against the term tables.

The term-table builders below are the former implementation of
``linalg.epsilon_contract``: every term of the Levi-Civita sum is listed
explicitly, so the table grows factorially.  They are kept here only as an
independent oracle for small dimensions.
"""

import itertools
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from slaterkit import linalg as la
from slaterkit import states as st
from slaterkit.errors import ValidationError


def _perm_sign(seq):
    sign = 1
    seq = tuple(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _matchings(items):
    """All partitions of ``items`` into increasing pairs."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, other in enumerate(rest):
        for tail in _matchings(rest[:i] + rest[i + 1:]):
            yield ((first, other),) + tail


def _single_table(d, n_ops, free_count):
    canonical = []
    for matching in _matchings(tuple(range(2 * n_ops))):
        for assignment in itertools.permutations(matching):
            flat = tuple(itertools.chain.from_iterable(assignment))
            canonical.append((assignment, _perm_sign(flat)))
    free_tuples = list(itertools.combinations(range(d), free_count))
    n_terms = len(free_tuples) * len(canonical)
    idx = np.empty((n_ops, n_terms), dtype=np.intp)
    sgn = np.empty(n_terms, dtype=np.int64)
    t = 0
    for alpha in free_tuples:
        rest = [i for i in range(d) if i not in alpha]
        base = _perm_sign(tuple(rest) + alpha) * 2 ** n_ops
        for assignment, csign in canonical:
            for k, (a, b) in enumerate(assignment):
                idx[k, t] = rest[a] * d + rest[b]
            sgn[t] = base * csign
            t += 1
    return free_tuples, idx, sgn, len(canonical)


def _paired_table(d, n_ops, free_count):
    canonical = []
    for rho in itertools.permutations(range(n_ops)):
        for tau in itertools.permutations(range(n_ops)):
            canonical.append((rho, tau, _perm_sign(rho) * _perm_sign(tau)))
    free_tuples = list(itertools.combinations(range(d), free_count))
    n_terms = len(free_tuples) * len(canonical)
    idx = np.empty((n_ops, n_terms), dtype=np.intp)
    sgn = np.empty(n_terms, dtype=np.int64)
    t = 0
    for alpha in free_tuples:
        rest = [i for i in range(d) if i not in alpha]
        for rho, tau, csign in canonical:
            for k in range(n_ops):
                idx[k, t] = rest[rho[k]] * d + rest[tau[k]]
            sgn[t] = csign
            t += 1
    return free_tuples, idx, sgn, len(canonical)


def table_contract(operands, pattern, free_count):
    """The literal term-table evaluation of an epsilon contraction."""
    d, n_ops = operands[0].shape[0], len(operands)
    build = _single_table if pattern == "single" else _paired_table
    free_tuples, idx, sgn, per_tuple = build(d, n_ops, free_count)
    prod = sgn.astype(complex)
    for k, m in enumerate(operands):
        prod = prod * m.ravel()[idx[k]]
    values = prod.reshape(len(free_tuples), per_tuple).sum(axis=1)
    return dict(zip(free_tuples, values.tolist()))


def _random(n, gen, sign):
    a = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    return a + sign * a.T


def _cases():
    for d in range(2, 9, 2):
        for k in range(1, d // 2 + 1):
            yield "single", d, k
    for d in range(1, 6):
        for k in range(1, d + 1):
            yield "paired", d, k


@pytest.mark.parametrize("pattern,d,k", list(_cases()))
def test_minor_contraction_matches_term_table(pattern, d, k):
    gen = np.random.default_rng(1000 * d + 10 * k + (pattern == "paired"))
    sign = -1 if pattern == "single" else 1
    free = d - 2 * k if pattern == "single" else d - k
    w = _random(d, gen, sign)
    operand_sets = [
        (w,) * k,                                          # equal operands
        tuple(_random(d, gen, sign) for _ in range(k)),    # all distinct
        (w,) * (k - 1) + (_random(d, gen, sign),),         # the Jacobian's shape
    ]
    for ops in operand_sets:
        got = la.epsilon_contract(la.EpsilonContractionSpec(ops, pattern, free))
        want = table_contract(ops, pattern, free)
        assert list(got) == list(want)
        scale = max(abs(v) for v in want.values())
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * scale


def test_full_contractions_at_large_dimension_match_pfaffian_and_determinant():
    gen = np.random.default_rng(77)
    fermion = st.random_pure_state("fermion", 12, 2, gen)
    boson = st.random_pure_state("boson", 8, 2, gen)
    for state, upper in ((fermion, 6), (boson, 8)):
        start = time.perf_counter()
        assert st.slater_rank_by_contractions(state) == upper
        assert time.perf_counter() - start < 1.0
    # d = 16, no timing bound: a rank-8 state and a rotated rank-5 state
    large = (st.random_pure_state("fermion", 16, 2, gen),
             st.random_slater_rank_state("fermion", 16, 5, gen))
    ranks = [st.slater_decompose_two_particle(state).rank for state in large]
    assert ranks == [8, 5]
    assert [st.slater_rank_by_contractions(state) for state in large] == ranks
    w, v = fermion.matrix(), boson.matrix()
    full_w = la.epsilon_contract(la.EpsilonContractionSpec((w,) * 6, "single", 0))[()]
    expect_w = 2 ** 6 * math.factorial(6) * la.pfaffian(w)
    assert abs(full_w - expect_w) <= 1e-10 * abs(expect_w)
    full_v = la.epsilon_contract(la.EpsilonContractionSpec((v,) * 8, "paired", 0))[()]
    expect_v = math.factorial(8) * np.linalg.det(v)
    assert abs(full_v - expect_v) <= 1e-10 * abs(expect_v)


def test_term_guard_counts_the_work_on_the_minors():
    gen = np.random.default_rng(5)
    # C(18, 10) * 10**3 = 43,758,000 Parlett-Reid operations: refused before any work
    w = _random(18, gen, -1)
    with pytest.raises(ValidationError):
        la.epsilon_contract(la.EpsilonContractionSpec((w,) * 5, "single", 8))
    # C(18, 14) * 14**3 = 8,396,640 operations: admitted
    values = la.epsilon_contract(la.EpsilonContractionSpec((w,) * 7, "single", 4))
    assert len(values) == math.comb(18, 4)
    # C(18, 9) * 9**3 = 35,441,980 LU operations
    v = _random(18, gen, 1)
    with pytest.raises(ValidationError):
        la.epsilon_contract(la.EpsilonContractionSpec((v,) * 9, "paired", 9))


def test_term_guard_counts_every_operand_combination():
    gen = np.random.default_rng(6)
    # C(14, 10) * 10**3 = 1,001,000 per combination: one for equal operands
    w = _random(14, gen, -1)
    values = la.epsilon_contract(la.EpsilonContractionSpec((w,) * 5, "single", 4))
    assert len(values) == math.comb(14, 4)
    # five distinct operands stack 2**5 combinations: 32,032,000, refused
    distinct = tuple(_random(14, gen, -1) for _ in range(5))
    with pytest.raises(ValidationError, match="32032000 terms"):
        la.epsilon_contract(la.EpsilonContractionSpec(distinct, "single", 4))


def test_readme_scan_limits_match_the_guard():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"fermions up to d = (\d+) and for bosons up to d = (\d+)",
                       " ".join(readme.split()))
    assert stated, "README no longer states the scan limits"
    gen = np.random.default_rng(17)
    fermion_d, boson_d = int(stated[1]), int(stated[2])
    # (kind, stated d, next d, costliest threshold, minor size per operand)
    for kind, d, next_d, costliest, per_operand in (("fermion", fermion_d, fermion_d + 1, 5, 2),
                                                    ("boson", boson_d, boson_d + 1, 10, 1)):
        cost = {k: math.comb(d, per_operand * k) * (per_operand * k) ** 3
                for k in range(1, d // per_operand + 1)}
        assert max(cost, key=cost.get) == costliest
        state = st.random_pure_state(kind, d, 2, gen)
        rank_below = st.two_fermion_rank_below if kind == "fermion" else st.two_boson_rank_below
        assert rank_below(state, costliest).claim == f"rank_ge_{costliest}"
        pattern, sign = ("single", -1) if kind == "fermion" else ("paired", 1)
        spec = la.EpsilonContractionSpec((_random(next_d, gen, sign),) * costliest, pattern,
                                         next_d - per_operand * costliest)
        with pytest.raises(ValidationError, match="would expand"):
            la.epsilon_contract(spec)


def test_minor_index_tables_are_read_only():
    free_tuples, positions, signs = la._minor_index(6, 4)
    assert len(free_tuples) == 15
    for table in (positions, signs):
        with pytest.raises(ValueError):
            table[0] = 0


def _dict_max_rank_below(state, threshold, rtol=la.CONTRACT_RTOL):
    """The former ``states._rank_below``, which took the peak contraction
    value by a ``max`` over the dict keyed by each value's modulus."""
    d = state.dim
    if state.kind == st.FERMION:
        pattern, free, weight = "single", d - 2 * threshold, 2.0 ** threshold
    else:
        pattern, free, weight = "paired", d - threshold, 1.0
    m = state.matrix()
    values = la.epsilon_contract(la.EpsilonContractionSpec((m,) * threshold, pattern, free))
    scale = weight * math.factorial(threshold) * float(la.singular_values(m)[0]) ** threshold
    tol = rtol * max(scale, np.finfo(float).tiny)
    argmax = max(values, key=lambda t: abs(values[t]))
    peak = abs(values[argmax])
    claim = f"rank_lt_{threshold}" if peak <= tol else f"rank_ge_{threshold}"
    return st.RankVerdict(claim, {
        "kind": "contraction",
        "threshold": threshold,
        "max_abs_contraction": peak,
        "argmax_free_indices": argmax,
        "tolerance": tol,
    })


@pytest.mark.parametrize("kind, d", [("fermion", d) for d in (4, 6, 8, 10)]
                         + [("boson", d) for d in (3, 4, 5, 6)])
def test_rank_below_matches_the_dict_max(kind, d):
    # perfbench's rank part: every rank and threshold of its dimensions,
    # on rotated canonical states, five draws each
    top = d // 2 if kind == "fermion" else d
    test = st.two_fermion_rank_below if kind == "fermion" else st.two_boson_rank_below
    gen = np.random.default_rng([d, len(kind)])
    for _ in range(5):
        for rank in range(1, top + 1):
            state = st.random_slater_rank_state(kind, d, rank, gen)
            for threshold in range(1, top + 1):
                assert test(state, threshold) == _dict_max_rank_below(state, threshold)
