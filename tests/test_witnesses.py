"""Witness construction, edge decompositions, optimization, positive maps."""

import numpy as np
import pytest
from rank_samples import sample_rank_bounded
from test_range_search_differential import _boson_products, _product_vectors

from slaterkit import linalg as la
from slaterkit import mixed as mx
from slaterkit import sectors
from slaterkit import states as st
from slaterkit import witnesses as wi
from slaterkit.errors import (
    NotAnEdgeStateError,
    NotInRangeError,
    NumericalFailureError,
    OutOfRangeError,
    SpaceMismatchError,
    UnsupportedSystemError,
    ValidationError,
)

SPACE_F4 = mx.antisymmetric_space(4)


def maxcorr_projector():
    return mx.density_from_pure(st.maximally_correlated_state("fermion", 2))


def g_family_state(phis):
    p11, p12, p21, p22 = phis
    g1 = np.array([np.exp(1j * p11), np.exp(1j * p12), np.exp(1j * p21), np.exp(1j * p22)])
    g2 = np.array([-np.exp(-1j * p12), np.exp(-1j * p11), -np.exp(-1j * p22), np.exp(-1j * p21)])
    w = (np.outer(g1, g2) - np.outer(g2, g1)) / 2
    return st.fermion_state_from_tensor(w / 4)


# ---------------------------------------------------------------------------
# the canonical optimal witness
# ---------------------------------------------------------------------------

def test_optimal_witness_detects_maximally_correlated():
    w = wi.optimal_witness_example(2, 2, "fermion")
    value = wi.witness_value(w, maxcorr_projector())
    assert abs(value.value + 1.0) < 1e-12 and value.detected


def test_optimal_witness_vanishes_on_pair_states():
    w = wi.optimal_witness_example(2, 2, "fermion")
    for pair in ((0, 1), (2, 3)):
        rho = mx.density_from_pure(st.fermion_state(4, 2, {pair: 1.0}))
        assert abs(wi.witness_value(w, rho).value) < 1e-10


def test_optimal_witness_vanishes_on_phase_family():
    w = wi.optimal_witness_example(2, 2, "fermion")
    gen = np.random.default_rng(0)
    for _ in range(50):
        state = g_family_state(gen.uniform(0, 2 * np.pi, 4))
        assert abs(wi.witness_value(w, mx.density_from_pure(state)).value) < 1e-10


def test_optimal_witness_sampled_nonnegativity():
    for big_k, k, kind in ((2, 2, "fermion"), (3, 2, "fermion"), (3, 3, "fermion"),
                           (4, 3, "fermion"), (3, 2, "boson"), (3, 3, "boson"),
                           (4, 4, "boson")):
        w = wi.optimal_witness_example(big_k, k, kind)  # the exact infimum check runs inside
        vecs = sample_rank_bounded(w.space, k - 1, 200, 123)
        vals = np.einsum("ni,ij,nj->n", vecs.conj(), w.matrix, vecs).real
        assert vals.min() >= -1e-8


def test_optimal_witness_on_maximally_mixed():
    w = wi.optimal_witness_example(2, 2, "fermion")
    mm = mx.density_matrix(SPACE_F4, np.eye(6) / 6)
    value = wi.witness_value(w, mm)
    assert abs(value.value - (1 - 2 / 6)) < 1e-12
    assert not value.detected


def test_optimal_witness_range_checks():
    with pytest.raises(OutOfRangeError):
        wi.optimal_witness_example(2, 3, "fermion")
    with pytest.raises(OutOfRangeError):
        wi.optimal_witness_example(2, 1, "boson")


def test_witness_value_space_mismatch():
    w = wi.optimal_witness_example(2, 2, "fermion")
    rho = mx.density_from_pure(st.maximally_correlated_state("boson", 2))
    with pytest.raises(SpaceMismatchError):
        wi.witness_value(w, rho)


def test_invalid_witness_is_rejected():
    # -identity is negative on every rank-1 state
    with pytest.raises(ValidationError):
        wi.witness_operator(SPACE_F4, -np.eye(6), 2)


def test_witness_with_a_nan_entry_is_rejected():
    m = np.eye(6, dtype=complex)
    m[2, 3] = np.nan
    with pytest.raises(ValidationError, match="inf"):
        wi.witness_operator(SPACE_F4, m, 2)


@pytest.mark.parametrize("shape", [(2, 2), (6, 5)])
def test_witness_of_the_wrong_shape_is_rejected(shape):
    with pytest.raises(ValidationError, match=r"does not match sector dimension 6"):
        wi.witness_operator(SPACE_F4, np.eye(*shape), 2)


def test_manifold_search_refuses_an_empty_budget():
    with pytest.raises(ValidationError, match="budget"):
        wi.infimum_over_rank(np.eye(6), 2, SPACE_F4, budget=0)


def _operators_on_both_paths():
    """An identity-plus-rank-one witness (closed form) and one that searches."""
    return {"closed": wi.optimal_witness_example(2, 2, "fermion"),
            "search": perturbed_optimal_witness(2, "fermion", 0)}


@pytest.mark.parametrize("path", ["closed", "search"])
@pytest.mark.parametrize("kwargs, match", [
    ({"iters": 0}, "iters must be at least 1 step, got 0"),
    ({"iters": -2}, "iters must be at least 1 step, got -2"),
    ({"budget": 0}, "budget must be at least 1 restart, got 0"),
])
def test_infima_and_optimization_refuse_empty_searches_on_both_paths(path, kwargs, match):
    # iters = 0 used to take the unminimized starts as the infimum
    w = _operators_on_both_paths()[path]
    calls = [lambda: wi.infimum_over_rank(w.matrix, 2, w.space, **kwargs),
             lambda: wi.infimum_details(w.matrix, 2, w.space, **kwargs),
             lambda: wi.witness_optimize(w, **kwargs)]
    for call in calls:
        with pytest.raises(ValidationError, match=match):
            call()


@pytest.mark.parametrize("path", ["closed", "search"])
@pytest.mark.parametrize("function", [wi.infimum_over_rank, wi.infimum_details])
def test_infima_check_operator_and_class_on_both_paths(path, function):
    w = _operators_on_both_paths()[path]
    with pytest.raises(OutOfRangeError, match="below 1"):
        function(w.matrix, 1, w.space)
    with pytest.raises(UnsupportedSystemError):
        function(w.matrix, 2, mx.bipartite_space(2, 3))
    with pytest.raises(ValidationError, match="does not match sector dimension 6"):
        function(w.matrix[:5, :5], 2, w.space)
    skew = np.zeros((6, 6), dtype=complex)
    skew[0, 1], skew[1, 0] = 1e-3, -1e-3
    with pytest.raises(ValidationError, match="h - h"):
        function(w.matrix + skew, 2, w.space)


def test_witness_detection_conjugation_covariant():
    w = wi.optimal_witness_example(2, 2, "fermion")
    gen = np.random.default_rng(1)
    rho = mx.density_from_mixture(
        [(p, st.random_pure_state("fermion", 4, 2, gen)) for p in gen.dirichlet(np.ones(3))])
    base = wi.witness_value(w, rho).value
    for _ in range(5):
        u = sectors.lift_unitary(sectors.ANTISYMMETRIC, la.haar_unitary(4, gen), 2)
        w2 = wi.witness_operator(SPACE_F4, u @ w.matrix @ u.conj().T, 2)
        rho2 = mx.density_matrix(SPACE_F4, u @ rho.matrix @ u.conj().T)
        assert abs(wi.witness_value(w2, rho2).value - base) < 1e-10


# ---------------------------------------------------------------------------
# subtraction
# ---------------------------------------------------------------------------

def test_subtract_orthogonal_projectors():
    p1 = st.fermion_state(4, 2, {(0, 1): 1.0})
    p2 = st.fermion_state(4, 2, {(2, 3): 1.0})
    rho = mx.density_from_mixture([(0.5, p1), (0.5, p2)])
    result = wi.subtract_pure_projector(rho, p1)
    assert abs(result.lambda_max - 0.5) < 1e-12
    expected = np.outer(p2.flat(), p2.flat().conj())
    assert np.max(np.abs(result.remainder.matrix - expected)) < 1e-10


def test_subtract_full_projector_boundary():
    psi = st.maximally_correlated_state("fermion", 2)
    result = wi.subtract_pure_projector(mx.density_from_pure(psi), psi)
    assert result.lambda_max == 1.0 and result.remainder is None


def test_subtract_random_rank3():
    gen = np.random.default_rng(2)
    rho = mx.density_from_mixture(
        [(p, st.random_pure_state("fermion", 4, 2, gen)) for p in gen.dirichlet(np.ones(3))])
    spec = mx.subnormalized_spectrum(rho)
    basis, _ = np.linalg.qr(spec.vectors)
    vec = basis @ (basis.conj().T @ st.random_pure_state("fermion", 4, 2, gen).flat())
    psi = mx.state_from_sector_vector(SPACE_F4, vec)
    result = wi.subtract_pure_projector(rho, psi)
    assert result.remainder.rank() == 2
    assert np.linalg.eigvalsh(result.remainder.matrix)[0] >= -1e-10
    v = psi.flat() / np.linalg.norm(psi.flat())
    pinv = np.linalg.pinv(rho.matrix, rcond=la.RANK_RTOL, hermitian=True)
    assert abs(result.lambda_max - 1.0 / np.vdot(v, pinv @ v).real) < 1e-12


def test_subtract_not_in_range():
    p1 = st.fermion_state(4, 2, {(0, 1): 1.0})
    p2 = st.fermion_state(4, 2, {(2, 3): 1.0})
    rho = mx.density_from_mixture([(0.5, p1), (0.5, p2)])
    with pytest.raises(NotInRangeError):
        wi.subtract_pure_projector(rho, st.fermion_state(4, 2, {(0, 2): 1.0}))


# ---------------------------------------------------------------------------
# edge decomposition
# ---------------------------------------------------------------------------

def test_edge_decompose_class1_state():
    gen = np.random.default_rng(3)
    rho = mx.density_from_mixture([
        (0.6, st.fermion_state(4, 2, {(0, 2): 1.0})),
        (0.4, st.fermion_state(4, 2, {(1, 3): 1.0}))])
    result = wi.edge_state_decompose(rho, 2, budget=24, seed=gen)
    assert result.weight == 0.0 and result.edge_state is None
    recon = result.lower_class_part.matrix
    assert np.max(np.abs(recon - rho.matrix)) < 1e-8
    for state, _ in result.subtraction_log:
        assert st.slater_rank_by_contractions(state) <= 1


def test_edge_decompose_known_construction():
    mc = st.maximally_correlated_state("fermion", 2)
    det = st.fermion_state(4, 2, {(0, 2): 1.0})
    rho = mx.density_from_mixture([(0.5, det), (0.5, mc)])
    result = wi.edge_state_decompose(rho, 2, seed=4)
    assert abs(result.weight - 0.5) < 0.05
    recon = (result.weight * result.edge_state.matrix
             + (1 - result.weight) * result.lower_class_part.matrix)
    assert np.max(np.abs(recon - rho.matrix)) < 1e-8
    fidelity = np.real(np.vdot(mc.flat(), result.edge_state.matrix @ mc.flat()))
    assert fidelity > 1 - 1e-6


def test_edge_decompose_pure_edge_state():
    rho = maxcorr_projector()
    result = wi.edge_state_decompose(rho, 2, budget=24, seed=5)
    assert result.weight == 1.0
    assert not result.subtraction_log
    assert np.max(np.abs(result.edge_state.matrix - rho.matrix)) < 1e-12


def test_edge_decompose_class_three():
    # rank-2 part in modes (0..3) mixed with the K=3 maximally correlated state
    rank2 = st.fermion_state(6, 2, {(0, 1): 0.8, (2, 3): 0.6})
    mc3 = st.maximally_correlated_state("fermion", 3)
    rho = mx.density_from_mixture([(0.4, rank2), (0.6, mc3)])
    result = wi.edge_state_decompose(rho, 3, budget=24, seed=12)
    assert result.subtraction_log
    for state, _ in result.subtraction_log:
        assert st.slater_rank_by_contractions(state) <= 2
    if result.edge_state is not None:
        recon = (result.weight * result.edge_state.matrix
                 + (1 - result.weight) * result.lower_class_part.matrix)
    else:
        recon = result.lower_class_part.matrix
    assert np.max(np.abs(recon - rho.matrix)) < 1e-8


def edge_mixture():
    mc = st.maximally_correlated_state("fermion", 2)
    det = st.fermion_state(4, 2, {(0, 2): 1.0})
    return mx.density_from_mixture([(0.5, det), (0.5, mc)])


def five_mode_edge_mixture():
    """``edge_mixture`` in d = 5, no canonical system, so its split runs the
    range search.  The determinant holds mode 4, so its line is a simple root
    (the d = 4 determinant's double root defeats the search in d = 5)."""
    mc = st.fermion_state(5, 2, {(0, 1): np.sqrt(0.5), (2, 3): np.sqrt(0.5)})
    det = st.fermion_state(5, 2, {(0, 4): 1.0})
    return mx.density_from_mixture([(0.5, det), (0.5, mc)])


def test_edge_decompose_reports_range_searches():
    result = wi.edge_state_decompose(five_mode_edge_mixture(), 2, budget=24, seed=4)
    # one search per subtraction, then the one that finds nothing
    assert len(result.searches) == len(result.subtraction_log) + 1
    for search in result.searches[:-1]:
        assert 1 <= search.solved <= search.tried <= 24
        assert search.solved == search.range_rejected + 1
    # the edge part's range is one-dimensional: its one candidate is decided
    # by its Slater rank, with no restarts
    assert result.searches[-1] == wi.RangeSearch(0, 0, 0)


@pytest.mark.parametrize("budget", [0, -3])
def test_edge_decompose_refuses_an_empty_budget(budget):
    # a budget below 1 used to report the whole state as its edge part, unsearched
    with pytest.raises(ValidationError, match=f"budget must be at least 1 restart, got {budget}"):
        wi.edge_state_decompose(edge_mixture(), 2, budget=budget)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind, d", [("boson", 3), ("fermion", 6)])
def test_edge_decompose_exhausts_its_range_search_budget(kind, d, seed):
    # a generic two-dimensional range holds no product vector or Slater
    # determinant, so all four restarts run without a solution
    gen = np.random.default_rng(seed)
    rho = mx.density_from_mixture([(0.5, st.random_pure_state(kind, d, 2, gen)) for _ in range(2)])
    result = wi.edge_state_decompose(rho, 2, budget=4, seed=0)
    assert result.weight == 1.0 and result.subtraction_log == [] and result.lower_class_part is None
    assert result.searches == [wi.RangeSearch(4, 0, 0)]
    assert np.max(np.abs(result.edge_state.matrix - rho.matrix)) < 1e-12


def test_edge_decompose_counts_rejected_restarts(monkeypatch):
    plain = wi.edge_state_decompose(five_mode_edge_mixture(), 2, budget=24, seed=4)
    polish = wi._polish
    calls = []

    def reject_first(chart, kernel, x):
        calls.append(x)
        psi = polish(chart, kernel, x)
        return np.roll(psi, 1) if len(calls) == 1 else psi  # a vector outside the range

    monkeypatch.setattr(wi, "_polish", reject_first)
    result = wi.edge_state_decompose(five_mode_edge_mixture(), 2, budget=24, seed=4)
    first = result.searches[0]
    assert first.range_rejected == 1
    assert first.solved == 2 and first.tried >= 2
    assert result.searches[0].tried > plain.searches[0].tried
    assert abs(result.weight - 0.5) < 0.05


def test_edge_decompose_finds_bosonic_product_states():
    # both product states are subtracted and the edge part is the maximally
    # correlated state (seed 6 would start the search at the first ``e``)
    rho = _boson_products()
    result = wi.edge_state_decompose(rho, 2, seed=0)
    assert abs(result.weight - 0.4) < 1e-10
    assert len(result.subtraction_log) == 2
    for state, _ in result.subtraction_log:
        assert st.slater_rank_by_contractions(state) == 1
    mc = st.maximally_correlated_state("boson", 3).flat()
    assert np.real(np.vdot(mc, result.edge_state.matrix @ mc)) > 1 - 1e-8


@pytest.mark.parametrize("scale", [1e-3, 1e-6])
def test_polish_moves_a_nearby_chart_point_onto_the_range(scale):
    # the range has as many dimensions as the chart has coordinates, so an
    # unconstrained Gauss-Newton step would be radial and change nothing
    rho, e = _boson_products(), _product_vectors()[0]
    evals, evecs = np.linalg.eigh(rho.matrix)
    basis = evecs[:, evals > la.RANK_RTOL * evals[-1]]
    kernel = np.eye(rho.space.dim) - basis @ basis.conj().T
    chart = wi._SectorChart(rho.space, 2)
    x = np.concatenate([e.real, e.imag])
    x += scale * np.random.default_rng(1).standard_normal(x.size)
    start = chart.sector_vectors(x[None])[0]
    psi = wi._polish(chart, kernel, x)
    assert np.linalg.norm(kernel @ start) > 1e-3 * scale * np.linalg.norm(start)
    assert np.linalg.norm(kernel @ psi) <= 1e-14
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


@pytest.mark.parametrize("kind", ["fermion", "boson"])
def test_edge_decompose_decides_a_pure_state_without_restarts(kind):
    det = (st.fermion_state(4, 2, {(0, 2): 1.0}) if kind == "fermion"
           else st.boson_state_from_tensor(np.diag([1.0, 0.0, 0.0]) / np.sqrt(2)))
    mc = st.maximally_correlated_state(kind, 2 if kind == "fermion" else 3)
    lower = wi.edge_state_decompose(mx.density_from_pure(det), 2, seed=0)
    assert lower.weight == 0.0 and lower.edge_state is None
    assert lower.searches == [wi.RangeSearch(0, 0, 0)]
    edge = wi.edge_state_decompose(mx.density_from_pure(mc), 2, seed=0)
    assert edge.weight == 1.0 and not edge.subtraction_log
    assert edge.searches == [wi.RangeSearch(0, 0, 0)]


# ---------------------------------------------------------------------------
# witness from edge states, canonical form
# ---------------------------------------------------------------------------

def test_witness_from_edge_detects():
    delta = maxcorr_projector()
    w = wi.witness_from_edge(delta, 2, budget=24, seed=6)
    assert wi.witness_value(w, delta).value < -0.1
    # with C = delta the detection value is at least as negative
    w2 = wi.witness_from_edge(delta, 2, c_operator=delta.matrix, budget=24, seed=6)
    assert wi.witness_value(w2, delta).value <= wi.witness_value(w, delta).value + 1e-9


def test_witness_from_edge_checks_the_shape_of_c():
    # a 3 x 3 C on the six-dimensional sector used to fail inside numpy's matmul
    with pytest.raises(ValidationError, match="does not match sector dimension 6"):
        wi.witness_from_edge(maxcorr_projector(), 2, c_operator=np.eye(3), budget=8, seed=6)


def test_witness_from_edge_rejects_non_edge():
    rho = mx.density_from_mixture([
        (0.6, st.fermion_state(4, 2, {(0, 2): 1.0})),
        (0.4, st.fermion_state(4, 2, {(1, 3): 1.0}))])
    with pytest.raises(NotAnEdgeStateError):
        wi.witness_from_edge(rho, 2, budget=16, seed=7)


def test_witness_from_edge_raises_when_the_witness_does_not_detect(monkeypatch):
    # a positive operator in place of the constructed witness detects nothing;
    # the gate must hold under ``python -O`` as well, so it is no assert
    monkeypatch.setattr(wi, "_build_witness", lambda space, matrix, k, infimum: wi.WitnessOperator(
        space, np.eye(space.dim), k, 0.0, 1.0))
    with pytest.raises(NumericalFailureError):
        wi.witness_from_edge(maxcorr_projector(), 2, budget=8, seed=6)


def test_infimum_examples():
    assert abs(wi.infimum_over_rank(np.eye(6), 2, SPACE_F4, budget=8, seed=0) - 1.0) < 1e-9
    mc = st.maximally_correlated_state("fermion", 2).flat()
    p = np.eye(6) - np.outer(mc, mc.conj())
    assert abs(wi.infimum_over_rank(p, 2, SPACE_F4, budget=16, seed=0) - 0.5) < 1e-8
    det = st.fermion_state(4, 2, {(0, 1): 1.0}).flat()
    proj = np.outer(det, det.conj())
    assert wi.infimum_over_rank(proj, 2, SPACE_F4, budget=8, seed=0) < 1e-10


def test_canonical_witness_form():
    w = wi.optimal_witness_example(2, 2, "fermion")
    form = wi.canonical_witness_form(w, seed=1)
    assert abs(form.epsilon - 1.0) < 1e-10
    assert np.linalg.eigvalsh(form.w_tilde)[0] >= -1e-12
    assert np.max(np.abs(form.w_tilde - form.epsilon * np.eye(6) - w.matrix)) < 1e-12
    assert form.verified

    psd = wi.witness_operator(SPACE_F4, np.eye(6), 2)
    form2 = wi.canonical_witness_form(psd)
    assert form2.epsilon == 0.0 and form2.infimum_check is None

    delta = maxcorr_projector()
    w3 = wi.witness_from_edge(delta, 2, budget=16, seed=2)
    form3 = wi.canonical_witness_form(w3, seed=3)
    assert np.max(np.abs(form3.w_tilde - form3.epsilon * np.eye(6) - w3.matrix)) < 1e-12


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def test_optimize_flags_optimal_witness():
    w = wi.optimal_witness_example(2, 2, "fermion")
    outcome = wi.witness_optimize(w, budget=48, seed=8)
    assert outcome.optimal
    assert outcome.diagnostics["tangent_span_dim"] == 6
    assert np.max(np.abs(outcome.witness.matrix - w.matrix)) == 0.0


def test_optimize_reports_restart_convergence():
    # the optimal family takes the closed form, so a perturbed witness searches
    w = perturbed_optimal_witness(3, "boson", 10)
    diag = wi.witness_optimize(w, budget=24, seed=10).diagnostics
    assert diag["infimum_restarts"] == 24
    assert 0 < diag["restarts_converged"] <= 24
    assert 0 < diag["max_iterations"] <= 400
    # one step converges no start: the report must say so, not drop it
    short = wi.witness_optimize(w, budget=24, iters=1, seed=10).diagnostics
    assert short["restarts_converged"] == 0 and short["max_iterations"] == 1


def test_optimize_returns_only_witnesses():
    # one L-BFGS step leaves the infimum at 3.3e-3 above its true value of
    # about 0, and subtracting that from W gives an operator that is no witness
    w = perturbed_optimal_witness(3, "boson", 10)
    outcome = wi.witness_optimize(w, budget=24, iters=1, seed=10)
    assert wi.infimum_details(outcome.witness.matrix, 2, w.space)[0] >= wi.WITNESS_SAMPLE_TOL
    assert outcome.witness is w and outcome.subtracted_weight == 0.0 and not outcome.optimal


def test_stacked_lbfgs_runs_each_start_as_if_alone():
    # a double well per coordinate: starts end in different minima after
    # different numbers of steps, and one start begins at a minimum
    def double_well(x):
        return ((x ** 2 - 1.0) ** 2).sum(1), 4.0 * x * (x ** 2 - 1.0)

    starts = np.array([[1.0, -1.0, 1.0], [0.5, -2.0, 1.5], [3.0, 0.2, -0.7],
                       [-1.3, 1.1, 0.9], [0.05, -0.4, 2.5]])
    x, f, converged, iterations = wi._lbfgs(double_well, starts, 200)
    assert converged.all() and np.max(f) < 1e-12
    assert np.max(np.abs(np.abs(x) - 1.0)) < 1e-6
    assert iterations[0] == 0 and np.all(iterations[1:] > 0)
    for i, start in enumerate(starts):
        xi, fi, ci, ni = wi._lbfgs(double_well, start[None, :], 200)
        assert np.array_equal(xi[0], x[i]) and fi[0] == f[i]
        assert ci[0] == converged[i] and ni[0] == iterations[i]


def test_rounding_level_line_search_counts_as_converged(monkeypatch):
    # on the tangent family some restarts stop where f is zero up to its
    # rounding: no trial of their last line search can decrease it
    w = wi.optimal_witness_example(2, 2, "fermion")
    chart = wi._SectorChart(w.space, 2)
    fun = wi._quadratic_objective(chart, w.matrix)
    starts = np.random.default_rng(0).standard_normal((64, chart.n_params))
    x, f, converged, iterations = wi._lbfgs(fun, starts, 400)
    assert converged.all()
    monkeypatch.setattr(la, "_F_ROUNDING", 0.0)
    x_b, f_b, converged_b, iterations_b = wi._lbfgs(fun, starts, 400)
    # the rule changes the flag only
    assert np.array_equal(x, x_b) and np.array_equal(f, f_b)
    assert np.array_equal(iterations, iterations_b)
    flipped = np.flatnonzero(~converged_b)
    assert flipped.size > 0
    i = flipped[0]
    assert iterations[i] < 20 and abs(f[i]) < 1e-15
    assert np.abs(fun(x[i:i + 1])[1]).max() > la._GTOL  # not the gradient test


def test_optimize_recovers_shifted_witness():
    w = wi.optimal_witness_example(2, 2, "fermion")
    shifted = wi.witness_operator(w.space, w.matrix + 0.1 * np.eye(6), 2)
    outcome = wi.witness_optimize(shifted, budget=24, seed=9)
    assert outcome.diagnostics["tangent_samples"] == 0  # expectation bounded away from zero
    assert abs(outcome.subtracted_weight - 0.1) < 1e-3
    assert np.max(np.abs(outcome.witness.matrix - w.matrix)) < 1e-3


def test_optimize_bosonic_example():
    w = wi.optimal_witness_example(3, 2, "boson")
    outcome = wi.witness_optimize(w, budget=48, seed=10)
    assert outcome.optimal


def perturbed_optimal_witness(big_k, kind, seed):
    """``optimal_witness_example(K, 2, kind) + 0.3 |v><v|`` with ``v`` a seeded
    normalized complex Gaussian: a valid witness whose tangent states no
    longer span the sector."""
    base = wi.optimal_witness_example(big_k, 2, kind)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(base.space.dim) + 1j * rng.standard_normal(base.space.dim)
    v /= np.linalg.norm(v)
    return wi.witness_operator(base.space, base.matrix + 0.3 * np.outer(v, v.conj()), 2)


@pytest.mark.parametrize("seed", range(4))
def test_optimize_subtracts_off_bosonic_tangent_span(seed):
    w = perturbed_optimal_witness(3, "boson", seed)
    outcome = wi.witness_optimize(w, seed=seed)
    diag = outcome.diagnostics
    assert 0 < diag["tangent_span_dim"] < w.space.dim
    assert not outcome.optimal and outcome.subtracted_weight > 0
    assert diag["subtracted_mu"] == outcome.subtracted_weight == diag["ratio_infimum"]
    assert diag["subtraction_check"] >= -1e-9 and "xe_criterion" not in diag
    improved = outcome.witness.matrix
    # the search witness_operator ran on it, at a tighter bound
    assert wi.infimum_over_rank(improved, 2, w.space) >= -1e-9
    assert np.linalg.eigvalsh(w.matrix - improved)[0] >= -1e-12


@pytest.mark.parametrize("seed", range(3))
def test_optimize_subtracts_off_fermionic_tangent_span(seed):
    # the complex tangent states leave a complement, off which a positive
    # weight comes (a complement taken conjugated held the ratio at zero)
    w = perturbed_optimal_witness(2, "fermion", seed)
    outcome = wi.witness_optimize(w, seed=seed)
    diag = outcome.diagnostics
    assert 0 < diag["tangent_span_dim"] < w.space.dim
    assert not outcome.optimal and outcome.subtracted_weight > 0
    assert diag["subtracted_mu"] == outcome.subtracted_weight == diag["ratio_infimum"]
    assert diag["subtraction_check"] >= -1e-9
    improved = outcome.witness.matrix
    assert wi.infimum_over_rank(improved, 2, w.space) >= -1e-8
    assert np.linalg.eigvalsh(w.matrix - improved)[0] >= -1e-12


@pytest.mark.parametrize("rows,dim", ((1, 6), (3, 6), (5, 10)))
def test_complement_projector_annihilates_complex_tangent_states(rows, dim):
    gen = np.random.default_rng([rows, dim])
    tangent = gen.standard_normal((rows, dim)) + 1j * gen.standard_normal((rows, dim))
    span_dim, p_c = wi._complement_projector(tangent)
    assert span_dim == rows
    assert np.abs(p_c @ tangent.T).max() <= 1e-12  # P_c t = 0 for every tangent state t
    assert np.abs(p_c @ p_c - p_c).max() <= 1e-12 and np.abs(p_c - p_c.conj().T).max() <= 1e-15
    assert abs(np.trace(p_c).real - (dim - rows)) <= 1e-12
    # a vector outside the span keeps its component orthogonal to it
    q, _ = np.linalg.qr(tangent.T)
    e = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    assert np.abs(p_c @ e - (e - q @ (q.conj().T @ e))).max() <= 1e-12


def _quadratic_objective_identity(chart, m_matrix):
    """``witnesses._quadratic_objective`` as it was before its denominator
    operator, kept verbatim as the reference for its default."""
    flats, factors = sectors._gather_table(chart.kind, chart.d, 2)
    m_t = np.ascontiguousarray(m_matrix.T)

    def fun(x: np.ndarray):
        n = len(x)
        vecs = chart.vectors(x)
        psi = wi._pair_amps(chart.kind, chart.pair_matrices(vecs))
        den = np.einsum("ni,ni->n", psi.conj(), psi).real
        degenerate = den < 1e-18
        den[degenerate] = 1.0
        mpsi = psi @ m_t
        f = np.einsum("ni,ni->n", psi.conj(), mpsi).real / den
        grad_vec = (mpsi - f[:, None] * psi) / den[:, None]  # d f / d conj(psi)
        # adjoint of the gather: d f / d conj(w) on an unconstrained w
        g = np.zeros((n, chart.d * chart.d), dtype=complex)
        g[:, flats] = grad_vec * factors
        g = g.reshape(n, chart.d, chart.d)
        if chart.kind == mx.ANTISYMMETRIC:
            gm = g.swapaxes(1, 2) - g  # (g - g^T)^T
            gv = np.empty_like(vecs)
            gv[:, 0::2] = vecs[:, 1::2].conj() @ gm  # rows: d f / d conj(a_r)
            gv[:, 1::2] = -(vecs[:, 0::2].conj() @ gm)
        else:
            gv = vecs.conj() @ (g + g.swapaxes(1, 2))
        flat = gv.reshape(n, -1)
        grad = np.concatenate([2.0 * flat.real, 2.0 * flat.imag], axis=1)
        f[degenerate] = 1e6
        grad[degenerate] = 0.0
        return f, grad

    return fun


@pytest.mark.parametrize("space, k", [(mx.antisymmetric_space(6), 3), (mx.symmetric_space(3), 2)])
def test_ratio_objective_gradient(space, k):
    rng = np.random.default_rng(k)
    dim = space.dim
    chart = wi._SectorChart(space, k)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a + a.conj().T
    x = rng.standard_normal((6, chart.n_params))
    x[0] = 0.0  # a vanishing state
    f_old, g_old = _quadratic_objective_identity(chart, m)(x)
    f_new, g_new = wi._quadratic_objective(chart, m)(x)
    assert np.array_equal(f_new, f_old) and np.array_equal(g_new, g_old)

    # D projects off one chart state, which the ratio then cannot score
    psi = chart.sector_vectors(x[1:2])[0]
    q, _ = np.linalg.qr(np.column_stack([psi, rng.standard_normal((dim, 2))]))
    d_matrix = np.eye(dim) - np.outer(q[:, 0], q[:, 0].conj())
    fun = wi._quadratic_objective(chart, m, d_matrix)
    f, g = fun(x)
    assert np.array_equal(f[:2], [1e6, 1e6]) and not g[:2].any()
    psi = chart.sector_vectors(x[2:])
    expected = (np.einsum("ni,ij,nj->n", psi.conj(), m, psi).real
                / np.einsum("ni,ij,nj->n", psi.conj(), d_matrix, psi).real)
    assert np.max(np.abs(f[2:] - expected) / np.abs(expected)) <= 1e-12
    h = 1e-6
    steps = h * np.eye(chart.n_params)
    for row, grad in zip(x[2:], g[2:]):
        central = (fun(row + steps)[0] - fun(row - steps)[0]) / (2 * h)
        assert np.max(np.abs(central - grad)) <= 1e-6 * max(1.0, np.max(np.abs(grad)))


# ---------------------------------------------------------------------------
# positive maps
# ---------------------------------------------------------------------------

def test_jamiolkowski_maximally_mixed():
    w = wi.optimal_witness_example(2, 2, "fermion")
    rho = mx.density_matrix(mx.bipartite_space(4, 4), np.eye(16) / 16)
    m = wi.jamiolkowski_map_apply(w, rho)
    assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -1e-9


def test_jamiolkowski_separable_inputs():
    w = wi.optimal_witness_example(2, 2, "fermion")
    gen = np.random.default_rng(11)
    for _ in range(50):
        acc = np.zeros((16, 16), dtype=complex)
        for _ in range(10):
            vec = np.kron(la.haar_vector(4, gen), la.haar_vector(4, gen))
            acc += np.outer(vec, vec.conj()) / 10
        rho = mx.density_matrix(mx.bipartite_space(4, 4), acc)
        m = wi.jamiolkowski_map_apply(w, rho)
        assert np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] >= -1e-9


def test_jamiolkowski_witness_partial_transpose_positive():
    w = wi.optimal_witness_example(2, 2, "fermion")
    full = wi.embed_witness_full(w)
    wta = mx.partial_transpose_matrix(full, (4, 4), "A")
    assert np.linalg.eigvalsh(0.5 * (wta + wta.conj().T))[0] >= -1e-10


def test_jamiolkowski_space_mismatch():
    w = wi.optimal_witness_example(2, 2, "fermion")
    rho = mx.density_matrix(mx.bipartite_space(2, 2), np.eye(4) / 4)
    with pytest.raises(SpaceMismatchError):
        wi.jamiolkowski_map_apply(w, rho)
