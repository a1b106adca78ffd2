"""File formats and the command-line front end."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slaterkit import cli
from slaterkit import io as skio
from slaterkit import linalg as la
from slaterkit import mixed as mx
from slaterkit import states as st
from slaterkit import witnesses as wi


def write(tmp_path, name, obj):
    path = tmp_path / name
    if isinstance(obj, str):  # JSON text, for numbers ``json.dumps`` cannot write
        path.write_text(obj, encoding="utf-8")
    else:
        skio.dump(obj, str(path))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


@pytest.fixture()
def bell_file(tmp_path):
    bell = st.bipartite_state(np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    return write(tmp_path, "bell.json", skio.pure_state_to_dict(bell))


def test_round_trip_bit_exact(tmp_path):
    gen = np.random.default_rng(0)
    for kind, d, n in (("fermion", 6, 3), ("boson", 3, 2)):
        state = st.random_pure_state(kind, d, n, gen)
        path = write(tmp_path, f"{kind}.json", skio.pure_state_to_dict(state))
        back = skio.load_any(path)
        assert np.array_equal(back.amps, state.amps)
    rho = mx.density_from_mixture(
        [(p, st.random_pure_state("fermion", 4, 2, gen)) for p in gen.dirichlet(np.ones(3))])
    path = write(tmp_path, "rho.json", skio.density_to_dict(rho))
    back = skio.load_any(path)
    assert np.array_equal(back.matrix, rho.matrix)
    w = wi.optimal_witness_example(2, 2, "fermion")
    path = write(tmp_path, "w.json", skio.witness_to_dict(w))
    back = skio.load_any(path)
    assert np.array_equal(back.matrix, w.matrix) and back.slater_class == 2


def test_rank_command_bell(bell_file, capsys):
    code, report = run(capsys, "rank", bell_file)
    assert code == 0 and report["rank_claim"] == 2


def test_rank_command_three_fermion(tmp_path, capsys):
    state = st.fermion_state(6, 3, {(0, 1, 2): 0.8, (2, 4, 5): 0.6})
    path = write(tmp_path, "w3.json", skio.pure_state_to_dict(state))
    code, report = run(capsys, "rank", path)
    assert code == 0
    assert report["rank_claim"] == "rank_ge_2"
    probe = np.array([complex(re, im) for re, im in report["certificate"]["probes"][0]])
    assert np.argmax(np.abs(probe)) == 2


def test_rank_command_multiparticle_certificates(tmp_path, capsys):
    gen = np.random.default_rng(21)
    det = st.fermion_state(8, 4, {(0, 1, 2, 3): 1.0})
    rotated = st.apply_single_particle(det, la.haar_unitary(8, gen))
    code, report = run(capsys, "rank", write(tmp_path, "det.json", skio.pure_state_to_dict(rotated)))
    cert = report["certificate"]
    assert code == 0 and report["rank_claim"] == "rank_one"
    assert cert["kind"] == "one_body" and cert["n_probes"] == 0 and "probes" not in cert
    assert cert["one_body_ratio"] < 1e-3 * cert["tolerance"]
    assert cert["tolerance"] == report["tolerances"]["contract_rtol"] == 1e-8

    sup = st.fermion_state(6, 3, {(0, 1, 2): 0.6, (3, 4, 5): 0.8})
    correlated = st.apply_single_particle(sup, la.haar_unitary(6, gen))
    path = write(tmp_path, "sup.json", skio.pure_state_to_dict(correlated))
    code, report = run(capsys, "rank", path, "--tol", "1e-9")
    cert = report["certificate"]
    assert code == 0 and report["rank_claim"] == "rank_ge_2"
    assert cert["kind"] == "probe_chain" and len(cert["probes"]) == 1
    assert cert["n_probes"] == 6 + 15 + 32
    assert abs(cert["one_body_ratio"] - 0.75) < 1e-9  # s[3]/s[0] = 0.6/0.8
    assert cert["tolerance"] == 1e-9

    # correlated below the probe chains' resolution: the spectrum certifies
    faint = st.boson_state(3, 3, {(0, 0, 0): 1.0, (0, 1, 2): 3e-8})
    code, report = run(capsys, "rank", write(tmp_path, "faint.json", skio.pure_state_to_dict(faint)))
    cert = report["certificate"]
    assert code == 0 and report["rank_claim"] == "rank_ge_2"
    assert cert["kind"] == "one_body" and "probes" not in cert
    assert cert["one_body_ratio"] > cert["tolerance"]


@pytest.mark.parametrize("kind, d", [("fermion", 6), ("boson", 3)])
def test_rank_command_two_particle_states(tmp_path, capsys, kind, d):
    gen = np.random.default_rng(8)
    elementary = (st.fermion_state(d, 2, {(0, 1): 1.0}) if kind == "fermion"
                  else st.boson_state(d, 2, {(0, 0): 1.0}))
    rotated = st.apply_single_particle(elementary, la.haar_unitary(d, gen))
    for state, rank in ((rotated, 1), (st.random_pure_state(kind, d, 2, gen), 3)):
        path = write(tmp_path, "s.json", skio.pure_state_to_dict(state))
        code, report = run(capsys, "rank", path)
        assert code == 0 and report["rank_claim"] == report["decomposition_rank"] == rank
        assert len(report["canonical_values"]) == rank


def test_rank_command_odd_dimension_fermions(tmp_path, capsys):
    state = st.fermion_state(5, 2, {(0, 1): 0.8, (2, 4): 0.6})
    code, report = run(capsys, "rank", write(tmp_path, "d5.json", skio.pure_state_to_dict(state)))
    assert code == 0 and report["rank_claim"] == report["decomposition_rank"] == 2


def test_rank_batch_runs_each_file_with_its_derived_seed(tmp_path, capsys, monkeypatch):
    gen = np.random.default_rng(9)
    for i in range(3):
        state = st.random_pure_state("fermion", 6, 3, gen)
        write(tmp_path, f"w{i}.json", skio.pure_state_to_dict(state))
    write(tmp_path, "pair.json", skio.pure_state_to_dict(st.random_pure_state("boson", 3, 2, gen)))
    seeds = []
    rank_one = st.multiparticle_rank_one

    def recording(state, rng=0, **kwargs):
        seeds.append(rng)
        return rank_one(state, rng=rng, **kwargs)

    monkeypatch.setattr(st, "multiparticle_rank_one", recording)
    code, first = run(capsys, "rank", str(tmp_path), "--batch", "--seed", "5")
    assert code == 0 and len(first) == 4
    assert seeds == [cli._derived_seed(5, f"w{i}.json") for i in range(3)]
    assert run(capsys, "rank", str(tmp_path), "--batch", "--seed", "5") == (0, first)
    for name, report in first.items():
        seed = str(cli._derived_seed(5, name))
        assert run(capsys, "rank", str(tmp_path / name), "--seed", seed) == (0, report)


@pytest.mark.parametrize("argv, message", [
    (["rank", "{density}"], "rank expects a pure-state file"),
    (["concurrence", "{density}"], "concurrence expects a pure-state file"),
    (["mixed-concurrence", "{pure}"], "mixed-concurrence expects a density-matrix file"),
    (["slater1", "{pure}"], "slater1 expects a density-matrix file"),
    (["ppt", "{pure}"], "ppt expects a density-matrix file"),
    (["modes", "{density}", "--cut", "0"], "modes expects a pure-state file"),
    (["kak", "{pure}"], "kak expects an operator file"),
    (["witness", "eval", "{pure}", "{density}"], "witness eval expects an operator file first"),
    (["witness", "eval", "{operator}", "{operator}"],
     "witness eval expects a state or density file second"),
    (["witness", "optimize", "{density}"], "witness optimize expects an operator file"),
])
def test_wrong_input_type_exits_with_input_error(tmp_path, capsys, argv, message):
    mc = st.maximally_correlated_state("fermion", 2)
    files = {"pure": write(tmp_path, "pure.json", skio.pure_state_to_dict(mc)),
             "density": write(tmp_path, "rho.json", skio.density_to_dict(mx.density_from_pure(mc))),
             "operator": write(tmp_path, "w.json",
                               skio.witness_to_dict(wi.optimal_witness_example(2, 2, "fermion")))}
    code = cli.main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"slaterkit: ValidationError: {message}\n"


def test_concurrence_and_exit_codes(tmp_path, bell_file, capsys):
    code, report = run(capsys, "concurrence", bell_file)
    assert code == 0 and abs(report["concurrence"] - 1.0) < 1e-12
    # unsupported system -> 4
    state = st.fermion_state(6, 2, {(0, 1): 1.0})
    path = write(tmp_path, "d6.json", skio.pure_state_to_dict(state))
    code, _ = run(capsys, "concurrence", path)
    assert code == 4
    # malformed file -> 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _ = run(capsys, "rank", str(bad))
    assert code == 2


def test_mixed_concurrence_and_slater1(tmp_path, capsys):
    mc = st.maximally_correlated_state("fermion", 2)
    path = write(tmp_path, "rho.json", skio.density_to_dict(mx.density_from_pure(mc)))
    code, report = run(capsys, "mixed-concurrence", path)
    assert code == 0 and abs(report["concurrence"] - 1.0) < 1e-9
    code, report = run(capsys, "slater1", path)
    assert code == 0 and report["is_class_1"] is False


def test_ppt_command(tmp_path, capsys):
    psi_m = np.array([0, 1, -1, 0]) / np.sqrt(2)
    rho = mx.density_matrix(mx.bipartite_space(2, 2),
                            0.25 * np.outer(psi_m, psi_m) + 0.75 * np.eye(4) / 4)
    path = write(tmp_path, "werner.json", skio.density_to_dict(rho))
    code, report = run(capsys, "ppt", path)
    assert code == 0 and report["ppt"] is True

    gen = np.random.default_rng(1)
    vectors = [la.haar_vector(3, gen) for _ in range(3)]
    pairs = [(w, st.boson_state(3, 2, mx._symmetric_pair_vector(e)))
             for w, e in zip(gen.dirichlet(np.ones(3)), vectors)]
    path2 = write(tmp_path, "bos.json", skio.density_to_dict(mx.density_from_mixture(pairs)))
    code, report = run(capsys, "ppt", path2)
    assert code == 0 and report["separability"] == "separable"

    # above the rank theorem the decomposition comes from the range search
    vectors = [la.haar_vector(4, gen) for _ in range(5)]
    pairs = [(w, st.boson_state(4, 2, mx._symmetric_pair_vector(e)))
             for w, e in zip(gen.dirichlet(np.ones(5)), vectors)]
    rho = mx.density_from_mixture(pairs)
    path3 = write(tmp_path, "bos4.json", skio.density_to_dict(rho))
    code, report = run(capsys, "ppt", path3)
    assert code == 0 and report["separability"] == "separable"
    items = report["decomposition"]
    assert len(items) == 5
    found = [mx._symmetric_pair_vector(np.array([complex(*z) for z in item["vector"]]))
             for item in items]
    recon = sum(item["weight"] * np.outer(v, v.conj()) for item, v in zip(items, found))
    assert np.max(np.abs(recon - rho.matrix)) <= 1e-8


def test_ppt_command_transposes_once(tmp_path, capsys, monkeypatch):
    # the report reads the smallest eigenvalue the separability check computed,
    # also where no theorem decides (three bosons in three modes)
    gen = np.random.default_rng(4)
    pairs = [(w, st.boson_state(3, 2, mx._symmetric_pair_vector(la.haar_vector(3, gen))))
             for w in gen.dirichlet(np.ones(3))]
    mixed_three = mx.density_matrix(mx.symmetric_space(3, 3), np.eye(10) / 10)
    transpose = mx.partial_transpose
    for rho, verdict in ((mx.density_from_mixture(pairs), "separable"),
                         (mixed_three, "inconclusive")):
        path = write(tmp_path, "bos.json", skio.density_to_dict(rho))
        calls = []
        monkeypatch.setattr(mx, "partial_transpose",
                            lambda *args: calls.append(args) or transpose(*args))
        code, report = run(capsys, "ppt", path)
        assert code == 0 and report["separability"] == verdict and len(calls) == 1
        assert report["min_eigenvalue"] == float(np.linalg.eigvalsh(transpose(rho))[0])


def test_witness_pipeline(tmp_path, capsys):
    code, _ = run(capsys, "witness", "make", "--K", "2", "--k", "2", "--kind", "fermion",
                  "-o", str(tmp_path / "w.json"))
    assert code == 0
    mc = st.maximally_correlated_state("fermion", 2)
    rho_path = write(tmp_path, "mc.json", skio.density_to_dict(mx.density_from_pure(mc)))
    code, report = run(capsys, "witness", "eval", str(tmp_path / "w.json"), rho_path)
    assert code == 0
    assert abs(report["value"] + 1.0) < 1e-10 and report["detected"] is True
    code, report = run(capsys, "witness", "optimize", str(tmp_path / "w.json"),
                       "--budget", "32")
    assert code == 0 and report["optimal"] is True
    # the family is identity plus rank one: its infimum runs no restarts
    assert report["diagnostics"]["infimum_restarts"] == 0


def _improvable_boson_witness():
    base = wi.optimal_witness_example(3, 2, "boson")
    gen = np.random.default_rng(1)
    v = gen.standard_normal(base.space.dim) + 1j * gen.standard_normal(base.space.dim)
    v /= np.linalg.norm(v)
    return wi.witness_operator(base.space, base.matrix + 0.3 * np.outer(v, v.conj()), 2)


def test_witness_optimize_writes_improved_bosonic_witness(tmp_path, capsys):
    w = _improvable_boson_witness()
    out = str(tmp_path / "improved.json")
    code, report = run(capsys, "witness", "optimize", write(tmp_path, "w.json",
                       skio.witness_to_dict(w)), "-o", out, "--seed", "1")
    assert code == 0 and report["written"] == out
    assert report["optimal"] is False and report["subtracted_weight"] > 0
    assert "xe_criterion" not in report["diagnostics"]
    improved = skio.load_any(out)  # runs the witness validity rule
    assert isinstance(improved, wi.WitnessOperator) and improved.slater_class == 2
    assert np.linalg.eigvalsh(w.matrix - improved.matrix)[0] >= -1e-12


@pytest.mark.parametrize("shape", [(2, 2), (6, 5)])
@pytest.mark.parametrize("command", ["eval", "optimize"])
def test_witness_of_the_wrong_shape_exits_with_a_validation_error(tmp_path, capsys, command,
                                                                 shape):
    doc = {**skio.witness_to_dict(wi.optimal_witness_example(2, 2, "fermion")),
           "matrix": skio._matrix_to_json(np.eye(*shape))}
    path = write(tmp_path, "w.json", doc)
    state = write(tmp_path, "s.json", skio.pure_state_to_dict(st.magic_state("fermions", 0)))
    code = cli.main(["witness", command, path] + ([state] if command == "eval" else []))
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT and captured.out == ""
    assert "does not match sector dimension 6" in captured.err


@pytest.mark.parametrize("make_witness, tangent, restarts", [
    (_improvable_boson_witness, True, 16),
    # identity plus rank one: the closed form, without and with tangent states
    (lambda: wi.witness_operator(mx.symmetric_space(3), np.eye(6), 2), False, 0),
    (lambda: wi.optimal_witness_example(2, 2, "fermion"), True, 0),
])
def test_witness_optimize_diagnostics_are_plain_numbers(tmp_path, capsys, make_witness, tangent,
                                                        restarts):
    w = make_witness()
    outcome = wi.witness_optimize(w, budget=16)
    diag = outcome.diagnostics
    assert diag["infimum_restarts"] == restarts
    if restarts:
        assert 0 < diag["restarts_converged"] <= restarts
    else:
        assert diag["restarts_converged"] == diag["max_iterations"] == 0
        assert diag["restart_dispersion"] == 0.0
    # the tangent path runs the ratio search and its confirming check,
    # unless the tangent states span the sector
    assert ("subtraction_check" in diag) is (tangent and not outcome.optimal)
    assert ("subtracted_mu" in diag) is not outcome.optimal
    assert all(type(v) in (int, float) for v in outcome.diagnostics.values())
    assert json.loads(json.dumps(outcome.diagnostics)) == outcome.diagnostics
    code, report = run(capsys, "witness", "optimize",
                       write(tmp_path, "w.json", skio.witness_to_dict(w)), "--budget", "16")
    assert code == 0 and report["diagnostics"] == outcome.diagnostics
    if not restarts:
        # the closed form samples nothing; the optimal family's span is the sector
        assert report["diagnostics"]["tangent_samples"] == 0
    if tangent and not restarts:
        assert report["optimal"] is True
        assert report["diagnostics"]["tangent_span_dim"] == w.space.dim
    assert all(type(v) in (int, float) for v in report["diagnostics"].values())


def test_search_flags_attach_only_where_read(capsys):
    parser = cli.build_parser()
    assert parser.parse_args(["rank", "s.json", "--tol", "1e-9", "--seed", "3"]).seed == 3
    assert parser.parse_args(["witness", "optimize", "w.json", "--budget", "8"]).budget == 8
    for argv in (["concurrence", "s.json", "--seed", "1"], ["rank", "s.json", "--budget", "8"],
                 ["witness", "make", "--K", "2", "--k", "2", "--kind", "boson", "--seed", "1"],
                 ["witness", "optimize", "w.json", "--tol", "1e-9"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
    capsys.readouterr()


def test_kak_command(tmp_path, capsys):
    u = la.haar_unitary(4, np.random.default_rng(2))
    obj = {"type": "operator", "hermitian": False, "slater_class": 2,
           "space": {"kind": "bipartite", "dims": [2, 2]},
           "matrix": skio._matrix_to_json(u)}
    path = write(tmp_path, "u4.json", obj)
    code, report = run(capsys, "kak", path)
    assert code == 0 and report["residual"] <= 1e-8
    v1 = skio._matrix_from_json(report["v1"])
    ud = skio._matrix_from_json(report["ud"])
    v2 = skio._matrix_from_json(report["v2"])
    assert np.max(np.abs(v1 @ ud @ v2 - u)) <= 1e-8


def test_modes_command(tmp_path, capsys):
    s = 1 / np.sqrt(2)
    state = st.fermion_state(4, 2, {(0, 1): s, (2, 3): s})
    path = write(tmp_path, "pairs.json", skio.pure_state_to_dict(state))
    code, report = run(capsys, "modes", path, "--cut", "0,1")
    assert code == 0 and abs(report["entropy"] - 1.0) < 1e-12


def test_seeded_reports_are_deterministic(tmp_path, capsys):
    state = st.fermion_state(6, 3, {(0, 1, 2): 0.8, (2, 4, 5): 0.6})
    path = write(tmp_path, "w3.json", skio.pure_state_to_dict(state))
    _, a = run(capsys, "rank", path, "--seed", "11")
    _, b = run(capsys, "rank", path, "--seed", "11")
    assert a == b


def test_batch_mode(tmp_path, capsys):
    bell = st.bipartite_state(np.array([[0, 1], [1, 0]]) / np.sqrt(2))
    write(tmp_path, "a.json", skio.pure_state_to_dict(bell))
    write(tmp_path, "b.json", skio.pure_state_to_dict(
        st.maximally_correlated_state("fermion", 2)))
    code, report = run(capsys, "concurrence", str(tmp_path), "--batch")
    assert code == 0
    assert set(report) == {"a.json", "b.json"}
    assert all(abs(entry["concurrence"] - 1.0) < 1e-9 for entry in report.values())
    # a failing file surfaces per-file errors and a nonzero exit
    write(tmp_path, "c.json", skio.pure_state_to_dict(
        st.fermion_state(6, 2, {(0, 1): 1.0})))
    code, report = run(capsys, "concurrence", str(tmp_path), "--batch")
    assert code == 4 and "error" in report["c.json"]


def _bipartite_document(dims, indices):
    return {"type": "pure", "kind": "bipartite", "dims": dims,
            "amplitudes": [{"indices": indices, "re": 1.0, "im": 0.0}]}


def _fermion_document(indices):
    """Two fermions in four modes, amplitude 1 on each listed mode pair."""
    return {"type": "pure", "kind": "fermion", "single_particle_dim": 4, "particles": 2,
            "amplitudes": [{"indices": t, "re": 1.0, "im": 0.0} for t in indices]}


def _with_number(doc, literal):
    """``doc`` as JSON text, its ``"@"`` string replaced by the number ``literal``."""
    return json.dumps(doc).replace('"@"', literal)


MALFORMED = {
    "index-past-dims": _bipartite_document([2, 2], [5, 0]),
    "three-indices": _bipartite_document([2, 2], [0, 0, 1]),
    "negative-dims": _bipartite_document([-1, 2], [0, 0]),
    "negative-index": _bipartite_document([2, 2], [-1, 0]),
    "ragged-matrix": {"type": "density", "space": {"kind": "bipartite", "dims": [2, 1]},
                      "matrix": [[[1, 0], [0, 0]], [[0, 0]]]},
    "negative-particles": {"type": "pure", "kind": "fermion", "single_particle_dim": 4,
                           "particles": -1, "amplitudes": []},
    "text-space-dims": {"type": "density", "space": {"kind": "bipartite", "dims": ["x", 1]},
                        "matrix": [[[1, 0]]]},
    "negative-space-particles": {"type": "density", "matrix": [[[1, 0]]], "space": {
        "kind": "symmetric", "single_particle_dim": 2, "particles": -1}},
    "text-slater-class": {"type": "operator", "slater_class": "x", "matrix": [[[1, 0]]],
                          "space": {"kind": "antisymmetric", "single_particle_dim": 4}},
    "boolean-slater-class": {"type": "operator", "slater_class": True, "matrix": [[[1, 0]]],
                             "space": {"kind": "antisymmetric", "single_particle_dim": 4}},
    "repeated-fermion-indices": _fermion_document([[0, 1], [0, 1]]),
    "repeated-bipartite-indices": {**_bipartite_document([2, 2], [0, 1]), "amplitudes": [
        {"indices": [0, 1], "re": 1.0, "im": 0.0}, {"indices": [0, 1], "re": 1.0, "im": 0.0}]},
    "float-indices": _fermion_document([[0.9, 1.7]]),
    "boolean-dims": _bipartite_document([True, True], [0, 0]),
    "float-particles": {**_fermion_document([[0, 1]]), "particles": 2.0},
    "float-space-dim": {"type": "density", "matrix": [[[1, 0]]], "space": {
        "kind": "symmetric", "single_particle_dim": 2.0, "particles": 2}},
    # NaN and Infinity are no JSON numbers, and NaN would pass every `> tol` gate
    "nan-amplitude": {**_fermion_document([[0, 1]]), "amplitudes": [
        {"indices": [0, 1], "re": float("nan"), "im": 0.0}]},
    "nan-operator-entry": {**skio.witness_to_dict(wi.optimal_witness_example(2, 2, "fermion")),
                           "matrix": [[[float("nan"), 0.0]] * 6] * 6},
    "infinite-density-entry": {"type": "density", "matrix": [[[float("inf"), 0]]], "space": {
        "kind": "bipartite", "dims": [1, 1]}},
    # numbers past a double would load as inf (1e400) or fail to convert (10**400)
    "overflowing-operator-entry": _with_number(
        {**skio.witness_to_dict(wi.optimal_witness_example(2, 2, "fermion")),
         "matrix": [[["@", 0.0]] * 6] * 6}, "1e400"),
    "overflowing-amplitude": _with_number({**_fermion_document([[0, 1]]), "amplitudes": [
        {"indices": [0, 1], "re": "@", "im": 0.0}]}, "-1e400"),
    "overflowing-integer-entry": {"type": "density", "matrix": [[[10 ** 400, 0]]], "space": {
        "kind": "bipartite", "dims": [1, 1]}},
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_input_exits_with_a_validation_error(name, tmp_path, capsys):
    path = write(tmp_path, "bad.json", MALFORMED[name])
    code = cli.main(["concurrence", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT and captured.out == ""
    assert captured.err.startswith("slaterkit: ValidationError: ")


@pytest.mark.parametrize("argv, message", [
    (["rank", "{correlated}", "--seed", "-1"], "seed must be a non-negative integer"),
    (["rank", "{batch}", "--batch", "--seed", "-1"], "seed must be a non-negative integer"),
    (["witness", "optimize", "{witness}", "--seed", "-1"], "seed must be a non-negative integer"),
    (["witness", "optimize", "{witness}", "--budget", "0"], "budget must be at least 1 restart"),
    (["rank", "{correlated}", "--tol", "nan"], "--tol must lie strictly between 0 and 1"),
    (["rank", "{correlated}", "--tol", "-1"], "--tol must lie strictly between 0 and 1"),
    (["rank", "{correlated}", "--tol", "1"], "--tol must lie strictly between 0 and 1"),
    (["witness", "make", "--K", "2", "--k", "2", "--kind", "boson", "-o", "{unwritable}"],
     "cannot write"),
    (["witness", "optimize", "{witness}", "-o", "{unwritable}"], "cannot write"),
])
def test_bad_options_and_unwritable_outputs_exit_with_a_validation_error(
        tmp_path, capsys, argv, message):
    correlated = st.fermion_state(6, 3, {(0, 1, 2): 0.8, (2, 4, 5): 0.6})
    (tmp_path / "batch").mkdir()
    write(tmp_path / "batch", "w3.json", skio.pure_state_to_dict(correlated))
    files = {"correlated": write(tmp_path, "w3.json", skio.pure_state_to_dict(correlated)),
             "batch": str(tmp_path / "batch"),
             "witness": write(tmp_path, "w.json",
                              skio.witness_to_dict(wi.optimal_witness_example(3, 2, "boson"))),
             "unwritable": str(tmp_path / "missing" / "out.json")}
    code = cli.main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT and captured.out == ""
    assert captured.err.startswith(f"slaterkit: ValidationError: {message}")


def test_modes_rejects_a_cut_that_is_not_mode_indices(tmp_path, capsys):
    state = st.fermion_state(4, 2, {(0, 1): 1.0})
    path = write(tmp_path, "det.json", skio.pure_state_to_dict(state))
    assert cli.main(["modes", path, "--cut", "a"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("slaterkit: ValidationError: --cut")


def test_batch_reports_a_malformed_file_next_to_a_good_one(bell_file, tmp_path, capsys):
    write(tmp_path, "bad.json", MALFORMED["index-past-dims"])
    write(tmp_path, "twice.json", MALFORMED["repeated-fermion-indices"])
    (tmp_path / "latin1.json").write_bytes(b'{"type": "pure", "kind": "\xe9"}')
    code, report = run(capsys, "concurrence", str(tmp_path), "--batch")
    assert code == cli.EXIT_INPUT
    assert report["bad.json"]["error_type"] == "ValidationError"
    assert report["twice.json"]["error_type"] == "ValidationError"
    assert "listed twice" in report["twice.json"]["error"]
    assert report["latin1.json"]["error_type"] == "ValidationError"
    assert "utf-8" in report["latin1.json"]["error"]
    assert abs(report["bell.json"]["concurrence"] - 1.0) < 1e-12


#: small files declaring what no dense table can hold: C(400, 6) = 5.5e12 sector
#: tuples, a one-particle split of 204 * C(204, 202) = 4224024 rows for a
#: 204-tuple sector, 2**40 occupation amplitudes, and a 79800-dimensional
#: operator given as a 1 x 1 matrix
OVERSIZED = {
    "sector.json": {"type": "pure", "kind": "fermion", "single_particle_dim": 400,
                    "particles": 6, "amplitudes": []},
    "density.json": {"type": "density", "matrix": [[[1, 0]]], "space": {
        "kind": "antisymmetric", "single_particle_dim": 400, "particles": 6}},
    "split.json": {"type": "pure", "kind": "fermion", "single_particle_dim": 204,
                   "particles": 203,
                   "amplitudes": [{"indices": list(range(203)), "re": 1.0, "im": 0.0}]},
    # 203 bosons in 3 modes: 62118 split rows, but its 203-tuples hold 203 * C(205, 203) modes
    "tuples.json": {"type": "pure", "kind": "boson", "single_particle_dim": 3, "particles": 203,
                    "amplitudes": [{"indices": [0] * 203, "re": 1.0, "im": 0.0}]},
    # 1000 bosons in 3 modes: 501501 tuples, but 1000 modes each
    "bosons.json": {"type": "pure", "kind": "boson", "single_particle_dim": 3, "particles": 1000,
                    "amplitudes": []},
    "register.json": {"type": "pure", "kind": "fermion", "single_particle_dim": 40,
                      "particles": 1, "amplitudes": [{"indices": [0], "re": 1.0, "im": 0.0}]},
    "operator.json": {"type": "operator", "slater_class": 2, "matrix": [[[1, 0]]], "space": {
        "kind": "antisymmetric", "single_particle_dim": 400, "particles": 2}},
}

#: runs each command line with ``cli.main`` under an address-space limit, and
#: prints each one's exit code (or the name of an uncaught error) and output
_LIMITED_RUNS = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1536 * 2 ** 20, 1536 * 2 ** 20))
from slaterkit import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except MemoryError:
            code = "MemoryError"
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def _run_limited(cwd, argvs) -> list:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _LIMITED_RUNS, json.dumps(argvs)], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def test_oversized_inputs_exit_with_a_validation_error_before_allocating(tmp_path, bell_file):
    for name, doc in OVERSIZED.items():
        write(tmp_path, name, doc)
    batch = tmp_path / "batch"
    batch.mkdir()
    write(batch, "a.json", OVERSIZED["sector.json"])
    (batch / "bell.json").write_text(Path(bell_file).read_text(encoding="utf-8"), encoding="utf-8")
    too_many, wrong_shape = "would hold", "does not match sector dimension"
    runs = [(["rank", "sector.json"], too_many), (["concurrence", "sector.json"], too_many),
            (["modes", "sector.json", "--cut", "0"], too_many),
            (["ppt", "density.json"], wrong_shape), (["slater1", "density.json"], wrong_shape),
            (["mixed-concurrence", "density.json"], wrong_shape),
            (["rank", "split.json"], too_many), (["rank", "tuples.json"], too_many),
            (["rank", "bosons.json"], too_many),
            (["modes", "register.json", "--cut", "0"], too_many),
            (["witness", "optimize", "operator.json"], wrong_shape),
            (["witness", "eval", "operator.json", "density.json"], wrong_shape),
            (["concurrence", "batch", "--batch"], too_many)]
    for (argv, message), (code, out, err) in zip(runs, _run_limited(tmp_path, [a for a, _ in runs])):
        assert code == cli.EXIT_INPUT, (argv, code, err)
        if "--batch" in argv:
            report = json.loads(out)
            assert report["a.json"]["error_type"] == "ValidationError"
            assert message in report["a.json"]["error"]
            assert abs(report["bell.json"]["concurrence"] - 1.0) < 1e-12
        else:
            assert out == "" and err.startswith("slaterkit: ") and message in err, (argv, err)


def test_a_split_near_the_bound_runs_under_the_address_space_limit(tmp_path):
    # 199 fermions in 200 modes: the split has 200 * C(200, 198) = 3980000 <= 2**22
    # rows; written out as 199-tuples they would not fit
    write(tmp_path, "holes.json", {"type": "pure", "kind": "fermion", "single_particle_dim": 200,
                                   "particles": 199, "amplitudes": [
                                       {"indices": list(range(199)), "re": 1.0, "im": 0.0}]})
    [(code, out, err)] = _run_limited(tmp_path, [["rank", "holes.json"]])
    assert code == 0, err
    assert json.loads(out)["rank_claim"] == "rank_one"


def _readme_command_line_section():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]


def _long_options(parser):
    """Every long option of ``parser`` and of its subcommands, but ``--help``."""
    options = set()
    for action in parser._actions:
        options.update(o for o in action.option_strings if o.startswith("--") and o != "--help")
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _long_options(sub)
    return options


def test_readme_command_lines_parse():
    block = _readme_command_line_section().split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("slaterkit ")]
    assert len(lines) == 10
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_names_exactly_the_long_options():
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", _readme_command_line_section()))
    defined = _long_options(cli.build_parser())
    assert {"--output", "--pretty", "--batch", "--budget"} <= defined
    assert "--json" not in defined
    assert named == defined


def test_cli_and_a_manifold_search_load_no_scipy():
    code = ("import sys\n"
            "import numpy as np\n"
            "import slaterkit.cli\n"
            "from slaterkit import mixed, states, witnesses\n"
            "value = witnesses.infimum_details(np.eye(6), 2, mixed.antisymmetric_space(4),"
            " budget=4, seed=0)[0]\n"
            "assert abs(value - 1.0) < 1e-9, value\n"
            "rho = mixed.density_from_mixture([(0.5, states.random_pure_state('fermion', 4, 2, s))"
            " for s in (0, 1)])\n"
            "assert abs(mixed.convex_roof_oracle(rho) - mixed.wootters_concurrence(rho)) <= 1e-12\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
