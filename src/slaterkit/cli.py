"""Command-line front end.

One subcommand per analysis family, JSON reports on stdout, exit codes:
0 success, 2 input/validation failure, 3 numerical failure, 4 request
for an unsupported system.  Identical inputs with identical ``--seed``
produce identical reports; ``--batch`` runs a single-input command over
every ``*.json`` file in a directory with deterministic per-file seeds.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
import zlib

import numpy as np

from . import io, magic, mixed, modes, states, witnesses
from .errors import (
    NumericalFailureError,
    SlaterKitError,
    UnsupportedSystemError,
    ValidationError,
)
from .linalg import RANK_RTOL

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_UNSUPPORTED = 4


def _complex_list(values) -> list:
    return [[float(np.real(z)), float(np.imag(z))] for z in values]


def _report_rank(path: str, args) -> dict:
    state = io.load_any(path)
    if not isinstance(state, states.PureState):
        raise ValidationError("rank expects a pure-state file")
    tol = args.tol if args.tol is not None else RANK_RTOL
    if state.kind == states.BIPARTITE:
        result = states.schmidt_decompose(state, rank_rtol=tol)
        return {"rank_claim": result.rank, "values": list(map(float, result.values)),
                "tolerances": {"rank_rtol": tol}}
    if state.particles == 2:
        rank = states.slater_rank_by_contractions(state, rtol=tol)
        decomposition = states.slater_decompose_two_particle(state, rank_rtol=tol)
        return {"rank_claim": rank,
                "canonical_values": list(map(float, decomposition.values)),
                "decomposition_rank": decomposition.rank,
                "tolerances": {"rank_rtol": tol, "residual": decomposition.residual}}
    verdict = states.multiparticle_rank_one(state, rng=args.seed, rtol=tol)
    cert = {"n_probes": verdict.certificate["n_probes"]}
    if verdict.certificate["probes"]:
        cert["probes"] = [_complex_list(p) for p in verdict.certificate["probes"]]
    return {"rank_claim": verdict.claim, "certificate": cert,
            "tolerances": {"contract_rtol": tol}}


def _report_concurrence(path: str, args) -> dict:
    state = io.load_any(path)
    if not isinstance(state, states.PureState):
        raise ValidationError("concurrence expects a pure-state file")
    return {"concurrence": states.concurrence_pure(state),
            "magic_coefficients": _complex_list(states.magic_basis_coeffs(state))}


def _report_mixed_concurrence(path: str, args) -> dict:
    rho = io.load_any(path)
    if not isinstance(rho, mixed.DensityMatrix):
        raise ValidationError("mixed-concurrence expects a density-matrix file")
    lam = mixed.concurrence_lambdas(rho)
    return {"concurrence": mixed.wootters_concurrence(rho),
            "lambdas": list(map(float, lam))}


def _report_slater1(path: str, args) -> dict:
    rho = io.load_any(path)
    if not isinstance(rho, mixed.DensityMatrix):
        raise ValidationError("slater1 expects a density-matrix file")
    result = mixed.slater_number_one_test(rho)
    return {"is_class_1": result.is_class_1,
            "c_values": list(map(float, result.c_values))}


def _report_ppt(path: str, args) -> dict:
    rho = io.load_any(path)
    if not isinstance(rho, mixed.DensityMatrix):
        raise ValidationError("ppt expects a density-matrix file")
    pt = mixed.partial_transpose(rho, args.cut)
    min_eig = float(np.linalg.eigvalsh(pt)[0])
    report = {"cut": args.cut, "min_eigenvalue": min_eig, "ppt": bool(min_eig >= -1e-9)}
    if rho.space.kind == mixed.SYMMETRIC:
        try:
            sep = mixed.bosonic_ppt_separability(rho)
            report["separability"] = sep.verdict
            if sep.decomposition is not None:
                report["decomposition"] = [
                    {"weight": w, "vector": _complex_list(e)} for w, e in sep.decomposition]
            if sep.diagnostics:
                report["diagnostics"] = list(sep.diagnostics)
        except UnsupportedSystemError:
            pass
    return report


def _report_modes(path: str, args) -> dict:
    state = io.load_any(path)
    if not isinstance(state, states.PureState):
        raise ValidationError("modes expects a pure-state file")
    occ = modes.fock_to_qubits(state)
    cut = [int(x) for x in args.cut.split(",") if x != ""]
    return {"cut": cut,
            "entropy": modes.mode_bipartition_entropy(occ, cut),
            "sectors": list(occ.sectors_present())}


def _report_kak(path: str, args) -> dict:
    obj = io.load_document(path)
    if obj["type"] != "operator":
        raise ValidationError("kak expects an operator file")
    u, space = io.unitary_from_dict(obj)
    system = mixed.canonical_system_of_space(space)
    factors = magic.kak_decompose(u, system)
    return {
        "system": system,
        "residual": factors.residual,
        "phases": list(map(float, factors.phases)),
        "v1": io._matrix_to_json(factors.v1),
        "ud": io._matrix_to_json(factors.ud),
        "v2": io._matrix_to_json(factors.v2),
    }


def _cmd_witness(args) -> int:
    if args.witness_cmd == "make":
        w = witnesses.optimal_witness_example(args.K, args.k, args.kind)
        text = io.dump(io.witness_to_dict(w), args.output, args.pretty)
        if args.output is None:
            print(text)
        return 0
    if args.witness_cmd == "eval":
        w = io.load_any(args.witness)
        if not isinstance(w, witnesses.WitnessOperator):
            raise ValidationError("witness eval expects an operator file first")
        rho = io.load_any(args.state)
        if isinstance(rho, states.PureState):
            rho = mixed.density_from_pure(rho)
        if not isinstance(rho, mixed.DensityMatrix):
            raise ValidationError("witness eval expects a state or density file second")
        result = witnesses.witness_value(w, rho)
        print(io.dump({"value": result.value, "detected": result.detected},
                      None, args.pretty))
        return 0
    if args.witness_cmd == "optimize":
        w = io.load_any(args.witness)
        if not isinstance(w, witnesses.WitnessOperator):
            raise ValidationError("witness optimize expects an operator file")
        outcome = witnesses.witness_optimize(w, budget=args.budget, seed=args.seed)
        def plain(v):
            if isinstance(v, (bool, int, np.integer)):
                return int(v)
            if isinstance(v, (float, np.floating)):
                return float(v)
            return v

        report = {"optimal": outcome.optimal,
                  "subtracted_weight": outcome.subtracted_weight,
                  "diagnostics": {k: plain(v) for k, v in outcome.diagnostics.items()}}
        if args.output is not None:
            io.dump(io.witness_to_dict(outcome.witness), args.output, args.pretty)
            report["written"] = args.output
        print(io.dump(report, None, args.pretty))
        return 0
    raise ValidationError(f"unknown witness subcommand {args.witness_cmd!r}")


_SINGLE_INPUT_COMMANDS = {
    "rank": _report_rank,
    "concurrence": _report_concurrence,
    "mixed-concurrence": _report_mixed_concurrence,
    "slater1": _report_slater1,
    "ppt": _report_ppt,
    "modes": _report_modes,
    "kak": _report_kak,
}


def _derived_seed(base: int, name: str) -> int:
    return (int(base) ^ zlib.crc32(name.encode("utf-8"))) & 0x7FFFFFFF


def _run_single(command: str, args) -> int:
    handler = _SINGLE_INPUT_COMMANDS[command]
    if args.batch:
        directory = args.path
        if not os.path.isdir(directory):
            raise ValidationError(f"--batch expects a directory, got {directory}")
        names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
        base_seed = args.seed

        def work(name):
            sub_args = argparse.Namespace(**vars(args))
            sub_args.seed = _derived_seed(base_seed, name)
            try:
                return name, handler(os.path.join(directory, name), sub_args), 0
            except SlaterKitError as exc:
                return name, {"error": str(exc), "error_type": type(exc).__name__}, _exit_code(exc)

        with concurrent.futures.ThreadPoolExecutor() as pool:
            rows = list(pool.map(work, names))
        report = {name: payload for name, payload, _ in rows}
        print(io.dump(report, None, args.pretty))
        codes = [code for _, _, code in rows]
        return max(codes) if codes else 0
    report = handler(args.path, args)
    print(io.dump(report, None, args.pretty))
    return 0


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, UnsupportedSystemError):
        return EXIT_UNSUPPORTED
    if isinstance(exc, NumericalFailureError):
        return EXIT_NUMERICAL
    return EXIT_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slaterkit",
        description="Classify and quantify quantum correlations of qubit pairs, "
                    "fermions and bosons.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_path=True):
        if with_path:
            p.add_argument("path", help="input JSON file (or directory with --batch)")
            p.add_argument("--batch", action="store_true",
                           help="treat PATH as a directory of state files")
        p.add_argument("--tol", type=float, default=None, help="rank threshold override")
        p.add_argument("--seed", type=int, default=0, help="seed for stochastic searches")
        p.add_argument("--budget", type=int, default=64, help="restart budget for searches")
        p.add_argument("--json", action="store_true", help="compact JSON output (default)")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    add_common(sub.add_parser("rank", help="Schmidt/Slater rank of a pure state"))
    add_common(sub.add_parser("concurrence", help="pure-state concurrence"))
    add_common(sub.add_parser("mixed-concurrence", help="mixed-state concurrence"))
    add_common(sub.add_parser("slater1", help="Slater-number-one spectral test"))
    ppt = sub.add_parser("ppt", help="partial transpose test (plus bosonic separability)")
    add_common(ppt)
    ppt.add_argument("--cut", choices=("A", "B"), default="A")
    mo = sub.add_parser("modes", help="mode-occupation mapping and mode-cut entropy")
    add_common(mo)
    mo.add_argument("--cut", required=True, help="comma-separated left mode indices")
    add_common(sub.add_parser("kak", help="factor a sector unitary through the magic basis"))

    wit = sub.add_parser("witness", help="make, evaluate or optimize Slater witnesses")
    wsub = wit.add_subparsers(dest="witness_cmd", required=True)
    wmake = wsub.add_parser("make", help="emit the canonical optimal witness")
    wmake.add_argument("--K", type=int, required=True)
    wmake.add_argument("--k", type=int, required=True)
    wmake.add_argument("--kind", choices=("fermion", "boson"), required=True)
    wmake.add_argument("-o", "--output", default=None)
    add_common(wmake, with_path=False)
    weval = wsub.add_parser("eval", help="evaluate a witness on a state")
    weval.add_argument("witness")
    weval.add_argument("state")
    add_common(weval, with_path=False)
    wopt = wsub.add_parser("optimize", help="optimize a witness")
    wopt.add_argument("witness")
    wopt.add_argument("-o", "--output", default=None)
    add_common(wopt, with_path=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "witness":
            return _cmd_witness(args)
        return _run_single(args.command, args)
    except SlaterKitError as exc:
        print(f"slaterkit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
