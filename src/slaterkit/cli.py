"""Command-line front end.

One subcommand per analysis family, JSON reports on stdout, exit codes:
0 success, 2 input/validation failure, 3 numerical failure, 4 request
for an unsupported system.  Identical inputs with identical ``--seed``
produce identical reports; ``--batch`` runs a single-input command over
every ``*.json`` file in a directory with deterministic per-file seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
import zlib

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


def _load(path: str, expected, message: str):
    """The object in ``path``; a ValidationError with ``message`` unless it
    is an instance of ``expected``."""
    obj = io.load_any(path)
    if not isinstance(obj, expected):
        raise ValidationError(message)
    return obj


def _report_rank(path: str, args) -> dict:
    state = _load(path, states.PureState, "rank expects a pure-state file")
    tol = args.tol if args.tol is not None else RANK_RTOL
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"--tol must lie strictly between 0 and 1, got {tol}")
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
    found = verdict.certificate
    cert = {"kind": found["kind"], "n_probes": found["n_probes"],
            "one_body_ratio": found["ratio"], "tolerance": found["tolerance"]}
    if found["probes"]:
        cert["probes"] = [io._complex_list(p) for p in found["probes"]]
    return {"rank_claim": verdict.claim, "certificate": cert,
            "tolerances": {"contract_rtol": tol}}


def _report_concurrence(path: str, args) -> dict:
    state = _load(path, states.PureState, "concurrence expects a pure-state file")
    return {"concurrence": states.concurrence_pure(state),
            "magic_coefficients": io._complex_list(states.magic_basis_coeffs(state))}


def _report_mixed_concurrence(path: str, args) -> dict:
    rho = _load(path, mixed.DensityMatrix, "mixed-concurrence expects a density-matrix file")
    lam = mixed.concurrence_lambdas(rho)
    return {"concurrence": mixed.wootters_concurrence(rho),
            "lambdas": list(map(float, lam))}


def _report_slater1(path: str, args) -> dict:
    rho = _load(path, mixed.DensityMatrix, "slater1 expects a density-matrix file")
    result = mixed.slater_number_one_test(rho)
    return {"is_class_1": result.is_class_1,
            "c_values": list(map(float, result.c_values))}


def _report_ppt(path: str, args) -> dict:
    rho = _load(path, mixed.DensityMatrix, "ppt expects a density-matrix file")
    try:  # refused before its partial transpose where the space is not symmetric
        sep = mixed.bosonic_ppt_separability(rho)
    except UnsupportedSystemError:
        sep = None
    min_eig = mixed.ppt_min_eigenvalue(rho) if sep is None else sep.min_eigenvalue
    report = {"min_eigenvalue": min_eig, "ppt": bool(min_eig >= mixed.PPT_MIN_EIGENVALUE)}
    if sep is not None:
        report["separability"] = sep.verdict
        if sep.decomposition is not None:
            report["decomposition"] = [
                {"weight": w, "vector": io._complex_list(e)} for w, e in sep.decomposition]
        if sep.diagnostics:
            report["diagnostics"] = list(sep.diagnostics)
    return report


def _report_modes(path: str, args) -> dict:
    state = _load(path, states.PureState, "modes expects a pure-state file")
    occ = modes.fock_to_qubits(state)
    try:
        cut = [int(x) for x in args.cut.split(",") if x != ""]
    except ValueError as exc:
        raise ValidationError(f"--cut expects comma-separated mode indices, got {args.cut!r}") from exc
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
        w = _load(args.witness, witnesses.WitnessOperator,
                  "witness eval expects an operator file first")
        rho = _load(args.state, (states.PureState, mixed.DensityMatrix),
                    "witness eval expects a state or density file second")
        if isinstance(rho, states.PureState):
            rho = mixed.density_from_pure(rho)
        result = witnesses.witness_value(w, rho)
        print(io.dump({"value": result.value, "detected": result.detected},
                      None, args.pretty))
        return 0
    # argparse admits only make, eval and optimize
    w = _load(args.witness, witnesses.WitnessOperator, "witness optimize expects an operator file")
    outcome = witnesses.witness_optimize(w, budget=args.budget, seed=args.seed)
    report = {"optimal": outcome.optimal,
              "subtracted_weight": outcome.subtracted_weight,
              "diagnostics": outcome.diagnostics}
    if args.output is not None:
        io.dump(io.witness_to_dict(outcome.witness), args.output, args.pretty)
        report["written"] = args.output
    print(io.dump(report, None, args.pretty))
    return 0


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

        def work(name):
            sub_args = argparse.Namespace(**vars(args))
            if "seed" in vars(args):
                sub_args.seed = _derived_seed(args.seed, name)
            try:
                return name, handler(os.path.join(directory, name), sub_args), 0
            except SlaterKitError as exc:
                return name, {"error": str(exc), "error_type": type(exc).__name__}, _exit_code(exc)

        rows = [work(name) for name in names]
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
        p.add_argument("--json", action="store_true", help="compact JSON output (default)")
        p.add_argument("--pretty", action="store_true", help="indent JSON output")

    rank = sub.add_parser("rank", help="Schmidt/Slater rank of a pure state")
    add_common(rank)
    rank.add_argument("--tol", type=float, default=None, help="rank threshold override")
    rank.add_argument("--seed", type=int, default=0, help="seed for stochastic searches")
    add_common(sub.add_parser("concurrence", help="pure-state concurrence"))
    add_common(sub.add_parser("mixed-concurrence", help="mixed-state concurrence"))
    add_common(sub.add_parser("slater1", help="Slater-number-one spectral test"))
    add_common(sub.add_parser("ppt", help="partial transpose test (plus bosonic separability)"))
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
    wopt.add_argument("--seed", type=int, default=0, help="seed for stochastic searches")
    wopt.add_argument("--budget", type=int, default=64, help="restart budget for searches")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # before any file runs: ``--batch`` derives per-file seeds that are never negative
        if getattr(args, "seed", 0) < 0:
            raise ValidationError(f"seed must be a non-negative integer, got {args.seed}")
        if args.command == "witness":
            return _cmd_witness(args)
        return _run_single(args.command, args)
    except SlaterKitError as exc:
        print(f"slaterkit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
