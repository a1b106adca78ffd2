"""The seeded workloads, ``library`` and ``cli``: inputs, operations, reference checks.

Every operation is a zero-argument callable that returns ``True`` when its
result matches the reference named for its workload (tolerances come from
``spec.json``) and ``False`` or an exception otherwise.  Operations reach
the library through module attributes at call time (``sk.states.f(...)``)
so that the traced run's wrappers see them.  Inputs depend only on the
workload seed; search seeds handed to the library are drawn from it too.

Operations come in rounds.  Every round has the same kinds of operation
in the same order for every seed, and the properties that set an
operation's cost (Slater rank, whether a mixture is entangled) follow a
fixed pattern; the seed draws only the states, rotations and search
seeds.  The timed loop ends on a round boundary, so a run's mix of
operations does not depend on the seed or on where the time ran out.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import slaterkit as sk
from slaterkit import io as skio

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
TOL = {name: entry["value"] for name, entry in SPEC["tolerances"].items()}


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _mixture(kind, d, rank, rng):
    pairs = [(p, sk.states.random_pure_state(kind, d, 2, rng))
             for p in rng.dirichlet(np.ones(rank))]
    return sk.mixed.density_from_mixture(pairs), pairs


def _boson_pair(e):
    return sk.states.boson_state(3, 2, sk.mixed._symmetric_pair_vector(e))


def _boson_product_mixture(rank, rng):
    vectors = [sk.linalg.haar_vector(3, rng) for _ in range(rank)]
    return sk.mixed.density_from_mixture(
        [(p, _boson_pair(e)) for p, e in zip(rng.dirichlet(np.ones(rank)), vectors)])


def _three_boson_qubit_mixture(rng):
    tuples = sk.sectors.sector_tuples(sk.sectors.SYMMETRIC, 2, 3)
    pairs = []
    for p in rng.dirichlet(np.ones(4)):
        e = sk.linalg.haar_vector(2, rng)
        amps = np.array([math.sqrt(math.comb(3, sum(t))) * e[0] ** (3 - sum(t)) * e[1] ** sum(t)
                         for t in tuples])
        pairs.append((p, sk.states.boson_state(2, 3, amps)))
    return sk.mixed.density_from_mixture(pairs)


class Workload:
    """Inputs and operations of one workload, built from a seed."""

    name = ""
    batch_command: list[str] = []
    #: distinct rounds, enough that a timed run does not repeat one
    n_rounds = 8
    #: largest |oracle - closed form| seen so far
    gap_max = 0.0

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.rounds: list[list] = []
        self.batch_files: list[tuple] = []  # (file name, document, check(report))

    def warm_up(self) -> None:
        """Fill the program's lazy caches (tables, lru-cached bases, isometries)."""

    def ops(self) -> list:
        return [op for round_ops in self.rounds for op in round_ops]

    def timed_rounds(self) -> list[list]:
        """Units the timed loop completes before it looks at the clock."""
        return self.rounds

    def trace_ops(self) -> list:
        return self.rounds[0]


# ---------------------------------------------------------------------------
# rank operations
# ---------------------------------------------------------------------------

FERMION_DIMS = (4, 6, 8, 10)
BOSON_DIMS = (3, 4, 5, 6)
MULTI = (("fermion", 6, 3), ("fermion", 8, 3), ("fermion", 8, 4),
         ("boson", 2, 3), ("boson", 3, 3), ("boson", 2, 4), ("boson", 3, 4))


def rank_state(kind, d, rank, rng):
    """Rotated two-particle state with Slater rank ``rank`` and its |Pf| reference."""
    weights = np.abs(rng.standard_normal(rank)) + 0.15
    weights /= np.linalg.norm(weights)
    amps = weights * np.exp(2j * np.pi * rng.random(rank))
    if kind == "fermion":
        base = sk.states.fermion_state(d, 2, {(2 * i, 2 * i + 1): a for i, a in enumerate(amps)})
        top = d // 2
    else:
        base = sk.states.boson_state(d, 2, {(i, i): a for i, a in enumerate(amps)})
        top = d
    state = sk.states.apply_single_particle(base, sk.linalg.haar_unitary(d, rng))
    # w[2i, 2i+1] = amp / 2, so |Pf(w)| is the product of the halved weights
    canonical = weights / 2
    pf_abs = float(np.prod(canonical)) if rank == top else 0.0
    pf_scale = float(canonical.max()) ** top
    return state, pf_abs, pf_scale


def _two_particle_op(kind, d, rank, rng):
    state, pf_abs, pf_scale = rank_state(kind, d, rank, rng)

    def op():
        result = sk.states.slater_decompose_two_particle(state)
        ok = result.rank == rank and result.residual <= TOL["canonical_residual"]
        ok = ok and sk.states.slater_rank_by_contractions(state) == rank
        if kind == "fermion":
            pf = sk.linalg.pfaffian(state.matrix())
            ok = ok and abs(abs(pf) - pf_abs) <= TOL["pfaffian_rel"] * max(pf_abs, pf_scale)
        return ok

    return op


def elementary_state(kind, d, n, rng):
    """Rotated Slater determinant (fermions) or (b^dag)^N permanent (bosons)."""
    if kind == "fermion":
        base = sk.states.fermion_state(d, n, {tuple(range(n)): 1.0})
    else:
        base = sk.states.boson_state(d, n, {(0,) * n: 1.0})
    return sk.states.apply_single_particle(base, sk.linalg.haar_unitary(d, rng))


def correlated_state(kind, d, n, rng):
    """Rotated superposition of two elementary states on disjoint modes (rank >= 2)."""
    theta = rng.uniform(0.3, math.pi / 2 - 0.3)
    a, b = math.cos(theta), math.sin(theta)
    if kind == "fermion":
        base = sk.states.fermion_state(d, n, {tuple(range(n)): a, tuple(range(d - n, d)): b})
    else:
        base = sk.states.boson_state(d, n, {(0,) * n: a, (1,) * n: b})
    return sk.states.apply_single_particle(base, sk.linalg.haar_unitary(d, rng))


def _rank_one_op(kind, d, n, rng):
    state, probe_seed = elementary_state(kind, d, n, rng), _seed(rng)

    def op():
        return sk.states.multiparticle_rank_one(state, rng=probe_seed).claim == "rank_one"

    return op


def _correlated_op(kind, d, n, rng):
    state, probe_seed = correlated_state(kind, d, n, rng), _seed(rng)

    def op():
        verdict = sk.states.multiparticle_rank_one(state, rng=probe_seed)
        return verdict.claim == "rank_ge_2" and sk.states.verify_rank_certificate(state, verdict)

    return op


class RankPart(Workload):
    """Two-particle rank criteria and multiparticle probe chains."""

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = np.random.default_rng([seed, 1])
        for _ in range(self.n_rounds):
            ops = []
            for kind, dims in (("fermion", FERMION_DIMS), ("boson", BOSON_DIMS)):
                for d in dims:
                    top = d // 2 if kind == "fermion" else d
                    ops += [_two_particle_op(kind, d, rank, rng) for rank in range(1, top + 1)]
            ops += [_rank_one_op(*case, rng) for case in MULTI]
            ops += [_correlated_op(*case, rng) for case in MULTI]
            self.rounds.append(ops)
        warm_rng = np.random.default_rng([seed, 2])
        self._warm = [_two_particle_op("fermion", d, d // 2, warm_rng) for d in FERMION_DIMS]
        self._warm += [_two_particle_op("boson", d, d, warm_rng) for d in BOSON_DIMS]
        self._warm += [_correlated_op(*case, warm_rng) for case in MULTI]

    def warm_up(self):
        for op in self._warm:
            op()


# ---------------------------------------------------------------------------
# mixed-state operations
# ---------------------------------------------------------------------------

CANONICAL = (("bipartite", (2, 2)), ("fermion", 4), ("boson", 2))


class MixedPart(Workload):
    """Closed-form mixed-state measures, the convex-roof oracle, bosonic PPT."""

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = np.random.default_rng([seed, 3])
        for _ in range(self.n_rounds):
            ops = []
            for kind, d in CANONICAL:
                # the oracle stops early on separable mixtures, so each round
                # has entangled mixtures of rank 1 to 4 and one separable one
                for rank, entangled in ((1, True), (2, True), (3, True), (4, True), (4, False)):
                    ops += self._canonical_ops(kind, d, rank, rng, entangled)
            for rank in (3, 4):
                ops.append(self._ppt_op(_boson_product_mixture(rank, rng), rank == 4))
            ops.append(self._ppt_op(_three_boson_qubit_mixture(rng), False))
            self.rounds.append(ops)
        for i in range(48):
            kind, d = CANONICAL[i % 3]
            rho = _mixture(kind, d, 1 + (i // 3) % 4, rng)[0]
            closed = sk.mixed.wootters_concurrence(rho)
            self.batch_files.append((f"rho-{i:02d}.json", skio.density_to_dict(rho),
                                     lambda report, c=closed: _close(report["concurrence"], c)))
        warm_rng = np.random.default_rng([seed, 4])
        self._warm = [op for kind, d in CANONICAL
                      for op in self._canonical_ops(kind, d, 2, warm_rng, True)[:-1]]
        self._warm += [self._ppt_op(_boson_product_mixture(4, warm_rng), True),
                       self._ppt_op(_three_boson_qubit_mixture(warm_rng), False)]

    def warm_up(self):
        for op in self._warm:
            op()

    def _canonical_ops(self, kind, d, rank, rng, entangled):
        """Closed forms first, the oracle last; all checked against the closed form.

        Mixtures are drawn until their closed-form concurrence is positive
        (``entangled``) or zero, as asked; rank one is always entangled.
        """
        while True:
            rho, pairs = _mixture(kind, d, rank, rng)
            closed = sk.mixed.wootters_concurrence(rho)
            if (closed >= TOL["class_one"]) == entangled or rank == 1:
                break
        pure = sk.states.concurrence_pure(pairs[0][1]) if rank == 1 else None
        class_one = closed < TOL["class_one"]
        oracle_seed = _seed(rng)

        def wootters():
            c = sk.mixed.wootters_concurrence(rho)
            return c == closed and (pure is None or abs(c - pure) <= TOL["pure_concurrence"])

        def slater1():
            return sk.mixed.slater_number_one_test(rho).is_class_1 == class_one

        def ppt():
            # antisymmetric states are never PPT; two qubits and two bosonic
            # qubits are PPT exactly when the concurrence vanishes
            return sk.mixed.is_ppt(rho) == (False if kind == "fermion" else class_one)

        def oracle():
            value = sk.mixed.convex_roof_oracle(rho, n_starts=8, n_iters=400, seed=oracle_seed)
            gap = abs(value - closed)
            self.gap_max = max(self.gap_max, gap)
            return gap <= TOL["oracle_gap"]

        ops = [wootters] + ([slater1] if kind != "bipartite" else []) + [ppt, oracle]
        return ops

    @staticmethod
    def _ppt_op(rho, expect_decomposition):
        def op():
            result = sk.mixed.bosonic_ppt_separability(rho)
            if result.verdict != "separable":
                return False
            if not expect_decomposition:
                return True
            if result.decomposition is None:
                return False
            pair = sk.mixed._symmetric_pair_vector
            recon = sum(w * np.outer(pair(e), pair(e).conj()) for w, e in result.decomposition)
            return float(np.max(np.abs(recon - rho.matrix))) <= TOL["ppt_reconstruction"]

        return op


# ---------------------------------------------------------------------------
# witness operations
# ---------------------------------------------------------------------------

FAMILIES = tuple((kind, big_k, k) for kind in ("fermion", "boson")
                 for big_k, k in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3)))


def edge_mixture(rng):
    """Rotated ``(1-p) |det><det| + p |mc><mc|`` for two fermions with d = 4.

    The determinant pairs modes from different pairs of the maximally
    correlated state, so its bilinear overlap with it vanishes and the
    edge part of the split is exactly the maximally correlated state.
    """
    p = float(rng.uniform(0.3, 0.7))
    det = sk.states.fermion_state(4, 2, {(0, 2): 1.0})
    mc = sk.states.maximally_correlated_state("fermion", 2)
    rho = sk.mixed.density_from_mixture([(1 - p, det), (p, mc)])
    lift = sk.sectors.lift_unitary(sk.sectors.ANTISYMMETRIC, sk.linalg.haar_unitary(4, rng), 2)
    return sk.mixed.density_matrix(rho.space, lift @ rho.matrix @ lift.conj().T), p


def _separable_bipartite(d, dc, rng):
    acc = np.zeros((d * dc, d * dc), dtype=complex)
    for _ in range(10):
        vec = np.kron(sk.linalg.haar_vector(d, rng), sk.linalg.haar_vector(dc, rng))
        acc += np.outer(vec, vec.conj()) / 10
    return sk.mixed.density_matrix(sk.mixed.bipartite_space(d, dc), acc)


class WitnessPart(Workload):
    """Witness families, restart searches, the positive map and edge states."""

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = np.random.default_rng([seed, 5])
        self.examples = {f: sk.witnesses.optimal_witness_example(f[1], f[2], f[0])
                         for f in FAMILIES}
        for _ in range(self.n_rounds):
            ops = []
            for family in FAMILIES:
                ops += self._family_ops(family, rng)
            for kind, big_k in (("fermion", 2), ("boson", 3)):
                ops.append(self._jamiolkowski_op(self.examples[(kind, big_k, 2)], rng))
            ops += [self._edge_op(rng) for _ in range(2)]
            self.rounds.append(ops)
        warm_rng = np.random.default_rng([seed, 6])
        self._warm = [op for family in FAMILIES for op in self._family_ops(family, warm_rng)[:1]]
        self._warm += [self._family_ops(family, warm_rng)[1] for family in FAMILIES
                       if family[2] == 2]
        self._warm += [self._edge_op(warm_rng),
                       self._jamiolkowski_op(self.examples[("fermion", 2, 2)], warm_rng)]

    def warm_up(self):
        for op in self._warm:
            op()

    def _family_ops(self, family, rng):
        kind, big_k, k = family
        w = self.examples[family]
        mc = sk.mixed.density_from_pure(sk.states.maximally_correlated_state(kind, big_k))
        shift = big_k / (k - 1) - 1.0
        seeds = [_seed(rng) for _ in range(3)]

        def make():
            made = sk.witnesses.optimal_witness_example(big_k, k, kind)
            value = sk.witnesses.witness_value(made, mc).value
            return abs(value + shift) <= TOL["witness_value"]

        def optimize():
            return sk.witnesses.witness_optimize(w, seed=seeds[0]).optimal

        def canonical():
            form = sk.witnesses.canonical_witness_form(w, seed=seeds[1])
            return form.verified and abs(form.epsilon - shift) <= TOL["canonical_shift"]

        def infimum():
            value = sk.witnesses.infimum_over_rank(w.matrix, k, w.space, seed=seeds[2])
            return value >= TOL["infimum_floor"]

        return [make, optimize, canonical, infimum]

    @staticmethod
    def _jamiolkowski_op(w, rng):
        rho = _separable_bipartite(w.space.dims[0], 2, rng)

        def op():
            m = sk.witnesses.jamiolkowski_map_apply(w, rho)
            return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]) >= TOL["jamiolkowski_psd"]

        return op

    @staticmethod
    def _edge_op(rng):
        rho, p = edge_mixture(rng)
        seed = _seed(rng)

        def op():
            split = sk.witnesses.edge_state_decompose(rho, 2, seed=seed)
            if abs(split.weight - p) > TOL["edge_weight"] or split.edge_state is None:
                return False
            w = sk.witnesses.witness_from_edge(split.edge_state, 2, seed=seed)
            return sk.witnesses.witness_value(w, split.edge_state).value < TOL["edge_detection"]

        return op


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


PLAIN_CLI = [sys.executable, "-m", "slaterkit.cli"]


def run_cli(prefix: list[str], args: list[str], timeout: float = 120.0):
    """Run one CLI process; returns ``(exit code, parsed JSON report or None)``."""
    proc = subprocess.run(prefix + args, cwd=ROOT, env=cli_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        return proc.returncode, None
    text = proc.stdout.strip()
    return 0, json.loads(text.splitlines()[-1]) if text else {}


def _close(a, b) -> bool:
    return abs(a - b) <= TOL["cli_equal"]


class CliWorkload(Workload):
    """Each operation is one fresh ``python -m slaterkit.cli`` process."""

    name = "cli"
    batch_command = ["rank"]

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.prefix = PLAIN_CLI
        rng = np.random.default_rng([seed, 1])
        self.rounds = [self._round(r, rng) for r in range(self.n_rounds)]
        for i in range(48):
            kind, d = (("fermion", 4), ("fermion", 6), ("boson", 3), ("bipartite", 3))[i % 4]
            if kind == "bipartite":
                rank = int(rng.integers(1, d + 1))
                psi = sk.linalg.haar_unitary(d, rng)[:, :rank] @ sk.linalg.haar_unitary(d, rng)[:rank]
                state = sk.states.bipartite_state(psi / math.sqrt(rank))
            else:
                top = d // 2 if kind == "fermion" else d
                rank = int(rng.integers(1, top + 1))
                state = rank_state(kind, d, rank, rng)[0]
            self.batch_files.append((f"state-{i:02d}.json", skio.pure_state_to_dict(state),
                                     lambda report, rank=rank: report["rank_claim"] == rank))

    def timed_rounds(self):
        # a round of CLI processes takes about 14 s, so the loop stops after any pair
        ops = self.ops()
        return [ops[i:i + 2] for i in range(0, len(ops), 2)]

    def warm_up(self):
        # one interpreter start and full import, so .pyc files and the page cache are warm
        subprocess.run(PLAIN_CLI + ["--help"], cwd=ROOT, env=cli_env(), capture_output=True,
                       timeout=120, check=True)

    def _write(self, name: str, doc: dict) -> str:
        path = self.tmp / name
        skio.dump(doc, str(path))
        return str(path)

    def _op(self, args, check):
        def op():
            code, report = run_cli(self.prefix, args)
            return code == 0 and check(report)

        return op

    def _round(self, r, rng):
        ops = []
        state = rank_state("fermion", 10, 5, rng)[0]
        ops.append(self._op(["rank", self._write(f"r{r}-f10.json", skio.pure_state_to_dict(state))],
                            lambda rep: rep["rank_claim"] == 5 and rep["decomposition_rank"] == 5))
        for kind, d in (("fermion", 6), ("boson", 4)):
            top = d // 2 if kind == "fermion" else d
            rank = int(rng.integers(1, top + 1))
            state = rank_state(kind, d, rank, rng)[0]
            path = self._write(f"r{r}-{kind}{d}.json", skio.pure_state_to_dict(state))
            ops.append(self._op(["rank", path], lambda rep, rank=rank: rep["rank_claim"] == rank))
        state = correlated_state("fermion", 6, 3, rng)
        path = self._write(f"r{r}-f6n3.json", skio.pure_state_to_dict(state))
        ops.append(self._op(["rank", path, "--seed", str(_seed(rng))],
                            lambda rep: rep["rank_claim"] == "rank_ge_2"))

        kind, d = CANONICAL[r % 3]
        psi = sk.states.random_pure_state(kind, d, 2, rng)
        path = self._write(f"r{r}-pure.json", skio.pure_state_to_dict(psi))
        loaded = skio.load_any(path)
        expect = sk.states.concurrence_pure(loaded)
        ops.append(self._op(["concurrence", path], lambda rep: _close(rep["concurrence"], expect)))

        rho_path = self._write(f"r{r}-rho.json", skio.density_to_dict(
            _mixture(*CANONICAL[1 + r % 2], 2 + r % 3, rng)[0]))
        rho = skio.load_any(rho_path)
        closed = sk.mixed.wootters_concurrence(rho)
        class_one = sk.mixed.slater_number_one_test(rho).is_class_1
        ops.append(self._op(["mixed-concurrence", rho_path],
                            lambda rep: _close(rep["concurrence"], closed)))
        ops.append(self._op(["slater1", rho_path], lambda rep: rep["is_class_1"] == class_one))

        ppt_path = self._write(f"r{r}-ppt.json", skio.density_to_dict(_boson_product_mixture(4, rng)))
        ops.append(self._op(["ppt", ppt_path],
                            lambda rep: rep["ppt"] and rep["separability"] == "separable"))

        fermions = sk.states.random_pure_state("fermion", 4, 2, rng)
        modes_path = self._write(f"r{r}-modes.json", skio.pure_state_to_dict(fermions))
        entropy = sk.modes.mode_bipartition_entropy(
            sk.modes.fock_to_qubits(skio.load_any(modes_path)), [0, 1])
        ops.append(self._op(["modes", modes_path, "--cut", "0,1"],
                            lambda rep: _close(rep["entropy"], entropy)))

        system = ("qubits", "fermions", "bosons")[r % 3]
        space = {"qubits": {"kind": "bipartite", "dims": [2, 2]},
                 "fermions": {"kind": "antisymmetric", "single_particle_dim": 4, "particles": 2},
                 "bosons": {"kind": "symmetric", "single_particle_dim": 2, "particles": 2}}[system]
        u = sk.linalg.haar_unitary(sk.states.SYSTEM_DIMS[system], rng)
        kak_path = self._write(f"r{r}-kak.json", {"type": "operator", "space": space,
                                                  "matrix": skio._matrix_to_json(u)})
        ops.append(self._op(["kak", kak_path], lambda rep: rep["system"] == system
                            and rep["residual"] <= TOL["kak_residual"]))

        kind, big_k, k = FAMILIES[r % len(FAMILIES)]
        witness = sk.witnesses.optimal_witness_example(big_k, k, kind)
        made_path = str(self.tmp / f"r{r}-made.json")

        def made_matches(rep):
            made = skio.load_any(made_path)
            return float(np.max(np.abs(made.matrix - witness.matrix))) <= TOL["cli_equal"]

        ops.append(self._op(["witness", "make", "--K", str(big_k), "--k", str(k), "--kind", kind,
                             "-o", made_path], made_matches))
        w_path = self._write(f"r{r}-w.json", skio.witness_to_dict(witness))
        target = sk.mixed.density_from_pure(sk.states.maximally_correlated_state(kind, big_k))
        target_path = self._write(f"r{r}-target.json", skio.density_to_dict(target))
        value = sk.witnesses.witness_value(skio.load_any(w_path), skio.load_any(target_path))
        ops.append(self._op(["witness", "eval", w_path, target_path],
                            lambda rep: _close(rep["value"], value.value)
                            and rep["detected"] == value.detected))
        return ops


# ---------------------------------------------------------------------------
# library
# ---------------------------------------------------------------------------

class LibraryWorkload(Workload):
    """The rank, mixed and witness parts in one closed loop, in process.

    Round ``r`` is round ``r`` of each part, about 8 s; the run finishes
    the round in progress.  Each round draws new inputs, so a run averages
    the cost of a few dozen oracle mixtures and witness searches.  One long
    workload measures more work per run than three short ones within the
    same time budget.  The batch phase runs ``mixed-concurrence`` over
    closed-form mixture files.
    """

    name = "library"
    batch_command = ["mixed-concurrence"]

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.parts = [RankPart(seed, tmp), MixedPart(seed, tmp), WitnessPart(seed, tmp)]
        self.rounds = [[op for part in self.parts for op in part.rounds[r]]
                       for r in range(self.n_rounds)]
        self.batch_files = self.parts[1].batch_files

    def warm_up(self):
        for part in self.parts:
            part.warm_up()

    @property
    def gap_max(self):
        return self.parts[1].gap_max


WORKLOADS = {cls.name: cls for cls in (LibraryWorkload, CliWorkload)}
