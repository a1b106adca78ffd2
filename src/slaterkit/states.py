"""Pure states of two distinguishable qubits, N fermions, and N bosons.

States are stored as amplitudes in the orthonormal occupation-number
basis (strictly increasing mode tuples for fermions, non-decreasing for
bosons); bipartite states store the coefficient matrix ``psi``.  The
rank machinery works on the coefficient-tensor view, expanded on demand.

Three "canonical" systems admit a dualisation operator, magic bases and
a concurrence: a pair of qubits, two fermions with a four-dimensional
single-particle space, and two bosons with a two-dimensional one.  They
are tagged ``"qubits"``, ``"fermions"`` and ``"bosons"`` throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import sectors
from .errors import (
    DimensionMismatchError,
    DimensionNotEvenError,
    NotAStateError,
    OutOfRangeError,
    ThresholdOutOfRangeError,
    UnsupportedSystemError,
    ValidationError,
    WrongKindError,
)
from .linalg import (
    CONTRACT_RTOL,
    RANK_RTOL,
    TOL_SYM,
    EpsilonContractionSpec,
    as_rng,
    epsilon_contract,
    haar_unitary,
    haar_vector,
    read_only,
    singular_values,
    takagi_canonical,
    youla_canonical,
)

BIPARTITE = "bipartite"
FERMION = "fermion"
BOSON = "boson"

#: sector dimensions of the three canonical systems
SYSTEM_DIMS = {"qubits": 4, "fermions": 6, "bosons": 3}

_NORM_ATOL = 1e-6


@dataclass(frozen=True)
class PureState:
    """Tagged union over the three state families.

    ``amps`` holds occupation-number amplitudes over the sorted-tuple
    basis for fermions/bosons, and the coefficient matrix ``psi`` of
    shape ``(d_A, d_B)`` for the bipartite kind.  Use the factory
    functions to construct validated states.
    """

    kind: str
    particles: int
    dim: int | tuple[int, int]
    amps: np.ndarray

    @property
    def sector_kind(self) -> str:
        if self.kind == FERMION:
            return sectors.ANTISYMMETRIC
        if self.kind == BOSON:
            return sectors.SYMMETRIC
        raise WrongKindError("bipartite states have no exchange sector")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def flat(self) -> np.ndarray:
        return self.amps.ravel()

    def tensor(self) -> np.ndarray:
        """Coefficient tensor ``w``/``v`` over all index orderings."""
        if self.kind == BIPARTITE:
            raise WrongKindError("bipartite states store the psi matrix directly")
        return sectors.tensor_from_amps(self.sector_kind, self.dim, self.particles, self.amps)

    def matrix(self) -> np.ndarray:
        """Two-particle coefficient matrix (``psi`` for the bipartite kind)."""
        if self.kind == BIPARTITE:
            return self.amps.copy()
        if self.particles != 2:
            raise WrongKindError("coefficient matrix is defined for two particles")
        return self.tensor()

    def inner(self, other: "PureState") -> complex:
        if (self.kind, self.particles, self.dim) != (other.kind, other.particles, other.dim):
            raise DimensionMismatchError("states live in different spaces")
        return complex(np.vdot(self.flat(), other.flat()))


def _validated(kind, particles, dim, amps) -> PureState:
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > _NORM_ATOL:
        raise NotAStateError(f"state norm {norm:.8f} is not within {_NORM_ATOL} of 1")
    return PureState(kind, particles, dim, amps / norm)


def bipartite_state(psi) -> PureState:
    """Validated bipartite pure state from its coefficient matrix."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 2:
        raise ValidationError("psi must be a d_A x d_B matrix")
    if not np.all(np.isfinite(psi)):
        raise ValidationError("psi contains NaN or Inf")
    return _validated(BIPARTITE, 2, psi.shape, psi)


def _amps_from_spec(kind, d, n, amplitudes) -> np.ndarray:
    tuples = sectors.sector_tuples(kind, d, n)
    if isinstance(amplitudes, dict):
        amps = np.zeros(len(tuples), dtype=complex)
        index = sectors.tuple_index(kind, d, n)
        for t, value in amplitudes.items():
            t = tuple(int(i) for i in t)
            if t not in index:
                raise ValidationError(f"{t} is not a sorted mode tuple for d={d}, N={n}")
            amps[index[t]] = value
        return amps
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.shape != (len(tuples),):
        raise ValidationError(f"expected {len(tuples)} amplitudes, got shape {amps.shape}")
    return amps.copy()


def fermion_state(d: int, particles: int, amplitudes) -> PureState:
    """Validated fermionic state from occupation amplitudes.

    ``amplitudes`` is either a dict over strictly increasing mode tuples
    or an array over the full sorted-tuple basis.
    """
    if particles > d:
        raise ValidationError(f"cannot place {particles} fermions in {d} modes")
    amps = _amps_from_spec(sectors.ANTISYMMETRIC, d, particles, amplitudes)
    return _validated(FERMION, particles, d, amps)


def boson_state(d: int, particles: int, amplitudes) -> PureState:
    """Validated bosonic state from occupation amplitudes."""
    amps = _amps_from_spec(sectors.SYMMETRIC, d, particles, amplitudes)
    return _validated(BOSON, particles, d, amps)


def fermion_state_from_tensor(w, tol: float = TOL_SYM) -> PureState:
    """Validated fermionic state from a totally antisymmetric tensor.

    Normalization convention: ``sum |w|^2 = 1/N!`` over all orderings
    (up to the usual 1e-6 slack, after which the state is renormalized).
    """
    w = np.asarray(w, dtype=complex)
    sectors.check_tensor_symmetry(sectors.ANTISYMMETRIC, w, tol)
    amps = sectors.amps_from_tensor(sectors.ANTISYMMETRIC, w)
    return _validated(FERMION, w.ndim, w.shape[0], amps)


def boson_state_from_tensor(v, tol: float = TOL_SYM) -> PureState:
    """Validated bosonic state from a totally symmetric tensor.

    Normalization uses the multiplicity-aware inner product
    ``<v|v> = N! sum |v|^2`` (for N=2: ``2 sum |v_ij|^2 = 1``).
    """
    v = np.asarray(v, dtype=complex)
    sectors.check_tensor_symmetry(sectors.SYMMETRIC, v, tol)
    amps = sectors.amps_from_tensor(sectors.SYMMETRIC, v)
    return _validated(BOSON, v.ndim, v.shape[0], amps)


def raw_state(kind: str, particles: int, dim, amps) -> PureState:
    """Unvalidated, possibly unnormalized state (projection outputs)."""
    return PureState(kind, particles, dim, np.asarray(amps, dtype=complex))


# ---------------------------------------------------------------------------
# canonical systems: magic bases and dualisation
# ---------------------------------------------------------------------------

#: the three canonical systems by the (kind, particles, dim) of their states
_CANONICAL_SYSTEMS = {(BIPARTITE, 2, (2, 2)): "qubits", (FERMION, 2, 4): "fermions",
                      (BOSON, 2, 2): "bosons"}


def canonical_system(state: PureState) -> str:
    """Map a state to one of the three canonical systems or raise."""
    return canonical_system_of(state.kind, state.particles, state.dim)


def canonical_system_of(kind: str, particles: int, dim) -> str:
    """The canonical system of states with this kind, particle number and
    single-particle dimension (``(d_A, d_B)`` when bipartite), or raise."""
    system = _CANONICAL_SYSTEMS.get((kind, particles, dim))
    if system is None:
        raise UnsupportedSystemError(f"no dualisation for kind={kind}, N={particles}, dim={dim}")
    return system


@lru_cache(maxsize=None)
def magic_basis(system: str) -> np.ndarray:
    """Unitary whose columns are the magic-basis states in sector coordinates.

    The magic states are (pseudo-)eigenstates of the dualisation operator:
    in this basis dualisation acts as plain complex conjugation.
    """
    s = 1.0 / math.sqrt(2.0)
    if system == "qubits":
        # product basis order (00, 01, 10, 11)
        cols = [
            [0, s, -s, 0],
            [s, 0, 0, s],
            [0, 1j * s, 1j * s, 0],
            [1j * s, 0, 0, -1j * s],
        ]
    elif system == "fermions":
        # pair basis order ((01), (02), (03), (12), (13), (23))
        cols = [
            [s, 0, 0, 0, 0, s],
            [0, s, 0, 0, -s, 0],
            [0, 0, s, s, 0, 0],
            [1j * s, 0, 0, 0, 0, -1j * s],
            [0, 1j * s, 0, 0, 1j * s, 0],
            [0, 0, 1j * s, -1j * s, 0, 0],
        ]
    elif system == "bosons":
        # basis order ((00), (01), (11))
        cols = [
            [s, 0, s],
            [1j * s, 0, -1j * s],
            [0, 1j, 0],
        ]
    else:
        raise UnsupportedSystemError(f"unknown system {system!r}")
    return read_only(np.array(cols, dtype=complex).T)


@lru_cache(maxsize=None)
def spin_multiplet_basis() -> np.ndarray:
    """Total-spin basis of the two-fermion d=4 sector.

    Viewing the four modes as the S_z levels of a spin-3/2 particle, the
    antisymmetric pair space splits into a quintet and a singlet; the
    columns are (|2,2>, |2,1>, |2,0>, |2,-1>, |2,-2>, |0,0>) in pair
    coordinates, with the singlet phase fixed so that dualisation acts
    in this basis as the spin time-reversal matrix times conjugation.
    """
    s = 1.0 / math.sqrt(2.0)
    cols = [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, s, s, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 1j * s, -1j * s, 0, 0],
    ]
    return read_only(np.array(cols, dtype=complex).T)


@lru_cache(maxsize=None)
def dual_unitary(system: str) -> np.ndarray:
    """Linear part ``U_D`` of the dualisation ``D = U_D K`` in sector coordinates."""
    if system == "qubits":
        m = np.array([
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, -1, 0, 0],
            [1, 0, 0, 0],
        ])
    elif system == "fermions":
        m = np.array([
            [0, 0, 0, 0, 0, 1],
            [0, 0, 0, 0, -1, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0],
            [0, -1, 0, 0, 0, 0],
            [1, 0, 0, 0, 0, 0],
        ])
    elif system == "bosons":
        m = np.array([
            [0, 0, 1],
            [0, -1, 0],
            [1, 0, 0],
        ])
    else:
        raise UnsupportedSystemError(f"unknown system {system!r}")
    return read_only(m.astype(complex))


def dual_state(state: PureState) -> PureState:
    """Dualised (time-reversed / particle-hole conjugated) state.

    Applying the dualisation twice returns the original state up to a
    global phase.  Defined for the three canonical systems only.
    """
    system = canonical_system(state)
    flat = dual_unitary(system) @ np.conj(state.flat())
    if state.kind == BIPARTITE:
        return PureState(BIPARTITE, 2, state.dim, flat.reshape(state.dim))
    return PureState(state.kind, 2, state.dim, flat)


def bilinear_overlap(left: PureState, right: PureState) -> complex:
    """``<dual(left)|right>``, a symmetric bilinear form of the two states."""
    return dual_state(left).inner(right)


def concurrence_pure(state: PureState) -> float:
    """Concurrence ``|<dual(state)|state>|`` of a canonical-system pure state.

    Zero exactly on states of correlation rank one (product states,
    elementary Slater determinants, doubly occupied permanents), one on
    maximally correlated states.
    """
    return abs(bilinear_overlap(state, state))


def magic_basis_coeffs(state: PureState) -> np.ndarray:
    """Coefficients of the state in the magic basis.

    The concurrence equals ``|sum_i alpha_i^2|`` in these coordinates.
    """
    system = canonical_system(state)
    return magic_basis(system).conj().T @ state.flat()


# ---------------------------------------------------------------------------
# Schmidt / Slater decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchmidtSlaterResult:
    """Canonical two-particle expansion with rank, values and transforms."""

    kind: str
    rank: int
    values: np.ndarray
    transforms: tuple[np.ndarray, ...]
    residual: float


def schmidt_decompose(state: PureState, rank_rtol: float = RANK_RTOL) -> SchmidtSlaterResult:
    """Bi-orthogonal decomposition of a bipartite pure state.

    Returns local unitaries ``(U_A, U_B)`` and values ``z_i`` with
    ``psi = U_A @ diag(z) @ U_B.T`` and ``sum z_i^2 = 1``.
    """
    if state.kind != BIPARTITE:
        raise WrongKindError("schmidt_decompose expects a bipartite state")
    psi = state.matrix()
    u, s, vh = np.linalg.svd(psi)
    rank = int(np.count_nonzero(s > rank_rtol * s[0])) if s.size and s[0] > 0 else 0
    u_b = vh.T  # psi = u @ diag(s) @ u_b.T
    diag = np.zeros(psi.shape, dtype=complex)
    diag[: len(s), : len(s)] = np.diag(s)
    residual = float(np.max(np.abs(u @ diag @ u_b.T - psi)))
    return SchmidtSlaterResult(BIPARTITE, rank, s[:rank].copy(), (u, u_b), residual)


def slater_decompose_two_particle(state: PureState, rank_rtol: float = RANK_RTOL) -> SchmidtSlaterResult:
    """Slater decomposition of a two-fermion or two-boson state.

    Delegates to the congruence canonical form of the coefficient
    matrix; the number of canonical values is the Slater rank.
    """
    if state.kind == FERMION and state.particles == 2:
        form = youla_canonical(state.matrix(), rank_rtol=rank_rtol)
    elif state.kind == BOSON and state.particles == 2:
        form = takagi_canonical(state.matrix(), rank_rtol=rank_rtol)
    else:
        raise WrongKindError("expected a two-fermion or two-boson state")
    return SchmidtSlaterResult(state.kind, form.rank, form.values, (form.transform,), form.residual)


# ---------------------------------------------------------------------------
# rank criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankVerdict:
    """Outcome of a rank criterion plus the evidence that decided it."""

    claim: str
    certificate: dict


@lru_cache(maxsize=16)
def _contraction_operand(kind: str, dim: int, amps: bytes) -> tuple[np.ndarray, float]:
    """The read-only coefficient matrix of a two-particle state and its largest
    singular value.  Keyed by the amplitudes' bytes, so the tests of one rank
    scan build both once, and a state changed in place builds them anew."""
    m = read_only(PureState(kind, 2, dim, np.frombuffer(amps, dtype=complex)).matrix())
    return m, float(singular_values(m)[0])


def _rank_below(state: PureState, kind: str, threshold: int, rtol: float) -> RankVerdict:
    """Contraction rank test shared by the fermionic and bosonic criteria."""
    if state.kind != kind or state.particles != 2:
        raise WrongKindError(f"expected a two-{kind} state")
    d = state.dim
    if kind == FERMION:
        if d % 2:
            raise DimensionNotEvenError(f"single-particle dimension {d} is odd")
        big_k, pattern, free, weight = d // 2, "single", d - 2 * threshold, 2.0 ** threshold
    else:
        big_k, pattern, free, weight = d, "paired", d - threshold, 1.0
    if not 1 <= threshold <= big_k:
        raise ThresholdOutOfRangeError(f"threshold {threshold} outside 1..{big_k}")
    m, s_max = _contraction_operand(kind, d, np.asarray(state.amps, dtype=complex).tobytes())
    values = epsilon_contract(EpsilonContractionSpec((m,) * threshold, pattern, free))
    # no contraction value exceeds weight * k! * s_max**k in modulus
    scale = weight * math.factorial(threshold) * s_max ** threshold
    tol = rtol * max(scale, np.finfo(float).tiny)
    argmax = max(values, key=lambda t: abs(values[t]))
    peak = abs(values[argmax])
    claim = f"rank_lt_{threshold}" if peak <= tol else f"rank_ge_{threshold}"
    return RankVerdict(claim, {
        "kind": "contraction",
        "threshold": threshold,
        "max_abs_contraction": peak,
        "argmax_free_indices": argmax,
        "tolerance": tol,
    })


def two_fermion_rank_below(state: PureState, threshold: int,
                           rtol: float = CONTRACT_RTOL) -> RankVerdict:
    """Test whether a two-fermion state has Slater rank below ``threshold``.

    Contracts ``threshold`` copies of the coefficient matrix against the
    Levi-Civita tensor, one value per increasing choice of the free
    indices; the rank is below ``threshold`` iff all values vanish.
    """
    return _rank_below(state, FERMION, threshold, rtol)


def two_boson_rank_below(state: PureState, threshold: int,
                         rtol: float = CONTRACT_RTOL) -> RankVerdict:
    """Bosonic analogue of :func:`two_fermion_rank_below`.

    Uses the paired-epsilon contraction with a common free tuple in both
    epsilon factors.
    """
    return _rank_below(state, BOSON, threshold, rtol)


def slater_rank_by_contractions(state: PureState, rtol: float = CONTRACT_RTOL) -> int:
    """Exact Slater rank of a two-particle state from the rank criteria alone.

    The tests of the scan share one coefficient matrix and one SVD.
    """
    if state.kind == FERMION:
        upper = state.dim // 2
        test = two_fermion_rank_below
    elif state.kind == BOSON:
        upper = state.dim
        test = two_boson_rank_below
    else:
        raise WrongKindError("expected a fermionic or bosonic state")
    rank = upper
    for n in range(1, upper + 1):
        if test(state, n, rtol=rtol).claim.startswith("rank_lt"):
            rank = n - 1
            break
    return rank


def project_reduce(state: PureState, a) -> PureState:
    """Contract one particle out against a single-particle vector.

    Returns the (N-1)-particle state with tensor
    ``N * sum_k w_{i1..i_{N-1} k} a_k``; the output is deliberately not
    renormalized and may be the zero state.
    """
    if state.kind == BIPARTITE:
        raise WrongKindError("project_reduce acts on fermionic or bosonic states")
    a = np.asarray(a, dtype=complex)
    if a.shape != (state.dim,):
        raise DimensionMismatchError(f"probe has shape {a.shape}, expected ({state.dim},)")
    if not np.all(np.isfinite(a)):
        raise ValidationError("probe vector contains NaN or Inf")
    reduced = state.particles * np.tensordot(state.tensor(), a, axes=([state.particles - 1], [0]))
    amps = sectors.amps_from_tensor(state.sector_kind, reduced)
    return PureState(state.kind, state.particles - 1, state.dim, amps)


def _probe_vectors(d: int, n_random: int, rng) -> list[np.ndarray]:
    probes = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        v = np.zeros(d, dtype=complex)
        v[i] = v[j] = 1.0 / math.sqrt(2.0)
        probes.append(v)
    probes.extend(haar_vector(d, rng) for _ in range(n_random))
    return probes


def _one_body_test(state: PureState, rtol: float) -> tuple[bool, dict]:
    """Coleman's rank-one test on the one-body density matrix.

    The singular values ``s`` of the unfolding ``w.reshape(d, -1)`` are the
    square roots of that matrix's eigenvalues (up to one common factor).
    With ``m = N`` for fermions and ``m = 1`` for bosons the state is
    elementary iff ``s[m]`` vanishes: the state lies in the N-th exterior
    (symmetric) power of the matrix's range, which is one-dimensional
    exactly then.  Returns the verdict and its certificate fields.
    """
    s = singular_values(state.tensor().reshape(state.dim, -1))
    m = state.particles if state.kind == FERMION else 1
    tail = float(s[m]) if m < s.size else 0.0
    top = float(s[0])
    return tail <= rtol * top, {
        "kind": "one_body",
        "probes": (),
        "n_probes": 0,
        "singular_values": s,
        "m": m,
        "ratio": tail / top if top > 0.0 else 0.0,
        "tolerance": rtol,
    }


def multiparticle_rank_one(state: PureState, n_random: int = 32, rng=0,
                           rtol: float = CONTRACT_RTOL) -> RankVerdict:
    """Decide whether an N-particle state (N >= 3) has Slater rank one.

    The claim is exact up to ``rtol``.  By Coleman's theorem an N-fermion
    state is one Slater determinant iff its one-body density matrix has
    rank N, and an N-boson state is ``(b^dag)^N|0>`` iff that matrix has
    rank one.  With ``s`` the singular values of the unfolding
    ``w.reshape(d, -1)`` and ``m = N`` (fermions) or ``m = 1`` (bosons),
    the state is ``rank_one`` iff ``s[m] <= rtol * s[0]`` or there is no
    ``s[m]``; ``s[m] / s[0]`` grows linearly with an admixed state.

    The probe set only supplies certificates.  For a ``rank_ge_2`` state,
    particles are projected out recursively along the probes (all basis
    vectors, all normalized pairwise sums, plus ``n_random`` seeded Haar
    vectors) until the two-particle criteria apply, and the first chain
    whose reduction has Slater rank two is returned.  The ``rank_one``
    path draws nothing from ``rng``.

    Every certificate carries ``"kind"``, ``"probes"`` (the chain, empty
    unless one certifies), ``"n_probes"`` (the probe set the chains ran
    over, 0 if they did not run) and the spectral evidence:
    ``"singular_values"``, ``"m"``, ``"ratio"`` (``s[m] / s[0]``) and
    ``"tolerance"`` (``rtol``).  Its kind is ``"probe_chain"`` when a chain
    certifies, and ``"one_body"`` otherwise: a ``rank_one`` state, or one
    correlated below the chain test's resolution.
    """
    if state.kind == BIPARTITE:
        raise WrongKindError("multiparticle_rank_one acts on fermionic or bosonic states")
    if state.particles < 3:
        raise ValidationError("use the two-particle criteria for N < 3")
    rank_one, certificate = _one_body_test(state, rtol)
    if rank_one:
        return RankVerdict("rank_one", certificate)
    probes = _probe_vectors(state.dim, n_random, as_rng(rng))
    rank_below = two_fermion_rank_below if state.kind == FERMION else two_boson_rank_below

    def violating_chain(st: PureState, chain: tuple) -> tuple | None:
        if st.particles == 2:
            verdict = rank_below(st, 2, rtol=rtol)
            return chain if verdict.claim.startswith("rank_ge") else None
        scale = st.norm()
        for a in probes:
            sub = project_reduce(st, a)
            sub_norm = sub.norm()
            if sub_norm <= rtol * st.particles * scale:
                continue
            sub = PureState(sub.kind, sub.particles, sub.dim, sub.amps / sub_norm)
            found = violating_chain(sub, chain + (a,))
            if found is not None:
                return found
        return None

    chain = violating_chain(state, ())
    certificate["n_probes"] = len(probes)
    if chain is not None:
        certificate.update(kind="probe_chain", probes=chain)
    return RankVerdict("rank_ge_2", certificate)


def verify_rank_certificate(state: PureState, verdict: RankVerdict,
                            rtol: float = CONTRACT_RTOL) -> bool:
    """Re-evaluate a rank certificate against its state."""
    cert = verdict.certificate
    if cert.get("kind") == "probe_chain" and verdict.claim == "rank_ge_2":
        st = state
        for a in cert["probes"]:
            st = project_reduce(st, a)
            n = st.norm()
            if n == 0:
                return False
            st = PureState(st.kind, st.particles, st.dim, st.amps / n)
        if st.particles > 2:
            # a partial chain certifies iff the reduction is itself correlated
            return not _one_body_test(st, rtol)[0]
        test = two_fermion_rank_below if st.kind == FERMION else two_boson_rank_below
        return test(st, 2, rtol=rtol).claim.startswith("rank_ge")
    if cert.get("kind") == "one_body":
        rank_one = _one_body_test(state, rtol)[0]
        return verdict.claim == ("rank_one" if rank_one else "rank_ge_2")
    if cert.get("kind") == "contraction":
        test = two_fermion_rank_below if state.kind == FERMION else two_boson_rank_below
        fresh = test(state, cert["threshold"], rtol=rtol)
        return fresh.claim == verdict.claim
    return False


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def binary_entropy(x: float) -> float:
    """Binary entropy ``h(x)`` in bits, with the 0 log 0 = 0 convention."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def entanglement_entropy(state: PureState) -> float:
    """Von Neumann entropy (bits) of either reduced density matrix.

    The two partial traces are computed independently and must agree to
    1e-10, which doubles as an internal consistency check.
    """
    if state.kind != BIPARTITE:
        raise WrongKindError("entanglement_entropy expects a bipartite state")
    psi = state.matrix()
    rho_a = psi @ psi.conj().T
    rho_b = psi.T @ psi.conj()
    pa = np.sort(np.linalg.eigvalsh(rho_a))[::-1]
    pb = np.sort(np.linalg.eigvalsh(rho_b))[::-1]
    k = min(len(pa), len(pb))
    if np.max(np.abs(pa[:k] - pb[:k])) > 1e-10:
        raise ValidationError("reduced spectra disagree beyond tolerance")

    def ent(p):
        p = p[p > 1e-15]
        return float(-(p * np.log2(p)).sum())

    ea, eb = ent(pa), ent(pb)
    if abs(ea - eb) > 1e-10:
        raise ValidationError("reduced entropies disagree beyond tolerance")
    return ea


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation of a two-qubit state from its concurrence."""
    if not -1e-12 <= c <= 1.0 + 1e-9:
        raise OutOfRangeError(f"concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


# ---------------------------------------------------------------------------
# constructions and transformations
# ---------------------------------------------------------------------------

def maximally_correlated_state(kind: str, big_k: int) -> PureState:
    """Equal-weight sum of K non-overlapping pairs (fermions) or doubly
    occupied modes (bosons); the concurrence-one state for K=2."""
    amp = 1.0 / math.sqrt(big_k)
    if kind == FERMION:
        return fermion_state(2 * big_k, 2, {(2 * i, 2 * i + 1): amp for i in range(big_k)})
    if kind == BOSON:
        return boson_state(big_k, 2, {(i, i): amp for i in range(big_k)})
    raise WrongKindError("kind must be 'fermion' or 'boson'")


def magic_state(system: str, index: int) -> PureState:
    """The ``index``-th magic-basis state as a PureState."""
    col = magic_basis(system)[:, index]
    if system == "qubits":
        return bipartite_state(col.reshape(2, 2))
    if system == "fermions":
        return fermion_state(4, 2, col)
    return boson_state(2, 2, col)


def apply_single_particle(state: PureState, u) -> PureState:
    """Transform by a single-particle unitary (or a pair for bipartite states)."""
    if state.kind == BIPARTITE:
        if isinstance(u, (tuple, list)):
            ua, ub = (np.asarray(x, dtype=complex) for x in u)
        else:
            ua = ub = np.asarray(u, dtype=complex)
        return PureState(BIPARTITE, 2, state.dim, ua @ state.matrix() @ ub.T)
    u = np.asarray(u, dtype=complex)
    if u.shape != (state.dim, state.dim):
        raise DimensionMismatchError(f"unitary shape {u.shape} does not match d={state.dim}")
    t = state.tensor()
    for axis in range(state.particles):
        t = np.moveaxis(np.tensordot(u, t, axes=(1, axis)), 0, axis)
    return PureState(state.kind, state.particles, state.dim,
                     sectors.amps_from_tensor(state.sector_kind, t))


def random_pure_state(kind: str, d, particles: int, rng) -> PureState:
    """Gaussian-random normalized state of the requested kind."""
    rng = as_rng(rng)
    if kind == BIPARTITE:
        da, db = d if isinstance(d, (tuple, list)) else (d, d)
        psi = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
        return bipartite_state(psi / np.linalg.norm(psi))
    skind = sectors.ANTISYMMETRIC if kind == FERMION else sectors.SYMMETRIC
    dim = sectors.sector_dim(skind, d, particles)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    return PureState(kind, particles, d, amps)


def random_slater_rank_state(kind: str, d: int, rank: int, rng,
                             min_weight: float = 0.15) -> PureState:
    """Haar-rotated two-particle state with a prescribed Slater rank.

    Canonical occupation weights are sampled away from zero so the rank
    is numerically unambiguous.
    """
    rng = as_rng(rng)
    weights = np.abs(rng.standard_normal(rank)) + min_weight
    weights /= np.linalg.norm(weights)
    phases = np.exp(2j * np.pi * rng.random(rank))
    if kind == FERMION:
        if rank > d // 2:
            raise OutOfRangeError(f"rank {rank} exceeds {d // 2}")
        base = fermion_state(d, 2, {(2 * i, 2 * i + 1): weights[i] * phases[i] for i in range(rank)})
    elif kind == BOSON:
        if rank > d:
            raise OutOfRangeError(f"rank {rank} exceeds {d}")
        base = boson_state(d, 2, {(i, i): weights[i] * phases[i] for i in range(rank)})
    else:
        raise WrongKindError("kind must be 'fermion' or 'boson'")
    return apply_single_particle(base, haar_unitary(d, rng))
