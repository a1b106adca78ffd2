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
    EpsilonContractionSpec,
    as_rng,
    epsilon_contract,
    haar_unitary,
    haar_vector,
    read_only,
    require_unitary,
    singular_values,
    takagi_canonical,
    youla_canonical,
)

BIPARTITE = "bipartite"
FERMION = "fermion"
BOSON = "boson"

_NORM_ATOL = 1e-6


class _ExchangeMap(dict):
    """Particle kinds to exchange sectors or back; WrongKindError on other keys."""

    def __missing__(self, key):
        raise WrongKindError(f"{key} states have no exchange sector")


#: the exchange sector of each particle kind, and the particle kind of each sector
SECTOR_OF_KIND = _ExchangeMap({FERMION: sectors.ANTISYMMETRIC, BOSON: sectors.SYMMETRIC})
KIND_OF_SECTOR = _ExchangeMap({sector: kind for kind, sector in SECTOR_OF_KIND.items()})


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
        return SECTOR_OF_KIND[self.kind]

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
    if not math.isfinite(norm) or abs(norm - 1.0) > _NORM_ATOL:
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


def _state_from_tensor(kind: str, t) -> PureState:
    t = np.asarray(t, dtype=complex)
    if t.ndim == 0 or min(t.shape) != max(t.shape):
        raise DimensionMismatchError(f"tensor axes {t.shape} are not N >= 1 of one length")
    sector = SECTOR_OF_KIND[kind]
    sectors.check_tensor_symmetry(sector, t)
    return _validated(kind, t.ndim, t.shape[0], sectors.amps_from_tensor(sector, t))


def fermion_state_from_tensor(w) -> PureState:
    """Validated fermionic state from a totally antisymmetric tensor.

    Normalization convention: ``sum |w|^2 = 1/N!`` over all orderings
    (up to the usual 1e-6 slack, after which the state is renormalized).
    """
    return _state_from_tensor(FERMION, w)


def boson_state_from_tensor(v) -> PureState:
    """Validated bosonic state from a totally symmetric tensor.

    Normalization uses the multiplicity-aware inner product
    ``<v|v> = N! sum |v|^2`` (for N=2: ``2 sum |v_ij|^2 = 1``).
    """
    return _state_from_tensor(BOSON, v)


def raw_state(kind: str, particles: int, dim, amps) -> PureState:
    """Unvalidated, possibly unnormalized state (projection outputs)."""
    return PureState(kind, particles, dim, np.asarray(amps, dtype=complex))


# ---------------------------------------------------------------------------
# canonical systems: magic bases and dualisation
# ---------------------------------------------------------------------------

_S = 1.0 / math.sqrt(2.0)

#: the three canonical systems: the (kind, particles, dim) of their states
#: and the columns of their magic bases in sector coordinates
_SYSTEMS = {
    # product basis order (00, 01, 10, 11)
    "qubits": ((BIPARTITE, 2, (2, 2)), (
        (0, _S, -_S, 0),
        (_S, 0, 0, _S),
        (0, 1j * _S, 1j * _S, 0),
        (1j * _S, 0, 0, -1j * _S),
    )),
    # pair basis order ((01), (02), (03), (12), (13), (23))
    "fermions": ((FERMION, 2, 4), (
        (_S, 0, 0, 0, 0, _S),
        (0, _S, 0, 0, -_S, 0),
        (0, 0, _S, _S, 0, 0),
        (1j * _S, 0, 0, 0, 0, -1j * _S),
        (0, 1j * _S, 0, 0, 1j * _S, 0),
        (0, 0, 1j * _S, -1j * _S, 0, 0),
    )),
    # basis order ((00), (01), (11))
    "bosons": ((BOSON, 2, 2), (
        (_S, 0, _S),
        (1j * _S, 0, -1j * _S),
        (0, 1j, 0),
    )),
}

#: sector dimensions of the three canonical systems
SYSTEM_DIMS = {system: len(cols) for system, (_, cols) in _SYSTEMS.items()}


def canonical_system(state: PureState) -> str:
    """Map a state to one of the three canonical systems or raise."""
    return canonical_system_of(state.kind, state.particles, state.dim)


def canonical_system_of(kind: str, particles: int, dim) -> str:
    """The canonical system of states with this kind, particle number and
    single-particle dimension (``(d_A, d_B)`` when bipartite), or raise."""
    for system, (signature, _) in _SYSTEMS.items():
        if signature == (kind, particles, dim):
            return system
    raise UnsupportedSystemError(f"no dualisation for kind={kind}, N={particles}, dim={dim}")


@lru_cache(maxsize=None)
def magic_basis(system: str) -> np.ndarray:
    """Unitary whose columns are the magic-basis states in sector coordinates.

    The magic states are (pseudo-)eigenstates of the dualisation operator:
    in this basis dualisation acts as plain complex conjugation.
    """
    if system not in _SYSTEMS:
        raise UnsupportedSystemError(f"unknown system {system!r}")
    return read_only(np.array(_SYSTEMS[system][1], dtype=complex).T)


@lru_cache(maxsize=None)
def spin_multiplet_basis() -> np.ndarray:
    """Total-spin basis of the two-fermion d=4 sector.

    Viewing the four modes as the S_z levels of a spin-3/2 particle, the
    antisymmetric pair space splits into a quintet and a singlet; the
    columns are (|2,2>, |2,1>, |2,0>, |2,-1>, |2,-2>, |0,0>) in pair
    coordinates, with the singlet phase fixed so that dualisation acts
    in this basis as the spin time-reversal matrix times conjugation.
    """
    cols = [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 0, _S, _S, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 1j * _S, -1j * _S, 0, 0],
    ]
    return read_only(np.array(cols, dtype=complex).T)


@lru_cache(maxsize=None)
def dual_unitary(system: str) -> np.ndarray:
    """Linear part ``U_D`` of the dualisation ``D = U_D K`` in sector coordinates.

    In the magic basis ``B`` dualisation is plain conjugation, so
    ``U_D conj(B) = B`` and ``U_D = B B^T``.  For the three canonical bases
    ``B B^T`` lies within 2.2e-16 of a signed permutation, which rounding
    (with ``+ 0.0`` against negative zeros) makes exact.
    """
    b = magic_basis(system)
    return read_only((np.round((b @ b.T).real) + 0.0).astype(complex))


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
def _contraction_operand(kind: str, dim: int, amps: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The read-only coefficient matrix of a two-particle state and its
    read-only singular values, descending.  Keyed by the amplitudes' bytes, so
    the tests of one rank scan build both once, and a state changed in place
    builds them anew."""
    m = read_only(PureState(kind, 2, dim, np.frombuffer(amps, dtype=complex)).matrix())
    return m, read_only(singular_values(m))


def _operand_of(state: PureState, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_contraction_operand` of a two-``kind`` state."""
    if state.kind != kind or state.particles != 2:
        raise WrongKindError(f"expected a two-{kind} state")
    return _contraction_operand(kind, state.dim, np.asarray(state.amps, dtype=complex).tobytes())


def _rank_below(state: PureState, kind: str, threshold: int, rtol: float) -> RankVerdict:
    """Contraction rank test shared by the fermionic and bosonic criteria."""
    m, spectrum = _operand_of(state, kind)
    d = state.dim
    if kind == FERMION:
        big_k, pattern, free, weight = d // 2, "single", d - 2 * threshold, 2.0 ** threshold
    else:
        big_k, pattern, free, weight = d, "paired", d - threshold, 1.0
    if not 1 <= threshold <= big_k:
        raise ThresholdOutOfRangeError(f"threshold {threshold} outside 1..{big_k}")
    s_max = float(spectrum[0])
    values = epsilon_contract(EpsilonContractionSpec((m,) * threshold, pattern, free))
    # no contraction value exceeds weight * k! * s_max**k in modulus
    scale = weight * math.factorial(threshold) * s_max ** threshold
    tol = rtol * max(scale, np.finfo(float).tiny)
    moduli = list(map(abs, values.values()))
    peak = max(moduli)
    argmax = list(values)[moduli.index(peak)]
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

    The tests of the scan share one coefficient matrix and one SVD.  The
    number of singular values above ``rtol`` times the largest (halved,
    rounding up, for fermions, whose values come in pairs) is the first
    guess ``n``; the scan walks from it until the tests bracket the rank,
    ``rank_below(n + 1)`` true and ``rank_below(n)`` false.  A guess that
    brackets the rank costs two tests, and each step it is off one more.
    """
    if state.kind == FERMION:
        upper = state.dim // 2
        test = two_fermion_rank_below
    elif state.kind == BOSON:
        upper = state.dim
        test = two_boson_rank_below
    else:
        raise WrongKindError("expected a fermionic or bosonic state")
    spectrum = _operand_of(state, state.kind)[1]
    guess = int(np.count_nonzero(spectrum > rtol * spectrum[0]))
    n = min((guess + 1) // 2 if state.kind == FERMION else guess, upper)

    def below(threshold: int) -> bool:
        return test(state, threshold, rtol=rtol).claim.startswith("rank_lt")

    if n < upper and not below(n + 1):
        return next((k for k in range(n + 1, upper) if below(k + 1)), upper)
    return next((k for k in range(n, 0, -1) if not below(k)), 0)


def project_reduce(state: PureState, a) -> PureState:
    """Contract one particle out against a single-particle vector.

    Returns the (N-1)-particle state with tensor
    ``N * sum_k w_{i1..i_{N-1} k} a_k``, which is ``sqrt(N) a^T (S amps)``
    on the one-particle split, times ``(-1)^(N-1)`` for fermions; the output
    is deliberately not renormalized and may be the zero state.
    """
    if state.kind == BIPARTITE:
        raise WrongKindError("project_reduce acts on fermionic or bosonic states")
    if state.particles < 2:
        raise OutOfRangeError("project_reduce needs at least two particles")
    a = np.asarray(a, dtype=complex)
    if a.shape != (state.dim,):
        raise DimensionMismatchError(f"probe has shape {a.shape}, expected ({state.dim},)")
    if not np.all(np.isfinite(a)):
        raise ValidationError("probe vector contains NaN or Inf")
    n = state.particles
    sign = (-1) ** (n - 1) if state.kind == FERMION else 1
    split = sectors.split_amps(state.sector_kind, state.dim, n, state.amps)
    return PureState(state.kind, n - 1, state.dim, sign * math.sqrt(n) * (a @ split))


def _reduce_along(state: PureState, a) -> tuple[PureState, float]:
    """``project_reduce(state, a)`` renormalized (left as is when zero), and its norm."""
    sub = project_reduce(state, a)
    n = sub.norm()
    return PureState(sub.kind, sub.particles, sub.dim, sub.amps / n if n else sub.amps), n


def _probe_vectors(d: int, rng) -> list[np.ndarray]:
    probes = [np.eye(d, dtype=complex)[:, i] for i in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        v = np.zeros(d, dtype=complex)
        v[i] = v[j] = 1.0 / math.sqrt(2.0)
        probes.append(v)
    probes.extend(haar_vector(d, rng) for _ in range(32))
    return probes


def _one_body_test(state: PureState, rtol: float) -> tuple[bool, dict]:
    """Coleman's rank-one test on the one-body density matrix.

    The singular values ``s`` of the one-particle split ``S amps``, a
    ``(d, D_{N-1})`` matrix, are the square roots of that matrix's
    eigenvalues (up to one common factor); over ``sqrt(N!)``, as reported,
    they are those of the unfolding ``w.reshape(d, -1)``.  With ``m = N``
    for fermions and ``m = 1`` for bosons the state is elementary iff
    ``s[m]`` vanishes: the state lies in the N-th exterior (symmetric)
    power of the matrix's range, which is one-dimensional exactly then.
    Returns the verdict and its certificate fields.
    """
    n = state.particles
    s = singular_values(sectors.split_amps(state.sector_kind, state.dim, n, state.amps))
    m = n if state.kind == FERMION else 1
    tail = float(s[m]) if m < s.size else 0.0
    top = float(s[0])
    return tail <= rtol * top, {
        "kind": "one_body",
        "probes": (),
        "n_probes": 0,
        "singular_values": s * math.exp(-0.5 * math.lgamma(n + 1)),  # / sqrt(N!), no overflow
        "m": m,
        "ratio": tail / top if top > 0.0 else 0.0,
        "tolerance": rtol,
    }


def _correlated(state: PureState, rtol: float) -> bool:
    """Slater rank >= 2: the contraction test at threshold 2 for a pair, else Coleman's."""
    if state.particles == 2:
        test = two_fermion_rank_below if state.kind == FERMION else two_boson_rank_below
        return test(state, 2, rtol=rtol).claim == "rank_ge_2"
    return not _one_body_test(state, rtol)[0]


def multiparticle_rank_one(state: PureState, rng=0, rtol: float = CONTRACT_RTOL) -> RankVerdict:
    """Decide whether an N-particle state (N >= 3) has Slater rank one.

    The claim is exact up to ``rtol``.  By Coleman's theorem an N-fermion
    state is one Slater determinant iff its one-body density matrix has
    rank N, and an N-boson state is ``(b^dag)^N|0>`` iff that matrix has
    rank one: ``rank_one`` iff ``s[m] <= rtol * s[0]`` or there is no ``s[m]``,
    with ``s`` its singular values (``_one_body_test``), ``m = N`` (fermions)
    or 1 (bosons); ``s[m] / s[0]`` grows linearly with an admixed state.

    The probe set (basis vectors, normalized pairwise sums, 32 seeded Haar
    vectors) only supplies certificates.  A ``rank_ge_2`` state gets one
    descent: each of its N - 2 levels enters the first probe's reduction that
    keeps over ``rtol * N`` of the norm and is ``_correlated`` (every projection
    of an elementary state is elementary, so no chain below an uncorrelated one
    certifies), or stops without a chain: at most ``(N - 2) (d + C(d, 2) + 32)``
    reductions.  A state whose first correlated branch fails at its leaf while
    a later one succeeds gets no chain.  ``rank_one`` draws nothing from ``rng``.

    Every certificate carries ``"kind"``, ``"probes"`` (the chain, empty
    unless one certifies), ``"n_probes"`` (the probe set the descent ran
    over, 0 if it did not run) and the spectral evidence:
    ``"singular_values"``, ``"m"``, ``"ratio"`` (``s[m] / s[0]``) and
    ``"tolerance"`` (``rtol``).  Its kind is ``"probe_chain"`` when a chain
    certifies, and ``"one_body"`` otherwise: a ``rank_one`` state, or one
    correlated below the descent's resolution.  The one-body test at
    ``rtol`` is the single resolution for both claims: a chain certifies
    only a state that test calls ``rank_ge_2``, although renormalizing
    after each projection can show a chain an admixture below ``rtol``.
    """
    if state.kind == BIPARTITE:
        raise WrongKindError("multiparticle_rank_one acts on fermionic or bosonic states")
    if state.particles < 3:
        raise ValidationError("use the two-particle criteria for N < 3")
    rank_one, certificate = _one_body_test(state, rtol)
    if rank_one:
        return RankVerdict("rank_one", certificate)
    probes = _probe_vectors(state.dim, as_rng(rng))
    st, chain = state, ()
    for _ in range(state.particles - 2):
        scale = st.norm()
        for a in probes:
            sub, sub_norm = _reduce_along(st, a)
            if sub_norm > rtol * st.particles * scale and _correlated(sub, rtol):
                st, chain = sub, chain + (a,)
                break
        else:
            break
    certificate["n_probes"] = len(probes)
    if st.particles == 2:
        certificate.update(kind="probe_chain", probes=chain)
    return RankVerdict("rank_ge_2", certificate)


def verify_rank_certificate(state: PureState, verdict: RankVerdict,
                            rtol: float = CONTRACT_RTOL) -> bool:
    """Re-evaluate a rank certificate against its state (see ``multiparticle_rank_one``);
    ``False`` for a bipartite state, a chain past two particles, a probe of
    another dimension or a misfit contraction."""
    cert = verdict.certificate
    if state.kind == BIPARTITE:
        return False
    if cert.get("kind") == "probe_chain" and verdict.claim == "rank_ge_2":
        # a chain reduces to two particles at most
        if (len(cert["probes"]) > state.particles - 2
                or any(np.shape(a) != (state.dim,) for a in cert["probes"])
                or _one_body_test(state, rtol)[0]):
            return False
        st = state
        for a in cert["probes"]:  # a zero reduction stays zero, and uncorrelated
            st, _ = _reduce_along(st, a)
        return _correlated(st, rtol)
    if cert.get("kind") == "one_body":
        return verdict.claim == ("rank_one" if _one_body_test(state, rtol)[0] else "rank_ge_2")
    if cert.get("kind") == "contraction" and state.particles == 2:
        test = two_fermion_rank_below if state.kind == FERMION else two_boson_rank_below
        try:
            return test(state, cert["threshold"], rtol=rtol).claim == verdict.claim
        except ThresholdOutOfRangeError:
            return False
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
    """Von Neumann entropy (bits) of the reduced density matrix of A.

    Both partial traces of a pure state share their nonzero spectrum (the
    squared Schmidt coefficients), so one of them gives the entropy of either.
    """
    if state.kind != BIPARTITE:
        raise WrongKindError("entanglement_entropy expects a bipartite state")
    psi = state.matrix()
    p = np.sort(np.linalg.eigvalsh(psi @ psi.conj().T))[::-1]
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


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
    kind, particles, dim = _SYSTEMS[system][0]
    return _validated(kind, particles, dim, col.reshape(dim) if kind == BIPARTITE else col)


def apply_single_particle(state: PureState, u) -> PureState:
    """Transform by a single-particle unitary (or a pair for bipartite states).

    Raises ``DimensionMismatchError`` if a factor is not ``d x d`` for its
    particle, and ``ValidationError`` if it is not unitary to 1e-9.
    """
    if state.kind == BIPARTITE:
        ua, ub = u if isinstance(u, (tuple, list)) else (u, u)
        ua, ub = _checked_unitary(ua, state.dim[0]), _checked_unitary(ub, state.dim[1])
        return PureState(BIPARTITE, 2, state.dim, ua @ state.matrix() @ ub.T)
    u = _checked_unitary(u, state.dim)
    t = state.tensor()
    for axis in range(state.particles):
        t = np.moveaxis(np.tensordot(u, t, axes=(1, axis)), 0, axis)
    return PureState(state.kind, state.particles, state.dim,
                     sectors.amps_from_tensor(state.sector_kind, t))


def _checked_unitary(u, d: int) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise DimensionMismatchError(f"unitary shape {u.shape} does not match d={d}")
    require_unitary(u)
    return u


def random_pure_state(kind: str, d, particles: int, rng) -> PureState:
    """Gaussian-random normalized state of the requested kind."""
    rng = as_rng(rng)
    if kind == BIPARTITE:
        da, db = d if isinstance(d, (tuple, list)) else (d, d)
        psi = rng.standard_normal((da, db)) + 1j * rng.standard_normal((da, db))
        return bipartite_state(psi / np.linalg.norm(psi))
    dim = sectors.sector_dim(SECTOR_OF_KIND[kind], d, particles)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    return PureState(kind, particles, d, amps)


def random_slater_rank_state(kind: str, d: int, rank: int, rng) -> PureState:
    """Haar-rotated two-particle state with a prescribed Slater rank.

    Canonical occupation weights are sampled at least 0.15 away from zero
    (before normalization) so the rank is numerically unambiguous.
    """
    rng = as_rng(rng)
    weights = np.abs(rng.standard_normal(rank)) + 0.15
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
