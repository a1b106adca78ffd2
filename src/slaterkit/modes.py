"""Occupation-qubit view of fermionic states and mode entanglement.

Maps each ordered fermionic basis monomial to the bitstring of occupied
modes (one qubit per mode, leftmost bit = mode 0) and extends linearly.
On a fixed particle-number sector the map is an isometry; inputs mixing
particle numbers are accepted as direct sums.  Correlations between
groups of modes are then ordinary bipartite entanglement of the qubit
register, which can differ from the particle picture: a single Slater
determinant split across a mode cut is mode entangled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sectors, states
from .errors import BadPartitionError, DimensionMismatchError, NotAStateError, WrongKindError


@dataclass(frozen=True)
class OccupationState:
    """State of ``modes`` qubits indexed by occupation bitstrings."""

    modes: int
    amplitudes: np.ndarray  # dense, length 2**modes, big-endian bit order

    def sectors_present(self) -> tuple[int, ...]:
        """Particle numbers carrying an amplitude above 1e-12."""
        weights = {}
        for idx in np.nonzero(np.abs(self.amplitudes) > 1e-12)[0]:
            weights[bin(int(idx)).count("1")] = True
        return tuple(sorted(weights))

    def bitstring_amplitudes(self) -> dict[str, complex]:
        out = {}
        for idx in np.nonzero(np.abs(self.amplitudes) > 1e-12)[0]:
            out[format(int(idx), f"0{self.modes}b")] = complex(self.amplitudes[idx])
        return out


def _bit_index(modes: int, occupied) -> int:
    idx = 0
    for k in occupied:
        idx |= 1 << (modes - 1 - k)
    return idx


def fock_to_qubits(state) -> OccupationState:
    """Occupation-qubit image of a fermionic state.

    Accepts a single fermionic ``PureState`` or an iterable of
    ``(coefficient, PureState)`` pairs sharing one mode count (a
    Fock-space superposition across particle-number sectors).  Sorted
    monomials map to bitstrings with their amplitudes unchanged, so
    inner products within each sector are preserved.
    """
    if isinstance(state, states.PureState):
        components = [(1.0 + 0j, state)]
    else:
        components = [(complex(c), s) for c, s in state]
        if not components:
            raise NotAStateError("empty superposition")
    modes = None
    for _, s in components:
        if s.kind != states.FERMION:
            raise WrongKindError("occupation mapping is defined for fermionic states")
        if modes is None:
            modes = s.dim
        elif s.dim != modes:
            raise DimensionMismatchError("components disagree on the number of modes")
    sectors.check_dense(2 ** modes, f"an occupation register of {modes} modes")
    amplitudes = np.zeros(2 ** modes, dtype=complex)
    seen = set()
    for coeff, s in components:
        if s.particles in seen:
            raise NotAStateError(f"duplicate particle-number sector {s.particles}")
        seen.add(s.particles)
        for t, amp in zip(sectors.sector_tuples(sectors.ANTISYMMETRIC, modes, s.particles),
                          s.amps):
            amplitudes[_bit_index(modes, t)] += coeff * amp
    norm = np.linalg.norm(amplitudes)
    if abs(norm - 1.0) > 1e-6:
        raise NotAStateError(f"occupation amplitudes have norm {norm:.8f}")
    return OccupationState(modes, amplitudes / norm)


def mode_bipartition_entropy(state: OccupationState, left_modes) -> float:
    """Von Neumann entropy (bits) across a bipartition of the modes.

    ``left_modes`` must be a proper nonempty subset of ``range(modes)``;
    the entropy is ``states.entanglement_entropy`` of the register reshaped
    across the cut, and is invariant under permutations within each side.
    """
    left = sorted(set(int(k) for k in left_modes))
    if not left or len(left) >= state.modes:
        raise BadPartitionError("left_modes must be a proper nonempty subset")
    if left[0] < 0 or left[-1] >= state.modes:
        raise BadPartitionError(f"mode indices must lie in 0..{state.modes - 1}")
    right = [k for k in range(state.modes) if k not in left]
    tensor = state.amplitudes.reshape((2,) * state.modes)
    psi = np.transpose(tensor, axes=left + right).reshape(2 ** len(left), 2 ** len(right))
    return states.entanglement_entropy(states.bipartite_state(psi))
