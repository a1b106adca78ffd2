"""Quantum correlations of indistinguishable particles.

Classifies and quantifies correlations in pure and mixed states of two
distinguishable qubits, N fermions and N bosons: Schmidt and Slater
decompositions, rank criteria from Levi-Civita contractions,
concurrences built on dualisation, closed-form mixed-state measures and
their convex-roof oracle, partial-transpose separability theorems for
low-rank bosonic states, Slater witnesses, and the magic-basis
factorization of sector unitaries.
"""

from . import linalg, magic, mixed, modes, sectors, states, witnesses
from .errors import (
    ArityMismatchError,
    BadPartitionError,
    DimensionMismatchError,
    NotAnEdgeStateError,
    NotAntisymmetricError,
    NotAStateError,
    NotInRangeError,
    NotSymmetricError,
    NumericalFailureError,
    OddDimensionError,
    OutOfRangeError,
    SlaterKitError,
    SpaceMismatchError,
    ThresholdOutOfRangeError,
    UnsupportedSystemError,
    ValidationError,
    WrongKindError,
)
from .linalg import (
    CongruenceCanonicalForm,
    EpsilonContractionSpec,
    epsilon_contract,
    haar_unitary,
    haar_vector,
    numerical_rank,
    pfaffian,
    singular_values,
    takagi_canonical,
    youla_canonical,
)
from .magic import KakFactors, from_magic_basis, is_dualisation_invariant, kak_decompose, to_magic_basis
from .mixed import (
    DensityMatrix,
    StateSpace,
    SubnormalizedSpectrum,
    antisymmetric_space,
    bipartite_space,
    bosonic_ppt_separability,
    convex_roof_oracle,
    density_from_mixture,
    density_from_pure,
    density_matrix,
    is_ppt,
    partial_transpose,
    slater_number_one_test,
    symmetric_space,
    wootters_concurrence,
)
from .modes import OccupationState, fock_to_qubits, mode_bipartition_entropy
from .states import (
    PureState,
    RankVerdict,
    SchmidtSlaterResult,
    apply_single_particle,
    bipartite_state,
    boson_state,
    boson_state_from_tensor,
    concurrence_pure,
    dual_state,
    entanglement_entropy,
    eof_from_concurrence,
    fermion_state,
    fermion_state_from_tensor,
    magic_basis,
    magic_basis_coeffs,
    maximally_correlated_state,
    multiparticle_rank_one,
    project_reduce,
    random_pure_state,
    random_slater_rank_state,
    schmidt_decompose,
    slater_decompose_two_particle,
    slater_rank_by_contractions,
    spin_multiplet_basis,
    two_boson_rank_below,
    two_fermion_rank_below,
)
from .witnesses import (
    EdgeDecomposition,
    WitnessOperator,
    canonical_witness_form,
    edge_state_decompose,
    infimum_over_rank,
    jamiolkowski_map_apply,
    optimal_witness_example,
    subtract_pure_projector,
    witness_from_edge,
    witness_operator,
    witness_optimize,
    witness_value,
)

__version__ = "0.1.0"
