"""Quantum 2x2 game engine.

Quantizes classical 2x2 games through an entangle/act/disentangle
protocol, evaluates payoffs with the matrix protocol and a bilinear payoff
kernel (the closed forms are reference formulas that check them),
searches discretized strategy meshes for pure Nash equilibria and the
entanglement threshold, solves a two-type Bayesian variant, and builds the
two-qutrit entangler together with commutant_is_scalar, which computes the
dimension of the joint commutant of a set of gates (two-dimensional for
the transpositions {S12, S13}, whose permutation representation is
reducible).
"""

from .entanglers import (
    EntanglerSpec,
    bell_state,
    build_entangler,
    is_classically_commensurate,
    is_product_state,
    partial_state,
)
from .games import (
    DA_BROTHER,
    PRISONER_DILEMMA,
    GameTable,
    MixedStrategy,
    PayoffPair,
    closed_form_amplitudes_partial,
    closed_form_sq_amplitudes,
    final_state,
    load_game,
    mixed_payoff,
    payoffs,
    save_game,
)
from .linalg import (
    GELL_MANN,
    PAULI,
    commutator,
    dagger,
    expm_structured,
    is_unitary,
    tensor,
)
from .mesh import MeshSpec, angles_to_index, index_to_angles, mesh_angle_array
from .search import (
    NeResult,
    analytic_best_response,
    best_response_table,
    find_pure_ne,
    mixed_cycle,
    no_psne_certificate,
    sweep_beta,
    threshold_beta,
)
from .bayes import (
    BayesProfile,
    BayesSpec,
    bayes_best_response_2I,
    bayes_best_response_2II,
    bayes_ne_check,
    bayes_payoffs,
    p1_given_best_responses,
)
from .qutrits import (
    build_Z,
    commutant_is_scalar,
    entangled_initial_state,
    is_qutrit_product,
    max_entangling_beta,
    perm_matrix,
    qutrit_entangler,
    qutrit_tensor,
)
from .strategies import (
    StrategyAngles,
    bloch_coords,
    classical_gate,
    su2_from_angles,
    su3_from_angles,
)

__version__ = "0.1.0"
