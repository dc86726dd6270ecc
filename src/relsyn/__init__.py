"""H2-optimal controller synthesis restricted to relative measurements.

The package turns a difference-sensing architecture (each sensor reads
x_i - x_j) into a convex design problem: the measurement graph's
component indicators become linear constraints on a stable free
parameter, the structured model-matching program is solved by exact
least squares, and the output-feedback controller is recovered
constructively from the optimal state-feedback map.
"""

from .errors import (
    DecompositionError,
    DimensionError,
    DomainError,
    MeasurementMatrixError,
    NominalControllerError,
    NominalNotRelativeError,
    NominalNotStabilizingError,
    NominalUnstableError,
    RelsynError,
    StructureViolationError,
    WellPosednessError,
)
from .lti import (
    FirSystem,
    Plant,
    StateSpace,
    close_loop,
    drop_invariant_subspace,
    fir_add,
    fir_compose,
    fir_lft,
    h2_norm_fir,
    h2_norm_lyap,
    is_internally_stable,
    lft,
    markov,
    parallel,
    series,
)
from .measurement import (
    MeasurementStructure,
    check_relative,
    recover_controller,
    recovered_structure,
    validate_c2,
)
from .solver import (
    DEFAULT_Q_HORIZON,
    LstsqResult,
    SynthesisProblem,
    SynthesisResult,
    build_ring_problem,
    circulant_reduce,
    combined_r_structure,
    least_squares,
    recovered_r_fir,
    ring_adjacency,
    ring_plant,
    solve,
    solve_ring_circulant,
)
from .structure import (
    ConstraintSystem,
    InfoStructure,
    compile_constraints,
    delay_structure_from_adjacency,
    is_qi,
    membership,
    qi_certificate,
    ring_delay_structure,
    transfer_pattern,
)
from .youla import (
    YoulaData,
    build_tilde_plant,
    laplacian_rnom,
    make_t_systems,
    nominal_verdicts,
    q_from_r,
    r_from_q,
)

__version__ = "0.1.0"
