"""Single-period unit commitment via three-block ADMM, with the binary block
solvable exactly or by a QAOA circuit simulated as a product state."""

from .admm import (
    AdmmConfig,
    AdmmState,
    BACKEND_CLASSICAL,
    BACKEND_QAOA,
    ComparisonReport,
    SolveReport,
    TraceRow,
    compare,
    default_config,
    preset_penalties,
    residual,
    run_admm,
    update_dual,
    update_r,
)
from .errors import (
    DimensionMismatch,
    DuplicateId,
    Infeasible,
    InfeasibleCommitment,
    InfeasibleRelaxation,
    InstanceMismatch,
    InvariantViolation,
    LengthMismatch,
    MalformedRow,
    SolverError,
    TooLarge,
    TooManyQubits,
)
from .qaoa import (
    MAX_QUBITS,
    ProductState,
    QaoaConfig,
    QaoaOutcome,
    QaoaParams,
    Statevector,
    apply_cost_layer,
    apply_mixer_layer,
    bits_to_string,
    expectation,
    extract_solution,
    init_uniform,
    optimize_params,
    run_circuit,
    solve_qubo_qaoa,
)
from .qpblock import Block1Problem, Block1Solution, block1_objective, solve_block1
from .qubo import (
    QuboProblem,
    build_qubo,
    phase_scale,
    solve_qubo_exact,
    solve_qubo_perbit,
)
from .ucmodel import (
    Commitment,
    FeasibilityReport,
    GeneratorParams,
    UCInstance,
    UCSolution,
    Violation,
    check_feasible,
    economic_dispatch,
    enumerate_uc,
    evaluate_cost,
    parse_generators,
    solution_from_csv,
    solution_to_csv,
    solve_uc_exact,
)

__version__ = "0.1.0"
