"""Single-period unit commitment via three-block ADMM, with the binary block
solvable exactly or by a QAOA circuit simulated as a product state."""

from .admm import (
    AdmmConfig,
    BACKEND_CLASSICAL,
    BACKEND_QAOA,
    SolveReport,
    TraceRow,
    default_config,
    preset_penalties,
    run_admm,
)
from .errors import (
    DuplicateId,
    Infeasible,
    InfeasibleCommitment,
    InfeasibleRelaxation,
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
    extract_solution,
    optimize_params,
    run_circuit,
    solve_qubo_qaoa,
)
from .qubo import QuboProblem, phase_scale, solve_qubo_perbit
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
