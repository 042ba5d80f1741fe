"""CAFQA core: Clifford-space search, constraints, metrics, VQE, and pipelines."""

from repro.core.constraints import (
    DEFAULT_DEFLATION_WEIGHT,
    DEFAULT_PENALTY_WEIGHT,
    CompositeConstraint,
    DeflationConstraint,
    OperatorPenalty,
    ParticleConstraint,
    combine_constraints,
    constrained_hamiltonian,
    overlap_penalties_of,
    quadratic_penalty,
)
from repro.core.excited import (
    ExcitedStateLevel,
    ExcitedStatesResult,
    find_lowest_states,
)
from repro.core.faults import (
    FailurePolicy,
    FaultInjectingObjective,
    FaultSpec,
)
from repro.core.metrics import (
    CHEMICAL_ACCURACY,
    AccuracySummary,
    correlation_energy_recovered,
    energy_error,
    geometric_mean,
    relative_accuracy,
)
from repro.core.campaign import (
    SweepPointFailure,
    SweepReport,
    SweepRun,
    run_campaign,
)
from repro.core.evalcache import (
    CachedObjective,
    EvaluationCache,
    EvaluationCacheBackend,
    SqliteEvaluationCache,
    open_cache,
)
from repro.core.objective import CliffordObjective
from repro.core.orchestrator import (
    AttemptFailure,
    MultiSeedResult,
    RestartFailure,
    SearchOrchestrator,
    SeedTrace,
    restart_seed,
)
from repro.core.search import CafqaResult, CafqaSearch
from repro.core.vqe import VQEResult, VQERunner
from repro.operators.fingerprints import hamiltonian_fingerprint, objective_fingerprint

__all__ = [
    "ParticleConstraint",
    "OperatorPenalty",
    "DeflationConstraint",
    "CompositeConstraint",
    "combine_constraints",
    "overlap_penalties_of",
    "constrained_hamiltonian",
    "quadratic_penalty",
    "DEFAULT_PENALTY_WEIGHT",
    "DEFAULT_DEFLATION_WEIGHT",
    "ExcitedStateLevel",
    "ExcitedStatesResult",
    "find_lowest_states",
    "CHEMICAL_ACCURACY",
    "AccuracySummary",
    "energy_error",
    "correlation_energy_recovered",
    "relative_accuracy",
    "geometric_mean",
    "CliffordObjective",
    "CafqaSearch",
    "CafqaResult",
    "SearchOrchestrator",
    "MultiSeedResult",
    "SeedTrace",
    "AttemptFailure",
    "RestartFailure",
    "FailurePolicy",
    "FaultSpec",
    "FaultInjectingObjective",
    "EvaluationCache",
    "EvaluationCacheBackend",
    "SqliteEvaluationCache",
    "open_cache",
    "CachedObjective",
    "hamiltonian_fingerprint",
    "objective_fingerprint",
    "restart_seed",
    "VQERunner",
    "VQEResult",
    "SweepRun",
    "SweepPointFailure",
    "SweepReport",
    "run_campaign",
]
