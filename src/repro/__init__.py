"""CAFQA reproduction: a classical simulation bootstrap for variational quantum algorithms.

The package layers three groups of subsystems:

* quantum substrates — Pauli algebra (:mod:`repro.operators`), circuits and the
  hardware-efficient ansatz (:mod:`repro.circuits`), stabilizer simulation
  (:mod:`repro.stabilizer`), statevector / density-matrix simulation
  (:mod:`repro.statevector`), and noise models (:mod:`repro.noise`);
* a quantum-chemistry substrate (:mod:`repro.chemistry`) producing molecular
  qubit Hamiltonians from scratch (STO-3G integrals, Hartree–Fock, fermionic
  mappings);
* the paper's contribution (:mod:`repro.core`): the Clifford ansatz, the
  Bayesian-optimization search over the discrete Clifford space
  (:mod:`repro.bayesopt`) — or, with the search option ``max_t_gates``, over
  the pi/4 grid of the Clifford+T extension, priced on the same stabilizer
  kernels — post-CAFQA VQE tuning (:mod:`repro.optim`), and the accuracy
  metrics, plus per-figure experiment drivers (:mod:`repro.experiments`);
* the problem-agnostic front door: the problem registry
  (:mod:`repro.problems` — molecules, Ising chains/lattices, Heisenberg XXZ,
  MaxCut, plus user-registered workloads) and the declarative
  :class:`repro.RunSpec` consumed by :func:`repro.run`, which routes every
  search through the caching/checkpointing orchestrator::

      import repro
      report = repro.run(repro.RunSpec(problem="ising_chain",
                                       problem_options={"num_sites": 6},
                                       max_evaluations=200, num_seeds=4))
      print(report.energy, report.exact_energy)

``run``, ``RunSpec``, ``RunReport``, and ``problems`` are loaded lazily so
``import repro`` stays cheap.
"""

__version__ = "1.0.0"

from repro.exceptions import (
    BackpressureError,
    BudgetExceededError,
    ChemistryError,
    CircuitError,
    ConvergenceError,
    DeterministicRestartError,
    IncompleteRunError,
    JobNotFoundError,
    LeaseLostError,
    NoiseModelError,
    OperatorError,
    OptimizationError,
    ReproError,
    RestartFailureError,
    RestartTimeoutError,
    ServiceError,
    SimulationError,
    TransientRestartError,
    WorkerCrashError,
    is_transient_failure,
)

__all__ = [
    "__version__",
    "ReproError",
    "CircuitError",
    "OperatorError",
    "SimulationError",
    "ChemistryError",
    "ConvergenceError",
    "OptimizationError",
    "NoiseModelError",
    "RestartFailureError",
    "TransientRestartError",
    "DeterministicRestartError",
    "WorkerCrashError",
    "RestartTimeoutError",
    "IncompleteRunError",
    "ServiceError",
    "JobNotFoundError",
    "BackpressureError",
    "BudgetExceededError",
    "LeaseLostError",
    "is_transient_failure",
    "run",
    "RunSpec",
    "RunReport",
    "run_sweep",
    "SweepSpec",
    "SweepReport",
    "problems",
    "service",
]

_LAZY_RUNSPEC_EXPORTS = frozenset({"run", "RunSpec", "RunReport"})
_LAZY_SWEEP_EXPORTS = frozenset({"run_sweep", "SweepSpec"})


def __getattr__(name):
    # The front door pulls in the full stack (chemistry, scipy); load it on
    # first use so `import repro` stays a cheap exceptions-only import.
    if name in _LAZY_RUNSPEC_EXPORTS:
        from repro import runspec

        return getattr(runspec, name)
    if name in _LAZY_SWEEP_EXPORTS:
        from repro import sweepspec

        return getattr(sweepspec, name)
    if name == "SweepReport":
        from repro.core.campaign import SweepReport

        return SweepReport
    if name == "problems":
        import repro.problems as problems

        return problems
    if name == "service":
        import repro.service as service

        return service
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__():
    return sorted(
        set(globals())
        | _LAZY_RUNSPEC_EXPORTS
        | _LAZY_SWEEP_EXPORTS
        | {"SweepReport", "problems", "service"}
    )
