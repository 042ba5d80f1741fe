"""The unified front door: declarative run specs and ``repro.run``.

A :class:`RunSpec` is a JSON-round-trippable description of one CAFQA run —
which problem (by registry name plus options, or a prebuilt
:class:`~repro.problems.base.ProblemSpec`), the ansatz depth, the search
budget, how many restart seeds across how many workers, where to cache /
checkpoint, and an optional post-search VQE tuning stage (noiseless or with
a fake-device noise preset).

:func:`run` consumes a spec and always routes through
:class:`~repro.core.orchestrator.SearchOrchestrator` — even a single-seed
run — so evaluation caching and checkpoint/resume are never opt-in side
paths.  The experiment drivers, the campaign engine, the service and the
examples all run through here.

Reproducibility contract: a spec fully determines the search trajectory
(same spec => bit-identical results, independent of worker count), and
:meth:`RunSpec.options_digest` is the same digest the checkpoint layer
stores, so a resumed run validates against the spec that produced it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Dict, List, Optional, Union

from repro.core.constraints import DEFAULT_DEFLATION_WEIGHT
from repro.exceptions import OptimizationError, ReproError
from repro.problems.base import ProblemSpec, reference_energy_of

__all__ = ["RunSpec", "RunReport", "run"]

# Fields that configure *execution* (where to cache, how many workers, what
# to do about failures) but cannot change the search trajectory or its
# result.  ``run_digest`` excludes them, so a run replayed with different
# parallelism or in a different directory is still the same run.
_EXECUTION_ONLY_FIELDS = frozenset(
    {
        "max_workers",
        "cache_dir",
        "checkpoint_dir",
        "checkpoint_interval",
        "failure_policy",
        "vqe_timeout_seconds",
        "telemetry_dir",
    }
)


@dataclass
class RunSpec:
    """Declarative configuration of one CAFQA run.

    ``problem`` is a registry name (see ``repro.problems.list_problems()``)
    built with ``problem_options``, or a prebuilt ``ProblemSpec`` instance
    (programmatic use only — such a spec is not JSON-serializable).
    ``search_options`` holds the loop options of :class:`~repro.core.search
    .CafqaSearch` (e.g. ``warmup_fraction``, ``local_refinement``) and the
    objective options each restart builds its :class:`~repro.core.objective
    .CliffordObjective` with (``constraint``, ``spin_z_target``,
    ``penalty_weight``, or ``max_t_gates`` for the pi/4 grid of CAFQA+kT).
    It cannot set the ansatz: that is ``ansatz_reps``.  Keep it JSON-typed
    if the spec must round-trip.

    ``num_states > 1`` turns the run into an Excited-CAFQA spectrum search:
    the lowest ``num_states`` states are found by sequential deflation
    (``deflation_weight`` per recorded state; see
    :func:`repro.core.excited.find_lowest_states`), each level a full
    multi-seed orchestrated search sharing this spec's cache/checkpoint
    directories.

    ``failure_policy`` configures the orchestrator's fault tolerance —
    retries for transiently-failed restarts, a per-restart wall-clock
    timeout, deterministic seeded backoff, and whether exhausted retries
    raise or return a partial result (see :class:`~repro.core.faults
    .FailurePolicy`; a plain dict of its fields keeps the spec
    JSON-round-trippable).  ``vqe_timeout_seconds`` bounds the optional VQE
    stage's wall-clock; past it the stage returns its best-so-far partial
    result.  Neither knob affects the search trajectory, so they are not
    part of :meth:`options_digest`.  Nor does ``checkpoint_interval``, the
    evaluation-cache flush interval: each restart flushes its evaluation
    shard every ``checkpoint_interval`` observations, which is what an
    interrupted run resumes from.
    """

    problem: Union[str, ProblemSpec]
    problem_options: Dict[str, object] = field(default_factory=dict)
    ansatz_reps: int = 1
    max_evaluations: int = 300
    num_seeds: int = 1
    seed: Optional[int] = 0
    max_workers: Optional[int] = None
    cache_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 32
    noise: Optional[str] = None
    vqe_iterations: int = 0
    num_states: int = 1
    deflation_weight: float = DEFAULT_DEFLATION_WEIGHT
    failure_policy: Optional[Union[Dict[str, object], "FailurePolicy"]] = None  # noqa: F821
    vqe_timeout_seconds: Optional[float] = None
    telemetry_dir: Optional[str] = None
    search_options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        # Own the option payloads: callers (and ``from_dict``) may keep
        # mutating the dicts they passed in — including nested lists like
        # ``seed_points`` — which must not silently change this spec or its
        # ``options_digest``.
        self.problem_options = copy.deepcopy(self.problem_options)
        self.search_options = copy.deepcopy(self.search_options)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        if not isinstance(self.problem, str):
            raise ReproError(
                "a RunSpec built around a ProblemSpec instance cannot be "
                "serialized; name the problem via the registry instead"
            )
        return asdict(self)

    def to_json(self, indent: Optional[int] = None) -> str:
        """``json.dumps(self.to_dict(), indent=indent, sort_keys=True)`` in one
        shallow pass; validates eagerly, raising what ``to_dict`` and ``json`` raise."""
        if not isinstance(self.problem, str):
            self.to_dict()  # raises to_dict's ReproError
        encoder = _ENCODER if indent is None else _SpecEncoder(indent=indent, sort_keys=True)
        return encoder.encode({name: getattr(self, name) for name in _FIELD_NAMES})

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunSpec":
        unknown = sorted(set(payload).difference(_FIELD_NAMES))
        if unknown:
            raise ReproError(f"unknown RunSpec fields: {', '.join(unknown)}")
        if "problem" not in payload:
            raise ReproError("RunSpec needs a problem")
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ReproError("RunSpec JSON must be an object")
        return cls.from_dict(payload)

    # ------------------------------------------------------------------ #
    # orchestrator wiring
    # ------------------------------------------------------------------ #
    def resolve_problem(self) -> ProblemSpec:
        """Build (or pass through) the problem this spec names."""
        if isinstance(self.problem, str):
            from repro import problems

            return problems.get(self.problem, **self.problem_options)
        if self.problem_options:
            raise ReproError(
                "problem_options only apply when the problem is a registry name"
            )
        return self.problem

    def resolve_failure_policy(self) -> "FailurePolicy":  # noqa: F821
        """The run's :class:`~repro.core.faults.FailurePolicy` (default if unset)."""
        from repro.core.faults import FailurePolicy

        return FailurePolicy.coerce(self.failure_policy)

    def options_digest(self) -> str:
        """The digest the checkpoint layer validates resumed restarts against.

        Identical to what :class:`~repro.core.orchestrator
        .SearchOrchestrator` computes for this spec's search options, so a
        checkpoint written by ``run(spec)`` matches ``spec.options_digest()``.

        One exception: in a spectrum run (``num_states > 1``), deflated
        levels derive extra search options (the found states as warm-up
        seeds), so *their* checkpoints carry the digest of those derived
        options — level 0's checkpoints match this digest, and a rerun of
        the same spec re-derives the later levels' digests identically.
        """
        from repro.core.orchestrator import _OBJECTIVE_OPTIONS, options_digest

        loop_options = {
            key: value
            for key, value in self.search_options.items()
            if key not in _OBJECTIVE_OPTIONS
        }
        return options_digest(loop_options)

    def run_digest(self) -> str:
        """Content address of the whole run's trajectory-determining config.

        Two specs with the same digest produce bit-identical results (the
        reproducibility contract), so the campaign scheduler can treat a
        matching completed-run record as a cache hit.  Execution-only knobs
        (``max_workers``, cache/checkpoint directories, ``failure_policy``,
        ``vqe_timeout_seconds``, ``checkpoint_interval``) are excluded; an
        instance-built problem contributes its Hamiltonian fingerprint in
        place of a registry name.
        """
        from repro.core.orchestrator import options_digest

        payload = {name: getattr(self, name) for name in _DIGEST_FIELDS}
        payload["problem"] = (
            self.problem
            if isinstance(self.problem, str)
            else f"fingerprint:{self.problem.fingerprint()}"
        )
        return options_digest(payload)

    def evaluation_budget(self) -> int:
        """Evaluations the search service charges against a submitter's budget.

        ``max_evaluations`` per restart, across ``num_seeds`` restarts and
        ``num_states`` deflation levels: the Bayesian-optimization budget
        only.  It is not a worst case.  Coordinate-descent refinement (on by
        default) adds up to ``cardinality * num_parameters`` observations per
        sweep and refinement start on top of it (``cardinality`` is 4 on the
        Clifford grid and 8 on the pi/4 grid of ``max_t_gates``), and deduped
        cache hits make the realized cost lower.
        """
        return (
            int(self.max_evaluations) * int(self.num_seeds) * int(self.num_states)
        )

    @property
    def problem_label(self) -> str:
        return self.problem if isinstance(self.problem, str) else self.problem.name


class _SpecEncoder(json.JSONEncoder):
    def default(self, value):
        # A dataclass value (a FailurePolicy) encodes as its asdict, as in to_dict.
        return asdict(value) if is_dataclass(value) else super().default(value)


_ENCODER = _SpecEncoder(sort_keys=True)
_FIELD_NAMES = tuple(spec_field.name for spec_field in fields(RunSpec))
_DIGEST_FIELDS = tuple(sorted(set(_FIELD_NAMES) - _EXECUTION_ONLY_FIELDS - {"problem"}))


@dataclass
class RunReport:
    """Everything one :func:`run` produced, with a JSON-able summary.

    For spectrum runs (``spec.num_states > 1``) the ground level fills the
    legacy fields (``result``, ``energy``, ...) and ``states`` carries the
    full per-level :class:`~repro.core.excited.ExcitedStatesResult`.
    """

    spec: RunSpec
    problem: ProblemSpec = field(repr=False)
    result: "MultiSeedResult" = field(repr=False)  # noqa: F821
    vqe: Optional["VQEResult"] = field(default=None, repr=False)  # noqa: F821
    states: Optional["ExcitedStatesResult"] = field(default=None, repr=False)  # noqa: F821
    #: aggregated telemetry of the run's recording directory; None when
    #: telemetry was off (the default).  Execution metadata, not trajectory:
    #: the same run records different timings but identical energies.
    telemetry_summary: Optional[Dict[str, object]] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def best(self) -> "CafqaResult":  # noqa: F821
        """The best restart's :class:`~repro.core.search.CafqaResult`."""
        return self.result.best

    @property
    def energy(self) -> float:
        """Best plain (unconstrained) energy across restarts, in problem units."""
        return self.result.best.energy

    @property
    def reference_energy(self) -> float:
        return reference_energy_of(self.problem)

    @property
    def exact_energy(self) -> Optional[float]:
        return self.problem.exact_energy

    @property
    def error(self) -> Optional[float]:
        if self.exact_energy is None:
            return None
        return abs(self.energy - self.exact_energy)

    @property
    def improvement_over_reference(self) -> float:
        return self.reference_energy - self.energy

    @property
    def final_energy(self) -> float:
        """Energy after the optional VQE stage (the search energy otherwise)."""
        if self.vqe is None:
            return self.energy
        return float(self.vqe.final_energy)

    @property
    def best_indices(self) -> List[int]:
        return list(self.result.best.best_indices)

    @property
    def is_partial(self) -> bool:
        """Whether some restarts failed permanently (survivors-only result)."""
        return self.result.is_partial

    @property
    def state_energies(self) -> Optional[List[float]]:
        """Per-level plain energies of a spectrum run (``None`` otherwise)."""
        if self.states is None:
            return None
        return self.states.energies

    @property
    def exact_spectrum(self) -> Optional[List[float]]:
        """Exact lowest-``num_states`` energies of a spectrum run, if known."""
        if self.states is None:
            return None
        return self.states.exact_spectrum

    def to_dict(self) -> Dict[str, object]:
        """JSON-able summary row (spec echo + headline numbers)."""
        payload = {
            "problem": self.spec.problem_label,
            "num_qubits": int(self.problem.num_qubits),
            "num_seeds": self.result.num_restarts,
            "total_evaluations": self.result.total_evaluations,
            "energy": self.energy,
            "reference_energy": self.reference_energy,
            "exact_energy": self.exact_energy,
            "error": self.error,
            "improvement_over_reference": self.improvement_over_reference,
            "best_indices": self.best_indices,
            "options_digest": self.spec.options_digest(),
            "run_digest": self.spec.run_digest(),
        }
        # Failure/retry accounting: which restarts died, how many attempts
        # the run scheduled in total, and the worker wall-clock the failed
        # attempts burned.  A fault-free run reports 0 / num_seeds / 0.0.
        payload["num_failed_restarts"] = self.result.num_failed_restarts
        payload["total_attempts"] = self.result.total_attempts
        payload["wall_clock_lost_seconds"] = self.result.wall_clock_lost_seconds
        if self.result.is_partial:
            payload["failed_restarts"] = [
                failure.summary() for failure in self.result.failures
            ]
        if self.states is not None:
            payload["num_states"] = self.states.num_states
            payload["deflation_weight"] = self.states.deflation_weight
            payload["state_energies"] = self.states.energies
            payload["exact_spectrum"] = self.states.exact_spectrum
        if self.vqe is not None:
            payload["vqe_final_energy"] = float(self.vqe.final_energy)
            payload["vqe_noisy"] = bool(self.vqe.noisy)
        if self.telemetry_summary is not None:
            payload["telemetry_summary"] = self.telemetry_summary
        return payload

    def __repr__(self) -> str:
        exact = "n/a" if self.exact_energy is None else f"{self.exact_energy:.6f}"
        return (
            f"RunReport({self.spec.problem_label!r}, E={self.energy:.6f}, "
            f"ref={self.reference_energy:.6f}, exact={exact}, "
            f"seeds={self.result.num_restarts})"
        )


def run(spec: RunSpec, problem: Optional[ProblemSpec] = None) -> RunReport:
    """Execute a :class:`RunSpec` and return its :class:`RunReport`.

    Every run — including single-seed ones — goes through the
    :class:`~repro.core.orchestrator.SearchOrchestrator`, so evaluation
    caching (``cache_dir``) and checkpoint/resume (``checkpoint_dir``) apply
    uniformly; a 1-seed in-process run is bit-identical to a direct
    ``CafqaSearch``.  ``problem`` overrides the spec's problem resolution
    with a prebuilt instance, so a caller can build one problem and reuse it.

    With ``num_states > 1`` the run walks the lowest ``num_states`` levels
    by sequential deflation (each level its own orchestrated search); the
    optional VQE stage then tunes the *ground* level's initialization, as in
    the single-state case.
    """
    from repro import telemetry
    from repro.core.orchestrator import SearchOrchestrator

    telemetry.init(spec.telemetry_dir)
    if spec.noise and not spec.vqe_iterations:
        raise ReproError(
            "noise presets only apply to the VQE stage (the Clifford search is "
            "exact classical simulation); set vqe_iterations > 0 or drop noise"
        )
    if spec.num_states < 1:
        raise ReproError("num_states must be at least one")
    if problem is None:
        problem = spec.resolve_problem()
    failure_policy = spec.resolve_failure_policy()
    # The ansatz is the spec's ``ansatz_reps``; search options cannot set it.
    reserved = sorted({"ansatz", "ansatz_reps"}.intersection(spec.search_options))
    if reserved:
        raise OptimizationError(f"invalid search option: {', '.join(reserved)}")
    states = None
    if spec.num_states > 1:
        from repro.core.excited import find_lowest_states

        states = find_lowest_states(
            problem,
            num_states=int(spec.num_states),
            max_evaluations=int(spec.max_evaluations),
            deflation_weight=float(spec.deflation_weight),
            num_restarts=int(spec.num_seeds),
            max_workers=spec.max_workers,
            seed=spec.seed,
            cache_dir=spec.cache_dir,
            checkpoint_dir=spec.checkpoint_dir,
            checkpoint_interval=int(spec.checkpoint_interval),
            failure_policy=failure_policy,
            ansatz_reps=int(spec.ansatz_reps),
            **spec.search_options,
        )
        result = states.ground.result
    else:
        orchestrator = SearchOrchestrator(
            problem,
            num_restarts=int(spec.num_seeds),
            max_workers=spec.max_workers,
            seed=spec.seed,
            cache_dir=spec.cache_dir,
            checkpoint_interval=int(spec.checkpoint_interval),
            failure_policy=failure_policy,
            telemetry_dir=spec.telemetry_dir,
            ansatz_reps=int(spec.ansatz_reps),
            **spec.search_options,
        )
        result = orchestrator.run(
            max_evaluations=int(spec.max_evaluations),
            checkpoint_dir=spec.checkpoint_dir,
        )

    vqe = None
    if spec.vqe_iterations:
        from repro.core.vqe import VQERunner
        from repro.noise.devices import fake_device

        noise_model = fake_device(spec.noise) if spec.noise else None
        # The spec's seed drives the default SPSA perturbation stream, so the
        # whole trajectory — search and VQE stage — is a function of the spec.
        runner = VQERunner(
            problem,
            ansatz=result.best.ansatz,
            noise_model=noise_model,
            seed=spec.seed,
        )
        vqe = runner.run_from_cafqa(
            result.best,
            max_iterations=int(spec.vqe_iterations),
            timeout_seconds=spec.vqe_timeout_seconds,
        )

    telemetry_summary = None
    recorder = telemetry.current()
    if recorder is not None:
        from repro.telemetry.report import aggregate

        telemetry.flush()
        telemetry_summary = aggregate(recorder.directory)
    return RunReport(
        spec=spec,
        problem=problem,
        result=result,
        vqe=vqe,
        states=states,
        telemetry_summary=telemetry_summary,
    )
