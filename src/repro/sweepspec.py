"""Declarative sweeps: ``SweepSpec`` fans one base ``RunSpec`` out along axes.

The paper's headline artifacts are *sweeps*, not single runs — dissociation
curves over bond lengths (figs 8–11), Table 1 over molecules, Clifford+T
curves over t-budgets (fig 16).  A :class:`SweepSpec` declares such a sweep
as data: a base :class:`~repro.runspec.RunSpec` plus named axes, each axis a
list of values for one spec field (``"seed"``, ``"problem"``) or one nested
option (``"problem_options.bond_length"``, ``"search_options.spin_z_target"``).
:meth:`SweepSpec.expand` takes the cartesian product in declared axis order
and yields one fully-resolved ``RunSpec`` per point.

:func:`run_sweep` executes the expansion through the campaign scheduler
(:mod:`repro.core.campaign`): every run shares the sweep's evaluation-cache
directory (union-of-shards semantics dedupe stabilizer evaluations across
runs), completed runs are digest-memoized so resubmitting a sweep replays
finished points as cache hits, and a failed point is recorded in the
aggregate :class:`~repro.core.campaign.SweepReport` instead of killing the
remaining points.

Like ``RunSpec``, a ``SweepSpec`` built from registry problem names is
JSON-round-trippable; the expansion order (and therefore per-point derived
seeds) is part of the serialized contract.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Union

from repro.exceptions import ReproError
from repro.runspec import RunSpec

__all__ = ["SweepSpec", "SweepPoint", "run_sweep"]

# Axis keys may address these nested option dicts with a dotted path.
_NESTED_AXIS_ROOTS = ("problem_options", "search_options")

_ON_FAILURE_CHOICES = ("partial", "raise")


@dataclass
class SweepPoint:
    """One expanded point of a sweep: its coordinates and resolved spec."""

    index: int
    coords: Dict[str, object]
    spec: RunSpec = field(repr=False)

    @property
    def label(self) -> str:
        """Human-readable ``axis=value`` rendering of the coordinates."""
        if not self.coords:
            return f"point {self.index}"
        return ", ".join(f"{key}={value!r}" for key, value in self.coords.items())


@dataclass
class SweepSpec:
    """Declarative configuration of one campaign of CAFQA runs.

    ``axes`` maps axis names to value lists; an axis name is either a
    ``RunSpec`` field (``"seed"``, ``"problem"``, ``"max_evaluations"``, ...)
    or a dotted path into ``problem_options`` / ``search_options``.  Points
    are expanded as the cartesian product in declared axis order.

    ``cache_dir`` / ``checkpoint_dir`` are the campaign's *shared*
    directories: every expanded run uses them (overriding whatever the base
    spec carries), so adjacent points dedupe stabilizer evaluations through
    one evaluation cache (:mod:`repro.core.evalcache`) and completed runs
    are stored, keyed by digest, in the job store of ``checkpoint_dir``
    (``<checkpoint_dir>/queue.sqlite``, see :mod:`repro.service.store`).

    With ``derive_seeds`` (default), each point whose seed is not itself
    swept gets ``base.seed + point_index`` — the ``seed + index`` convention
    the hand-rolled sweep drivers have always used, so a migrated sweep
    reproduces its legacy trajectories bit-for-bit.

    ``on_failure`` extends the per-run ``on_incomplete`` semantics to the
    sweep: ``"partial"`` (default) records a failed point's metadata in the
    report and continues with the remaining points; ``"raise"`` aborts the
    sweep on the first failed point.  ``memoize=False`` disables whole-run
    memo records (the shared evaluation cache still applies).
    """

    base: Union[RunSpec, Dict[str, object]]
    axes: Dict[str, List[object]] = field(default_factory=dict)
    cache_dir: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    derive_seeds: bool = True
    on_failure: str = "partial"
    memoize: bool = True
    name: Optional[str] = None

    def __post_init__(self):
        if isinstance(self.base, dict):
            self.base = RunSpec.from_dict(self.base)
        elif isinstance(self.base, RunSpec):
            # Own the base: expansion must not see later caller mutations.
            self.base = copy.deepcopy(self.base)
        else:
            raise ReproError(
                f"sweep base must be a RunSpec or a dict, got {type(self.base).__name__}"
            )
        self.axes = self._validated_axes(self.axes)
        if self.on_failure not in _ON_FAILURE_CHOICES:
            raise ReproError(
                f"on_failure must be one of {_ON_FAILURE_CHOICES}, "
                f"got {self.on_failure!r}"
            )

    # ------------------------------------------------------------------ #
    def _validated_axes(self, axes) -> Dict[str, List[object]]:
        if isinstance(axes, (list, tuple)):
            # The serialized form: a list of [name, values] pairs, which
            # survives sorted-keys JSON without losing the axis order.
            pairs = list(axes)
            if any(len(pair) != 2 for pair in pairs):
                raise ReproError("serialized axes must be [name, values] pairs")
            axes = {str(name): values for name, values in pairs}
            if len(axes) != len(pairs):
                raise ReproError("duplicate axis names in serialized axes")
        if not isinstance(axes, dict):
            raise ReproError(f"axes must be a dict, got {type(axes).__name__}")
        spec_fields = {spec_field.name for spec_field in fields(RunSpec)}
        validated: Dict[str, List[object]] = {}
        for key, values in axes.items():
            root, _, option = str(key).partition(".")
            if option:
                if root not in _NESTED_AXIS_ROOTS:
                    raise ReproError(
                        f"unknown axis {key!r}: dotted axes must start with one "
                        f"of {_NESTED_AXIS_ROOTS}"
                    )
            elif root in _NESTED_AXIS_ROOTS:
                raise ReproError(
                    f"axis {key!r} sweeps a whole option dict; sweep a single "
                    f"entry via '{root}.<key>' instead"
                )
            elif root not in spec_fields:
                raise ReproError(f"unknown axis {key!r}: not a RunSpec field")
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ReproError(f"axis {key!r} needs a non-empty list of values")
            validated[str(key)] = copy.deepcopy(list(values))
        return validated

    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def expand(self) -> List[SweepPoint]:
        """All points of the sweep, cartesian product in declared axis order."""
        names = list(self.axes)
        points: List[SweepPoint] = []
        for index, combo in enumerate(
            itertools.product(*(self.axes[name] for name in names))
        ):
            coords = dict(zip(names, combo))
            points.append(
                SweepPoint(index=index, coords=coords, spec=self._point_spec(index, coords))
            )
        return points

    def _point_spec(self, index: int, coords: Dict[str, object]) -> RunSpec:
        spec = copy.deepcopy(self.base)
        for key, value in coords.items():
            root, _, option = key.partition(".")
            if option:
                getattr(spec, root)[option] = copy.deepcopy(value)
            else:
                setattr(spec, root, copy.deepcopy(value))
        if self.cache_dir is not None:
            spec.cache_dir = str(self.cache_dir)
        if self.checkpoint_dir is not None:
            spec.checkpoint_dir = str(self.checkpoint_dir)
        if self.derive_seeds and "seed" not in coords and spec.seed is not None:
            spec.seed = int(spec.seed) + index
        return spec

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        return {
            "base": self.base.to_dict(),
            # List-of-pairs keeps the axis (and therefore expansion) order
            # stable through sorted-keys JSON serialization.
            "axes": [[name, copy.deepcopy(values)] for name, values in self.axes.items()],
            "cache_dir": self.cache_dir,
            "checkpoint_dir": self.checkpoint_dir,
            "derive_seeds": self.derive_seeds,
            "on_failure": self.on_failure,
            "memoize": self.memoize,
            "name": self.name,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepSpec":
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReproError(f"unknown SweepSpec fields: {', '.join(unknown)}")
        if "base" not in payload:
            raise ReproError("SweepSpec needs a base run spec")
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ReproError("SweepSpec JSON must be an object")
        return cls.from_dict(payload)


def run_sweep(
    sweep: Union[SweepSpec, Dict[str, object]],
    log: Optional[Callable[[str], None]] = None,
) -> "SweepReport":  # noqa: F821
    """Execute a :class:`SweepSpec` through the campaign scheduler.

    Accepts a spec instance or its dict form.  ``log`` receives one progress
    line per point (fresh run, memoized cache hit, or recorded failure); see
    :func:`repro.core.campaign.run_campaign` for the execution contract.
    """
    from repro.core.campaign import run_campaign

    if isinstance(sweep, dict):
        sweep = SweepSpec.from_dict(sweep)
    return run_campaign(sweep, log=log)
