"""SweepSpec declaration layer: validation, expansion, serialization, digests.

These tests never run a search — they pin the declarative contract: the
JSON round-trip preserves axis order (and therefore expansion order and
derived seeds), expansion is a cartesian product in declared order with the
sweep's shared directories threaded into every point, and
``RunSpec.run_digest`` is invariant to execution-only knobs.
"""

import json

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.operators import PauliSum
from repro.problems.base import HamiltonianProblem
from repro.runspec import RunSpec
from repro.sweepspec import SweepSpec


def toy_problem(coefficient: float = -1.0) -> HamiltonianProblem:
    return HamiltonianProblem(name="toy", hamiltonian=PauliSum({"Z": coefficient}))


def h2_base(**overrides) -> RunSpec:
    payload = {
        "problem": "H2",
        "problem_options": {"bond_length": 0.74},
        "max_evaluations": 24,
        "seed": 7,
    }
    payload.update(overrides)
    return RunSpec(**payload)


class TestValidation:
    def test_base_must_be_spec_or_dict(self):
        with pytest.raises(ReproError, match="base"):
            SweepSpec(base=42)

    def test_dict_base_is_coerced(self):
        sweep = SweepSpec(base={"problem": "H2", "max_evaluations": 10})
        assert isinstance(sweep.base, RunSpec)
        assert sweep.base.problem == "H2"

    def test_unknown_axis_rejected(self):
        with pytest.raises(ReproError, match="unknown axis"):
            SweepSpec(base=h2_base(), axes={"bond_length": [0.7]})

    def test_unknown_dotted_root_rejected(self):
        with pytest.raises(ReproError, match="dotted axes"):
            SweepSpec(base=h2_base(), axes={"options.bond_length": [0.7]})

    def test_whole_option_dict_axis_rejected(self):
        with pytest.raises(ReproError, match="whole option dict"):
            SweepSpec(base=h2_base(), axes={"problem_options": [{"bond_length": 0.7}]})

    def test_empty_axis_values_rejected(self):
        with pytest.raises(ReproError, match="non-empty"):
            SweepSpec(base=h2_base(), axes={"seed": []})

    def test_bad_on_failure_rejected(self):
        with pytest.raises(ReproError, match="on_failure"):
            SweepSpec(base=h2_base(), on_failure="retry")

    def test_unknown_sweepspec_field_rejected(self):
        with pytest.raises(ReproError, match="unknown SweepSpec fields"):
            SweepSpec.from_dict({"base": {"problem": "H2"}, "points": 3})

    def test_base_required(self):
        with pytest.raises(ReproError, match="base"):
            SweepSpec.from_dict({"axes": []})


class TestExpansion:
    def test_cartesian_product_in_declared_order(self):
        sweep = SweepSpec(
            base=h2_base(),
            axes={
                "problem_options.bond_length": [0.7, 1.0],
                "num_seeds": [1, 2],
            },
            derive_seeds=False,
        )
        points = sweep.expand()
        assert sweep.num_points == 4
        assert [p.coords for p in points] == [
            {"problem_options.bond_length": 0.7, "num_seeds": 1},
            {"problem_options.bond_length": 0.7, "num_seeds": 2},
            {"problem_options.bond_length": 1.0, "num_seeds": 1},
            {"problem_options.bond_length": 1.0, "num_seeds": 2},
        ]
        assert points[2].spec.problem_options["bond_length"] == 1.0
        assert points[3].spec.num_seeds == 2
        assert "bond_length=0.7" in points[0].label

    def test_derived_seeds_follow_seed_plus_index(self):
        sweep = SweepSpec(
            base=h2_base(seed=5),
            axes={"problem_options.bond_length": [0.7, 1.0, 1.3]},
        )
        assert [p.spec.seed for p in sweep.expand()] == [5, 6, 7]

    def test_seed_axis_wins_over_derivation(self):
        sweep = SweepSpec(base=h2_base(seed=5), axes={"seed": [11, 13]})
        assert [p.spec.seed for p in sweep.expand()] == [11, 13]

    def test_none_seed_stays_none(self):
        sweep = SweepSpec(
            base=h2_base(seed=None),
            axes={"problem_options.bond_length": [0.7, 1.0]},
        )
        assert [p.spec.seed for p in sweep.expand()] == [None, None]

    def test_shared_dirs_override_base(self, tmp_path):
        base = h2_base(cache_dir="/elsewhere", checkpoint_dir="/elsewhere")
        sweep = SweepSpec(
            base=base,
            axes={"problem_options.bond_length": [0.7]},
            cache_dir=str(tmp_path / "cache"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        spec = sweep.expand()[0].spec
        assert spec.cache_dir == str(tmp_path / "cache")
        assert spec.checkpoint_dir == str(tmp_path / "ckpt")

    def test_base_is_not_mutated_by_expansion(self):
        base = h2_base(seed=0)
        sweep = SweepSpec(base=base, axes={"problem_options.bond_length": [9.9]})
        sweep.expand()
        # The sweep deep-copied the base at construction; neither the
        # caller's spec nor the sweep's own base sees per-point overrides.
        assert base.problem_options["bond_length"] == 0.74
        assert sweep.base.problem_options["bond_length"] == 0.74
        assert sweep.base.seed == 0

    def test_problem_axis(self):
        sweep = SweepSpec(
            base=RunSpec(problem="H2", max_evaluations=10),
            axes={"problem": ["H2", "LiH"]},
            derive_seeds=False,
        )
        assert [p.spec.problem for p in sweep.expand()] == ["H2", "LiH"]


class TestSerialization:
    def test_json_round_trip_preserves_everything(self, tmp_path):
        sweep = SweepSpec(
            base=h2_base(),
            axes={
                "problem_options.bond_length": [0.7, 1.0],
                "seed": [1, 2],
            },
            cache_dir=str(tmp_path / "cache"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            derive_seeds=False,
            on_failure="raise",
            memoize=False,
            name="round-trip",
        )
        back = SweepSpec.from_json(sweep.to_json())
        assert back.to_json() == sweep.to_json()
        assert list(back.axes) == list(sweep.axes)
        assert back.on_failure == "raise"
        assert back.memoize is False
        assert back.name == "round-trip"
        assert [p.coords for p in back.expand()] == [p.coords for p in sweep.expand()]

    def test_axis_order_survives_sorted_keys_json(self):
        # "zeta" sorts after "seed"; a dict-shaped axes payload would come
        # back reordered through sort_keys JSON and silently change the
        # expansion order (and derived seeds).  The list-of-pairs form is
        # order-exact.
        sweep = SweepSpec(
            base=h2_base(),
            axes={"seed": [1, 2], "problem_options.bond_length": [0.7, 1.0]},
        )
        payload = json.loads(json.dumps(sweep.to_dict(), sort_keys=True))
        assert payload["axes"] == [
            ["seed", [1, 2]],
            ["problem_options.bond_length", [0.7, 1.0]],
        ]
        back = SweepSpec.from_dict(payload)
        assert list(back.axes) == ["seed", "problem_options.bond_length"]

    def test_json_must_be_object(self):
        with pytest.raises(ReproError, match="object"):
            SweepSpec.from_json("[1, 2]")

    def test_instance_base_expands_but_does_not_serialize(self):
        sweep = SweepSpec(base=RunSpec(problem=toy_problem()), axes={"seed": [0, 1]})
        assert len(sweep.expand()) == 2
        with pytest.raises(ReproError, match="serialized"):
            sweep.to_dict()


class TestRunDigest:
    def test_invariant_to_execution_only_knobs(self, tmp_path):
        plain = h2_base()
        tuned = h2_base(
            max_workers=4,
            cache_dir=str(tmp_path / "cache"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_interval=5,
            failure_policy={"max_retries": 0},
            vqe_timeout_seconds=1.0,
        )
        assert plain.run_digest() == tuned.run_digest()

    def test_sensitive_to_trajectory_knobs(self):
        base = h2_base()
        assert base.run_digest() != h2_base(seed=8).run_digest()
        assert base.run_digest() != h2_base(max_evaluations=25).run_digest()
        assert (
            base.run_digest()
            != h2_base(problem_options={"bond_length": 0.75}).run_digest()
        )
        assert base.run_digest() != h2_base(num_seeds=2).run_digest()

    def test_option_dict_order_does_not_matter(self):
        one = h2_base(search_options={"warmup_fraction": 0.5, "spin_z_target": None})
        two = h2_base(search_options={"spin_z_target": None, "warmup_fraction": 0.5})
        assert one.run_digest() == two.run_digest()

    def test_instance_problem_digested_by_fingerprint(self):
        problem = toy_problem(-1.0)
        other = toy_problem(-2.0)
        spec = RunSpec(problem=problem)
        assert spec.run_digest() == RunSpec(problem=problem).run_digest()
        assert spec.run_digest() != RunSpec(problem=other).run_digest()

    def test_python_native_digest_is_pinned(self):
        # Pins the digest of native values: normalizing numpy scalars must
        # not move it (every stored memo and job is keyed by it).
        spec = RunSpec(problem="H2", problem_options={"bond_length": 0.75})
        assert spec.run_digest() == "0b8f0bc40350f87f"
        assert RunSpec.from_json(spec.to_json()).run_digest() == "0b8f0bc40350f87f"

    def test_numpy_scalars_digest_like_python_values(self):
        scalar = RunSpec(
            problem="H2",
            problem_options={"bond_length": np.float64(0.75)},
            seed=np.int64(0),
            search_options={"seed_points": [(np.int64(1), 2)]},
        )
        plain = RunSpec(
            problem="H2",
            problem_options={"bond_length": 0.75},
            seed=0,
            search_options={"seed_points": [(1, 2)]},
        )
        assert scalar.run_digest() == plain.run_digest()
        assert scalar.options_digest() == plain.options_digest()
        assert RunSpec(
            problem="H2", problem_options={"bond_length": np.float64(0.75)}
        ).run_digest() == "0b8f0bc40350f87f"
