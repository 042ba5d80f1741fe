"""RunSpec's JSON text and digests: one shallow pass, pinned byte for byte.

``RunSpec.to_json`` encodes the fields in one shallow pass (only a
dataclass value goes through ``asdict``), and ``options_digest`` hashes
its joined parts once.  The tests compare both with the deep-copying
encoder and digest of ``tests/runspec_oracle.py`` on hypothesis-generated
specs, pin literal digests, replay a store whose jobs were keyed by the
oracle, and count the copies a replayed submit makes.  Dict keys are
sorted at every depth of the digest and tuples digest as lists, so a spec
digests the same before and after its own JSON round trip.
"""

import copy
import dataclasses
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runspec
from repro.core.faults import FailurePolicy
from repro.core.orchestrator import options_digest
from repro.exceptions import ReproError
from repro.problems import ising_chain
from repro.runspec import RunSpec
from repro.service import ServiceWorker, open_store
from tests.runspec_oracle import (
    oracle_options_digest,
    oracle_run_digest,
    oracle_spec_options_digest,
    oracle_to_json,
)

ISING_INSTANCE = ising_chain(num_sites=3, transverse_field=0.5)
# The oracle's switches for the fixed digest rules: dict keys sorted at every
# depth, tuples rendered as lists.
FIXED = {"sort_dicts": True, "tuple_lists": True}


def service_drain_spec(transverse_field=0.25):
    """The spec shape the service_drain benchmark submits."""
    return RunSpec(
        problem="ising_chain",
        problem_options={"num_sites": 4, "transverse_field": transverse_field},
        max_evaluations=60,
        seed=0,
        search_options={"local_refinement": False},
    )


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, math.inf, -math.inf, 2**70, -(2**64) + 1]),
    st.text(),
)
numpy_scalars = st.one_of(
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
failure_policies = st.builds(
    FailurePolicy,
    max_retries=st.integers(0, 5),
    restart_timeout=st.one_of(st.none(), st.floats(0.5, 100.0)),
    backoff_seconds=st.floats(0.0, 10.0),
    on_incomplete=st.sampled_from(["raise", "partial"]),
)
leaves = st.one_of(json_scalars, json_scalars, numpy_scalars, failure_policies)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)
seed_points = st.lists(
    st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=3
)
option_keys = st.one_of(
    st.sampled_from(
        [
            "warmup_fraction",
            "local_refinement",
            "max_t_gates",
            "spin_z_target",
            "ansatz",
            "ansatz_reps",
        ]
    ),
    st.text(max_size=8),
)
option_dicts = st.builds(
    lambda options, points: {**options, **points},
    st.dictionaries(option_keys, values, max_size=5),
    st.one_of(
        st.just({}),
        st.builds(lambda p: {"seed_points": p}, seed_points),
        st.builds(lambda p: {"seed_points": tuple(map(tuple, p))}, seed_points),
    ),
)
optional_text = st.one_of(st.none(), st.text(max_size=10))
optional_float = st.one_of(st.none(), st.floats())
specs = st.builds(
    RunSpec,
    problem=st.one_of(st.text(max_size=10), st.just(ISING_INSTANCE)),
    problem_options=option_dicts,
    ansatz_reps=st.integers(1, 3),
    max_evaluations=st.integers(0, 10**6),
    num_seeds=st.integers(1, 8),
    seed=st.one_of(st.none(), st.integers()),
    max_workers=st.one_of(st.none(), st.integers(1, 8)),
    cache_dir=optional_text,
    checkpoint_dir=optional_text,
    checkpoint_interval=st.integers(1, 64),
    noise=optional_text,
    vqe_iterations=st.integers(0, 50),
    num_states=st.integers(1, 3),
    deflation_weight=st.floats(),
    failure_policy=st.one_of(
        st.none(),
        st.dictionaries(st.text(max_size=8), json_scalars, max_size=4),
        failure_policies,
    ),
    vqe_timeout_seconds=optional_float,
    telemetry_dir=optional_text,
    search_options=option_dicts,
)


def outcome(call):
    """What ``call()`` returns, or the type of what it raises."""
    try:
        return ("returned", call())
    except Exception as error:  # noqa: BLE001 — the type is the outcome
        return ("raised", type(error))


def contains_dict_or_tuple(value):
    if isinstance(value, (dict, tuple)):
        return True
    if isinstance(value, list):
        return any(contains_dict_or_tuple(item) for item in value)
    return False


def follows_the_parent_rule(spec):
    """Whether no option value holds a dict or a tuple at any depth."""
    return not any(
        contains_dict_or_tuple(value)
        for options in (spec.problem_options, spec.search_options)
        for value in options.values()
    )


def has_ansatz_option(spec):
    """Whether the spec's search options set the ansatz (such specs fail to run)."""
    return bool({"ansatz", "ansatz_reps"}.intersection(spec.search_options))


# --------------------------------------------------------------------------- #
# differential oracle
# --------------------------------------------------------------------------- #
class TestDifferentialOracle:
    @settings(max_examples=300, deadline=None)
    @given(spec=specs, indent=st.sampled_from([None, 2]))
    def test_to_json_matches_the_deep_copying_encoder(self, spec, indent):
        assert outcome(lambda: spec.to_json(indent)) == outcome(
            lambda: oracle_to_json(spec, indent)
        )

    @settings(max_examples=300, deadline=None)
    @given(spec=specs)
    def test_digests_match_the_oracle(self, spec):
        # Nested dicts and tuples follow the fixed rules, and ansatz search
        # options are digested like any other; every other spec keeps the
        # digest the oracle computes.
        assert spec.run_digest() == oracle_run_digest(spec, **FIXED)
        assert spec.options_digest() == oracle_spec_options_digest(
            spec, **FIXED, ansatz_keys=True
        )
        if follows_the_parent_rule(spec):
            assert spec.run_digest() == oracle_run_digest(spec)
            if not has_ansatz_option(spec):
                assert spec.options_digest() == oracle_spec_options_digest(spec)

    @settings(max_examples=200, deadline=None)
    @given(options=st.dictionaries(option_keys, values, max_size=6))
    def test_options_digest_matches_the_oracle(self, options):
        assert options_digest(options) == oracle_options_digest(options, **FIXED)
        if not any(contains_dict_or_tuple(value) for value in options.values()):
            assert options_digest(options) == oracle_options_digest(options)

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize(
        "spec, error",
        [
            (RunSpec(problem=ISING_INSTANCE), ReproError),
            (RunSpec(problem="H2", search_options={"x": np.int64(3)}), TypeError),
            (RunSpec(problem="H2", problem_options={"a": [{"b": np.int64(3)}]}), TypeError),
            (RunSpec(problem="H2", search_options={"x": object()}), TypeError),
            (RunSpec(problem="H2", failure_policy=np.bool_(True)), TypeError),
        ],
    )
    def test_raising_cases_raise_the_same_types(self, spec, error, indent):
        with pytest.raises(error):
            spec.to_json(indent)
        with pytest.raises(error):
            oracle_to_json(spec, indent)

    def test_dataclasses_encode_at_any_depth(self):
        policy = FailurePolicy(max_retries=4, on_incomplete="partial")
        spec = RunSpec(
            problem="H2",
            failure_policy=policy,
            search_options={"nested": [policy, {"p": policy}]},
        )
        assert spec.to_json() == oracle_to_json(spec)
        encoded = json.loads(spec.to_json())
        assert encoded["search_options"]["nested"][0] == dataclasses.asdict(policy)

    def test_to_dict_still_deep_copies(self):
        spec = RunSpec(problem="H2", search_options={"seed_points": [[0, 1]]})
        payload = spec.to_dict()
        payload["search_options"]["seed_points"][0].append(2)
        assert spec.search_options == {"seed_points": [[0, 1]]}


# --------------------------------------------------------------------------- #
# nested dicts: digests independent of insertion order at every depth
# --------------------------------------------------------------------------- #
class TestNestedDictOrder:
    NESTED = {"seed_points": [[0] * 16], "extra": {"b": 1, "a": 2}}

    def test_digest_survives_the_json_round_trip(self):
        spec = RunSpec(problem="H2", search_options=self.NESTED)
        restored = RunSpec.from_json(spec.to_json())
        assert restored.run_digest() == spec.run_digest() == "3673d37d343c9e1b"
        assert restored.options_digest() == spec.options_digest() == "956252426cc8dd05"
        # The oracle shows the defect fixed here: the insertion-ordered
        # nested dict digested differently from its sorted round trip.
        assert oracle_spec_options_digest(spec) == "874b4d4b694d9a17"
        assert oracle_spec_options_digest(restored) == "956252426cc8dd05"

    def test_insertion_order_never_matters(self):
        one = RunSpec(
            problem="H2",
            problem_options={"geometry": {"x": 1, "y": [{"q": 1, "p": 2}]}},
            search_options={"extra": {"b": 1, "a": 2}},
        )
        two = RunSpec(
            problem="H2",
            problem_options={"geometry": {"y": [{"p": 2, "q": 1}], "x": 1}},
            search_options={"extra": {"a": 2, "b": 1}},
        )
        assert one.run_digest() == two.run_digest()
        assert one.options_digest() == two.options_digest()
        assert one.to_json() == two.to_json()

    def test_dict_subclasses_digest_like_their_round_trip(self):
        ordered = RunSpec(
            problem="H2",
            problem_options=OrderedDict([("b", 1), ("a", 2)]),
            search_options={"extra": OrderedDict([("d", 1), ("c", 2)])},
        )
        restored = RunSpec.from_json(ordered.to_json())
        assert ordered.run_digest() == restored.run_digest()
        assert ordered.options_digest() == restored.options_digest()

    def test_unorderable_nested_keys_still_digest(self):
        # A custom factory's option dict may mix key types that cannot be
        # sorted against each other; such a dict keeps its insertion order,
        # as every nested dict did before, instead of raising.
        couplings = {0: 1.0, (0, 1): 0.5}
        spec = RunSpec(problem="H2", problem_options={"couplings": couplings})
        assert spec.run_digest() == oracle_run_digest(spec)
        assert options_digest({"extra": couplings}) == oracle_options_digest(
            {"extra": couplings}
        )


# --------------------------------------------------------------------------- #
# tuples: digested as the lists their JSON round trip holds
# --------------------------------------------------------------------------- #
class TestTupleValues:
    SPEC = RunSpec(problem="H2", search_options={"seed_points": ((0, 1, 2, 3),)})

    def test_digest_survives_the_json_round_trip(self):
        restored = RunSpec.from_json(self.SPEC.to_json())
        assert restored.search_options == {"seed_points": [[0, 1, 2, 3]]}
        assert restored.run_digest() == self.SPEC.run_digest() == "07247b2c5578ae9b"
        assert restored.options_digest() == self.SPEC.options_digest() == "2df21952084dfb5d"
        # The oracle shows the defect fixed here: the tuples digested apart
        # from their own round trip, which kept the list digests.
        assert oracle_run_digest(self.SPEC) == "bfa5045abfdc6fc4"
        assert oracle_spec_options_digest(self.SPEC) == "35bd9fa22cb7556b"
        assert oracle_run_digest(restored) == "07247b2c5578ae9b"
        assert oracle_spec_options_digest(restored) == "2df21952084dfb5d"

    def test_service_stores_the_result_under_the_job_key(self, tmp_path):
        # A worker loads the spec from its JSON text; the summary it stores
        # must carry the digest the job was submitted under.
        spec = RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": 3},
            max_evaluations=12,
            search_options={"seed_points": ((0,) * 12,), "local_refinement": False},
        )
        data = tmp_path / "svc"
        with open_store(data) as store:
            first = store.submit(spec)
        assert ServiceWorker(data, lease_ttl=60.0).run().completed == 1
        with open_store(data) as store:
            assert store.result(first.digest)["run_digest"] == first.digest
            again = store.submit(RunSpec.from_json(spec.to_json()), submitter="file")
            assert again.replayed and again.digest == first.digest
            assert len(store.jobs()) == 1


# --------------------------------------------------------------------------- #
# literal pins (computed by the deep-copying encoder and per-part digest)
# --------------------------------------------------------------------------- #
PINS = {
    "service_drain": (
        service_drain_spec(),
        "ed5a8380a5eb87bc",
        "5daf475e5882d38b",
        '{"ansatz_reps": 1, "cache_dir": null, "checkpoint_dir": null, '
        '"checkpoint_interval": 32, "deflation_weight": 10.0, '
        '"failure_policy": null, "max_evaluations": 60, "max_workers": null, '
        '"noise": null, "num_seeds": 1, "num_states": 1, "problem": '
        '"ising_chain", "problem_options": {"num_sites": 4, '
        '"transverse_field": 0.25}, "search_options": {"local_refinement": '
        'false}, "seed": 0, "telemetry_dir": null, "vqe_iterations": 0, '
        '"vqe_timeout_seconds": null}',
    ),
    "lih_seed_points": (
        RunSpec(
            problem="LiH",
            problem_options={"bond_length": 1.6},
            ansatz_reps=2,
            max_evaluations=200,
            num_seeds=4,
            search_options={
                "seed_points": [[0, 1, 2, 3, 0, 1, 2, 3], [3, 3, 3, 3, 0, 0, 0, 0]],
                "warmup_fraction": 0.4,
            },
        ),
        "6beca672f9d75441",
        "96d8a0fc1bcf88c0",
        '{"ansatz_reps": 2, "cache_dir": null, "checkpoint_dir": null, '
        '"checkpoint_interval": 32, "deflation_weight": 10.0, '
        '"failure_policy": null, "max_evaluations": 200, "max_workers": null, '
        '"noise": null, "num_seeds": 4, "num_states": 1, "problem": "LiH", '
        '"problem_options": {"bond_length": 1.6}, "search_options": '
        '{"seed_points": [[0, 1, 2, 3, 0, 1, 2, 3], [3, 3, 3, 3, 0, 0, 0, 0]], '
        '"warmup_fraction": 0.4}, "seed": 0, "telemetry_dir": null, '
        '"vqe_iterations": 0, "vqe_timeout_seconds": null}',
    ),
    "policy_dict": (
        RunSpec(
            problem="H2",
            problem_options={"bond_length": 2.5},
            num_seeds=2,
            max_workers=2,
            cache_dir="cache",
            checkpoint_dir="ckpt",
            failure_policy={"max_retries": 1, "on_incomplete": "partial"},
            vqe_timeout_seconds=3.5,
        ),
        "8f02b98990cc71d2",
        "e3b0c44298fc1c14",
        '{"ansatz_reps": 1, "cache_dir": "cache", "checkpoint_dir": "ckpt", '
        '"checkpoint_interval": 32, "deflation_weight": 10.0, '
        '"failure_policy": {"max_retries": 1, "on_incomplete": "partial"}, '
        '"max_evaluations": 300, "max_workers": 2, "noise": null, '
        '"num_seeds": 2, "num_states": 1, "problem": "H2", "problem_options": '
        '{"bond_length": 2.5}, "search_options": {}, "seed": 0, '
        '"telemetry_dir": null, "vqe_iterations": 0, "vqe_timeout_seconds": 3.5}',
    ),
    "policy_instance": (
        RunSpec(
            problem="H2",
            problem_options={"bond_length": 2.5},
            num_seeds=2,
            failure_policy=FailurePolicy(
                max_retries=3, restart_timeout=12.5, backoff_seconds=0.25
            ),
            telemetry_dir="tel",
        ),
        "8f02b98990cc71d2",
        "e3b0c44298fc1c14",
        '{"ansatz_reps": 1, "cache_dir": null, "checkpoint_dir": null, '
        '"checkpoint_interval": 32, "deflation_weight": 10.0, '
        '"failure_policy": {"backoff_multiplier": 2.0, "backoff_seconds": 0.25, '
        '"max_backoff_seconds": 30.0, "max_retries": 3, "on_incomplete": '
        '"raise", "restart_timeout": 12.5}, "max_evaluations": 300, '
        '"max_workers": null, "noise": null, "num_seeds": 2, "num_states": 1, '
        '"problem": "H2", "problem_options": {"bond_length": 2.5}, '
        '"search_options": {}, "seed": 0, "telemetry_dir": "tel", '
        '"vqe_iterations": 0, "vqe_timeout_seconds": null}',
    ),
    "num_states_2": (
        RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": 3, "transverse_field": 0.0},
            num_states=2,
            deflation_weight=3.0,
            max_evaluations=40,
            seed=None,
            noise="casablanca_like",
            vqe_iterations=5,
            search_options={"max_t_gates": 1, "local_refinement": True},
        ),
        "c40e0a41beb95346",
        "6b52501e23192b4b",
        '{"ansatz_reps": 1, "cache_dir": null, "checkpoint_dir": null, '
        '"checkpoint_interval": 32, "deflation_weight": 3.0, '
        '"failure_policy": null, "max_evaluations": 40, "max_workers": null, '
        '"noise": "casablanca_like", "num_seeds": 1, "num_states": 2, '
        '"problem": "ising_chain", "problem_options": {"num_sites": 3, '
        '"transverse_field": 0.0}, "search_options": {"local_refinement": '
        'true, "max_t_gates": 1}, "seed": null, "telemetry_dir": null, '
        '"vqe_iterations": 5, "vqe_timeout_seconds": null}',
    ),
    "problem_instance": (
        RunSpec(
            problem=ISING_INSTANCE,
            max_evaluations=50,
            search_options={"warmup_fraction": 0.5},
        ),
        "09ff509a4b65711d",
        "4c249d6577c2c3a0",
        None,
    ),
}


class TestPinnedDigests:
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_pinned_digests_and_json(self, name):
        spec, run_digest, spec_options_digest, text = PINS[name]
        assert spec.run_digest() == run_digest == oracle_run_digest(spec)
        assert spec.options_digest() == spec_options_digest
        assert spec_options_digest == oracle_spec_options_digest(spec)
        if text is None:
            with pytest.raises(ReproError, match="cannot be serialized"):
                spec.to_json()
            return
        assert spec.to_json() == text == oracle_to_json(spec)
        assert spec.to_json(indent=2) == oracle_to_json(spec, indent=2)
        assert RunSpec.from_json(text).run_digest() == run_digest


# --------------------------------------------------------------------------- #
# the service: stores keyed by the oracle replay, and replays copy nothing
# --------------------------------------------------------------------------- #
class TestServiceReplay:
    def test_store_keyed_by_the_oracle_replays_without_a_new_job(
        self, tmp_path, monkeypatch
    ):
        spec = RunSpec(
            problem="ising_chain",
            problem_options={"num_sites": 3, "transverse_field": 0.5},
            max_evaluations=12,
            search_options={"warmup_fraction": 0.5, "local_refinement": False},
        )
        data = tmp_path / "svc"
        with monkeypatch.context() as patched:
            patched.setattr(RunSpec, "to_json", oracle_to_json)
            patched.setattr(RunSpec, "run_digest", oracle_run_digest)
            patched.setattr(RunSpec, "options_digest", oracle_spec_options_digest)
            with open_store(data) as store:
                first = store.submit(spec, submitter="before")
            stats = ServiceWorker(data, lease_ttl=60.0).run()
        assert first.created and stats.completed == 1
        with open_store(data) as store:
            again = store.submit(spec, submitter="after")
            assert again.replayed and again.digest == first.digest
            assert len(store.jobs()) == 1
            summary = store.result(again.digest)
        assert summary["run_digest"] == spec.run_digest() == first.digest
        assert summary["options_digest"] == spec.options_digest()

    def test_replayed_submit_makes_no_asdict_or_deepcopy_call(
        self, tmp_path, monkeypatch
    ):
        spec = service_drain_spec()
        counts = {"asdict": 0, "deepcopy": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        with open_store(tmp_path / "svc") as store:
            store.record(spec, {"energy": -1.0})
            counting_asdict = counting("asdict", dataclasses.asdict)
            monkeypatch.setattr(dataclasses, "asdict", counting_asdict)
            monkeypatch.setattr(runspec, "asdict", counting_asdict)
            monkeypatch.setattr(copy, "deepcopy", counting("deepcopy", copy.deepcopy))
            receipt = store.submit(spec, submitter="replay")
        assert receipt.replayed
        assert counts == {"asdict": 0, "deepcopy": 0}

    def test_replayed_submit_still_validates_eagerly(self, tmp_path):
        done = service_drain_spec()
        done.search_options["extra"] = 1
        unencodable = service_drain_spec()
        unencodable.search_options["extra"] = np.int64(1)
        # numpy scalars digest like the Python values they hold, so the
        # unencodable spec names the done job, and still raises.
        assert unencodable.run_digest() == done.run_digest()
        with open_store(tmp_path / "svc") as store:
            store.record(done, {"energy": -1.0})
            with pytest.raises(TypeError):
                store.submit(unencodable)
            with pytest.raises(ReproError, match="cannot be serialized"):
                store.submit(RunSpec(problem=ISING_INSTANCE))
            assert len(store.jobs()) == 1
