"""Deep-copying spec encoder and digests: the differential oracle of RunSpec.

This is how :meth:`repro.runspec.RunSpec.to_json`, ``RunSpec.run_digest``
and :func:`repro.core.orchestrator.options_digest` worked before the spec
encoded itself in one shallow pass: ``to_json`` serialized
``dataclasses.asdict(spec)`` (a deep copy of every field), ``run_digest``
sorted the keys of top-level dict fields only, and the digest fed each
``key=repr;`` part to ``sha256`` separately.  Two switches apply the fixed
rules instead: ``sort_dicts=True`` sorts dict keys at every depth, and
``tuple_lists=True`` renders tuples as lists, as their JSON round trip does.
Specs without nested dicts or tuples digest the same either way.  The
options digest dropped ``ansatz`` and ``ansatz_reps`` search options, which
once overrode the spec's ansatz; ``ansatz_keys=True`` digests them like any
other option, as ``RunSpec.options_digest`` now does (such specs fail to run).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields

import numpy as np

from repro.core.orchestrator import _OBJECTIVE_OPTIONS
from repro.exceptions import ReproError
from repro.runspec import _EXECUTION_ONLY_FIELDS


def oracle_to_json(spec, indent=None) -> str:
    if not isinstance(spec.problem, str):
        raise ReproError(
            "a RunSpec built around a ProblemSpec instance cannot be "
            "serialized; name the problem via the registry instead"
        )
    return json.dumps(asdict(spec), indent=indent, sort_keys=True)


def oracle_plain(value, sort_dicts=False, tuple_lists=False):
    if isinstance(value, np.generic):
        return value.item()
    if type(value) is dict:
        keys = sorted(value) if sort_dicts else value
        return {key: oracle_plain(value[key], sort_dicts, tuple_lists) for key in keys}
    if type(value) in (list, tuple):
        kind = list if tuple_lists else type(value)
        return kind(oracle_plain(item, sort_dicts, tuple_lists) for item in value)
    return value


def oracle_options_digest(options, sort_dicts=False, tuple_lists=False) -> str:
    digest = hashlib.sha256()
    for key in sorted(options):
        value = oracle_plain(options[key], sort_dicts, tuple_lists)
        if isinstance(
            value, (int, float, str, bool, frozenset, type(None), tuple, list, dict)
        ):
            rendered = repr(value)
        else:
            state = getattr(value, "__dict__", {})
            rendered = f"{type(value).__qualname__}({sorted(state.items())!r})"
        digest.update(f"{key}={rendered};".encode())
    return digest.hexdigest()[:16]


def oracle_spec_options_digest(
    spec, sort_dicts=False, tuple_lists=False, ansatz_keys=False
) -> str:
    options = dict(spec.search_options)
    if not ansatz_keys:
        options.pop("ansatz_reps", None)
        options.pop("ansatz", None)
    loop_options = {
        key: value for key, value in options.items() if key not in _OBJECTIVE_OPTIONS
    }
    return oracle_options_digest(loop_options, sort_dicts, tuple_lists)


def oracle_run_digest(spec, sort_dicts=False, tuple_lists=False) -> str:
    payload = {}
    for spec_field in fields(spec):
        if spec_field.name in _EXECUTION_ONLY_FIELDS or spec_field.name == "problem":
            continue
        value = getattr(spec, spec_field.name)
        if isinstance(value, dict):
            value = {key: value[key] for key in sorted(value)}
        payload[spec_field.name] = value
    payload["problem"] = (
        spec.problem
        if isinstance(spec.problem, str)
        else f"fingerprint:{spec.problem.fingerprint()}"
    )
    return oracle_options_digest(payload, sort_dicts, tuple_lists)
