"""The fault-injection seam: ``REPRO_FAULT_HOOKS`` names a hook file that is
re-resolved on every restart, imported once per process, and shared with the
tests that import it by name."""

import json
import os
import subprocess
import sys

import pytest

import chaos_faults
import repro
from chaos_faults import FAULT_DIR_ENV, FAULT_SPEC_ENV, SERVICE_FAULT_ENV, InjectedFaultError
from repro.core.faults import FAULT_HOOKS_ENV, fire_fault_hook
from repro.problems import ising_chain

RECORDING_HOOK = """
import os
with open(os.environ["HOOK_IMPORT_LOG"], "a") as log:
    log.write("imported\\n")
calls = []
def wrap_objective(objective, task):
    calls.append(task.restart_index)
    return objective
"""


def test_hook_armed_after_an_unhooked_restart_is_imported_once(tmp_path, monkeypatch):
    # A stem unique to this test: the hook stays registered in sys.modules.
    hook = tmp_path / f"hook_{tmp_path.name}.py"
    hook.write_text(RECORDING_HOOK)
    monkeypatch.setenv("HOOK_IMPORT_LOG", str(tmp_path / "imports.log"))
    problem = ising_chain(num_sites=3, transverse_field=1.0)

    def restarts(count):
        spec = repro.RunSpec(problem=problem, num_seeds=count, max_workers=1, max_evaluations=12)
        repro.run(spec, problem=problem)

    monkeypatch.delenv(FAULT_HOOKS_ENV, raising=False)
    restarts(1)
    monkeypatch.setenv(FAULT_HOOKS_ENV, str(hook))
    restarts(2)
    restarts(1)
    assert (tmp_path / "imports.log").read_text() == "imported\n"
    assert sys.modules[hook.stem].calls == [0, 1, 0]


def test_the_hook_raises_the_error_class_tests_import(monkeypatch, tmp_path):
    monkeypatch.setenv(FAULT_HOOKS_ENV, chaos_faults.__file__)
    monkeypatch.setenv(FAULT_DIR_ENV, str(tmp_path))
    monkeypatch.setenv(
        SERVICE_FAULT_ENV, json.dumps([{"event": "post_claim", "mode": "raise"}])
    )
    with pytest.raises(InjectedFaultError):
        fire_fault_hook("post_claim")
    fire_fault_hook("post_claim")  # times=1: the marker file says it fired
    assert sys.modules["chaos_faults"] is chaos_faults


def test_a_pool_parent_unpickles_what_the_hook_raises(tmp_path):
    """The parent has not imported the hook file; unless the seam loads it
    there too, a worker's InjectedFaultError cannot be unpickled, the pool
    breaks, and the healthy restart 0 is charged a second attempt."""
    script = (
        "import repro; r = repro.run(repro.RunSpec(problem='ising_chain', num_seeds=2, "
        "max_workers=2, max_evaluations=12)); print([t.attempts for t in r.result.traces])"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    env.update({FAULT_HOOKS_ENV: chaos_faults.__file__, FAULT_DIR_ENV: str(tmp_path),
                FAULT_SPEC_ENV: json.dumps([{"restart": 1, "mode": "raise", "at": 1}])})
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert run.stdout.strip() == "[1, 2]", run.stderr
