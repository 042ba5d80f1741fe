"""Layer spans recorded from outside the program.

The tracer wraps public functions of the ``repro`` layers for the length of
one traced run and restores them afterwards; nothing inside ``src/`` is
changed.  Each wrapped call is a span.  A span's *self time* is its duration
minus the time of the spans it called, so the self times of all spans plus
the root's own self time (``other.s``) add up to the root exactly.

Only calls made on the thread that installed the tracer are timed; calls
from helper threads (the service heartbeat) pass straight through.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, class or None, attribute, span name).  Functions bound under other
# names in other modules (``from x import f``, aliases) are found by identity
# and replaced there too.
WRAPPED = [
    ("repro.problems.registry", None, "get", "problems.build"),
    ("repro.chemistry.scf", "RestrictedHartreeFock", "run", "chemistry.scf"),
    ("repro.chemistry.integrals", "IntegralEngine", "electron_repulsion_tensor", "chemistry.integrals.eri"),
    ("repro.chemistry.mappings", None, "map_fermion_terms", "chemistry.mappings"),
    ("repro.chemistry.exact", None, "exact_ground_state", "chemistry.exact"),
    ("repro.operators.pauli_sum", "PauliSum", "to_sparse_matrix", "operators.sparse"),
    ("repro.bayesopt.forest", "RandomForestRegressor", "fit", "bayesopt.fit"),
    ("repro.bayesopt.forest", "RandomForestRegressor", "predict_with_uncertainty", "bayesopt.predict"),
    ("repro.bayesopt.optimizer", "BayesianOptimizer", "minimize", "bayesopt.minimize"),
    ("repro.core.search", None, "coordinate_descent", "search.refine"),
    ("repro.core.objective", "CliffordObjective", "evaluate_batch", "objective.batch"),
    ("repro.core.objective", "CliffordObjective", "__call__", "objective.point"),
    ("repro.stabilizer.tableau", "BatchedCliffordTableau", "from_program", "stabilizer.evolve"),
    ("repro.stabilizer.expectation", "PauliSumEvaluator", "expectation", "stabilizer.expectation"),
    ("repro.stabilizer.expectation", "PauliSumEvaluator", "expectation_batch", "stabilizer.expectation"),
    ("repro.core.evalcache", "EvaluationCacheBackend", "get", "evalcache.get"),
    ("repro.core.evalcache", "EvaluationCacheBackend", "put", "evalcache.put"),
    ("repro.core.evalcache", "CacheShardWriter", "flush", "evalcache.flush"),
    ("repro.core.evalcache", "SqliteCacheWriter", "flush", "evalcache.flush"),
    ("repro.core.orchestrator", None, "run_restart", "orchestrator.restart"),
    ("repro.io", None, "write_json_atomic", "orchestrator.checkpoint"),
    ("repro.service.store", "JobStore", "submit", "service.submit"),
    ("repro.service.store", "JobStore", "claim", "service.claim"),
    ("repro.service.store", "JobStore", "complete", "service.complete"),
    ("repro.service.store", "JobStore", "result", "service.result"),
]


def _batch_size(span: str, args, result):
    """States a stabilizer call processed, or points an objective batch took."""
    if span == "stabilizer.evolve":
        return result.batch_size
    if span == "stabilizer.expectation":
        tableaux = args[1]
        return getattr(tableaux, "batch_size", 1)
    if span == "objective.batch":
        return len(args[1])
    if span == "search.refine":
        return len(result[2])
    if span == "evalcache.get":
        return 0 if result is None else 1
    return 0


class Tracer:
    """Span stack plus per-span call counts, self times and item counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.items = defaultdict(int)
        self.root_s = 0.0
        self._stack = []  # [span name, start, time spent in child spans]
        self._thread = None
        self._restore = []

    # ------------------------------------------------------------------ #
    def _enter(self, name):
        self._stack.append([name, time.monotonic(), 0.0])

    def _exit(self, name):
        _, start, children = self._stack.pop()
        duration = time.monotonic() - start
        self.self_s[name] += duration - children
        self._stack[-1][2] += duration
        return duration

    def _wrap(self, function, span):
        tracer = self

        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return function(*args, **kwargs)
            tracer._enter(span)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._exit(span)
            tracer.calls[span] += 1
            tracer.items[span] += _batch_size(span, args, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", span)
        return traced

    def _patch(self, module_name, class_name, attribute, span):
        module = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, span))
            else:
                replacement = self._wrap(raw, span)
            setattr(owner, attribute, replacement)
            self._restore.append((owner, attribute, raw))
            return
        original = getattr(module, attribute)
        replacement = self._wrap(original, span)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, replacement)
                    self._restore.append((loaded, key, original))

    @contextmanager
    def root(self):
        """Install every wrapper and time the enclosed block as the root span."""
        self._thread = threading.get_ident()
        try:
            for entry in WRAPPED:
                self._patch(*entry)
            self._stack = [["root", time.monotonic(), 0.0]]
            yield self
        finally:
            _, start, children = self._stack.pop()
            self.root_s = time.monotonic() - start
            self.self_s["other"] += self.root_s - children
            for owner, attribute, original in reversed(self._restore):
                setattr(owner, attribute, original)
            self._restore = []

    # ------------------------------------------------------------------ #
    def attributed_s(self) -> float:
        """Root time covered by layer spans (everything but ``other``)."""
        return sum(value for name, value in self.self_s.items() if name != "other")

    def largest_layer(self) -> str:
        layers = {k: v for k, v in self.self_s.items() if k != "other"}
        return max(layers, key=layers.get) if layers else "other"
