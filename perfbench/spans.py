"""Span tracing of erlweak's public functions, installed from outside `src/`.

`install` wraps every public function of each erlweak module and rebinds the
wrapper under the same name in the defining module, in every erlweak module
that imported it with `from .x import y`, and in the package namespace, so
calls through any of those names are recorded. Two methods are wrapped on
their class: `GaussianState.__post_init__` (the validation, including the
eigvalsh restriction check, that every state construction pays) and
`ExperimentConfig.evolved_joint`.

Spans live in memory as [name, start, end, parent index, op id] and are
written out once, after the traced round. Work counts (rows, samples,
accepted, chunks, bytes) are added at the same boundaries.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import math
import time

LAYERS = ("states", "dynamics", "analytic", "montecarlo", "bounds", "verify", "cli")


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_experiment(counts, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = a["config"].n_samples
    counts["montecarlo.run_weak_experiment.samples"] += n
    counts["montecarlo.run_weak_experiment.accepted"] += result.n_accepted
    counts["montecarlo.run_weak_experiment.chunks"] += math.ceil(n / a["chunk_size"])


def _count_sample_state(counts, fn, args, kwargs, result):
    counts["montecarlo.sample_state.rows"] += result.shape[0]
    counts["montecarlo.sample_state.bytes_materialised"] += result.nbytes


def _count_apply_to_points(counts, fn, args, kwargs, result):
    counts["dynamics.apply_to_points.rows"] += result.shape[0]


COUNTERS = {
    "montecarlo.run_weak_experiment": _count_experiment,
    "montecarlo.sample_state": _count_sample_state,
    "dynamics.apply_to_points": _count_apply_to_points,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.op: int | None = None
        self.enabled = False

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                counter(self.counts, fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap erlweak's public functions and the two traced methods."""
        modules = {layer: importlib.import_module(f"erlweak.{layer}") for layer in LAYERS}
        holders = [*modules.values(), importlib.import_module("erlweak")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", obj)
                for holder in holders:
                    if vars(holder).get(attr) is obj:
                        setattr(holder, attr, traced)
        state_cls = modules["states"].GaussianState
        state_cls.__post_init__ = self.wrap("states.GaussianState", state_cls.__post_init__)
        config_cls = modules["montecarlo"].ExperimentConfig
        config_cls.evolved_joint = self.wrap(
            "montecarlo.ExperimentConfig.evolved_joint", config_cls.evolved_joint
        )

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total duration, self time (duration minus
        the time covered by child spans), and calls per op id."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "ops": collections.Counter()})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[i]
            s["ops"][op] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
