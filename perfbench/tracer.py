"""Spans around famsynth's public functions, recorded from outside.

Each traced function is wrapped and the wrapper is bound in place of the
original name in every famsynth module that holds it (``solve_prob`` lives
in ``engine`` and is looked up again from ``synthesis``), and methods are
replaced on their class.  A span records its layer, start, end and parent;
a layer's self time is the span's duration minus its child spans.  Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute or Class.method, layer).  A layer groups the functions
# whose self time it reports.
TARGETS = (
    ("famsynth.fmc", "parse_family", "fmc.parse"),
    ("famsynth.quotient", "build_quotient", "quotient.build"),
    ("famsynth.quotient", "QuotientMDP.restrict", "quotient.restrict"),
    ("famsynth.quotient", "is_consistent", "quotient.consistency"),
    ("famsynth.quotient", "scheduler_to_realisations", "quotient.consistency"),
    ("famsynth.engine", "prob0_exists", "engine.graph"),
    ("famsynth.engine", "prob1_exists", "engine.graph"),
    ("famsynth.engine", "prob1_forall", "engine.graph"),
    ("famsynth.engine", "prob0_forall", "engine.graph"),
    ("famsynth.engine", "solve_prob", "engine.vi"),
    ("famsynth.engine", "solve_reward", "engine.vi"),
    ("famsynth.engine", "solve_mc_exact", "engine.exact"),
    ("famsynth.synthesis", "important_states", "synthesis.split"),
    ("famsynth.synthesis", "extract_counts", "synthesis.split"),
    ("famsynth.synthesis", "select_predicate", "synthesis.split"),
    ("famsynth.synthesis", "threshold_synthesis", "synthesis.loop"),
    ("famsynth.synthesis", "feasibility", "synthesis.loop"),
    ("famsynth.synthesis", "max_synthesis", "synthesis.loop"),
    ("famsynth.synthesis", "min_synthesis", "synthesis.loop"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS))


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = []  # [span index, child time]
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.calls = {layer: 0 for layer in LAYERS}
        self.fn_calls = {attr: 0 for _, attr, _ in TARGETS}
        self.actions_kept = 0
        self.consistent = 0
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, attr: str, layer: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (layer, start, end, parent)
                duration = end - start
                tracer.self_time[layer] += duration - frame[1]
                tracer.calls[layer] += 1
                tracer.fn_calls[attr] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result)
            return result

        return traced

    def _count_actions(self, restricted):
        self.actions_kept += sum(len(a) for a in restricted.mdp.actions)

    def _count_consistent(self, result):
        self.consistent += bool(result[0])

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        self.absent = []
        after = {"QuotientMDP.restrict": self._count_actions,
                 "is_consistent": self._count_consistent}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "famsynth" or name.startswith("famsynth.")]
        for module_name, attr, layer in TARGETS:
            home = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, method, None) if owner else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            traced = self._wrap(original, attr, layer, after.get(attr))
            if owner_name:
                self._bind(owner, method, traced)
                continue
            for module in modules:
                if getattr(module, method, None) is original:
                    self._bind(module, method, traced)

    def _bind(self, owner, name: str, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def snapshot(self) -> dict:
        return {"self_time": dict(self.self_time), "calls": dict(self.calls),
                "actions_kept": self.actions_kept,
                "consistent": self.consistent,
                "checks": self.fn_calls["is_consistent"],
                "splits": self.fn_calls["select_predicate"],
                "restricts": self.fn_calls["QuotientMDP.restrict"]}

    def write(self, path):
        """Write every span as one JSON line: layer, start, end, parent."""
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                layer, start, end, parent = span
                out.write(json.dumps({"id": i, "layer": layer,
                                      "start": start, "end": end,
                                      "parent": parent}) + "\n")
