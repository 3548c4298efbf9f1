#!/usr/bin/env python3
"""famsynth benchmark: one workload of threshold, optimum and feasibility
queries, every answer checked against an exact oracle.

    python3 perfbench/run.py --workload prob-wide --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout.  The run sets up the workload's families
several times (import, generation, ``parse_family``) and then repeats whole
rounds of the same queries for ``--seconds``.  Every answer is checked
against the oracle outside the timers; the first round also counts the
subfamilies each query processed.  Reported times are scaled to a nominal
machine speed, measured by the reference in ``calibrate.py``.  With
``--trace 0`` the run reports the end-to-end metrics as medians over
rounds; with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import random
import resource
import statistics
import sys
import time
from typing import NamedTuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

import oracle  # noqa: E402
from calibrate import Meter  # noqa: E402
from model import to_fmc  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FEASIBILITY, OPTIMUM, THRESHOLD, WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
ENUM_CAP = 4096  # families up to this size are checked member by member
SAMPLE = 200  # members the oracle checks in larger families


class SetupError(Exception):
    pass


class Raised(NamedTuple):
    """The answer of a query that raised."""

    error: str


def import_famsynth():
    """A fresh import of famsynth from this checkout's ``src``."""
    for name in [n for n in sys.modules
                 if n == "famsynth" or n.startswith("famsynth.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        fs = importlib.import_module("famsynth")
    except ImportError as exc:
        raise SetupError(f"cannot import famsynth from {src}: {exc}") from None
    if not pathlib.Path(fs.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"famsynth imported from {fs.__file__}, not {src}")
    return fs


def setup(workload: str, seed: int, trace: bool):
    """Import, generate and parse; the last repetition's objects are used."""
    make_models, _ = WORKLOADS[workload]
    seconds, parse_s = [], []
    meter = Meter()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fs = import_famsynth()
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        models = make_models(random.Random(seed))
        families = {name: fs.parse_family(to_fmc(m))[0]
                    for name, m in models.items()}
        seconds.append(time.perf_counter() - t0)
        meter.after(seconds[-1])
        if tracer is not None:
            tracer.uninstall()
            parse_s.append(tracer.self_time["fmc.parse"])
    scale = meter.scale()
    return (fs, models, families, [t * scale for t in seconds],
            [t * scale for t in parse_s])


def answer_of(result, mode: str):
    """A hashable form of a query's answer, plus its iteration count."""
    if isinstance(result, Exception):
        return Raised(type(result).__name__), None
    if mode == THRESHOLD:
        buckets = tuple(tuple(sub.subsets for sub in bucket) for bucket in
                        (result.accepted, result.rejected, result.undefined))
        return buckets, result.stats.iterations
    if mode == OPTIMUM:
        return (result.best.values, result.best_value), result.stats.iterations
    return (result.values if result is not None else None), None


class Runner:
    def __init__(self, fs, models, families, queries, seed: int):
        self.fs = fs
        self.families = families
        self.queries = queries
        self.specs = [fs.parse_spec(q.spec) for q in queries]
        self.calls = [
            {THRESHOLD: "threshold_synthesis", FEASIBILITY: "feasibility",
             OPTIMUM: f"{spec.direction}_synthesis"}[q.mode]
            for q, spec in zip(queries, self.specs)]
        rng = random.Random(seed)
        self.oracles = {}
        for q in queries:
            kind, _, _, goal = oracle.parse_spec(q.spec)
            key = (q.model, kind, goal)
            if key not in self.oracles:
                self.oracles[key] = oracle.Oracle(models[q.model], kind, goal,
                                                  rng, ENUM_CAP, SAMPLE)
        self.verdicts: dict[tuple, str | None] = {}
        self.problems: list[str] = []
        self.subfamilies: list[int] = []

    def ask(self, i: int):
        """Run query ``i``; return its answer and the seconds it took."""
        q = self.queries[i]
        fn = getattr(self.fs, self.calls[i])
        t0 = time.perf_counter()
        try:
            result = fn(self.families[q.model], self.specs[i])
        except Exception as exc:  # a query that raises is a failed operation
            result = exc
        return result, time.perf_counter() - t0

    def verdict(self, i: int, answer) -> str | None:
        """None if the answer is right, else the reason (memoised)."""
        key = (i, answer)
        if key in self.verdicts:
            return self.verdicts[key]
        q = self.queries[i]
        kind, rel, threshold, goal = oracle.parse_spec(q.spec)
        orc = self.oracles[(q.model, kind, goal)]
        if isinstance(answer, Raised):
            why = f"raised {answer.error}"
        elif q.mode == THRESHOLD:
            why = oracle.check_threshold(orc, rel, threshold, dict(
                zip(("T", "F", "undefined"), answer)))
        elif q.mode == OPTIMUM:
            why = oracle.check_optimum(orc, rel, *answer)
        else:
            why = oracle.check_feasibility(orc, rel, threshold, answer)
        if why is not None and not q.known_fault:
            self.problems.append(f"{q.model} {q.mode} {q.spec}: {why}")
        self.verdicts[key] = why
        return why

    def round(self, count: bool = False) -> tuple[dict, dict, int]:
        """Ask every query once: seconds per mode as measured and scaled to
        the nominal machine (see ``calibrate``), and operations failed.

        With ``count`` the round also records how many subfamilies
        (restrictions) each query processed, by counting calls to
        ``QuotientMDP.restrict``: ``feasibility`` returns no statistics.
        """
        seconds = {THRESHOLD: 0.0, OPTIMUM: 0.0, FEASIBILITY: 0.0}
        failed = 0
        meters = {mode: Meter() for mode in seconds}
        cls = self.fs.quotient.QuotientMDP
        original = cls.restrict
        restricts = [0]

        def counting(quotient, sub):
            restricts[0] += 1
            return original(quotient, sub)

        if count:
            cls.restrict = counting
        try:
            for i, q in enumerate(self.queries):
                before = restricts[0]
                result, dt = self.ask(i)
                seconds[q.mode] += dt
                meters[q.mode].after(dt)
                answer, iterations = answer_of(result, q.mode)
                why = self.verdict(i, answer)
                failed += why is not None
                if not count:
                    continue
                n = restricts[0] - before
                self.subfamilies.append(n)
                if iterations is not None and iterations != n:
                    self.problems.append(
                        f"{q.model} {q.mode} {q.spec}: stats.iterations "
                        f"{iterations} but {n} restrictions")
                if why is not None:
                    print(f"# failed: {q.model} {q.mode} {q.spec}: {why}",
                          file=sys.stderr)
        finally:
            cls.restrict = original
        scaled = {m: t * meters[m].scale() for m, t in seconds.items()}
        return seconds, scaled, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(deltas: list[dict], parse_s: list[float]) -> dict:
    """Per-layer metrics as medians over the traced rounds."""
    def med(f):
        return statistics.median(f(d) for d in deltas)

    out = {"fmc.parse_s": metric(statistics.median(parse_s), "s")}
    seconds = {
        "quotient.build_s": "quotient.build",
        "quotient.restrict_s": "quotient.restrict",
        "quotient.consistency_s": "quotient.consistency",
        "engine.graph_s": "engine.graph",
        "engine.vi_s": "engine.vi",
        "engine.exact_s": "engine.exact",
        "synthesis.split_s": "synthesis.split",
        "synthesis.loop_s": "synthesis.loop",
    }
    for name, layer in seconds.items():
        out[name] = metric(med(lambda d: d["self_time"][layer]), "s")
    counts = {
        "quotient.restrict_calls": "quotient.restrict",
        "engine.graph_calls": "engine.graph",
        "engine.solve_calls": "engine.vi",
        "engine.exact_calls": "engine.exact",
    }
    for name, layer in counts.items():
        out[name] = metric(med(lambda d: d["calls"][layer]), "count")
    out["synthesis.splits"] = metric(med(lambda d: d["splits"]), "count")
    out["quotient.actions_kept"] = metric(med(lambda d: d["actions_kept"]),
                                          "count")
    out["quotient.consistent_share"] = metric(med(
        lambda d: d["consistent"] / d["checks"] if d["checks"] else 0.0),
        "ratio")
    out["synthesis.decided_share"] = metric(med(
        lambda d: 1 - d["splits"] / d["restricts"] if d["restricts"] else 0.0),
        "ratio")
    return out


def delta(before: dict, after: dict, scale: float) -> dict:
    """What one traced round added, self times scaled like the round's."""
    d = {"self_time": {k: (after["self_time"][k] - before["self_time"][k])
                       * scale for k in after["self_time"]},
         "calls": {k: after["calls"][k] - before["calls"][k]
                   for k in after["calls"]}}
    for k in ("actions_kept", "consistent", "splits", "checks", "restricts"):
        d[k] = after[k] - before[k]
    return d


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    try:
        fs, models, families, setup_s, parse_s = setup(
            args.workload, args.seed, trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _, make_queries = WORKLOADS[args.workload]
    queries = make_queries(models)
    runner = Runner(fs, models, families, queries, args.seed)

    rounds: list[dict[str, float]] = []
    traced: list[dict[str, float]] = []
    deltas: list[dict] = []
    raws: list[dict[str, float]] = []
    tracer = Tracer() if trace else None
    failed = 0
    start = time.perf_counter()
    while True:
        raw, seconds, f = runner.round(count=not rounds)
        rounds.append(seconds)
        raws.append(raw)
        failed += f
        if tracer is not None:
            tracer.install()
            before = tracer.snapshot()
            try:
                raw, seconds, f = runner.round()
            finally:
                tracer.uninstall()
            scale = sum(seconds.values()) / sum(raw.values())
            deltas.append(delta(before, tracer.snapshot(), scale))
            traced.append(seconds)
            failed += f
        if time.perf_counter() - start >= args.seconds:
            break

    attempted = len(queries) * (len(rounds) + len(traced))
    if trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = layer_metrics(deltas, parse_s)
        total = [sum(r.values()) for r in rounds]
        total_traced = [sum(r.values()) for r in traced]
        metrics["trace.overhead_s"] = metric(
            statistics.median(total_traced) - statistics.median(total), "s")
        for layer in tracer.absent:
            print(f"# absent: {layer}", file=sys.stderr)
    else:
        def per_round(mode, rounds=rounds):
            return statistics.median(r[mode] for r in rounds)

        measured = {m: per_round(m, raws) for m in raws[0]}
        print(f"# measured seconds per round, before scaling: {measured}",
              file=sys.stderr)

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": metric(statistics.median(setup_s), "s"),
            "threshold_s": metric(per_round(THRESHOLD), "s"),
            "optimum_s": metric(per_round(OPTIMUM), "s"),
            "feasibility_s": metric(per_round(FEASIBILITY), "s"),
            "subfamilies": metric(sum(runner.subfamilies), "count"),
            "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        }
    for problem in runner.problems:
        print(f"# wrong: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not runner.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
