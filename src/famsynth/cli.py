"""Command-line front end.

Subcommands: ``check`` (member-by-member), ``allinone`` (one product
MDP), ``synth`` (abstraction refinement) and ``gen`` (random families).
``synth`` sends its four modes through one dispatch table; they share one
refinement loop and differ only in its decision step.  Exit codes:
0 success, 1 usage, 2 parse/semantic error, 3 resource cap, 4 undefined
reward.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .errors import (
    FamsynthError,
    FormatError,
    ModelError,
    SizeCapError,
    UndefinedRewardError,
)
from .family import FamilyModel, Specification
from .fmc import parse_family, parse_spec, serialize_family
from .baselines import (
    ONE_BY_ONE_CAP,
    all_in_one_check,
    one_by_one,
    random_family,
    random_spec,
)
from .quotient import ALL_IN_ONE_CAP
from .synthesis import (
    SynthesisOutcome,
    _feasibility,
    max_synthesis,
    min_synthesis,
    threshold_synthesis,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2
EXIT_CAP = 3
EXIT_UNDEFINED = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _read_model(path: str) -> tuple[FamilyModel, dict[str, Specification]]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_family(text)


def _pick_spec(specs: dict[str, Specification], name: str | None,
               raw: str | None) -> Specification:
    if raw is not None:
        return parse_spec(raw)
    if name is not None:
        if name not in specs:
            raise ModelError(f"no spec named {name!r} in the input",
                             code="unknown-spec")
        return specs[name]
    if not specs:
        raise ModelError("the input declares no specs; pass --spec or "
                         "--spec-string", code="unknown-spec")
    return next(iter(specs.values()))


def _family_block(family: FamilyModel) -> dict:
    return {
        "states": family.n_states,
        "parameters": list(family.param_names),
        "members": family.n_realisations,
    }


def _json_value(v):
    if v is None:
        return None
    if isinstance(v, float) and math.isinf(v):
        return None
    return v


def _outcome_payload(outcome: SynthesisOutcome, family: FamilyModel,
                     spec: Specification, approach: str,
                     timings: bool) -> dict:
    payload: dict = {
        "approach": approach,
        "mode": outcome.mode,
        "spec": str(spec),
        "family": _family_block(family),
    }
    if outcome.mode == "threshold":
        counts = outcome.member_counts()
        for key, bucket in (("T", outcome.accepted),
                            ("F", outcome.rejected),
                            ("undefined", outcome.undefined)):
            payload[key] = {
                "members": counts[key],
                "subfamilies": [s.describe(family) for s in bucket],
            }
    elif outcome.mode == "feasibility":
        member = outcome.best
        payload["found"] = member is not None
        payload["member"] = member.as_dict(family) if member else None
    else:
        payload["best"] = outcome.best.as_dict(family)
        payload["value"] = _json_value(outcome.best_value)
    payload["stats"] = {
        "iterations": outcome.stats.iterations,
        "solver_calls": outcome.stats.solver_calls,
        "inherited": outcome.stats.inherited,
        "exact_calls": outcome.stats.exact_calls,
        "singletons": outcome.stats.singletons,
    }
    if timings:
        t = outcome.stats.times
        payload["timings"] = {"build": t.build, "check": t.check,
                              "analyse": t.analyse, "total": t.total}
    return payload


def _emit(payload: dict, form: str, family: FamilyModel, out=None):
    out = out if out is not None else sys.stdout
    if form == "json":
        out.write(json.dumps(payload, indent=2) + "\n")
    elif form == "csv":
        out.write(_to_csv(payload, family))
    else:
        out.write(_to_text(payload))


def _to_csv(payload: dict, family: FamilyModel) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if "T" in payload:
        writer.writerow(["bucket"] + list(family.param_names))
        for key in ("T", "F", "undefined"):
            for sub in payload[key]["subfamilies"]:
                writer.writerow(
                    [key] + ["|".join(str(v) for v in sub[name])
                             for name in family.param_names])
    elif "best" in payload:
        writer.writerow(list(family.param_names) + ["value"])
        writer.writerow([payload["best"][n] for n in family.param_names]
                        + [payload["value"]])
    else:
        writer.writerow(list(family.param_names))
        if payload["member"] is not None:
            writer.writerow([payload["member"][n]
                             for n in family.param_names])
    return buf.getvalue()


def _to_text(payload: dict) -> str:
    lines = [f"{payload.get('approach', '?')} {payload.get('mode', '')} "
             f"for {payload.get('spec', '')}".strip()]
    if "T" in payload:
        for key in ("T", "F", "undefined"):
            block = payload[key]
            lines.append(f"  {key}: {block['members']} members in "
                         f"{len(block['subfamilies'])} subfamilies")
    if "best" in payload:
        lines.append(f"  best: {payload['best']}  value: {payload['value']}")
    if "member" in payload:
        lines.append(f"  member: {payload['member']}")
    if "found" in payload:
        lines.append(f"  found: {payload['found']}")
    stats = payload.get("stats")
    if stats:
        lines.append("  stats: " + " ".join(f"{k}={v}"
                                            for k, v in stats.items()))
    if "timings" in payload:
        t = payload["timings"]
        lines.append("  times: " + " ".join(f"{k}={v:.3f}s"
                                            for k, v in t.items()))
    return "\n".join(lines) + "\n"


def _write_trace(path: str, outcome: SynthesisOutcome):
    def clean(v):
        if isinstance(v, float) and math.isinf(v):
            return "inf"
        return v

    with open(path, "w", encoding="utf-8") as handle:
        for rec in outcome.trace or []:
            handle.write(json.dumps({
                "index": rec.index,
                "subfamily": rec.subfamily,
                "size": rec.size,
                "min": clean(rec.min_value),
                "max": clean(rec.max_value),
                "decision": rec.decision,
                "split_param": rec.split_param,
                "best_value": clean(rec.best_value),
            }) + "\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sub):
    sub.add_argument("model", help="input .fmc file, or - for stdin")
    sub.add_argument("--spec", metavar="NAME",
                     help="named spec from the input (default: first)")
    sub.add_argument("--spec-string", metavar="SPEC",
                     help="ad-hoc spec string instead of a named one")
    sub.add_argument("--out", choices=("json", "csv", "text"),
                     default="json")
    sub.add_argument("--timings", action="store_true",
                     help="include wall-clock times in the output")


def build_parser() -> _Parser:
    parser = _Parser(prog="famsynth",
                     description="synthesis over families of Markov chains")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("check", help="member-by-member exact check")
    _add_common(p)
    p.add_argument("--cap", type=int, default=ONE_BY_ONE_CAP)

    p = commands.add_parser("allinone", help="solve the all-in-one MDP")
    _add_common(p)
    p.add_argument("--cap", type=int, default=ALL_IN_ONE_CAP)

    p = commands.add_parser("synth", help="abstraction-refinement synthesis")
    _add_common(p)
    p.add_argument("--mode", choices=("threshold", "max", "min",
                                      "feasibility"), default="threshold")
    p.add_argument("--trace", metavar="PATH",
                   help="write a JSON-lines refinement trace")

    p = commands.add_parser("gen", help="generate a random family document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", type=_positive_int, default=8)
    p.add_argument("--params", type=_positive_int, default=3)
    p.add_argument("--domain", type=_positive_int, default=3)
    p.add_argument("--rewards", action="store_true")
    p.add_argument("--output", metavar="PATH",
                   help="write the document here instead of stdout")
    return parser


def _cmd_check(args) -> int:
    family, specs = _read_model(args.model)
    spec = _pick_spec(specs, args.spec, args.spec_string)
    outcome = one_by_one(family, spec, cap=args.cap)
    payload = _outcome_payload(outcome, family, spec, "one-by-one",
                               args.timings)
    _emit(payload, args.out, family)
    return EXIT_OK


def _cmd_allinone(args) -> int:
    family, specs = _read_model(args.model)
    spec = _pick_spec(specs, args.spec, args.spec_string)
    result = all_in_one_check(family, spec, cap=args.cap)
    outcome = result.outcome(spec)
    payload = _outcome_payload(outcome, family, spec, "all-in-one",
                               args.timings)
    payload["member_values"] = [_json_value(v) for v in result.member_values]
    payload["minimum"] = _json_value(result.minimum)
    payload["maximum"] = _json_value(result.maximum)
    _emit(payload, args.out, family)
    return EXIT_OK


_SYNTH = {
    "threshold": threshold_synthesis,
    "max": max_synthesis,
    "min": min_synthesis,
    "feasibility": _feasibility,
}


def _cmd_synth(args) -> int:
    family, specs = _read_model(args.model)
    spec = _pick_spec(specs, args.spec, args.spec_string)
    if args.mode in ("max", "min") and spec.direction != args.mode:
        spec = Specification(kind=spec.kind, goal=spec.goal,
                             direction=args.mode)
    outcome = _SYNTH[args.mode](family, spec,
                                collect_trace=args.trace is not None)
    if args.trace:
        _write_trace(args.trace, outcome)
    _emit(_outcome_payload(outcome, family, spec, "refinement",
                           args.timings), args.out, family)
    return EXIT_OK


def _cmd_gen(args) -> int:
    family = random_family(args.seed, max_states=args.states,
                           max_params=args.params, max_domain=args.domain,
                           rewards=args.rewards)
    specs = {
        "phi": random_spec(args.seed, family),
        "obj": Specification(kind="probability", goal="goal",
                             direction="max"),
    }
    text = serialize_family(family, specs)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "allinone": _cmd_allinone,
    "synth": _cmd_synth,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"famsynth: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, ModelError) as exc:
        print(f"famsynth: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except SizeCapError as exc:
        print(f"famsynth: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UndefinedRewardError as exc:
        print(f"famsynth: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except FamsynthError as exc:
        print(f"famsynth: {exc.code}: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except OSError as exc:
        print(f"famsynth: io: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
