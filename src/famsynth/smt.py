"""SMT-LIB2 export of the scheduler-feasibility problem for expected-reward
upper bounds, and decoding of solver models back into realisations.

The encoding ranges over the merged-action quotient restricted to a
subfamily.  Per state it forces exactly one chosen action, forbids pairs of
choices that disagree on a shared parameter value, bounds the expected
reward via per-action Bellman inequalities, and pins down almost-sure goal
reachability with two layers of boolean propagation (probability one over
the states where it is not guaranteed, positive probability over the states
where some scheduler avoids the goal, acyclicity enforced by a real-valued
ranking).  Probabilities are emitted as exact rationals.  Constants are
named by family state numbers, over the states the restriction reaches.

The engine never links a solver: callers run any SMT-LIB2-compliant binary
on the emitted text and hand the model back to :func:`decode_model`.
"""

from __future__ import annotations

import os
import re
import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FamsynthError,
    MalformedModelError,
    UndefinedRewardError,
    UnsupportedSpecError,
)
from .family import (
    REWARD,
    FamilyModel,
    Realisation,
    Specification,
    Subfamily,
    member_chain,
)
from .engine import prob0_exists, prob1_forall, solve_mc_exact
from .quotient import MergedAction, RestrictedQuotient

SOLVER_ENV_VAR = "FAMSYNTH_SOLVER"


@dataclass
class SmtEncoding:
    """Emitted problem text plus the bookkeeping needed to decode a model."""

    text: str
    family: FamilyModel
    sub: Subfamily
    spec: Specification
    choice_vars: dict[str, MergedAction]
    states: tuple[int, ...]
    s_rel: frozenset[int]
    s_crit: frozenset[int]
    n_variables: int


def _rat(x: Fraction) -> str:
    if x.denominator == 1:
        return f"{x.numerator}.0"
    return f"(/ {x.numerator} {x.denominator})"


def _conj(parts: list[str]) -> str:
    if not parts:
        return "true"
    if len(parts) == 1:
        return parts[0]
    return f"(and {' '.join(parts)})"


def _disj(parts: list[str]) -> str:
    if not parts:
        return "false"
    if len(parts) == 1:
        return parts[0]
    return f"(or {' '.join(parts)})"


def encode_feasibility(restricted: RestrictedQuotient,
                       spec: Specification) -> SmtEncoding:
    """Emit the feasibility problem ``is there a member with expected reward
    at most the bound`` as an SMT-LIB2 script.

    Only ``E<=k`` specifications are supported; that is the normal form the
    encoding is defined for.
    """
    if spec.kind != REWARD or spec.relation != "<=":
        raise UnsupportedSpecError(
            "the SMT export handles only expected-reward upper bounds "
            "(E<=k); got " + str(spec))
    family = restricted.family
    if family.rewards is None:
        raise UnsupportedSpecError("the family carries no rewards")
    mdp = restricted.mdp
    states = restricted.states
    goal = family.label_states(spec.goal)
    kappa = spec.threshold
    sure = prob1_forall(mdp, goal)
    s_rel = frozenset(s for s in states if s not in sure)
    s_crit = prob0_exists(mdp, goal)
    actions = {s: [ma for _, ma in mdp.actions[s]] for s in states}

    lines: list[str] = [
        "(set-logic QF_LRA)",
        "(set-option :produce-models true)",
    ]
    choice_vars: dict[str, MergedAction] = {}
    per_state_vars: list[list[str]] = []
    n_vars = 0
    for s in states:
        lines.append(f"(declare-const e_{s} Real)")
        lines.append(f"(declare-const p1g_{s} Bool)")
        lines.append(f"(declare-const ppg_{s} Bool)")
        lines.append(f"(declare-const o_{s} Real)")
        n_vars += 4
        names = []
        for ai, ma in enumerate(actions[s]):
            name = f"ch_{s}_{ai}"
            lines.append(f"(declare-const {name} Bool)")
            choice_vars[name] = ma
            names.append(name)
            n_vars += 1
        per_state_vars.append(names)

    lines.append("; bound at the initial state, reached almost surely")
    lines.append(f"(assert (<= e_{family.initial} {_rat(kappa)}))")
    lines.append(f"(assert p1g_{family.initial})")

    lines.append("; goal states accumulate nothing")
    for s in sorted(goal.intersection(states)):
        lines.append(f"(assert (= e_{s} 0.0))")

    lines.append("; expected-reward lower bounds per chosen action")
    for s in states:
        if s in goal:
            continue
        rew = family.rewards[s]
        for ai, ma in enumerate(actions[s]):
            terms = [_rat(rew)]
            terms += [f"(* {_rat(p)} e_{t})" for t, p in ma.dist_exact]
            body = terms[0] if len(terms) == 1 else f"(+ {' '.join(terms)})"
            lines.append(f"(assert (=> ch_{s}_{ai} (>= e_{s} {body})))")

    lines.append("; exactly one action per state")
    for names in per_state_vars:
        lines.append(f"(assert {_disj(names)})")
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                lines.append(
                    f"(assert (not (and {names[i]} {names[j]})))")

    lines.append("; choices must agree on every shared parameter")
    for i, s in enumerate(states):
        for s2 in states[i + 1:]:
            for ai, ma in enumerate(actions[s]):
                a_map = ma.assignment()
                for aj, mb in enumerate(actions[s2]):
                    b_map = mb.assignment()
                    if any(a_map[k] != b_map[k] for k in a_map
                           if k in b_map):
                        lines.append(
                            f"(assert (not (and ch_{s}_{ai} "
                            f"ch_{s2}_{aj})))")

    lines.append("; almost-sure reachability where it is not guaranteed")
    for s in sorted(s_rel):
        for ai, ma in enumerate(actions[s]):
            succ = [f"p1g_{t}" for t, _ in ma.masses]
            body = f"(= p1g_{s} (and {_conj(succ)} ppg_{s}))"
            lines.append(f"(assert (=> ch_{s}_{ai} {body}))")
    for s in states:
        if s not in s_rel:
            lines.append(f"(assert p1g_{s})")

    lines.append("; positive reachability with ranking where avoidable")
    for s in sorted(s_crit):
        for ai, ma in enumerate(actions[s]):
            succ = [f"(and ppg_{t} (< o_{s} o_{t}))"
                    for t, _ in ma.masses]
            body = f"(= ppg_{s} {_disj(succ)})"
            lines.append(f"(assert (=> ch_{s}_{ai} {body}))")
    for s in states:
        if s not in s_crit:
            lines.append(f"(assert ppg_{s})")

    lines.append("(check-sat)")
    lines.append("(get-model)")
    return SmtEncoding(
        text="\n".join(lines) + "\n",
        family=family,
        sub=restricted.sub,
        spec=spec,
        choice_vars=choice_vars,
        states=states,
        s_rel=s_rel,
        s_crit=s_crit,
        n_variables=n_vars,
    )


_DEFINE_RE = re.compile(
    r"\(\s*define-fun\s+(ch_\d+_\d+)\s*\(\s*\)\s*Bool\s+(true|false)\s*\)")
_PAIR_RE = re.compile(r"\(\s*(ch_\d+_\d+)\s+(true|false)\s*\)")


def decode_model(encoding: SmtEncoding, model_text: str) -> Realisation:
    """Turn a satisfiable solver model into a member realisation.

    Reads the chosen action per state, maps the merged-action assignments to
    parameter values, completes untouched parameters with the smallest value
    in the subfamily, and verifies the result against the specification
    exactly, in rationals.
    """
    assignment: dict[str, bool] = {}
    for regex in (_DEFINE_RE, _PAIR_RE):
        for name, value in regex.findall(model_text):
            assignment[name] = value == "true"
    chosen: dict[int, MergedAction] = {}
    for name, ma in encoding.choice_vars.items():
        if assignment.get(name, False):
            if ma.state in chosen:
                raise MalformedModelError(
                    f"model chooses two actions at state {ma.state}")
            chosen[ma.state] = ma
    missing = [s for s in encoding.states if s not in chosen]
    if missing:
        raise MalformedModelError(
            f"model chooses no action at states {missing}")
    fixed: dict[int, int] = {}
    for s in sorted(chosen):
        for k, v in zip(chosen[s].params, chosen[s].values):
            if k in fixed and fixed[k] != v:
                raise MalformedModelError(
                    f"model assigns conflicting values to parameter "
                    f"{encoding.family.param_names[k]}")
            fixed[k] = v
    values = tuple(fixed.get(k, encoding.sub.subsets[k][0])
                   for k in range(encoding.family.n_params))
    realisation = Realisation(values)
    chain = member_chain(encoding.family, realisation)
    try:
        value, sat = solve_mc_exact(chain, encoding.spec)
    except UndefinedRewardError:
        raise MalformedModelError(
            "decoded realisation does not reach the goal almost surely"
        ) from None
    if not sat:
        raise MalformedModelError(
            f"decoded realisation has value {value}, violating the bound "
            f"{encoding.spec.threshold}")
    return realisation


def default_solver_command() -> list[str] | None:
    """Solver from the environment, else the first known binary on PATH."""
    env = os.environ.get(SOLVER_ENV_VAR)
    if env:
        return shlex.split(env)
    for binary in ("z3", "cvc5", "cvc4"):
        path = shutil.which(binary)
        if path:
            return [path]
    return None


def run_solver(encoding: SmtEncoding, command: list[str] | str | None = None,
               timeout: float = 60.0) -> tuple[str, str]:
    """Run an external solver on the encoding; returns (status, model text)."""
    if command is None:
        command = default_solver_command()
        if command is None:
            raise FamsynthError(
                f"no SMT solver configured; set {SOLVER_ENV_VAR} or pass "
                "--solver", code="no-solver")
    if isinstance(command, str):
        command = shlex.split(command)
    with tempfile.NamedTemporaryFile("w", suffix=".smt2",
                                     delete=False) as handle:
        handle.write(encoding.text)
        path = handle.name
    try:
        proc = subprocess.run(command + [path], capture_output=True,
                              text=True, timeout=timeout)
    finally:
        os.unlink(path)
    lines = [l.strip() for l in proc.stdout.splitlines() if l.strip()]
    status = next((l for l in lines if l in ("sat", "unsat", "unknown")),
                  None)
    if status is None:
        raise FamsynthError(
            f"solver produced no verdict (stdout: {proc.stdout[:200]!r}, "
            f"stderr: {proc.stderr[:200]!r})", code="solver")
    return status, proc.stdout
