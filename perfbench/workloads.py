"""The three workloads: which families they build and which queries they ask.

Family structure is fixed by the structure seeds below, so every benchmark
seed poses equally hard problems; the benchmark seed chooses how each family
is presented (a random numbering of its states) and which members the
oracle samples.  The stiff ladder is the exception: its rungs are fixed
inputs, because some of its queries fail today (see ``Query``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import generators as gen
import oracle
from model import Model, relabel

THRESHOLD = "threshold"
OPTIMUM = "optimum"
FEASIBILITY = "feasibility"

@dataclass(frozen=True)
class Query:
    """One operation.  ``known_fault`` marks the stiff-ladder queries that
    fail today: value iteration stops on a residual of 1e-8 and the loop
    trusts it to within a 1e-6 margin (ROADMAP item 1)."""

    model: str
    mode: str
    spec: str
    known_fault: bool = False


def _spec(kind: str, relation: str, threshold: Fraction, goal: str) -> str:
    # The parser rejects the vacuous probability bounds P<0 and P>1.
    if kind == oracle.PROB and (relation, threshold) in (("<", 0), (">", 1)):
        relation += "="
    return f'{kind}{relation}{threshold} F "{goal}"'


# ---------------------------------------------------------------------------
# prob-wide: large quotients, many shared parameters, probability queries
# ---------------------------------------------------------------------------

def prob_wide_models(rng: random.Random) -> dict[str, Model]:
    return {
        # the ROADMAP item-2 family: 123 states, 4096 members, 921 actions
        "rf3": gen.random_family(rng, 3, max_states=300, max_params=10,
                                 max_domain=4, rewards=True),
        # 36 states, 256 members; Pmax splits on ties in the sure region
        "rf1": gen.random_family(rng, 1, max_states=150, max_params=10,
                                 max_domain=4, rewards=True),
        "maze": relabel(gen.maze(random.Random(1), 5, 5, 6, 3), rng),
    }


def prob_wide_queries(models) -> list[Query]:
    return [
        Query("rf3", THRESHOLD, 'P<=7/10 F "goal"'),
        Query("maze", THRESHOLD, 'P>=19/100 F "goal"'),
        Query("rf1", OPTIMUM, 'Pmax F "goal"'),
        Query("maze", OPTIMUM, 'Pmax F "goal"'),
        Query("rf3", FEASIBILITY, 'P>=1 F "goal"'),
        Query("maze", FEASIBILITY, 'P>=4/5 F "goal"'),
    ]


# ---------------------------------------------------------------------------
# reward-deep: expected-reward queries where value iteration dominates
# ---------------------------------------------------------------------------

def reward_deep_models(rng: random.Random) -> dict[str, Model]:
    return {
        "pipeline": relabel(gen.pipeline(random.Random(1), 4, 3), rng),
        "rf16": gen.random_family(rng, 16, max_states=60, max_params=8,
                                  max_domain=4, rewards=True),
        "rf24": gen.random_family(rng, 24, max_states=60, max_params=8,
                                  max_domain=4, rewards=True),
    }


def reward_deep_queries(models) -> list[Query]:
    return [
        Query("pipeline", THRESHOLD, 'E<=70 F "done"'),
        Query("rf24", THRESHOLD, 'E<=20 F "goal"'),
        Query("pipeline", OPTIMUM, 'Emin F "done"'),
        Query("rf16", OPTIMUM, 'Emin F "goal"'),
        Query("rf24", OPTIMUM, 'Emax F "goal"'),
        Query("pipeline", FEASIBILITY, 'E<=40 F "done"'),
        Query("rf16", FEASIBILITY, 'E<=8 F "goal"'),
        Query("rf24", FEASIBILITY, 'E<=3 F "goal"'),
        Query("rf24", FEASIBILITY, 'E<=2 F "goal"'),  # no member: None
    ]


# ---------------------------------------------------------------------------
# numeric-edge: stiff and slowly mixing chains, thresholds at exact values
# ---------------------------------------------------------------------------

LADDER = {f"ladder{k}": Fraction(10 ** k - 1, 10 ** k) for k in (3, 4, 5, 6)}

# small dyadic families like those of the acceptance corpus
BOUNDARY_SEEDS = tuple(range(100))
SLOW_SEEDS = (0, 1, 3)


def numeric_edge_models(rng: random.Random) -> dict[str, Model]:
    models = {name: gen.ladder(loop) for name, loop in LADDER.items()}
    for s in BOUNDARY_SEEDS:
        models[f"b{s}"] = gen.random_family(
            rng, s, max_states=8, max_params=3, max_domain=3,
            rewards=s % 2 == 0)
    # the prob-wide maze; a third of its members never reach the goal
    models["maze"] = relabel(gen.maze(random.Random(1), 5, 5, 6, 3), rng)
    for s in SLOW_SEEDS:
        models[f"slow{s}"] = relabel(
            gen.slow_mixing(random.Random(s), 6, 3, 3, Fraction(63, 64)),
            rng)
    return models


def numeric_edge_queries(models) -> list[Query]:
    queries = [
        Query("ladder3", THRESHOLD, 'P<=0.4995 F "goal"'),
        Query("ladder3", OPTIMUM, 'Pmax F "goal"', known_fault=True),
        Query("ladder3", FEASIBILITY, 'P>=0.4999 F "goal"'),
        Query("ladder4", THRESHOLD, 'P>=0.4999 F "goal"'),
        Query("ladder5", THRESHOLD, 'P<=0.4995 F "goal"', known_fault=True),
        Query("ladder5", THRESHOLD, 'P>=0.4999 F "goal"', known_fault=True),
        Query("ladder6", THRESHOLD, 'P<=0.4995 F "goal"', known_fault=True),
    ]
    # every member of value 0 ties with the threshold and needs an exact
    # leaf check: the 1e-6 margin keeps the bounds from deciding it
    queries.append(Query("maze", THRESHOLD, 'P<=0 F "goal"'))
    relations = ("<", "<=", ">=", ">")
    for i, s in enumerate(BOUNDARY_SEEDS):
        name = f"b{s}"
        model = models[name]
        pick = random.Random(s)
        kind = oracle.REWARD if model.rewards is not None else oracle.PROB
        member = tuple(pick.choice(dom) for _, dom in model.params)
        value = oracle.member_value(model, kind, "goal", member)
        if value is None:
            kind = oracle.PROB
            value = oracle.member_value(model, kind, "goal", member)
        relation = relations[i % 4]
        spec = _spec(kind, relation, value, "goal")
        queries.append(Query(name, THRESHOLD, spec))
        if i % 4 == 1:
            queries.append(Query(name, FEASIBILITY, spec))
        if i % 4 == 3:
            queries.append(Query(name, OPTIMUM, f'{kind}max F "goal"'))
    for s in SLOW_SEEDS:
        name = f"slow{s}"
        model = models[name]
        values = sorted({oracle.member_value(model, oracle.REWARD, "goal", m)
                         for m in product(*(d for _, d in model.params))}
                        - {None})
        # halfway between two member values: no exact leaf, but value
        # iteration must converge before the loop can decide
        mid = (values[len(values) // 2 - 1] + values[len(values) // 2]) / 2
        queries.append(Query(name, THRESHOLD, f'E<={mid} F "goal"'))
        queries.append(Query(name, OPTIMUM, 'Emin F "goal"'))
    return queries


WORKLOADS = {
    "prob-wide": (prob_wide_models, prob_wide_queries),
    "reward-deep": (reward_deep_models, reward_deep_queries),
    "numeric-edge": (numeric_edge_models, numeric_edge_queries),
}
