"""Reference solution methods and the random-family generator.

The member-by-member baseline solves every realisation with the exact
rational chain solver, making it the ground truth the refinement loop and
the all-in-one baseline are tested against.  The all-in-one baseline
solves one product MDP with the floating engine.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import SizeCapError, UndefinedRewardError
from .family import (
    PROBABILITY,
    REWARD,
    FamilyModel,
    Specification,
    Subfamily,
    all_realisations,
    instantiate,
    member_chain,
)
from .engine import solve_mc_exact, solve_prob, solve_reward
from .quotient import ALL_IN_ONE_CAP, AllInOneMDP, build_all_in_one
from .synthesis import SynthesisOutcome, SynthesisStats

ONE_BY_ONE_CAP = 10 ** 6


def _check_cap(family: FamilyModel, cap: int):
    if family.n_realisations > cap:
        raise SizeCapError(
            f"family has {family.n_realisations} members, cap is {cap}")


def _outcome_from_values(family, spec, values, mode: str) -> SynthesisOutcome:
    """Shared bucketing/optimum logic over per-member values.

    ``values`` holds one entry per realisation in enumeration order; ``inf``
    marks an undefined expected reward.
    """
    outcome = SynthesisOutcome(mode=mode)
    realisations = list(all_realisations(family))
    if mode == "threshold":
        for r, v in zip(realisations, values):
            if v == math.inf:
                outcome.undefined.append(Subfamily.of_realisation(r))
            elif spec.satisfied(v):
                outcome.accepted.append(Subfamily.of_realisation(r))
            else:
                outcome.rejected.append(Subfamily.of_realisation(r))
        return outcome
    defined = [(r, v) for r, v in zip(realisations, values) if v != math.inf]
    if not defined:
        raise UndefinedRewardError(
            "no member of the family has a defined value for the objective")
    # the first of equal values, in enumeration order
    pick = max if mode == "max" else min
    outcome.best, best_v = pick(defined, key=itemgetter(1))
    outcome.best_value = float(best_v)
    return outcome


def one_by_one(family: FamilyModel, spec: Specification,
               cap: int = ONE_BY_ONE_CAP) -> SynthesisOutcome:
    """Enumerate all members and check each with the exact rational solver."""
    _check_cap(family, cap)
    t0 = time.perf_counter()
    values = [solve_mc_exact(member_chain(family, r), spec)
              for r in all_realisations(family)]
    mode = spec.direction if spec.objective_only else "threshold"
    outcome = _outcome_from_values(family, spec, values, mode)
    outcome.stats = SynthesisStats(iterations=len(values),
                                   exact_calls=len(values))
    outcome.stats.times.check = time.perf_counter() - t0
    return outcome


@dataclass
class AllInOneResult:
    """Per-member values read off the product MDP, plus family-level optima.

    ``stats`` holds the product build time (``times.build``), the solve
    time (``times.check``) and the one direction solved."""

    model: AllInOneMDP
    member_values: list[float]
    minimum: float
    maximum: float
    stats: SynthesisStats

    def outcome(self, spec: Specification) -> SynthesisOutcome:
        mode = spec.direction if spec.objective_only else "threshold"
        outcome = _outcome_from_values(self.model.family, spec,
                                       self.member_values, mode)
        outcome.stats = self.stats
        return outcome


def all_in_one_check(family: FamilyModel, spec: Specification,
                     cap: int = ALL_IN_ONE_CAP) -> AllInOneResult:
    """Solve the product MDP once; the states entered right after the initial
    member choice carry every member's value.  Past the member choice each
    state has one action, so the max direction alone gives every value.
    The values are read as they are: a solve with ``certified=False`` has
    values that bound nothing, so its members may land in the wrong
    bucket."""
    t0 = time.perf_counter()
    aio = build_all_in_one(family, cap)
    goal = aio.goal_ids(spec.goal)
    t1 = time.perf_counter()
    solve = solve_prob if spec.kind == PROBABILITY else solve_reward
    res = solve(aio.mdp, goal, "max")
    stats = SynthesisStats(iterations=1, solver_calls=1)
    stats.times.build = t1 - t0
    stats.times.check = time.perf_counter() - t1
    member_values = [res.values[aio.member_state(ri)]
                     for ri in range(len(aio.realisations))]
    finite = [v for v in member_values if not math.isinf(v)]
    minimum = min(finite) if finite else math.inf
    maximum = max(finite) if finite else math.inf
    return AllInOneResult(aio, member_values, minimum, maximum, stats)


# ---------------------------------------------------------------------------
# Random fixtures
# ---------------------------------------------------------------------------

def random_family(seed: int, *, max_states: int = 8, max_params: int = 3,
                  max_domain: int = 3, rewards: bool = False) -> FamilyModel:
    """Deterministic random family, guaranteed valid.

    Row weights are dyadic rationals (exact as floats); a ``goal`` label is
    placed on a state reachable in at least one realisation.
    """
    rng = random.Random(seed)
    n = rng.randint(2, max(2, max_states))
    n_params = rng.randint(1, max(1, max_params))
    names = tuple(f"k{i}" for i in range(n_params))
    domains = []
    for _ in range(n_params):
        size = rng.randint(1, min(max_domain, n))
        domains.append(tuple(sorted(rng.sample(range(n), size))))
    rows = []
    for _ in range(n):
        terms = rng.randint(1, min(3, n_params))
        params = sorted(rng.sample(range(n_params), terms))
        weights = _dyadic_partition(rng, terms)
        rows.append(tuple(zip(weights, params)))
    reward_tuple = None
    if rewards:
        reward_tuple = tuple(
            Fraction(rng.randint(0, 12), rng.choice([1, 2, 4]))
            for _ in range(n))
    family = FamilyModel(
        n_states=n, initial=0, param_names=names, domains=tuple(domains),
        rows=tuple(rows), rewards=reward_tuple, labels={})
    first = next(all_realisations(family))
    reachable = sorted(instantiate(family, first).reachable)
    non_initial = [s for s in reachable if s != family.initial]
    goal = rng.choice(non_initial) if non_initial else family.initial
    return FamilyModel(
        n_states=n, initial=0, param_names=names, domains=tuple(domains),
        rows=tuple(rows), rewards=reward_tuple,
        labels={"goal": frozenset({goal})})


def _dyadic_partition(rng: random.Random, parts: int) -> list[Fraction]:
    """Split 1 into ``parts`` positive dyadic weights (denominator 8)."""
    if parts == 1:
        return [Fraction(1)]
    cuts = sorted(rng.sample(range(1, 8), parts - 1))
    edges = [0] + cuts + [8]
    return [Fraction(b - a, 8) for a, b in zip(edges, edges[1:])]


def random_spec(seed: int, family: FamilyModel) -> Specification:
    """Deterministic random threshold spec against the ``goal`` label."""
    rng = random.Random(seed ^ 0x5EED)
    use_reward = family.rewards is not None and rng.random() < 0.5
    relation = rng.choice(["<", "<=", ">=", ">"])
    if use_reward:
        return Specification(kind=REWARD, goal="goal", relation=relation,
                             threshold=Fraction(rng.randint(0, 40), 4))
    threshold = Fraction(rng.randint(0, 100), 100)
    # Steer clear of the two vacuous probability bounds rejected at parse.
    if relation == ">" and threshold == 1:
        threshold = Fraction(99, 100)
    if relation == "<" and threshold == 0:
        threshold = Fraction(1, 100)
    return Specification(kind=PROBABILITY, goal="goal", relation=relation,
                         threshold=threshold)
