"""Abstraction-refinement synthesis loops.

Threshold synthesis partitions a family into satisfying and violating
members; max/min synthesis finds an optimal member; feasibility stops at the
first satisfying member.  All three share the same machinery: restrict the
quotient to a subfamily, solve one direction, solve the other only when the
first cannot decide or the subfamily splits, classify or split, repeat.
Threshold and max/min synthesis lead with the direction that can decide
alone (max for ``<``/``<=`` and max objectives, min otherwise).

Feasibility, as in the paper, leads with the witness side instead (max for
``>``/``>=``, min for ``<``/``<=``): when that scheduler is consistent and
meets the bound at the initial state, its member is a candidate witness.
The candidate is confirmed with the exact rational chain solver before it
is returned, because on the min side the value bounds only the optimum
from below, not the member's own value.  A candidate that fails leaves the
subfamily to be classified and split as in threshold synthesis, and its
exact decision is remembered, so no member is solved exactly twice.

A split subfamily has solved both directions, and its two children wait in
the queue with one shared record of its restriction and results.  A child
takes a direction from that record instead of solving it when the parent's
scheduler for it keeps its chosen distribution at every state the child
holds (``quotient.inherit``).  A split keeps one half of a parameter's
values, chosen by max-versus-min choice counts, so one child usually keeps
every action of the parent's max scheduler and the other every action of
its min scheduler.  This is sound because the child's actions are a subset
of the parent's: the surviving scheduler induces the parent's chain, so the
parent's certified values stay certified for the child, and they lie
within the parent's certification margin of the child's optimum.

A split looks only at the states whose min/max gap is at least
``IMPORTANCE`` times the gap at the initial state.  Every query mode scores
a parameter the same way, by variance: how far the max and min schedulers'
choice counts for its values differ over those states.  Subfamilies are
refined first in, first out.

Classification must respect the one-sidedness of value iteration (computed
values never exceed the true fixpoint).  The side that is exact is compared
literally; the other side gets a safety margin of ``MARGIN`` unless
qualitative analysis pinned it to an exact 0 or 1, and anything still
inconclusive at a singleton is decided with the exact rational chain solver.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    SizeCapError,
    UndefinedRewardError,
    UnsupportedSpecError,
)
from .family import (
    REWARD,
    FamilyModel,
    Realisation,
    Specification,
    Subfamily,
    compare,
    instantiate,
    reachable_states,
)
from .engine import (
    CheckResult,
    Scheduler,
    solve_mc_exact,
    solve_prob,
    solve_reward,
)
from .quotient import (
    QuotientMDP,
    RestrictedQuotient,
    build_quotient,
    inherit,
    is_consistent,
    scheduler_to_realisations,
)

# A state is important for a split when its min/max gap is at least this
# share of the gap at the initial state.
IMPORTANCE = 0.5
# Threshold classification pushes the side that value iteration may
# underestimate this far towards splitting.
MARGIN = 1e-6


@dataclass
class RefinementConfig:
    """Resource cap for the refinement loop: a run that explores more than
    ``subfamily_budget`` subfamilies raises SizeCapError (None: no cap)."""

    subfamily_budget: int | None = None


@dataclass
class ScoreReport:
    """Split diagnostics: per-parameter variance scores and the selected
    predicate."""

    variance: dict[int, int]
    chosen_param: int
    chosen_values: tuple[int, ...]


@dataclass
class PhaseTimes:
    build: float = 0.0
    check: float = 0.0
    analyse: float = 0.0

    @property
    def total(self) -> float:
        return self.build + self.check + self.analyse


@dataclass
class SynthesisStats:
    iterations: int = 0
    solver_calls: int = 0
    inherited: int = 0
    exact_calls: int = 0
    singletons: int = 0
    times: PhaseTimes = field(default_factory=PhaseTimes)


@dataclass
class IterationRecord:
    index: int
    subfamily: dict[str, list[int]]
    size: int
    min_value: float | None
    max_value: float | None
    decision: str
    split_param: str | None
    best_value: float | None = None


@dataclass
class SynthesisOutcome:
    """Result of a synthesis run.

    Threshold mode fills the T/F/undefined buckets with disjoint subfamilies;
    feasibility mode fills them with the subfamilies it decided before it
    stopped; max/min mode fills ``best`` and ``best_value``.
    """

    mode: str
    accepted: list[Subfamily] = field(default_factory=list)
    rejected: list[Subfamily] = field(default_factory=list)
    undefined: list[Subfamily] = field(default_factory=list)
    best: Realisation | None = None
    best_value: float | None = None
    stats: SynthesisStats = field(default_factory=SynthesisStats)
    trace: list[IterationRecord] | None = None

    @staticmethod
    def bucket_members(bucket: list[Subfamily]) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        for sub in bucket:
            out.update(r.values for r in sub.members())
        return out

    def member_counts(self) -> dict[str, int]:
        return {
            "T": sum(s.size for s in self.accepted),
            "F": sum(s.size for s in self.rejected),
            "undefined": sum(s.size for s in self.undefined),
        }


# ---------------------------------------------------------------------------
# Splitting strategy
# ---------------------------------------------------------------------------

def _gap(hi: float, lo: float) -> float:
    if math.isinf(hi) and math.isinf(lo):
        return 0.0
    return hi - lo


def important_states(res_min: CheckResult, res_max: CheckResult,
                     restricted: RestrictedQuotient,
                     goal: frozenset[int]) -> frozenset[int]:
    """States whose min/max gap is at least ``IMPORTANCE`` times the gap at
    the initial state, restricted to states reachable under either extracted
    scheduler where the row still varies within the subfamily.

    A zero gap at the initial state yields the empty set (no split signal);
    goal states are skipped because scheduler choices there carry no
    information.  States and ``goal`` are in ``restricted.mdp`` numbers.
    """
    family = restricted.family
    states = restricted.states
    sub = restricted.sub
    mdp = restricted.mdp
    gap0 = _gap(res_max.at_initial, res_min.at_initial)
    if gap0 <= 0.0:
        return frozenset()
    reach = set()
    for res in (res_max, res_min):
        dists = [acts[c].dist
                 for acts, c in zip(mdp.actions, res.scheduler.choices)]
        reach |= reachable_states(dists, mdp.initial)
    out = set()
    for s in reach:
        if s in goal:
            continue
        if not any(len(sub.subsets[k]) > 1
                   for k in family.support(states[s])):
            continue
        gap = _gap(res_max.values[s], res_min.values[s])
        if gap >= IMPORTANCE * gap0:
            out.add(s)
    return frozenset(out)


def extract_counts(scheduler: Scheduler, important: frozenset[int],
                   restricted: RestrictedQuotient) -> dict[int, dict[int, int]]:
    """Per parameter, how often the scheduler picks each domain value over the
    important states whose row mentions the parameter."""
    family = restricted.family
    counts = {k: {t: 0 for t in family.domains[k]}
              for k in range(family.n_params)}
    for s in important:
        action = scheduler.tags[s]
        for k, v in zip(action.params, action.values):
            counts[k][v] += 1
    return counts


def _variance_score(c_max: dict[int, int], c_min: dict[int, int]) -> int:
    return sum(abs(c_max[t] - c_min[t]) for t in c_max)


def select_predicate(c_max: dict[int, dict[int, int]],
                     c_min: dict[int, dict[int, int]],
                     sub: Subfamily, family: FamilyModel) -> ScoreReport:
    """Pick the parameter with the highest variance score and the half of
    its current subset with the largest max-minus-min choice counts.

    All ties break deterministically: parameter declaration order, then
    domain order.
    """
    splittable = [k for k in range(family.n_params)
                  if len(sub.subsets[k]) > 1]
    if not splittable:
        raise AssertionError("select_predicate requires a splittable parameter")
    variance = {k: _variance_score(c_max[k], c_min[k])
                for k in range(family.n_params)}
    best = splittable[0]
    for k in splittable[1:]:
        if variance[k] > variance[best]:
            best = k
    current = sub.subsets[best]
    size = max(1, len(current) // 2)
    ranked = sorted(current, key=lambda t: -(c_max[best][t] - c_min[best][t]))
    chosen = set(ranked[:size])
    keep = tuple(t for t in current if t in chosen)
    return ScoreReport(variance=variance, chosen_param=best,
                       chosen_values=keep)


# ---------------------------------------------------------------------------
# Shared loop plumbing
# ---------------------------------------------------------------------------

@dataclass
class _Parent:
    """A split subfamily's restricted states and its solved directions."""

    states: tuple[int, ...]
    res: dict[str, CheckResult | None]


class _Loop:
    def __init__(self, family: FamilyModel, spec: Specification,
                 config: RefinementConfig, collect_trace: bool):
        self.family = family
        self.spec = spec
        self.config = config
        self.goal = family.label_states(spec.goal)
        self.stats = SynthesisStats()
        self.trace: list[IterationRecord] | None = [] if collect_trace else None
        t0 = time.perf_counter()
        self.quotient: QuotientMDP = build_quotient(family)
        self.stats.times.build += time.perf_counter() - t0
        # each queued child carries its parent's restricted states and
        # solved directions, one record shared by both siblings
        self.queue: deque[tuple[Subfamily, _Parent | None]] = deque(
            [(Subfamily.full(family), None)])
        self.total = family.n_realisations
        # exact decisions by member values
        self.exact: dict[tuple[int, ...], str] = {}

    def begin_iteration(self):
        self.stats.iterations += 1
        if self.config.subfamily_budget is not None and \
                self.stats.iterations > self.config.subfamily_budget:
            raise SizeCapError(
                f"subfamily budget of {self.config.subfamily_budget} exceeded")
        assert self.stats.iterations <= 2 * self.total - 1, \
            "refinement explored more subfamilies than the binary tree bound"

    def restrict(self, sub: Subfamily
                 ) -> tuple[RestrictedQuotient, frozenset[int]]:
        """The restriction to ``sub`` and the goal in its numbering."""
        t0 = time.perf_counter()
        restricted = self.quotient.restrict(sub)
        goal = restricted.local(self.goal)
        self.stats.times.build += time.perf_counter() - t0
        return restricted, goal

    def solve(self, restricted: RestrictedQuotient, goal: frozenset[int],
              direction: str, parent: _Parent | None) -> CheckResult | None:
        """Solve one direction; None for a reward ``min`` whose goal no
        scheduler reaches almost surely.  The parent's result is taken
        instead when its scheduler survives in ``restricted``."""
        t0 = time.perf_counter()
        try:
            if parent is not None and direction in parent.res:
                solved = parent.res[direction]
                res = inherit(parent.states, solved, restricted)
                if res is not None or solved is None:
                    self.stats.inherited += 1
                    return res
            self.stats.solver_calls += 1
            if self.spec.kind == REWARD:
                return solve_reward(restricted.mdp, goal, direction)
            return solve_prob(restricted.mdp, goal, direction)
        except UndefinedRewardError:
            return None
        finally:
            self.stats.times.check += time.perf_counter() - t0

    def split(self, sub: Subfamily, restricted: RestrictedQuotient,
              goal: frozenset[int], res: dict[str, CheckResult | None]
              ) -> str:
        """Queue the two halves of ``sub``; the split parameter's name."""
        imp = important_states(res["min"], res["max"], restricted, goal)
        c_max = extract_counts(res["max"].scheduler, imp, restricted)
        c_min = extract_counts(res["min"].scheduler, imp, restricted)
        report = select_predicate(c_max, c_min, sub, self.family)
        parent = _Parent(restricted.states, res)
        for child in sub.split(report.chosen_param, report.chosen_values):
            self.queue.append((child, parent))
        return self.family.param_names[report.chosen_param]

    def record(self, sub: Subfamily, minv, maxv, decision: str,
               split_param: str | None, best_value: float | None = None):
        if self.trace is None:
            return
        self.trace.append(IterationRecord(
            index=self.stats.iterations,
            subfamily=sub.describe(self.family),
            size=sub.size,
            min_value=minv,
            max_value=maxv,
            decision=decision,
            split_param=split_param,
            best_value=best_value,
        ))

    def classify(self, res: dict[str, CheckResult | None]) -> str | None:
        """Threshold decision from the directions solved so far."""
        pinned = "max" in res and res["max"].pinned
        return _classify_threshold(self.spec, *_bounds(res),
                                   0.0 if pinned else MARGIN)

    def settle(self, outcome: SynthesisOutcome, sub: Subfamily,
               restricted: RestrictedQuotient, goal: frozenset[int],
               res: dict[str, CheckResult | None], decision: str
               ) -> str | None:
        """File ``sub`` in the bucket ``decision`` names, or split it; the
        split parameter's name."""
        if decision == "accept":
            outcome.accepted.append(sub)
        elif decision == "reject":
            outcome.rejected.append(sub)
        elif decision == "undefined":
            outcome.undefined.append(sub)
        elif decision == "split":
            return self.split(sub, restricted, goal, res)
        return None

    def decide_exactly(self, member: Realisation) -> str:
        """Classify one member with the exact rational chain solver, at most
        once per run."""
        decision = self.exact.get(member.values)
        if decision is None:
            self.stats.exact_calls += 1
            chain = instantiate(self.family, member)
            try:
                _, sat = solve_mc_exact(chain, self.spec)
                decision = "accept" if sat else "reject"
            except UndefinedRewardError:
                decision = "undefined"
            self.exact[member.values] = decision
        return decision


def _at_initial(res: CheckResult | None) -> float:
    """A solved direction's value at the initial state; ``inf`` for a reward
    ``min`` that no scheduler defines."""
    return res.at_initial if res is not None else math.inf


def _bounds(res: dict[str, CheckResult | None]
            ) -> tuple[float | None, float | None]:
    """``(min, max)`` at the initial state, None for a direction not in
    ``res`` (not solved)."""
    return tuple(_at_initial(res[d]) if d in res else None
                 for d in ("min", "max"))


def _classify_threshold(spec: Specification, minv: float | None,
                        maxv: float | None, margin: float) -> str | None:
    """Sound subfamily classification from one-sided min/max estimates.

    ``None`` stands for a direction not solved yet (``inf`` for a reward
    ``min`` that is undefined); the result is None when the solved side
    cannot decide alone.  Accept/reject on the exact side uses the literal
    relation; the side that could be underestimated gets a margin pushed
    towards splitting (0 when the caller knows ``maxv`` is exact).
    """
    lam = float(spec.threshold)
    if spec.kind == REWARD:
        if minv is not None and math.isinf(minv):
            return "undefined"  # no scheduler at all reaches almost surely
        # a finite max means every scheduler reaches the goal almost
        # surely, hence a defined min; an infinite one needs the min
        if maxv is None:
            return None
        if math.isinf(maxv):
            # possibly mixes defined and undefined members
            return None if minv is None else "split"
    if spec.relation in ("<", "<="):
        if maxv is not None and compare(maxv, spec.relation, lam - margin):
            return "accept"
        if minv is not None and not compare(minv, spec.relation, lam):
            return "reject"
    else:
        if minv is not None and compare(minv, spec.relation, lam):
            return "accept"
        if maxv is not None and \
                not compare(maxv, spec.relation, lam - margin):
            return "reject"
    return None if minv is None or maxv is None else "split"


def threshold_synthesis(family: FamilyModel, spec: Specification,
                        config: RefinementConfig | None = None, *,
                        collect_trace: bool = False) -> SynthesisOutcome:
    """Partition the family into satisfying (T) and violating (F) members.

    Members whose expected reward is undefined land in a third bucket.
    """
    if spec.objective_only:
        raise UnsupportedSpecError("threshold synthesis needs a threshold")
    loop = _Loop(family, spec, config or RefinementConfig(), collect_trace)
    outcome = SynthesisOutcome(mode="threshold", trace=loop.trace,
                               stats=loop.stats)
    # the direction that can accept on its own goes first; the other is
    # solved only when the first cannot decide
    order = ("max", "min") if spec.relation in ("<", "<=") else ("min", "max")
    while loop.queue:
        sub, parent = loop.queue.popleft()
        loop.begin_iteration()
        restricted, goal = loop.restrict(sub)
        res: dict[str, CheckResult | None] = {}
        for direction in order:
            res[direction] = loop.solve(restricted, goal, direction, parent)
            t0 = time.perf_counter()
            decision = loop.classify(res)
            loop.stats.times.analyse += time.perf_counter() - t0
            if decision is not None:
                break
        t0 = time.perf_counter()
        if sub.is_singleton:
            loop.stats.singletons += 1
            if decision == "split":
                decision = loop.decide_exactly(sub.to_realisation())
        split_param = loop.settle(outcome, sub, restricted, goal, res,
                                  decision)
        loop.stats.times.analyse += time.perf_counter() - t0
        loop.record(sub, *_bounds(res), decision, split_param)
    return outcome


def _feasibility(family: FamilyModel, spec: Specification,
                 config: RefinementConfig, collect_trace: bool
                 ) -> tuple[SynthesisOutcome, Realisation | None]:
    if spec.objective_only:
        raise UnsupportedSpecError("feasibility needs a threshold")
    loop = _Loop(family, spec, config, collect_trace)
    outcome = SynthesisOutcome(mode="feasibility", trace=loop.trace,
                               stats=loop.stats)
    lam = float(spec.threshold)
    # the witness side holds the scheduler whose member may satisfy the
    # bound; alone it can only reject or find an undefined reward
    witness, other = (("max", "min") if spec.relation in (">=", ">")
                      else ("min", "max"))
    while loop.queue:
        sub, parent = loop.queue.popleft()
        loop.begin_iteration()
        restricted, goal = loop.restrict(sub)
        res = {witness: loop.solve(restricted, goal, witness, parent)}
        t0, check0 = time.perf_counter(), loop.stats.times.check
        decision = loop.classify(res)
        if sub.is_singleton:
            loop.stats.singletons += 1
        member = None
        if decision is None:
            value = _at_initial(res[witness])
            if not math.isinf(value) and \
                    compare(value, spec.relation, lam) and \
                    is_consistent(restricted, res[witness].scheduler)[0]:
                member = next(scheduler_to_realisations(
                    restricted, res[witness].scheduler).members())
                decision = loop.decide_exactly(member)
                if decision == "accept":
                    decision = "witness"
                elif not sub.is_singleton:
                    # the singleton's failed candidate is its exact check
                    decision = None
        if decision is None:
            res[other] = loop.solve(restricted, goal, other, parent)
            decision = loop.classify(res)
            if sub.is_singleton and decision == "split":
                decision = loop.decide_exactly(sub.to_realisation())
        split_param = loop.settle(outcome, sub, restricted, goal, res,
                                  decision)
        loop.stats.times.analyse += time.perf_counter() - t0 - (
            loop.stats.times.check - check0)
        loop.record(sub, *_bounds(res), decision, split_param)
        if decision == "witness":
            return outcome, member
        if decision == "accept":
            return outcome, next(sub.members())
    return outcome, None


def feasibility(family: FamilyModel, spec: Specification,
                config: RefinementConfig | None = None) -> Realisation | None:
    """A satisfying member, or None when no member satisfies ``spec``.

    The member is the first exactly confirmed witness-side scheduler's
    (see the module docstring), or the first member of the first subfamily
    accepted whole.
    """
    _, member = _feasibility(family, spec, config or RefinementConfig(),
                             collect_trace=False)
    return member


def _optimise(family: FamilyModel, spec: Specification,
              config: RefinementConfig, collect_trace: bool
              ) -> SynthesisOutcome:
    if not spec.objective_only:
        raise UnsupportedSpecError("max/min synthesis needs an objective-only "
                                   "specification")
    maximize = spec.direction == "max"
    loop = _Loop(family, spec, config, collect_trace)
    outcome = SynthesisOutcome(mode=spec.direction, trace=loop.trace,
                               stats=loop.stats)
    certified = -math.inf if maximize else math.inf
    bound = certified  # may run ahead of `certified` via inconsistent minima
    best: Realisation | None = None

    def better(a: float, b: float) -> bool:
        return a > b if maximize else a < b

    lead, other = ("max", "min") if maximize else ("min", "max")
    while loop.queue:
        sub, parent = loop.queue.popleft()
        loop.begin_iteration()
        restricted, goal = loop.restrict(sub)
        # the other direction is solved only for a split (which needs both
        # schedulers and raises the bound) or to tell an undefined Emax
        # subfamily from one to split
        res = {lead: loop.solve(restricted, goal, lead, parent)}
        t0, check0 = time.perf_counter(), loop.stats.times.check
        leadv = _at_initial(res[lead])
        if sub.is_singleton:
            loop.stats.singletons += 1
        split_param = None
        if res[lead] is None:
            # No scheduler reaches the goal almost surely: every member
            # of this subfamily has an undefined reward.
            decision = "discard-undefined"
        elif not better(leadv, certified) or better(bound, leadv):
            # The subfamily cannot strictly beat what is certified, or
            # sits strictly below a value some member of another
            # subfamily is known to reach.
            decision = "discard"
        elif math.isinf(leadv):
            # Reward query where the leading scheduler escapes the goal:
            # an undefined member may hide here, narrow down unless no
            # scheduler reaches the goal almost surely.
            decision = "discard-undefined"
            if not sub.is_singleton:
                res[other] = loop.solve(restricted, goal, other, parent)
                if res[other] is not None:
                    decision = "split"
        elif is_consistent(restricted, res[lead].scheduler)[0]:
            witness = scheduler_to_realisations(restricted,
                                                res[lead].scheduler)
            best = next(witness.members())
            certified = leadv
            if better(certified, bound):
                bound = certified
            decision = "improve"
        else:
            res[other] = loop.solve(restricted, goal, other, parent)
            otherv = _at_initial(res[other])
            if not math.isinf(otherv) and better(otherv, bound):
                bound = otherv
            decision = "split"
        if decision == "split":
            split_param = loop.split(sub, restricted, goal, res)
        loop.stats.times.analyse += time.perf_counter() - t0 - (
            loop.stats.times.check - check0)
        loop.record(sub, *_bounds(res), decision, split_param,
                    best_value=bound if not math.isinf(bound) else None)
    if best is None:
        raise UndefinedRewardError(
            "no member of the family has a defined value for the objective")
    outcome.best = best
    outcome.best_value = certified
    return outcome


def max_synthesis(family: FamilyModel, spec: Specification,
                  config: RefinementConfig | None = None, *,
                  collect_trace: bool = False) -> SynthesisOutcome:
    """Find a member maximising the objective (value and witness)."""
    if spec.direction != "max":
        raise UnsupportedSpecError("max_synthesis needs a *max objective")
    return _optimise(family, spec, config or RefinementConfig(),
                     collect_trace)


def min_synthesis(family: FamilyModel, spec: Specification,
                  config: RefinementConfig | None = None, *,
                  collect_trace: bool = False) -> SynthesisOutcome:
    """Find a member minimising the objective (value and witness)."""
    if spec.direction != "min":
        raise UnsupportedSpecError("min_synthesis needs a *min objective")
    return _optimise(family, spec, config or RefinementConfig(),
                     collect_trace)
