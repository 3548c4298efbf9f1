"""Abstraction-refinement synthesis loops.

Threshold synthesis partitions a family into satisfying and violating
members; max/min synthesis finds an optimal member; feasibility stops at the
first satisfying member.  All three run one loop (``_Loop.run``): take the
next subfamily, restrict the quotient to it, let the mode's step decide,
then split the subfamily or file it, and record the iteration.  The steps
differ only in the directions they solve and how they read them: each
solves one direction and the other only when the first cannot decide or
the subfamily splits.  A singleton's restriction has one action per state,
so both directions solve its member's chain: it takes the other direction
from the first instead of solving it again.  Threshold and max/min
synthesis lead with the direction that can decide alone (max for
``<``/``<=`` and max objectives, min otherwise), though threshold synthesis
takes the directions a child inherits (below) before any solve.  Max/min
synthesis stops at the first consistent scheduler pinned at exactly 1
(max) or 0 (min): that is its member's exact value, and no member beats it.

Feasibility, as in the paper, leads with the witness side instead (max for
``>``/``>=``, min for ``<``/``<=``): when that scheduler is consistent (one
value per parameter over the states it reaches before the goal) and meets
the bound at the initial state, its member is a candidate witness.
The candidate is confirmed with the exact rational chain solver before it
is returned, because on the min side the value bounds only the optimum
from below, not the member's own value.  A candidate that fails leaves the
subfamily to be classified and split as in threshold synthesis, and its
exact decision is remembered, so no member is solved exactly twice.  A
subfamily accepted whole is returned only once its first member passes the
same exact check; otherwise it is split.  Neither check is made when the
value it would confirm is pinned (below): a consistent witness pinned at 1
(max) takes ``prob1_exists``'s attractor actions, which stay inside the
set and make progress, and one pinned at 0 (min) takes ``_stay_inside``'s
actions, so its member's value is that exact 0 or 1; a max pinned at 0 and
a min pinned at 1 come from ``prob0_forall`` and ``prob1_forall`` and hold
for every member.  The graph analyses read the quotient's supports, which
are the members' exact supports: every mass ``m / den > 0`` is listed.

A split subfamily has solved both directions, and its two children wait in
the queue with one shared record of its restriction and results.  A child
takes a direction from that record instead of solving it when the parent's
scheduler for it keeps its chosen distribution at every state the child
holds (``quotient.inherit``).  A split cuts a parameter's values where
their solved values drop most, and the max scheduler tends to pick
values worth more than the min scheduler's, so often one child keeps
every action of the parent's max scheduler and the other every action of
its min scheduler.  This is sound because the child's actions are a subset
of the parent's: the surviving scheduler induces the parent's chain, so the
parent's certified values stay certified for the child, and they lie
within the parent's certification margin of the child's optimum.  A child
that cannot inherit a direction starts its solve from the parent's values
for it (restrictions keep family state numbers, so they index the child's
states), which usually leaves policy iteration fewer rounds; the start
changes only the search, so a tie broken differently may move a certified
value in its last digits.

A split looks only at the states whose min/max gap is the full gap at the
initial state, or, when fewer states than splittable parameters have it,
at least ``IMPORTANCE`` times that gap.  Every query mode scores a
splittable parameter the same way, by variance: how far the max and min
schedulers' choice counts for its values differ over those states.  A
parameter's value is a successor state, worth that state's max plus min
value.  The highest score is split, and a tie goes to the parameter whose
values spread furthest in worth.  Its values, ranked by worth, are cut at
the largest drop between neighbours, and the upper part is kept together
(``select_predicate``).

Threshold synthesis refines its subfamilies first in, first out.  Max/min
synthesis and feasibility search for one member, so they refine best first,
as branch and bound does: the queue serves first the children of the parent
whose range end on the lead side (``hi`` for max synthesis and for ``>``/
``>=`` feasibility, ``lo`` for min synthesis and for ``<``/``<=``
feasibility) is best, then the smaller child, which searches depth first
among ties, then the child queued earlier.  The order only reorders the
search: a parent's end bounds its children's optimum from one side only, so
each child still takes its own decision when it comes out of the queue.

Every decision reads one value range (``_range``): where the subfamily's
values lie at the initial state, ``lo`` from a certified min and ``hi``
from a certified max.  A direction not solved or not certified
(``CheckResult.certified``) bounds nothing and leaves its end open at
``-inf`` or ``inf``.  An end that qualitative analysis pinned
(``CheckResult.pinned``) is an exact 0 or 1 and takes the exact verdict of
that value, worked out once per query: the float threshold may round to it.
Value iteration is one-sided (computed values never exceed the true
fixpoint), so any other ``lo`` is compared with the float threshold
literally and any other ``hi`` with a margin of ``MARGIN`` towards
splitting, relative to thresholds above 1.  Threshold classification
accepts when the range's worst end meets the threshold and rejects when
its best end fails it.  An undefined reward is ``inf`` in every solve and
exact check.  A min of ``inf`` at the initial state comes only from the
graph analyses (no scheduler reaches the goal almost surely), so it sets
``lo`` certified or not and makes the subfamily undefined.  An infinite
reward ``hi`` decides nothing, as the subfamily may mix defined and
undefined members.  With both directions solved an undecided subfamily
splits, and a singleton takes its exact check with the exact rational
chain solver.  Max/min synthesis reads its lead from the same range,
discards a subfamily whose ``lo`` is ``inf`` as undefined, and discards
one whose lead cannot strictly beat the best member found: an uncertified
lead is infinite, so the subfamily splits or a singleton's member is
valued exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count

from .errors import UndefinedRewardError, UnsupportedSpecError
from .family import (
    REWARD,
    FamilyModel,
    Realisation,
    Specification,
    Subfamily,
    compare,
    member_chain,
)
from .engine import (
    CheckResult,
    solve_mc_exact,
    solve_prob,
    solve_reward,
)
from .quotient import (
    QuotientMDP,
    RestrictedQuotient,
    before_goal,
    build_quotient,
    inherit,
    is_consistent,
    scheduler_to_realisations,
)

# A state is important for a split when its min/max gap is the full gap at
# the initial state.  When fewer states than the subfamily's splittable
# parameters have it, the cut widens to this share of that gap.
IMPORTANCE = 0.5
# Threshold classification pushes the side that value iteration may
# underestimate this far towards splitting, times the threshold when it
# exceeds 1: the solver's error below the fixpoint is relative.
MARGIN = 1e-6


@dataclass
class ScoreReport:
    """Split diagnostics: the variance score of each splittable parameter
    and the selected predicate."""

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
    stopped and ``best`` with the member found; max/min mode fills ``best``
    and ``best_value``.
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
    """States whose min/max gap is the full gap at the initial state,
    among the states either scheduler reaches before the goal
    (``before_goal``: a goal state carries no choice) where the row still
    varies within the subfamily.

    When fewer states have the full gap than the subfamily has splittable
    parameters, the cut widens to ``IMPORTANCE`` times that gap: with fewer
    states than parameters the variance score leaves most parameters at
    zero, and the split falls back to declaration order.  A zero gap at the
    initial state yields the empty set (no split signal).
    """
    family = restricted.family
    gap0 = _gap(res_max.at_initial, res_min.at_initial)
    if gap0 <= 0.0:
        return frozenset()
    splittable = set(restricted.sub.splittable)
    reach = (before_goal(restricted.mdp, res_max.choices, goal)
             | before_goal(restricted.mdp, res_min.choices, goal))
    gaps = {s: _gap(res_max.values[s], res_min.values[s]) for s in reach
            if not splittable.isdisjoint(family.support(s))}
    full = frozenset(s for s, gap in gaps.items() if gap >= gap0)
    if len(full) >= len(splittable):
        return full
    return frozenset(s for s, gap in gaps.items()
                     if gap >= IMPORTANCE * gap0)


def extract_counts(choices: tuple[int, ...], important: frozenset[int],
                   restricted: RestrictedQuotient) -> dict[int, dict[int, int]]:
    """Per splittable parameter, how often the scheduler whose action
    indices are ``choices`` picks each value of its current subset over the
    important states whose row mentions the parameter."""
    sub = restricted.sub
    actions = restricted.mdp.actions
    counts = {k: dict.fromkeys(sub.subsets[k], 0) for k in sub.splittable}
    for s in important:
        action = actions[s][choices[s]].tag
        for k, v in zip(action.params, action.values):
            if k in counts:
                counts[k][v] += 1
    return counts


def _variance_score(c_max: dict[int, int], c_min: dict[int, int]) -> int:
    return sum(abs(c_max[t] - c_min[t]) for t in c_max)


def select_predicate(c_max: dict[int, dict[int, int]],
                     c_min: dict[int, dict[int, int]],
                     sub: Subfamily, v_max: tuple[float, ...],
                     v_min: tuple[float, ...]) -> ScoreReport:
    """Pick the splittable parameter with the highest variance score and the
    values of its current subset that are worth most.  The counts need
    entries only for the splittable parameters.

    ``v_max``/``v_min`` are solved values by state.  A value is a successor
    state, so its worth is ``v_max + v_min`` there.  Variance ties go to
    the parameter whose values spread furthest in worth, then by
    declaration order.  Its values are ranked by worth, larger first
    (``inf`` first, equal worth in domain order), and cut at the largest
    drop between neighbours; drop ties go to the more balanced cut, then
    the earlier one.  The upper part is kept.  Spreads and drops follow
    ``_gap``: two infinite values are 0 apart.
    """
    splittable = sub.splittable
    if not splittable:
        raise AssertionError("select_predicate requires a splittable parameter")
    variance = {k: _variance_score(c_max[k], c_min[k]) for k in splittable}

    def worth(t: int) -> float:
        return v_max[t] + v_min[t]

    def spread(k: int) -> float:
        worths = [worth(t) for t in sub.subsets[k]]
        return _gap(max(worths), min(worths))

    # max keeps the first of equal keys: declaration order, earlier cut
    top = max(variance.values())
    tied = [k for k in splittable if variance[k] == top]
    best = max(tied, key=spread)
    current = sub.subsets[best]
    ranked = sorted(current, key=lambda t: -worth(t))
    n = len(ranked)
    cut = max(range(1, n), key=lambda i: (
        _gap(worth(ranked[i - 1]), worth(ranked[i])), -abs(n - 2 * i)))
    chosen = set(ranked[:cut])
    keep = tuple(t for t in current if t in chosen)
    return ScoreReport(variance=variance, chosen_param=best,
                       chosen_values=keep)


# ---------------------------------------------------------------------------
# The refinement loop
# ---------------------------------------------------------------------------

@dataclass
class _Parent:
    """A split subfamily's MDP action lists and its solved directions."""

    actions: list
    res: dict[str, CheckResult]


class _Loop:
    def __init__(self, family: FamilyModel, spec: Specification,
                 collect_trace: bool, lead: str | None = None):
        self.family = family
        self.spec = spec
        self.goal = family.label_states(spec.goal)
        self.stats = SynthesisStats()
        self.trace: list[IterationRecord] | None = [] if collect_trace else None
        # the family's quotient, kept across queries; the rest is this query's
        t0 = time.perf_counter()
        self.quotient: QuotientMDP = build_quotient(family)
        self.stats.times.build += time.perf_counter() - t0
        # a heap of ``(key, push number, subfamily, parent)``: a search
        # with a ``lead`` direction keys a child by its parent's range end
        # on that side, best first, and by its size; threshold synthesis
        # keys every child alike, so the push number serves it first in,
        # first out.  Each queued child carries its parent's restricted
        # action lists and solved directions, one record shared by both
        # siblings
        self.lead = lead
        self.pushes = count(1)
        self.queue: list[tuple[tuple, int, Subfamily, _Parent | None]] = [
            ((), 0, Subfamily.full(family), None)]
        # exact decisions by member values
        self.exact: dict[tuple[int, ...], str] = {}
        # a binary tree over the members has this many nodes at most
        self.tree_bound = 2 * family.n_realisations - 1
        # what ``classify`` compares with, for threshold specs: the float
        # threshold, and the exact verdicts of a value pinned at 0 and at 1
        if spec.threshold is not None:
            self.lam = float(spec.threshold)
            self.margin = MARGIN * max(1.0, self.lam)
            self.pinned_verdict = (spec.satisfied(0), spec.satisfied(1))

    def run(self, outcome: SynthesisOutcome, step, stop=()):
        """Refine until the queue is empty or a decision in ``stop``.

        Each iteration restricts the quotient to the next subfamily and
        calls ``step(restricted, parent, res)``, which solves the directions
        it needs into ``res`` and returns its decision.  A singleton is never
        split: it takes its exact decision instead.  The subfamily is then
        split or filed in the bucket its decision names.
        ``times.analyse`` gets the iteration's time minus restriction and
        solving.
        """
        stats = self.stats
        buckets = {"accept": outcome.accepted, "reject": outcome.rejected,
                   "undefined": outcome.undefined}
        queue = self.queue
        while queue:
            _, _, sub, parent = heappop(queue)
            stats.iterations += 1
            assert stats.iterations <= self.tree_bound, \
                "refinement explored more subfamilies than the binary tree bound"
            t0 = time.perf_counter()
            restricted = self.quotient.restrict(sub)
            t1 = time.perf_counter()
            stats.times.build += t1 - t0
            check0 = stats.times.check
            if sub.is_singleton:
                stats.singletons += 1
            res: dict[str, CheckResult] = {}
            decision = step(restricted, parent, res)
            if decision == "split" and sub.is_singleton:
                decision = self.decide_exactly(sub.to_realisation())
            split_param = None
            if decision == "split":
                split_param = self.split(restricted, res)
            elif decision in buckets:
                buckets[decision].append(sub)
            stats.times.analyse += time.perf_counter() - t1 - (
                stats.times.check - check0)
            if self.trace is not None:
                minv, maxv = _bounds(res)
                best = outcome.best_value
                self.trace.append(IterationRecord(
                    index=stats.iterations,
                    subfamily=sub.describe(self.family), size=sub.size,
                    min_value=minv, max_value=maxv, decision=decision,
                    split_param=split_param,
                    best_value=None if best is None or math.isinf(best)
                    else best))
            if decision in stop:
                return

    def inherit(self, restricted: RestrictedQuotient, direction: str,
                parent: _Parent | None,
                res: dict[str, CheckResult]) -> bool:
        """File the parent's result for ``direction`` in ``res`` if its
        scheduler survives in ``restricted``; whether it did."""
        if parent is None or direction not in parent.res:
            return False
        t0 = time.perf_counter()
        got = inherit(parent.actions, parent.res[direction], restricted,
                      self.goal)
        self.stats.times.check += time.perf_counter() - t0
        if got is None:
            return False
        self.stats.inherited += 1
        res[direction] = got
        return True

    def solve(self, restricted: RestrictedQuotient, direction: str,
              parent: _Parent | None,
              res: dict[str, CheckResult]) -> None:
        """File ``direction`` in ``res``: inherited, or else computed."""
        if not self.inherit(restricted, direction, parent, res):
            res[direction] = self.compute(restricted, direction, parent, res)

    def compute(self, restricted: RestrictedQuotient, direction: str,
                parent: _Parent | None,
                res: dict[str, CheckResult]) -> CheckResult:
        """Solve ``direction`` without inheriting it.

        A singleton takes the other direction's result from ``res``, the
        iteration's results so far, when it is there: its restriction has
        one action per state, so both directions solve the member's chain
        and one result serves both.  Otherwise the solve starts from the
        parent's values.
        """
        t0 = time.perf_counter()
        try:
            other = res.get("min" if direction == "max" else "max")
            if restricted.sub.is_singleton and other is not None:
                self.stats.inherited += 1
                return other
            solved = None if parent is None else parent.res.get(direction)
            self.stats.solver_calls += 1
            solver = solve_reward if self.spec.kind == REWARD else solve_prob
            return solver(restricted.mdp, self.goal, direction, start=(
                None if solved is None else solved.values))
        finally:
            self.stats.times.check += time.perf_counter() - t0

    def split(self, restricted: RestrictedQuotient,
              res: dict[str, CheckResult]) -> str:
        """Queue the two halves of the restriction's subfamily, keyed for
        the lead (see ``__init__``); the split parameter's name."""
        sub = restricted.sub
        imp = important_states(res["min"], res["max"], restricted, self.goal)
        c_max = extract_counts(res["max"].choices, imp, restricted)
        c_min = extract_counts(res["min"].choices, imp, restricted)
        report = select_predicate(c_max, c_min, sub, res["max"].values,
                                  res["min"].values)
        parent = _Parent(restricted.mdp.actions, res)
        lead = self.lead
        if lead is not None:
            lo, hi = _range(res)
            end = -hi if lead == "max" else lo
        for child in sub.split(report.chosen_param, report.chosen_values):
            key = () if lead is None else (end, child.size)
            heappush(self.queue, (key, next(self.pushes), child, parent))
        return self.family.param_names[report.chosen_param]

    def classify(self, res: dict[str, CheckResult]) -> str | None:
        """Threshold decision from the ``_range`` of the directions solved
        so far; with both solved, an undecided subfamily splits."""
        lo, hi = _range(res)
        if lo == math.inf:
            return "undefined"  # no scheduler reaches the goal almost surely
        # a finite reward max means every scheduler reaches the goal almost
        # surely, hence a defined reward for every member; an infinite one
        # may mix defined and undefined members and decides nothing
        if self.spec.kind != REWARD or hi < math.inf:
            rel = self.spec.relation
            # an end pinned by qualitative analysis is an exact 0 or 1 and
            # takes its exact verdict; any other max may lie below its
            # fixpoint: push it towards splitting
            worst = (self.pinned_verdict[lo == 1.0]
                     if lo > -math.inf and res["min"].pinned
                     else compare(lo, rel, self.lam))
            best = (self.pinned_verdict[hi == 1.0]
                    if hi < math.inf and res["max"].pinned
                    else compare(hi, rel, self.lam - self.margin))
            # for ``<`` and ``<=`` the worst end is hi
            if rel in ("<", "<="):
                worst, best = best, worst
            if worst:
                return "accept"
            if not best:
                return "reject"
        return "split" if len(res) == 2 else None

    def decide_exactly(self, member: Realisation) -> str:
        """Classify one member with the exact rational chain solver, at most
        once per run."""
        decision = self.exact.get(member.values)
        if decision is None:
            value = self.value_exactly(member)
            decision = ("undefined" if value == math.inf else
                        "accept" if self.spec.satisfied(value) else "reject")
            self.exact[member.values] = decision
        return decision

    def value_exactly(self, member: Realisation):
        """One member's value from the exact rational chain solver; ``inf``
        for an undefined reward."""
        self.stats.exact_calls += 1
        return solve_mc_exact(member_chain(self.family, member), self.spec)


def _pinned_extreme(res: CheckResult, maximize: bool) -> bool:
    """Whether qualitative analysis pinned ``res`` at the initial state to
    exactly 1 (``maximize``) or 0 (otherwise), a probability no member
    beats."""
    return res.pinned and res.at_initial == (1.0 if maximize else 0.0)


def _bounds(res: dict[str, CheckResult]
            ) -> tuple[float | None, float | None]:
    """``(min, max)`` at the initial state, None for a direction not in
    ``res`` (not solved)."""
    return tuple(res[d].at_initial if d in res else None
                 for d in ("min", "max"))


def _range(res: dict[str, CheckResult]) -> tuple[float, float]:
    """``(lo, hi)``: where the subfamily's values lie at the initial state,
    read from the directions in ``res``.  ``lo`` is a certified min's value
    and ``hi`` a certified max's; an end that is not solved or not certified
    bounds nothing and is ``-inf`` or ``inf``.  A min of ``inf``, certified
    or not, is a reward that no scheduler defines: only the graph analyses
    set it."""
    lo, hi = -math.inf, math.inf
    if "min" in res and (res["min"].certified
                         or res["min"].at_initial == math.inf):
        lo = res["min"].at_initial
    if "max" in res and res["max"].certified:
        hi = res["max"].at_initial
    return lo, hi


def threshold_synthesis(family: FamilyModel, spec: Specification, *,
                        collect_trace: bool = False) -> SynthesisOutcome:
    """Partition the family into satisfying (T) and violating (F) members.

    Members whose expected reward is undefined land in a third bucket.
    """
    if spec.objective_only:
        raise UnsupportedSpecError("threshold synthesis needs a threshold")
    loop = _Loop(family, spec, collect_trace)
    outcome = SynthesisOutcome(mode="threshold", trace=loop.trace,
                               stats=loop.stats)
    # the direction that can accept on its own goes first; the other is
    # solved only when the first cannot decide
    order = ("max", "min") if spec.relation in ("<", "<=") else ("min", "max")

    def step(restricted, parent, res):
        # directions inherited from the parent cost no solve: take them
        # first, then compute the rest in order until the subfamily decides
        for direction in order:
            loop.inherit(restricted, direction, parent, res)
        for direction in order:
            if direction not in res:
                res[direction] = loop.compute(restricted, direction, parent,
                                              res)
            decision = loop.classify(res)
            if decision is not None:
                return decision

    loop.run(outcome, step)
    return outcome


def _feasibility(family: FamilyModel, spec: Specification, *,
                 collect_trace: bool = False) -> SynthesisOutcome:
    """Refine until a member is found; the member, if any, is
    ``outcome.best``."""
    if spec.objective_only:
        raise UnsupportedSpecError("feasibility needs a threshold")
    # the witness side holds the scheduler whose member may satisfy the
    # bound; alone it can only reject or find an undefined reward.  It also
    # leads the search: its end of a parent's range orders the queue
    witness, other = (("max", "min") if spec.relation in (">=", ">")
                      else ("min", "max"))
    loop = _Loop(family, spec, collect_trace, witness)
    outcome = SynthesisOutcome(mode="feasibility", trace=loop.trace,
                               stats=loop.stats)

    def step(restricted, parent, res):
        sub = restricted.sub
        loop.solve(restricted, witness, parent, res)
        decision = loop.classify(res)
        if decision is not None:
            return decision
        # a reward min that no scheduler defines was classified undefined
        found = res[witness]
        value = found.at_initial
        # a pinned witness is its member's exact 0 or 1 (module docstring)
        holds = (loop.pinned_verdict[value == 1.0] if found.pinned else
                 not math.isinf(value) and compare(value, spec.relation,
                                                   loop.lam))
        if holds and is_consistent(restricted, found.choices, loop.goal)[0]:
            member = next(scheduler_to_realisations(
                restricted, found.choices, loop.goal).members())
            decision = ("accept" if found.pinned
                        else loop.decide_exactly(member))
            if decision == "accept":
                outcome.best = member
                return "witness"
            if sub.is_singleton:
                return decision  # the failed candidate is its exact check
        loop.solve(restricted, other, parent, res)
        decision = loop.classify(res)
        # the float bounds may accept a member that misses the bound by
        # less than rounding: unless the worst end (``other``'s) is pinned,
        # accept only a confirmed member, and split otherwise (a singleton
        # then takes the same, remembered, decision)
        if decision == "accept" and not res[other].pinned and \
                loop.decide_exactly(next(sub.members())) != "accept":
            return "split"
        return decision

    loop.run(outcome, step, stop=("accept", "witness"))
    if outcome.accepted:
        outcome.best = next(outcome.accepted[0].members())
    return outcome


def feasibility(family: FamilyModel, spec: Specification
                ) -> Realisation | None:
    """A satisfying member, or None when no member satisfies ``spec``.

    The member is the first exactly confirmed witness-side scheduler's
    (see the module docstring), or the exactly confirmed first member of
    the first subfamily accepted whole, first in the loop's best-first
    order: subfamilies whose parent's witness-side bound is best come
    first, the smaller of two halves first.
    """
    return _feasibility(family, spec).best


def _optimise(family: FamilyModel, spec: Specification,
              collect_trace: bool) -> SynthesisOutcome:
    maximize = spec.direction == "max"
    lead, other = ("max", "min") if maximize else ("min", "max")
    loop = _Loop(family, spec, collect_trace, lead)
    # ``best_value`` is the value of the best member found so far
    outcome = SynthesisOutcome(mode=spec.direction, trace=loop.trace,
                               stats=loop.stats,
                               best_value=-math.inf if maximize else math.inf)

    def better(a: float, b: float) -> bool:
        return a > b if maximize else a < b

    # the other direction is solved only for a split (which needs both
    # schedulers) or to tell an undefined Emax subfamily from one to split;
    # a consistent lead pinned at exactly 1 (max) or 0 (min) is its
    # member's value and the optimum, so the subfamilies still queued are
    # dropped unsolved
    def step(restricted, parent, res):
        sub = restricted.sub
        loop.solve(restricted, lead, parent, res)
        if _range(res)[0] == math.inf:
            # No scheduler reaches the goal almost surely: every member
            # of this subfamily has an undefined reward.
            return "discard-undefined"
        # the range's end on the lead's side: hi for max, lo for min
        leadv = _range(res)[maximize]
        if sub.is_singleton and not res[lead].certified:
            # The lead bounds nothing: value the member exactly.
            leadv = float(loop.value_exactly(sub.to_realisation()))
        if not better(leadv, outcome.best_value):
            # The subfamily cannot strictly beat the best member found.
            return "discard"
        if math.isinf(leadv):
            # The lead is not certified, or it is a reward max whose
            # scheduler escapes the goal and an undefined member may hide
            # here: a singleton's member is undefined, and anything else
            # narrows down.
            if sub.is_singleton:
                return "discard-undefined"
        elif is_consistent(restricted, res[lead].choices, loop.goal)[0]:
            outcome.best = next(scheduler_to_realisations(
                restricted, res[lead].choices, loop.goal).members())
            outcome.best_value = leadv
            if _pinned_extreme(res[lead], maximize):
                loop.queue.clear()  # no member can beat an exact 1 or 0
            return "improve"
        # split, unless no scheduler reaches the goal almost surely
        loop.solve(restricted, other, parent, res)
        return "discard-undefined" if _range(res)[0] == math.inf else "split"

    loop.run(outcome, step)
    if outcome.best is None:
        raise UndefinedRewardError(
            "no member of the family has a defined value for the objective")
    return outcome


def max_synthesis(family: FamilyModel, spec: Specification, *,
                  collect_trace: bool = False) -> SynthesisOutcome:
    """Find a member maximising the objective (value and witness)."""
    if spec.direction != "max":
        raise UnsupportedSpecError("max_synthesis needs a *max objective")
    return _optimise(family, spec, collect_trace)


def min_synthesis(family: FamilyModel, spec: Specification, *,
                  collect_trace: bool = False) -> SynthesisOutcome:
    """Find a member minimising the objective (value and witness)."""
    if spec.direction != "min":
        raise UnsupportedSpecError("min_synthesis needs a *min objective")
    return _optimise(family, spec, collect_trace)
