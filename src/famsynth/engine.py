"""Sparse MC/MDP numeric core.

Qualitative graph analyses, min/max value iteration for reachability
probability and expected reward with the memoryless deterministic
schedulers that attain them, and an exact solver for chains that works in
integers and hands back ``Fraction``s (the oracle of the one-by-one
baseline and the test suite, and the check of singletons and feasibility
witnesses in the refinement loop).  The member checks hand it the integer
rows of the states the member reaches (``member_chain``).  An MDP with
``live`` states, such as a restriction, is solved on those alone,
ascending, so each gets the value and choice it would get with the others
numbered away.  Graph analyses index live states only, and a max
probability solve takes its 0 set from ``prob1_exists``.

Value iteration solves the states left open by the graph analyses one
strongly connected component at a time, successors first, with the
component graph taken over all actions.  A singleton component without a
self-loop takes one Bellman backup.  Every other component, a singleton
with self-loops included, is solved by policy iteration local to the
component: each policy is evaluated by one sparse elimination, and the
stable policy's values are pushed down by a small margin and accepted only
when every backup confirms they lie below the fixpoint.  The first policy
is greedy over the caller's hint, such as a split child's parent values,
or else over placeholders; the hint moves only where the search starts, so
a tie broken differently may move a certified value in its last digits.
Certified values never exceed the true fixpoint, and a plain backup never
exceeds the exact sum of its terms; callers exploit that one-sidedness.  A
component that fails certification keeps the last policy evaluated, and
the result is marked ``certified=False``: its values bound nothing, and
callers may read them only as hints, such as split scores.

Schedulers are the solver's own choices: each state takes the action that
produced its value (the argmax of its backup or the certified policy of
its component), so no second argmax pass with a tie slack re-derives them.
Every such choice leaves its component or moves towards states that do, so
a maximising scheduler cannot loiter in an end component, which a plain
argmax over the fixpoint would happily do (every Dirac self-loop ties with
the optimum there).  That holds for a component that fails certification
too: the policy it keeps was made proper.  A goal state carries no choice:
values are first-visit ones, so every solver leaves choice 0 there and no
caller reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import ModelError
from .family import (
    PROBABILITY,
    ConcreteMC,
    Specification,
    reachable_states,
)

# Policy iteration switches an action only on a relative gain above IMPROVE;
# ROUNDING per term bounds the rounding error of a backup (twice the unit
# roundoff of doubles).
IMPROVE = 2.0 ** -40
ROUNDING = 2.0 ** -52


class MdpAction(NamedTuple):
    dist: tuple[tuple[int, float], ...]
    tag: object


@dataclass
class SparseMDP:
    """Per-state action lists with sparse float successor distributions.

    ``live`` (None: every state) lists the states to solve, ascending and
    closed under successors; every other state has no action, and results
    hold placeholders there."""

    n_states: int
    initial: int
    actions: list[list[MdpAction]]
    rewards: list[float] | None = None
    live: tuple[int, ...] | None = None
    # built by the graph analyses on first use; actions are fixed from then on
    _pred_index: object = field(default=None, init=False, repr=False,
                                compare=False)

    def validate(self):
        if not 0 <= self.initial < self.n_states:
            raise ModelError("initial state out of range", code="bad-initial")
        if len(self.actions) != self.n_states:
            raise ModelError("one action list per state required",
                             code="bad-row")
        for s in _live(self):
            acts = self.actions[s]
            if not acts:
                raise ModelError(f"state {s} has no action", code="bad-row")
            for dist, _ in acts:
                total = sum(p for _, p in dist)
                if abs(total - 1.0) > 1e-9:
                    raise ModelError(
                        f"action at state {s} sums to {total!r}",
                        code="row-sum")
        return self


@dataclass(frozen=True)
class CheckResult:
    """Per state a value and the index of the action that attains it (the
    memoryless deterministic scheduler), read against the solved MDP."""

    values: tuple[float, ...]
    choices: tuple[int, ...]
    initial: int
    # True when qualitative analysis fixed the initial value to exact 0 or 1
    pinned: bool = False
    # False when some component failed certification: then no value of the
    # solve bounds its optimum, and only split scores may read them
    certified: bool = True

    @property
    def at_initial(self) -> float:
        return self.values[self.initial]


def mdp_from_mc(mc: ConcreteMC) -> SparseMDP:
    actions = [[MdpAction(tuple((t, float(p)) for t, p in mc.rows[s]), None)]
               for s in range(mc.n_states)]
    rewards = None
    if mc.rewards is not None:
        rewards = [float(r) for r in mc.rewards]
    return SparseMDP(mc.n_states, mc.initial, actions, rewards)


def _live(mdp: SparseMDP):
    """The states to solve, ascending."""
    return range(mdp.n_states) if mdp.live is None else mdp.live


# ---------------------------------------------------------------------------
# Qualitative graph analyses.  Goal states are absorbing for all of them:
# reachability is about the first visit.  Each is a linear worklist on one
# predecessor index of the live states per MDP, built on first use and
# shared by its analyses; set shrinking is tracked by per-action counters of
# successors outside the set and per-state counts of actions inside it.
# ---------------------------------------------------------------------------

class _Predecessors(NamedTuple):
    """Actions numbered consecutively over the live states: the actions of
    state ``s`` are ``base[s]``, ``base[s] + 1``, ..."""

    base: list[int]
    owner: list[int]  # state of each action
    pre: list  # per state, the actions whose distribution has it; () if dead


def _predecessors(mdp: SparseMDP) -> _Predecessors:
    index = mdp._pred_index
    if index is None:
        base = [0] * mdp.n_states
        owner = []
        pre: list = [()] * mdp.n_states
        for s in _live(mdp):
            pre[s] = []
        a = 0
        for s in _live(mdp):
            base[s] = a
            for dist, _ in mdp.actions[s]:
                owner.append(s)
                for t, _ in dist:
                    pre[t].append(a)
                a += 1
        index = mdp._pred_index = _Predecessors(base, owner, pre)
    return index


def _trim(mdp: SparseMDP, keep: set[int], allowed=None) -> set[int]:
    """Shrink ``keep`` in place to its greatest subset in which every state
    has an action (one of ``allowed[s]`` when given) whose successors all
    lie inside, and return it."""
    base, owner, pre = _predecessors(mdp)
    outside: dict[int, int] = {}  # per counted action, successors not kept
    staying: dict[int, int] = {}  # per state, counted actions fully inside
    dead = []
    for s in keep:
        acts = mdp.actions[s]
        b = base[s]
        n = 0
        for ai in range(len(acts)) if allowed is None else allowed[s]:
            c = 0
            for t, _ in acts[ai].dist:
                if t not in keep:
                    c += 1
            outside[b + ai] = c
            if not c:
                n += 1
        staying[s] = n
        if not n:
            dead.append(s)
    keep.difference_update(dead)
    while dead:
        for a in pre[dead.pop()]:
            c = outside.get(a)
            if c is None:
                continue
            outside[a] = c + 1
            s = owner[a]
            if not c and s in keep:
                staying[s] -= 1
                if not staying[s]:
                    keep.discard(s)
                    dead.append(s)
    return keep


def prob0_exists(mdp: SparseMDP, goal: frozenset[int]) -> frozenset[int]:
    """States from which some scheduler reaches the goal with probability 0.

    Greatest fixpoint of "outside the goal, some action stays inside".
    """
    return frozenset(_trim(mdp, set(_live(mdp)) - set(goal)))


def _backward_closure(mdp: SparseMDP, targets, skip: frozenset[int]) -> set[int]:
    """States with an action-path to ``targets`` that does not leave through
    ``skip`` states (their outgoing edges are ignored)."""
    _, owner, pre = _predecessors(mdp)
    seen = set(targets)
    stack = list(seen)
    while stack:
        for a in pre[stack.pop()]:
            s = owner[a]
            if s not in seen and s not in skip:
                seen.add(s)
                stack.append(s)
    return seen


def prob1_forall(mdp: SparseMDP, goal: frozenset[int],
                 avoidable: frozenset[int] | None = None) -> frozenset[int]:
    """States from which every scheduler reaches the goal with probability 1.

    Complement of "can reach a state from which the goal is avoidable";
    ``avoidable`` is ``prob0_exists(mdp, goal)`` when the caller has it.
    """
    if avoidable is None:
        avoidable = prob0_exists(mdp, goal)
    bad = _backward_closure(mdp, avoidable, skip=goal)
    return frozenset(_live(mdp)) - bad


def prob0_forall(mdp: SparseMDP, goal: frozenset[int]) -> frozenset[int]:
    """States from which no scheduler can reach the goal at all."""
    reach = _backward_closure(mdp, goal, skip=frozenset())
    return frozenset(_live(mdp)) - reach


def prob1_exists(mdp: SparseMDP, goal: frozenset[int]
                 ) -> tuple[frozenset[int], dict[int, int], frozenset[int]]:
    """States with some almost-surely goal-reaching scheduler.

    Returns the set; for each non-goal member, a witness action that stays
    inside the set and makes progress, which doubles as the maximising
    scheduler's choice there; and ``prob0_forall``'s set, the states that
    the first round, a backward search over all live states, leaves.
    """
    base, owner, pre = _predecessors(mdp)
    outside = [0] * len(owner)  # per action, successors not in the universe
    universe = set(_live(mdp))
    never = None
    while True:
        found = set(goal) & universe
        layer = list(found)
        choice: dict[int, int] = {}
        # Layered backward search over actions that stay in the universe: a
        # state of layer k takes its lowest-index such action that hits
        # layer k-1 (one hitting an earlier layer would have placed it
        # earlier), so each witness points strictly closer to the goal.
        while layer:
            picks: dict[int, int] = {}
            for t in layer:
                for a in pre[t]:
                    s = owner[a]
                    if outside[a] or s in found or s not in universe:
                        continue
                    ai = a - base[s]
                    if s not in picks or ai < picks[s]:
                        picks[s] = ai
            choice.update(picks)
            found.update(picks)
            layer = list(picks)
        if never is None:
            never = frozenset(universe - found)
        if len(found) == len(universe):
            return frozenset(universe), choice, never
        for t in universe - found:
            for a in pre[t]:
                outside[a] += 1
        universe = found


# ---------------------------------------------------------------------------
# Value iteration
# ---------------------------------------------------------------------------

def _scc_decompose(nodes, edges):
    """Strongly connected components of ``edges`` on ``nodes``, successors
    before predecessors (iterative Tarjan).

    ``edges`` maps every node to its successors, all within ``nodes``.  The
    visiting order moves only the states within a component and the
    components that do not lead to each other.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    comps: list[list[int]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(edges[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(edges[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def _backup(acts, values, maximize):
    """Best ``(value, index)`` over the actions, ties to the lowest index.

    A finite value is stepped down an ulp at a time while it exceeds the
    exact sum of the chosen action's float terms, ``num / den`` in
    integers, so it never rounds above the backup it stands for."""
    best = None
    pick = 0
    for ai, (r, dist) in enumerate(acts):
        v = r
        for t, p in dist:
            v += p * values[t]
        if best is None or (v > best if maximize else v < best):
            best = v
            pick = ai
    if math.isfinite(best):
        r, dist = acts[pick]
        num, den = r.as_integer_ratio()
        for t, p in dist:
            a, b = p.as_integer_ratio()
            c, d = values[t].as_integer_ratio()
            num, den = num * b * d + a * c * den, den * b * d
        n, d = best.as_integer_ratio()
        while n * den > num * d:
            best = math.nextafter(best, -math.inf)
            n, d = best.as_integer_ratio()
    return best, pick


def _rank_towards(pending, ranked, options):
    """Rank states by progress towards the set ``ranked``, which grows.

    Passes over ``pending`` in order until a pass ranks nothing: a state
    takes the first ``(action, dist)`` of ``options(s)`` with a successor
    already ranked, and is ranked itself.  Returns the chosen actions and
    the states left unranked, in order.
    """
    choices = {}
    progressing = True
    while progressing and pending:
        progressing = False
        remaining = []
        for s in pending:
            for ai, dist in options(s):
                if any(t in ranked for t, _ in dist):
                    choices[s] = ai
                    ranked.add(s)
                    progressing = True
                    break
            else:
                remaining.append(s)
        pending = remaining
    return choices, pending


def _split_actions(comp, rows, values):
    """Per state of ``comp``, its actions split at the component's border,
    as ``(base, scale, inner, exit, out, terms)``: ``base`` is the reward
    plus the mass-weighted values outside and ``scale`` the same sum of
    absolute terms, ``inner`` the successors inside other than the state
    itself (as positions in ``comp``), ``exit`` the mass leaving the
    component, ``out`` the mass leaving the state (its self-loop is taken
    as ``1 - out``) and ``terms`` the length of the action's backup."""
    pos = {s: i for i, s in enumerate(comp)}
    acts = []
    for s in comp:
        per = []
        for r, dist in rows[s]:
            base = r
            scale = abs(r)
            exit = 0.0
            inner = []
            for t, p in dist:
                if t == s:
                    continue
                i = pos.get(t)
                if i is None:
                    v = p * values[t]
                    base += v
                    scale += abs(v)
                    exit += p
                else:
                    inner.append((i, p))
            out = exit
            for _, p in inner:
                out += p
            per.append((base, scale, inner, exit, out, len(dist) + 2))
        acts.append(per)
    return acts


def _slack(action, x, i):
    """``out`` times (the action's backup minus ``x[i]``), which does not
    round its self-loop, and a bound on the rounding error of computing it."""
    base, scale, inner, _, out, terms = action
    v = base
    scale += out * abs(x[i])
    for j, p in inner:
        t = p * x[j]
        v += t
        scale += abs(t)
    return v - out * x[i], terms * ROUNDING * scale


def _improve(acts, x, policy, maximize):
    """Give each state the action of best value, its self-loop solved in
    closed form (pure self-loops excluded), if it beats ``x`` by a relative
    ``IMPROVE`` or the state has none yet; True if any switched."""
    switched = False
    for i, per in enumerate(acts):
        if policy[i] is None:
            best = -math.inf if maximize else math.inf
        else:
            best = x[i] + (IMPROVE if maximize else -IMPROVE) * abs(x[i])
        for ai, (base, _, inner, _, out, _) in enumerate(per):
            if out > 0.0:
                v = base
                for j, p in inner:
                    v += p * x[j]
                v /= out
                if v > best if maximize else v < best:
                    best = v
                    policy[i] = ai
                    switched = True
    return switched


def _make_proper(acts, policy):
    """Let every state that cannot leave the component under ``policy`` take
    its first action towards states that can; False if some state cannot
    leave at all."""
    n = len(acts)

    def moves(i, ai):
        _, _, inner, exit, _, _ = acts[i][ai]
        return inner + [(n, exit)] if exit > 0.0 else inner

    ranked = {n}  # n stands for every state outside the component
    _, stuck = _rank_towards(range(n), ranked,
                             lambda i: [(policy[i], moves(i, policy[i]))])
    repaired, stuck = _rank_towards(
        stuck, ranked,
        lambda i: ((ai, moves(i, ai)) for ai in range(len(acts[i]))))
    for i, ai in repaired.items():
        policy[i] = ai
    return not stuck


def _factor(chosen):
    """LU factors of ``I - P`` for the component under the actions
    ``chosen``, or None when some state cannot leave it under them.

    ``I - P`` is then an M-matrix, so elimination needs no row exchanges.
    Each pivot is recomputed from the nonnegative mass leaving its row
    (Grassmann, Taksar & Heyman, 1985) instead of by subtraction, so even a
    stiff component loses no digits to cancellation, and a zero pivot shows
    exactly that some state cannot leave.
    """
    users = [set() for _ in chosen]  # per column, the rows that have it
    rows = []
    for i, a in enumerate(chosen):
        row = {}
        for j, p in a[2]:  # a successor listed twice sums its masses
            row[j] = row.get(j, 0.0) + p
            users[j].add(i)
        rows.append(row)
    exits = [a[3] for a in chosen]
    pivots = []
    lower = []
    for k, row_k in enumerate(rows):
        d = exits[k]
        for a in row_k.values():
            d += a
        if not d > 0:
            return None
        pivots.append(d)
        multipliers = []
        for i in users[k]:
            if i <= k:
                continue
            row_i = rows[i]
            f = row_i.pop(k) / d
            multipliers.append((i, f))
            exits[i] += f * exits[k]
            for j, a in row_k.items():
                if j != i:
                    row_i[j] = row_i.get(j, 0.0) + f * a
                    users[j].add(i)
        lower.append(multipliers)
    return rows, pivots, lower


def _lu_solve(factors, rhs):
    """Solve ``(I - P) x = rhs`` with the factors from ``_factor``."""
    rows, pivots, lower = factors
    x = list(rhs)
    for k, multipliers in enumerate(lower):
        for i, f in multipliers:
            x[i] += f * x[k]
    for k in range(len(x) - 1, -1, -1):
        v = x[k]
        for j, a in rows[k].items():
            v += a * x[j]
        x[k] = v / pivots[k]
    return x


def _certify(acts, policy, chosen, factors, x, maximize):
    """``x`` pushed down to a value certified from below, or None.

    ``x`` solves the policy's equations.  The solution ``d`` of
    ``(I - P) d = (x - T x) + eta``, with ``eta`` twice each row's rounding
    bound, gives ``y = x - d`` that margin, and ``y`` is accepted only if
    every state's backup exceeds it by its rounding bound: under the policy
    when maximising, which puts ``y`` below the policy's value (the max over
    all actions would not, as the max-probability region can hold end
    components), under every action when minimising, which puts ``y`` below
    the unique fixpoint the graph analyses leave there.  An action that
    fails the minimising check becomes its state's choice in ``policy``: it
    ties with the chosen action or improves on it.
    """
    rhs = []
    for i, a in enumerate(chosen):
        gap, bound = _slack(a, x, i)
        rhs.append(2.0 * bound - gap)
    d = _lu_solve(factors, rhs)
    y = [xi - di for xi, di in zip(x, d)]
    certified = True
    for i, a in enumerate(chosen):
        for ai, b in ((policy[i], a),) if maximize else enumerate(acts[i]):
            gap, bound = _slack(b, y, i)
            if not gap >= bound:
                policy[i] = ai
                certified = False
                break
    return y if certified else None


def _policy_iteration(comp, rows, values, choices, maximize, start=None):
    """Solve the component ``comp`` directly by policy iteration, treating
    values outside it as constants; write the values and the policy into
    ``values`` and ``choices`` and return whether ``_certify`` accepts them.

    The start policy is greedy over the hint ``start`` (``values`` where
    it is None or not finite) and made proper (``_make_proper``).  Each
    round evaluates the policy by one elimination (``_factor``) and
    improves it (``_improve``); a stable policy's values go to
    ``_certify``, which may hand back a changed policy for another round.
    A repeated policy, or one that cannot be made proper, gives up and
    leaves the last policy evaluated, values and choices: they bound
    nothing, but split scores can read them.  The hint moves only where the
    search starts: a tie broken differently may move a certified value in
    its last digits.
    """
    acts = _split_actions(comp, rows, values)
    policy = [None] * len(comp)
    hint = [values[s] if start is None or not math.isfinite(start[s])
            else start[s] for s in comp]
    _improve(acts, hint, policy, maximize)
    if None in policy:
        return False  # a state with only pure self-loops
    seen = set()
    while tuple(policy) not in seen:
        seen.add(tuple(policy))
        chosen = [acts[i][ai] for i, ai in enumerate(policy)]
        factors = _factor(chosen)
        if factors is None:
            if not _make_proper(acts, policy):
                return False
            continue
        x = _lu_solve(factors, [a[0] for a in chosen])
        for s, v, ai in zip(comp, x, policy):
            values[s] = v
            choices[s] = ai
        if not _improve(acts, x, policy, maximize):
            y = _certify(acts, policy, chosen, factors, x, maximize)
            if y is not None:
                for s, v in zip(comp, y):
                    values[s] = v
                return True
    return False


def _value_iteration(rows, values, choices, maximize, start=None):
    """Solve ``values[s]`` for every state in ``rows``, in place, and set
    ``choices[s]`` to the index of the action in ``rows[s]`` that yields it;
    return whether every component was certified.

    ``rows`` maps each unsolved state, in ascending order, to its actions as
    ``(reward, dist)`` pairs; every other state keeps its value.  Components
    of the graph over all actions are solved successors first: a singleton
    without a self-loop by one backup, anything else by
    ``_policy_iteration`` from the hint ``start``, whose values are
    certified from below.  A component it cannot certify keeps the last
    policy it evaluated; components solved after it read those values, so
    one failure leaves the whole solve uncertified.
    """
    edges = {s: {t for _, dist in acts for t, _ in dist if t in rows}
             for s, acts in rows.items()}
    certified = True
    for comp in _scc_decompose(rows, edges):
        s = comp[0]
        if len(comp) == 1 and s not in edges[s]:
            values[s], choices[s] = _backup(rows[s], values, maximize)
            continue
        comp.sort()
        certified &= _policy_iteration(comp, rows, values, choices, maximize,
                                       start)
    return certified


def _stay_inside(mdp, region, choices):
    """Give each state of ``region`` its first action that stays inside."""
    for s in region:
        for ai, (dist, _) in enumerate(mdp.actions[s]):
            if all(t in region for t, _ in dist):
                choices[s] = ai
                break


def solve_prob(mdp: SparseMDP, goal: frozenset[int], direction: str, *,
               start=None) -> CheckResult:
    """Optimal reachability probabilities plus an attaining scheduler.

    Qualitative precomputation pins the direction's certain states to exact
    0/1 before iterating; ``pinned`` tells whether the initial state is one.
    ``start``, per state, is where policy iteration starts its search, such
    as the values of an MDP with more actions; it does not bound the result.
    """
    goal = frozenset(goal)
    if direction == "max":
        pin1, attractor, pin0 = prob1_exists(mdp, goal)
    elif direction == "min":
        pin0 = prob0_exists(mdp, goal)
        pin1 = prob1_forall(mdp, goal, avoidable=pin0)
    else:
        raise ValueError(f"direction must be max or min, got {direction!r}")
    values = [0.0] * mdp.n_states
    for s in pin1:
        values[s] = 1.0
    frozen = pin1 | pin0
    rows = {s: [(0.0, dist) for dist, _ in mdp.actions[s]]
            for s in _live(mdp) if s not in frozen}
    choices = [0] * mdp.n_states
    certified = _value_iteration(rows, values, choices, direction == "max",
                                 start)
    if direction == "max":
        for s, ai in attractor.items():
            choices[s] = ai
    else:
        _stay_inside(mdp, pin0, choices)
    return CheckResult(tuple(values), tuple(choices), mdp.initial,
                       mdp.initial in frozen, certified)


def solve_reward(mdp: SparseMDP, goal: frozenset[int], direction: str, *,
                 start=None) -> CheckResult:
    """Optimal expected reward accumulated until the goal is first reached.

    A state where the reward is undefined for some scheduler (``max``) or
    for every scheduler (``min``), as the goal is not reached almost surely,
    gets ``inf``, the initial state included.  ``start`` is the hint of
    ``solve_prob``.
    """
    goal = frozenset(goal)
    if mdp.rewards is None:
        raise ModelError("model carries no rewards", code="bad-reward")
    if direction == "max":
        return _solve_reward_max(mdp, goal, start)
    if direction == "min":
        return _solve_reward_min(mdp, goal, start)
    raise ValueError(f"direction must be max or min, got {direction!r}")


def _solve_reward_max(mdp, goal, start):
    avoid = prob0_exists(mdp, goal)
    sure = prob1_forall(mdp, goal, avoidable=avoid)
    values = [math.inf] * mdp.n_states
    for s in sure:
        values[s] = 0.0
    # Within the all-schedulers-sure region every action stays inside,
    # hence every policy is proper and iteration converges.
    rows = {s: [(mdp.rewards[s], dist) for dist, _ in mdp.actions[s]]
            for s in sorted(sure - goal)}
    choices = [0] * mdp.n_states
    certified = _value_iteration(rows, values, choices, True, start)
    # Infinite states must witness the infinity: steer towards the region
    # where the goal is avoidable and stay inside it, so the induced chain
    # misses the goal with positive probability.
    _stay_inside(mdp, avoid, choices)
    picked, undecided = _rank_towards(
        [s for s in _live(mdp) if s not in sure and s not in avoid],
        set(avoid),
        lambda s: ((ai, dist) for ai, (dist, _) in enumerate(mdp.actions[s])))
    assert not undecided, "every unsure state can reach the avoidable region"
    for s, ai in picked.items():
        choices[s] = ai
    return CheckResult(tuple(values), tuple(choices), mdp.initial,
                       certified=certified)


def _zero_reward_mecs(mdp, candidates, allowed):
    """Maximal end components of the sub-MDP on ``candidates`` using only
    allowed actions whose support stays inside the component."""
    result = []
    work = [set(candidates)]
    while work:
        comp = _trim(mdp, work.pop(), allowed)
        if not comp:
            continue
        edges = {}
        for s in comp:
            outs = set()
            for ai in allowed[s]:
                dist = mdp.actions[s][ai].dist
                if all(t in comp for t, _ in dist):
                    outs.update(t for t, _ in dist)
            edges[s] = sorted(outs)
        comps = [set(c) for c in _scc_decompose(sorted(comp), edges)]
        if len(comps) == 1:
            result.append(comps[0])
        else:
            work.extend(comps)
    return result


def _solve_reward_min(mdp, goal, start):
    region, attractor, _ = prob1_exists(mdp, goal)
    n = mdp.n_states
    allowed = [[] for _ in range(n)]
    for s in region:
        if s in goal:
            continue
        for ai, (dist, _) in enumerate(mdp.actions[s]):
            if all(t in region for t, _ in dist):
                allowed[s].append(ai)
        assert allowed[s], "attractor witness must stay inside the region"

    # Zero-reward end components admit free loitering, which creates spurious
    # fixpoints below the true minimum; collapse them first.
    zero = {s for s in region
            if s not in goal and mdp.rewards[s] == 0.0 and allowed[s]}
    mecs = _zero_reward_mecs(mdp, zero, allowed)
    rep = {}
    mec_of = {}
    for mec in mecs:
        r = min(mec)
        for s in mec:
            rep[s] = r
            mec_of[s] = mec
    node = lambda s: rep.get(s, s)

    nodes = sorted({node(s) for s in region})
    node_actions: dict[int, list[tuple[int, int, tuple]]] = {v: [] for v in nodes}
    for s in sorted(region):
        if s in goal:
            continue
        mec = mec_of.get(s)
        for ai in allowed[s]:
            dist = mdp.actions[s][ai].dist
            if mec is not None and all(t in mec for t, _ in dist):
                continue  # internal to the collapsed component
            if rep:  # else every node is its own state
                merged: dict[int, float] = {}
                for t, p in dist:
                    u = node(t)
                    merged[u] = merged.get(u, 0.0) + p
                dist = tuple(sorted(merged.items()))
            node_actions[node(s)].append((s, ai, dist))

    # Node values, and the hint they start from, live at the representative's
    # index; goal nodes stay 0.
    values_n = [0.0] * n
    choices_n = [0] * n
    goal_nodes = {node(g) for g in goal if g in region}
    rows = {v: [(mdp.rewards[s], dist) for s, _, dist in node_actions[v]]
            for v in nodes if v not in goal_nodes}
    certified = _value_iteration(rows, values_n, choices_n, False, start)

    values = [math.inf] * n
    for s in region:
        values[s] = values_n[node(s)]

    # Per node, the (state, action) its solved choice leaves by.
    exit_of = {v: node_actions[v][choices_n[v]][:2] for v in rows}
    choices = [0] * n
    for s in region:
        if s not in goal and s not in mec_of:
            choices[s] = exit_of[s][1]
    # Members of a collapsed component route towards its exit state using
    # internal actions, then the exit takes the chosen leaving action.
    for mec in mecs:
        exit_state, exit_action = exit_of[min(mec)]
        choices[exit_state] = exit_action
        def internal(s, mec=mec):
            for ai in allowed[s]:
                dist = mdp.actions[s][ai].dist
                if all(t in mec for t, _ in dist):
                    yield ai, dist

        picked, stuck = _rank_towards(sorted(mec - {exit_state}),
                                      {exit_state}, internal)
        assert not stuck, "end component must be internally connected"
        for s, ai in picked.items():
            choices[s] = ai
    return CheckResult(tuple(values), tuple(choices), mdp.initial,
                       certified=certified)


def induced_chain(mdp: SparseMDP, choices: tuple[int, ...]) -> ConcreteMC:
    """The chain obtained by fixing the action index ``choices[s]`` at each
    state ``s``.

    Float probabilities convert to exact rationals (binary floats are
    rationals), so the result feeds the exact oracle directly.  A state
    without actions gets an empty row."""
    rows = []
    for acts, c in zip(mdp.actions, choices):
        dist = acts[c].dist if acts else ()
        rows.append(tuple((t, Fraction(p)) for t, p in dist))
    rewards = None
    if mdp.rewards is not None:
        rewards = tuple(Fraction(r) for r in mdp.rewards)
    return ConcreteMC(mdp.n_states, mdp.initial, tuple(rows), rewards,
                      reachable_states(rows, mdp.initial), labels={})


# ---------------------------------------------------------------------------
# Exact rational oracle for chains, in integers.  The graph analyses fix the
# states whose reach probability is exactly 0 or exactly 1; they read only
# successors, so the chain's integer rows (``ConcreteMC.masses``) serve as a
# one-action MDP.  The rest is solved one SCC at a time, successors first, by
# ``_factor``'s elimination made fraction-free: clearing a column multiplies
# each row that holds it by the pivot, adds the pivot row times the row's
# entry and divides the row by the gcd of its entries.  Every state solved
# there reaches the goal (or leaves the system) with positive probability, so
# the system is a nonsingular M-matrix: no pivot vanishes, and a pivot summed
# from the mass leaving its row is the true pivot.  As in ``_split_actions``,
# a row's self-loop is one minus the mass leaving it (its own self-loop when
# it sums to exactly one), and a singleton without one takes one backup.  An
# expected reward is solved on the states that reach the goal almost surely,
# whose rows lead nowhere else; every other state keeps ``inf``, as in the
# float solver: its reward is undefined.
# ---------------------------------------------------------------------------

def _chain_sets(mc: ConcreteMC, goal: frozenset[int]
                ) -> tuple[frozenset[int], frozenset[int]]:
    """States that cannot reach ``goal`` at all, and those that reach it
    almost surely."""
    # plain (dist, tag) pairs: the analyses only unpack a chain's actions
    mdp = SparseMDP(mc.n_states, mc.initial,
                    [((row, None),) for _, row in mc.masses])
    never = prob0_forall(mdp, goal)
    return never, prob1_forall(mdp, goal, avoidable=never)


def _solve_chain(mc: ConcreteMC, unknown: set[int], values: list,
                 rewards) -> None:
    """Fill ``values`` on ``unknown`` with the solution of
    ``x_s = rewards[s] + sum(p * x_t)``, where ``values`` holds every other
    state a row of ``unknown`` leads to."""
    masses = mc.masses
    edges = {s: [t for t, _ in masses[s][1] if t in unknown]
             for s in sorted(unknown)}
    for comp in _scc_decompose(edges, edges):
        n = len(comp)
        pos = {s: i for i, s in enumerate(comp)}
        known = [[(m, values[t]) for t, m in masses[s][1] if t not in pos]
                 + [(masses[s][0], rewards[s])] for s in comp]
        common = math.lcm(*[x.denominator for xs in known for _, x in xs])
        # row i: inner entries, mass leaving at n, known part/common at n + 1
        rows = []
        for s, xs in zip(comp, known):
            row = {n + 1: sum([m * x.numerator * (common // x.denominator)
                               for m, x in xs])}
            for t, m in masses[s][1]:
                if t != s:
                    j = pos.get(t, n)
                    row[j] = row.get(j, 0) + m
            if n == 1 and s not in edges[s]:
                row[n] = masses[s][0]
            rows.append(row)
        for k, row_k in enumerate(rows):
            d = sum(row_k.values()) - row_k[n + 1]
            for i in range(k + 1, n):
                f = rows[i].pop(k, 0)
                if f:
                    row = {j: d * a for j, a in rows[i].items()}
                    for j, a in row_k.items():
                        if j != i:
                            row[j] = row.get(j, 0) + f * a
                    g = math.gcd(*row.values())
                    rows[i] = {j: a // g for j, a in row.items()}
        for k in range(n - 1, -1, -1):  # no row changes after its own step
            xs = [(a, values[comp[j]]) for j, a in rows[k].items() if j < n]
            q = math.lcm(common, *[x.denominator for _, x in xs])
            num = sum([a * x.numerator * (q // x.denominator) for a, x in xs])
            c = rows[k][n + 1]
            values[comp[k]] = Fraction(num + c * (q // common),
                                       q * (sum(rows[k].values()) - c))


def exact_mc_probability(mc: ConcreteMC, goal: frozenset[int]
                         ) -> list[Fraction]:
    """Per-state probability of reaching ``goal``, as exact rationals."""
    goal = frozenset(goal)
    never, sure = _chain_sets(mc, goal)
    n, one, zero = mc.n_states, Fraction(1), Fraction(0)
    values = [one if s in sure else zero for s in range(n)]
    _solve_chain(mc, set(range(n)) - never - sure, values, (0,) * n)
    return values


def exact_mc_reward(mc: ConcreteMC, goal: frozenset[int]
                    ) -> list[Fraction | float]:
    """Per-state expected reward until ``goal``; ``inf`` where undefined."""
    if mc.rewards is None:
        raise ModelError("model carries no rewards", code="bad-reward")
    goal = frozenset(goal)
    _, sure = _chain_sets(mc, goal)
    values: list[Fraction | float] = [
        Fraction(0) if s in goal else math.inf for s in range(mc.n_states)]
    _solve_chain(mc, sure - goal, values, mc.rewards)
    return values


def solve_mc_exact(mc: ConcreteMC, spec: Specification) -> Fraction | float:
    """The chain's value at the initial state as an exact rational, or
    ``inf`` for a reward the chain leaves undefined."""
    goal = mc.label_states(spec.goal)
    if spec.kind == PROBABILITY:
        return exact_mc_probability(mc, goal)[mc.initial]
    return exact_mc_reward(mc, goal)[mc.initial]
