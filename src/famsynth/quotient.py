"""Quotient MDP under forgetting, plus the all-in-one MDP.

The quotient exposes, at every state, one merged action per distinct
successor distribution reachable by assigning the parameters that occur in
that state's row.  Each merged action is keyed by a partial parameter
assignment (its *signature*); signatures that induce the same distribution
are unified and represented by the lexicographically smallest surviving
signature.

Nothing is set up per state in advance.  A restriction that first reaches a
state builds its table: the memo and its key below, and the signatures
grouped in integer arithmetic, with each group's float distribution and
first signature.  Each group keeps its integer masses over the row's common
denominator, from which a merged action makes its exact distribution only
when it is read.  A state whose row holds one parameter has one Dirac group
per domain value.  When the support's domains are pairwise disjoint, no two
signatures share a distribution, so every signature is its own group and no
grouping key is looked up; otherwise a signature's key is its sorted
``(successor, summed numerator)`` pairs.

A restriction that keeps every value of each parameter in a state's support
(the full family, and every state a split does not narrow) emits the
groups' first signatures in group order, with no signature product.  Any
other restriction enumerates only the signatures that survive it, in
order, and the first survivor of each group represents it.  Either way a
signature's action is built the first time it represents its group.
Unification is redone per enumeration so that signatures of one
distribution falling on different sides of a split each keep their own copy.

A state's action list depends only on the value subsets of its support, so
the quotient memoises it under them.  A child of a split re-enumerates only
the states whose support holds the split parameter; siblings and cousins hit
the memo too.

A restriction keeps family state numbers.  Its MDP holds each state the
initial state reaches under the surviving actions with that state's
memoised action list itself, not a copy, lists those states ascending as
its ``live`` states, and gives every other state an empty list, so the
engine solves no dead state.  Solving ``live`` in family order keeps every
tie the engine breaks by state index, so a reached state gets the value and
choice it would get in the whole state space.  A child's MDP shares its
parent's list object at every state whose support lacks the split
parameter, which is what ``inherit`` skips, along with goal states.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import ConsistencyError, SizeCapError
from .family import (
    FamilyModel,
    Realisation,
    Subfamily,
    all_realisations,
    integer_row,
    merged_row,
)
from .engine import CheckResult, MdpAction, SparseMDP

ALL_IN_ONE_CAP = 100_000


class MergedAction(NamedTuple):
    """One quotient action's tag: a partial assignment over the parameters
    in the state's row plus the exact distribution it induces.

    The distribution is kept as ``masses``, ascending ``(successor,
    numerator)`` pairs over the row's common denominator ``den``.  The
    action's ``MdpAction.dist`` holds their float values, ``m / den``
    correctly rounded; the exact ``dist_exact`` is made from the same
    integers when it is read."""

    params: tuple[int, ...]
    values: tuple[int, ...]
    masses: tuple[tuple[int, int], ...]
    den: int

    @property
    def dist_exact(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple([(t, Fraction(m, self.den)) for t, m in self.masses])


class _Table(NamedTuple):
    """One state's table, built on first reach.  ``key`` gives a
    subfamily's memo key, the value subsets of the state's support
    ``params``; ``whole`` is the key of the whole domains, and ``memo``
    maps a key to the action list and its distinct successors (lists are
    never mutated).
    ``signatures`` are in domain order; ``group`` gives each one's group
    and ``first`` each group's first signature (both ranges when every
    signature is its own group).  ``dists`` holds each group's float
    distribution and its integer masses over ``den``, and ``successors``
    every domain value of the support.  ``offsets`` give each supported
    value's share of a signature's index (mixed radix, last fastest) and
    ``actions`` (per signature) fill in on use."""

    params: tuple[int, ...]
    key: Callable[[tuple], tuple]
    whole: tuple
    memo: dict[tuple, tuple]
    signatures: list[tuple[int, ...]]
    group: Sequence[int]
    first: Sequence[int]
    dists: list[tuple[tuple, tuple]]
    den: int
    successors: tuple[int, ...]
    offsets: list[dict[int, int]]
    actions: dict[int, MdpAction]


class QuotientMDP:
    """Merged-action quotient of a family.  Its per-state tables and memos
    fill in as restrictions reach states and change no answer."""

    def __init__(self, family: FamilyModel):
        self.family = family
        # Per state: its table, built by ``_build`` on first reach.
        self._tables: list[_Table | None] = [None] * family.n_states
        self._rewards_float = (None if family.rewards is None else
                               [r.numerator / r.denominator
                                for r in family.rewards])

    def _build(self, s: int) -> _Table:
        """Build and keep the table of state ``s``.  Weights and masses are
        integer numerators over the row's common denominator
        (``integer_row``): one positive scale keeps the groups that the
        exact rational sums give.  A one-parameter row has weight 1, so its
        groups are its domain values, one Dirac distribution each.  Over
        pairwise disjoint domains every signature is its own group; else a
        signature's group key is its sorted ``(successor, numerator)``
        pairs, summed over repeated successors."""
        family = self.family
        supp = family.support(s)
        key = itemgetter(*supp)
        whole = key(family.domains)
        if len(supp) == 1:
            every = range(len(whole))
            table = self._tables[s] = _Table(
                supp, key, whole, {}, [(v,) for v in whole], every, every,
                [(((v, 1.0),), ((v, 1),)) for v in whole], 1, whole, [], {})
            return table
        den, terms = integer_row([(k, p) for p, k in family.rows[s]])
        weight = dict(terms)
        weights = [weight[k] for k in supp]
        sigs = list(product(*whole))
        successors = set().union(*whole)
        if len(successors) == sum(map(len, whole)):
            floats = [m / den for m in weights]
            group = first = range(len(sigs))
            dists = [(tuple(sorted(zip(sig, floats))),
                      tuple(sorted(zip(sig, weights)))) for sig in sigs]
        else:
            groups: dict[tuple[tuple[int, int], ...], int] = {}
            group, first, dists = [], [], []
            for i, sig in enumerate(sigs):
                if len(set(sig)) == len(sig):
                    masses = tuple(sorted(zip(sig, weights)))
                else:
                    merged: dict[int, int] = {}
                    for t, w in zip(sig, weights):
                        merged[t] = merged.get(t, 0) + w
                    masses = tuple(sorted(merged.items()))
                gid = groups.setdefault(masses, len(groups))
                if gid == len(first):
                    first.append(i)
                    dists.append((tuple([(t, m / den) for t, m in masses]),
                                  masses))
                group.append(gid)
        table = self._tables[s] = _Table(
            supp, key, whole, {}, sigs, group, first, dists, den,
            tuple(successors), [], {})
        return table

    def action_counts(self) -> tuple[int, ...]:
        """Distinct merged actions per state for the full family."""
        return tuple(len((table or self._build(s)).dists)
                     for s, table in enumerate(self._tables))

    @property
    def n_actions(self) -> int:
        return sum(self.action_counts())

    def restrict(self, sub: Subfamily) -> "RestrictedQuotient":
        """The merged actions whose signatures survive ``sub``, on the states
        the initial state reaches with them.

        The walk from the initial state looks up each reached state's action
        list under the value subsets of its support; only a miss enumerates
        it.  A child therefore misses only at the states whose support holds
        the split parameter.  The memoised lists go into the MDP as they
        are, in family numbers.
        """
        family = self.family
        subsets = sub.subsets
        tables = self._tables
        actions: list[list[MdpAction]] = [[]] * family.n_states
        found = {family.initial}
        stack = [family.initial]
        while stack:
            s = stack.pop()
            table = tables[s] or self._build(s)
            key = table.key(subsets)
            hit = table.memo.get(key)
            if hit is None:
                hit = table.memo[key] = self._enumerate(s, table, key,
                                                        subsets)
            actions[s] = hit[0]
            for t in hit[1]:
                if t not in found:
                    found.add(t)
                    stack.append(t)
        live = tuple(sorted(found))
        mdp = SparseMDP(family.n_states, family.initial, actions,
                        self._rewards_float, live)
        return RestrictedQuotient(self, sub, mdp)

    def _enumerate(self, s: int, table: _Table, key: tuple,
                   subsets: tuple[tuple[int, ...], ...]
                   ) -> tuple[list[MdpAction], tuple[int, ...]]:
        """The actions of state ``s`` under ``subsets``, whose memo key is
        ``key``, and their distinct successors.  Each group is represented
        by its first surviving signature in domain order, and the actions
        are in the order of these.  Where ``key`` keeps whole domains every
        signature survives, so they are the groups' first signatures in
        group order; otherwise the surviving signatures are enumerated as
        sorted indices and skipped once their group is represented."""
        group, dists = table.group, table.dists
        if key == table.whole:
            order, successors = table.first, table.successors
        else:
            successors = None
            if not table.offsets:
                stride = 1
                for k in reversed(table.params):
                    domain = self.family.domains[k]
                    table.offsets.insert(
                        0, {v: i * stride for i, v in enumerate(domain)})
                    stride *= len(domain)
            picks = [[off[v] for v in subsets[k]]
                     for k, off in zip(table.params, table.offsets)]
            if len(picks) == 1:
                survivors = sorted(picks[0])
            else:
                survivors = sorted(map(sum, product(*picks)))
            order = []
            seen: set[int] = set()
            for i in survivors:
                gid = group[i]
                if gid not in seen:
                    seen.add(gid)
                    order.append(i)
                    if len(seen) == len(dists):
                        break
        supp, sigs, den = table.params, table.signatures, table.den
        cache = table.actions
        per_state: list[MdpAction] = []
        for i in order:
            action = cache.get(i)
            if action is None:
                dist, masses = dists[group[i]]
                action = cache[i] = MdpAction(
                    dist, MergedAction(supp, sigs[i], masses, den))
            per_state.append(action)
        if successors is None:
            successors = tuple({t for dist, _ in per_state for t, _ in dist})
        return per_state, successors


def build_quotient(family: FamilyModel) -> QuotientMDP:
    return QuotientMDP(family)


@dataclass
class RestrictedQuotient:
    """A restriction of the quotient to a subfamily.  ``mdp`` is numbered
    like the family; its ``live`` states are those the initial state
    reaches, ascending."""

    quotient: QuotientMDP
    sub: Subfamily
    mdp: SparseMDP

    @property
    def family(self) -> FamilyModel:
        return self.quotient.family


def inherit(parent_actions: list[list[MdpAction]],
            result: CheckResult,
            child: RestrictedQuotient,
            goal: frozenset[int]) -> CheckResult | None:
    """``result``, solved on the parent restriction whose ``mdp.actions``
    are ``parent_actions``, as a result on ``child``, a restriction to a
    subfamily of the parent's; None unless at every state of ``child``
    outside ``goal`` the child keeps an action with the distribution the
    parent's scheduler chose there.

    Values, ``pinned`` and ``certified`` are kept; the choices index the
    child's own actions, so consistency checks and witnesses stay inside the
    child's subfamily, and ``result`` itself is returned when none moved.
    An ``inf``, a reward left undefined, is kept like any other value: the
    kept scheduler's chain misses the goal there as the parent's did.  A
    goal state carries no choice (a first-visit value never reads it), and
    a child state whose action list is the parent's own object keeps the
    parent's choice unchecked: that holds wherever the memo key, the value
    subsets of the state's support, did not change.

    Sound because the child's actions at each state are a subset of the
    parent's, and the chosen ones survive at every state of the child
    outside the goal, so the scheduler induces the parent's chain on those
    states up to the first visit of the goal.  With
    ``y`` the parent's certified values, ``v^σ`` that chain's and ``v*`` the
    optima: for max ``y ≤ v^σ ≤ v*_child ≤ v*_parent``, for min
    ``y ≤ v*_parent ≤ v*_child ≤ v^σ``.  Each kept value is thus certified
    exactly as the parent's was, and lies within the parent's certification
    margin of the child's optimum.  Survival only on the states the
    scheduler reaches would not do: the values at the other states feed the
    split analysis, and where the chosen action is gone they need not bound
    the child's optimum there.
    """
    moved = None  # a copy of the choices once one of them moves
    actions = child.mdp.actions
    for s in child.mdp.live:
        acts = actions[s]
        if acts is parent_actions[s] or s in goal:
            continue
        dist = parent_actions[s][result.choices[s]].dist
        for c, (d, _) in enumerate(acts):
            if d == dist:
                break
        else:
            return None
        if c != result.choices[s]:
            moved = moved or list(result.choices)
            moved[s] = c
    return result if moved is None else CheckResult(
        result.values, tuple(moved), result.initial, result.pinned,
        result.certified)


def before_goal(mdp: SparseMDP, choices: Sequence[int],
                goal: frozenset[int]) -> set[int]:
    """The states the chain that the action indices ``choices`` induce
    reaches from the initial state before ``goal``.  The walk ends at goal
    states and reads no choice there: a first-visit value never uses it."""
    found = set() if mdp.initial in goal else {mdp.initial}
    stack = list(found)
    while stack:
        s = stack.pop()
        for t, _ in mdp.actions[s][choices[s]].dist:
            if t not in found and t not in goal:
                found.add(t)
                stack.append(t)
    return found


def _reachable_choices(restricted: RestrictedQuotient,
                       choices: tuple[int, ...], goal: frozenset[int]):
    """Collect the value per parameter that the action indices ``choices``
    pick over the states they reach before ``goal`` (``before_goal``); stop
    at the first conflict.  The conflict witness is ``(param, state,
    state)``."""
    actions = restricted.mdp.actions
    chosen: dict[int, tuple[int, int]] = {}
    for s in sorted(before_goal(restricted.mdp, choices, goal)):
        action: MergedAction = actions[s][choices[s]].tag
        for k, v in zip(action.params, action.values):
            prev = chosen.get(k)
            if prev is None:
                chosen[k] = (v, s)
            elif prev[0] != v:
                return chosen, (k, prev[1], s)
    return chosen, None


def is_consistent(restricted: RestrictedQuotient, choices: tuple[int, ...],
                  goal: frozenset[int]
                  ) -> tuple[bool, tuple[int, int, int] | None]:
    """Does the scheduler whose action indices are ``choices`` pick a single
    value per parameter over the states it actually reaches before
    ``goal``?  Returns a witness ``(param, state, state)`` if not."""
    _, conflict = _reachable_choices(restricted, choices, goal)
    return conflict is None, conflict


def scheduler_to_realisations(restricted: RestrictedQuotient,
                              choices: tuple[int, ...],
                              goal: frozenset[int]) -> Subfamily:
    """The subfamily a consistent scheduler, given by its action indices
    ``choices``, corresponds to: parameters it fixes before ``goal`` become
    singletons, untouched parameters keep their subsets."""
    chosen, conflict = _reachable_choices(restricted, choices, goal)
    if conflict is not None:
        k, s1, s2 = conflict
        name = restricted.family.param_names[k]
        raise ConsistencyError(
            f"scheduler picks conflicting values for {name} at states "
            f"{s1} and {s2}")
    subsets = tuple(
        (chosen[k][0],) if k in chosen else restricted.sub.subsets[k]
        for k in range(restricted.family.n_params))
    return Subfamily(subsets)


@dataclass
class AllInOneMDP:
    """Realisation-indexed product MDP: the fresh initial picks a member,
    afterwards each state carries that member's single action."""

    mdp: SparseMDP
    family: FamilyModel
    realisations: list[Realisation]
    state_info: list[tuple[int, int] | None]
    state_id: dict[tuple[int, int], int]

    def goal_ids(self, label: str) -> frozenset[int]:
        goal = self.family.label_states(label)
        return frozenset(i for i, info in enumerate(self.state_info)
                         if info is not None and info[0] in goal)

    def member_state(self, r_index: int) -> int:
        return self.state_id[(self.family.initial, r_index)]


def build_all_in_one(family: FamilyModel,
                     cap: int = ALL_IN_ONE_CAP) -> AllInOneMDP:
    """Build the reachable fragment of the all-in-one MDP.

    A member's row of a state is realised only when the walk reaches the
    state under it.  The size is proportional to states times members, so
    a cap guards it.
    """
    weight = family.n_states * family.n_realisations
    if weight > cap:
        raise SizeCapError(
            f"all-in-one MDP needs {weight} state slots, cap is {cap}")
    realisations = list(all_realisations(family))
    state_info: list[tuple[int, int] | None] = [None]
    state_id: dict[tuple[int, int], int] = {}

    def intern(s: int, ri: int) -> int:
        key = (s, ri)
        idx = state_id.get(key)
        if idx is None:
            idx = len(state_info)
            state_id[key] = idx
            state_info.append(key)
        return idx

    actions: list[list[MdpAction]] = [[]]
    for ri in range(len(realisations)):
        target = intern(family.initial, ri)
        actions[0].append(MdpAction(((target, 1.0),), ri))
    frontier = 1
    while frontier < len(state_info):
        s, ri = state_info[frontier]
        den, row = merged_row(family.rows[s], realisations[ri].values)
        dist = tuple((intern(t, ri), m / den) for t, m in row)
        actions.append([MdpAction(dist, ri)])
        frontier += 1
    rewards = None
    if family.rewards is not None:
        rewards = [0.0] + [float(family.rewards[info[0]])
                           for info in state_info[1:]]
    mdp = SparseMDP(len(state_info), 0, actions, rewards).validate()
    return AllInOneMDP(mdp, family, realisations, state_info, state_id)

