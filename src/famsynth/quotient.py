"""Quotient MDP under forgetting, plus the all-in-one MDP.

A family has one quotient, made by ``build_quotient`` on the first call and
kept for the family's lifetime: every query on the family restricts it.

The quotient exposes, at every state, one merged action per distinct
successor distribution reachable by assigning the parameters that occur in
that state's row.  Each merged action is keyed by a partial parameter
assignment (its *signature*); signatures that induce the same distribution
are unified and represented by the lexicographically smallest surviving
signature.

Nothing is set up per state in advance.  A restriction that first reaches a
state makes its record: the memo and its key below, and the row's weights
as integer numerators over its common denominator.  A state's action list
depends only on the value subsets of its support, so the quotient memoises
it under them.  A memo miss enumerates the signatures that survive the
subfamily, in domain order, and the first signature of each distinct
distribution represents it, so that where a split separates the signatures
of one distribution each side keeps a representative.  Masses are summed in
integers, so signatures group exactly.  A signature keeps one action object
across enumerations, and the signatures of one distribution share its float
``dist``; a merged action makes its exact distribution only when it is read.
A child of a split re-enumerates only the states whose support holds the
split parameter; siblings and cousins hit the memo too.

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


class _Record(NamedTuple):
    """One state's record, made on first reach.  ``key`` gives a
    subfamily's memo key, the value subsets of the state's support
    ``params``, and ``memo`` maps a key to the action list and its distinct
    successors (lists are never mutated).  ``weights`` are the row's
    integer numerators over ``den``, one per supported parameter.
    ``actions`` keeps one action per signature, and ``dists`` one shared
    ``(dist, masses)`` pair per distinct distribution, keyed by its
    masses."""

    params: tuple[int, ...]
    key: Callable[[tuple], tuple]
    memo: dict[tuple, tuple]
    weights: list[int]
    den: int
    actions: dict[tuple[int, ...], MdpAction]
    dists: dict[tuple[tuple[int, int], ...], tuple[tuple, tuple]]


class QuotientMDP:
    """Merged-action quotient of a family.  Its per-state records and memos
    fill in as restrictions reach states and change no answer."""

    def __init__(self, family: FamilyModel):
        self.family = family
        # Per state: its record, made by ``_record`` on first reach.
        self._records: list[_Record | None] = [None] * family.n_states
        self._rewards_float = (None if family.rewards is None else
                               [r.numerator / r.denominator
                                for r in family.rewards])

    def _record(self, s: int) -> _Record:
        """Make and keep the record of state ``s``.  Weights are integer
        numerators over the row's common denominator (``integer_row``): one
        positive scale keeps the distributions that the exact rational sums
        tell apart."""
        supp = self.family.support(s)
        den, terms = integer_row(sorted([(k, p) for p, k in
                                         self.family.rows[s]]))
        record = self._records[s] = _Record(
            supp, itemgetter(*supp), {}, [m for _, m in terms], den, {}, {})
        return record

    def action_counts(self) -> tuple[int, ...]:
        """Distinct merged actions per state for the full family."""
        domains = self.family.domains
        return tuple(len(self._enumerate(record or self._record(s),
                                         domains)[0])
                     for s, record in enumerate(self._records))

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
        records = self._records
        actions: list[list[MdpAction]] = [[]] * family.n_states
        found = {family.initial}
        stack = [family.initial]
        while stack:
            s = stack.pop()
            record = records[s] or self._record(s)
            key = record.key(subsets)
            hit = record.memo.get(key)
            if hit is None:
                hit = record.memo[key] = self._enumerate(record, subsets)
            actions[s] = hit[0]
            for t in hit[1]:
                if t not in found:
                    found.add(t)
                    stack.append(t)
        live = tuple(sorted(found))
        mdp = SparseMDP(family.n_states, family.initial, actions,
                        self._rewards_float, live)
        return RestrictedQuotient(self, sub, mdp)

    def _enumerate(self, record: _Record,
                   subsets: tuple[tuple[int, ...], ...]
                   ) -> tuple[list[MdpAction], tuple[int, ...]]:
        """The actions of ``record``'s state under ``subsets``, and their
        distinct successors.  The signatures are the product of each
        supported parameter's domain, filtered to its subset, so they come
        in domain order whatever the subset order; the first signature of
        each distinct distribution represents it.  A signature seen for the
        first time gets its action, with its masses summed over repeated
        successors; the signatures of one distribution share its ``dist``
        and ``masses``."""
        domains = self.family.domains
        values = [[v for v in domains[k] if v in subsets[k]]
                  for k in record.params]
        params, weights, den = record.params, record.weights, record.den
        actions, dists = record.actions, record.dists
        # keyed by the shared ``dist``, one object per distinct distribution
        first: dict[int, MdpAction] = {}
        for sig in product(*values):
            action = actions.get(sig)
            if action is None:
                merged: dict[int, int] = {}
                for t, w in zip(sig, weights):
                    merged[t] = merged.get(t, 0) + w
                masses = tuple(sorted(merged.items()))
                pair = dists.get(masses)
                if pair is None:
                    pair = dists[masses] = (
                        tuple([(t, m / den) for t, m in masses]), masses)
                action = actions[sig] = MdpAction(
                    pair[0], MergedAction(params, sig, pair[1], den))
            first.setdefault(id(action.dist), action)
        return list(first.values()), tuple(set().union(*values))


def build_quotient(family: FamilyModel) -> QuotientMDP:
    """The family's one quotient, kept in its instance dict for its lifetime
    (``QuotientMDP`` makes a fresh one).  It holds only facts about the
    family, so no query's answer depends on the queries before it."""
    if "_quotient" not in vars(family):
        object.__setattr__(family, "_quotient", QuotientMDP(family))
    return family._quotient


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

