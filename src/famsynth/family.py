"""Families of Markov chains over discrete parameters.

All members of a family share one state space.  Each state's outgoing
distribution assigns probability mass to *parameters* instead of states;
fixing every parameter to a value from its (state-valued) domain turns the
family into a concrete chain.  Subfamilies are boxes: independent value
subsets per parameter, so membership factorises.

Probabilities are exact rationals throughout this module; conversion to
floating point happens only when the numeric engine builds its matrices.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterator

from .errors import (
    InvalidRealisationError,
    InvalidSplitError,
    ModelError,
)

PROBABILITY = "probability"
REWARD = "expected-reward"

RELATIONS = ("<", "<=", ">=", ">")


def compare(value, relation: str, threshold) -> bool:
    """Evaluate ``value ~ threshold`` for a relation in ``RELATIONS``."""
    if relation == "<":
        return value < threshold
    if relation == "<=":
        return value <= threshold
    if relation == ">=":
        return value >= threshold
    if relation == ">":
        return value > threshold
    raise ValueError(f"unknown relation {relation!r}")


@dataclass(frozen=True)
class Specification:
    """A reachability query: threshold (``P>=1/2 F "goal"``) or objective-only
    (``Pmax F "goal"``).

    ``kind`` is PROBABILITY or REWARD.  Threshold specs carry ``relation`` and
    ``threshold``; objective-only specs carry ``direction`` instead.
    """

    kind: str
    goal: str
    relation: str | None = None
    threshold: Fraction | None = None
    direction: str | None = None

    def __post_init__(self):
        if self.kind not in (PROBABILITY, REWARD):
            raise ModelError(f"unknown spec kind {self.kind!r}", code="bad-spec")
        objective = self.direction is not None
        if objective:
            if self.relation is not None or self.threshold is not None:
                raise ModelError("objective spec cannot carry a threshold",
                                 code="bad-spec")
            if self.direction not in ("max", "min"):
                raise ModelError(f"bad direction {self.direction!r}",
                                 code="bad-spec")
        else:
            if self.relation not in RELATIONS or self.threshold is None:
                raise ModelError("threshold spec needs relation and threshold",
                                 code="bad-spec")
            if self.kind == PROBABILITY and not 0 <= self.threshold <= 1:
                raise ModelError(
                    f"probability threshold {self.threshold} outside [0, 1]",
                    code="threshold-range")
            if self.kind == REWARD and self.threshold < 0:
                raise ModelError(
                    f"reward threshold {self.threshold} is negative",
                    code="threshold-range")
            # No probability satisfies > 1 or < 0; reject outright.
            if self.kind == PROBABILITY and (
                    (self.relation == ">" and self.threshold == 1)
                    or (self.relation == "<" and self.threshold == 0)):
                raise ModelError(
                    f"unsatisfiable probability bound "
                    f"{self.relation}{self.threshold}", code="threshold-range")

    @property
    def objective_only(self) -> bool:
        return self.direction is not None

    def satisfied(self, value) -> bool:
        if self.objective_only:
            raise ValueError("objective-only spec has no threshold")
        return compare(value, self.relation, self.threshold)

    def __str__(self) -> str:
        letter = "P" if self.kind == PROBABILITY else "E"
        if self.objective_only:
            return f'{letter}{self.direction} F "{self.goal}"'
        return f'{letter}{self.relation}{self.threshold} F "{self.goal}"'


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise ModelError(f"expected an exact rational, got {type(x).__name__}",
                     code="bad-prob")


@dataclass(frozen=True)
class FamilyModel:
    """A family of Markov chains.

    states are ``0 .. n_states-1``; ``rows[s]`` is a tuple of
    ``(probability, parameter index)`` pairs summing to exactly one; every
    parameter's domain is an ordered tuple of state indices.
    """

    n_states: int
    initial: int
    param_names: tuple[str, ...]
    domains: tuple[tuple[int, ...], ...]
    rows: tuple[tuple[tuple[Fraction, int], ...], ...]
    rewards: tuple[Fraction, ...] | None = None
    labels: dict[str, frozenset[int]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "param_names", tuple(self.param_names))
        object.__setattr__(self, "domains",
                           tuple(tuple(d) for d in self.domains))
        object.__setattr__(self, "rows", tuple(
            tuple((_as_fraction(p), k) for p, k in row) for row in self.rows))
        if self.rewards is not None:
            object.__setattr__(self, "rewards",
                               tuple(_as_fraction(r) for r in self.rewards))
        object.__setattr__(self, "labels", dict(self.labels or {}))
        self._validate()
        object.__setattr__(self, "_supports", tuple(
            tuple(sorted({k for _, k in row})) for row in self.rows))

    def _validate(self):
        if self.n_states < 1:
            raise ModelError("a family needs at least one state",
                             code="bad-state")
        if not 0 <= self.initial < self.n_states:
            raise ModelError(f"initial state {self.initial} out of range",
                             code="bad-initial")
        if len(self.param_names) != len(self.domains):
            raise ModelError("one domain per parameter required",
                             code="bad-domain")
        if len(set(self.param_names)) != len(self.param_names):
            raise ModelError("duplicate parameter name", code="dup-param")
        for name, dom in zip(self.param_names, self.domains):
            if not dom:
                raise ModelError(f"parameter {name} has an empty domain",
                                 code="empty-domain")
            if len(set(dom)) != len(dom):
                raise ModelError(f"parameter {name} repeats a domain value",
                                 code="bad-domain")
            for v in dom:
                if not 0 <= v < self.n_states:
                    raise ModelError(
                        f"domain value {v} of {name} is not a state",
                        code="bad-domain")
        if len(self.rows) != self.n_states:
            raise ModelError("one outgoing row per state required",
                             code="bad-row")
        for s, row in enumerate(self.rows):
            if not row:
                raise ModelError(f"state {s} has an empty row", code="bad-row")
            seen = set()
            total = Fraction(0)
            for p, k in row:
                if not 0 <= k < len(self.param_names):
                    raise ModelError(f"state {s} uses unknown parameter #{k}",
                                     code="unknown-param")
                if k in seen:
                    raise ModelError(
                        f"state {s} lists parameter "
                        f"{self.param_names[k]} twice", code="dup-param")
                seen.add(k)
                if not 0 < p <= 1:
                    raise ModelError(
                        f"state {s} has weight {p} outside (0, 1]",
                        code="bad-prob")
                total += p
            if total != 1:
                raise ModelError(
                    f"row of state {s} sums to {total}, expected 1",
                    code="row-sum")
        if self.rewards is not None:
            if len(self.rewards) != self.n_states:
                raise ModelError("one reward per state required",
                                 code="bad-reward")
            for s, r in enumerate(self.rewards):
                if r < 0:
                    raise ModelError(f"reward of state {s} is negative",
                                     code="bad-reward")
        for name, states in self.labels.items():
            for v in states:
                if not 0 <= v < self.n_states:
                    raise ModelError(
                        f"label {name} marks unknown state {v}",
                        code="bad-label")
        object.__setattr__(self, "labels",
                           {n: frozenset(v) for n, v in self.labels.items()})

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    @property
    def n_realisations(self) -> int:
        n = 1
        for dom in self.domains:
            n *= len(dom)
        return n

    def support(self, state: int) -> tuple[int, ...]:
        """Parameter indices occurring in the row of ``state``, ascending."""
        return self._supports[state]

    def label_states(self, name: str) -> frozenset[int]:
        try:
            return self.labels[name]
        except KeyError:
            raise ModelError(f"unknown label {name!r}",
                             code="unknown-label") from None


@dataclass(frozen=True)
class Realisation:
    """A total parameter assignment, one value per parameter in family order."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def validate(self, family: FamilyModel):
        if len(self.values) != family.n_params:
            raise InvalidRealisationError(
                f"assignment has {len(self.values)} values, family has "
                f"{family.n_params} parameters")
        for k, v in enumerate(self.values):
            if v not in family.domains[k]:
                raise InvalidRealisationError(
                    f"value {v} outside the domain of "
                    f"{family.param_names[k]}")

    def as_dict(self, family: FamilyModel) -> dict[str, int]:
        return dict(zip(family.param_names, self.values))


@dataclass(frozen=True)
class Subfamily:
    """A box of realisations: an ordered, non-empty value subset per parameter."""

    subsets: tuple[tuple[int, ...], ...]
    # the parameters whose subset still has more than one value
    splittable: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        subsets = tuple(tuple(s) for s in self.subsets)
        if not all(subsets):
            raise ModelError("subfamily with an empty value subset",
                             code="empty-domain")
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "splittable", tuple(
            k for k, sub in enumerate(subsets) if len(sub) > 1))

    @classmethod
    def full(cls, family: FamilyModel) -> "Subfamily":
        return cls(family.domains)

    @classmethod
    def of_realisation(cls, r: Realisation) -> "Subfamily":
        return cls(tuple((v,) for v in r.values))

    @property
    def size(self) -> int:
        n = 1
        for sub in self.subsets:
            n *= len(sub)
        return n

    @property
    def is_singleton(self) -> bool:
        return not self.splittable

    def to_realisation(self) -> Realisation:
        if not self.is_singleton:
            raise InvalidRealisationError(
                "only a singleton subfamily converts to a realisation")
        return Realisation(tuple(sub[0] for sub in self.subsets))

    def contains(self, r: Realisation) -> bool:
        return len(r.values) == len(self.subsets) and all(
            v in sub for v, sub in zip(r.values, self.subsets))

    def members(self) -> Iterator[Realisation]:
        """All member realisations in lexicographic order of the subsets."""
        for combo in product(*self.subsets):
            yield Realisation(combo)

    def split(self, k: int, keep) -> tuple["Subfamily", "Subfamily"]:
        """Partition on parameter ``k``: members with value in ``keep`` vs rest.

        ``keep`` must be a non-empty proper subset of the current subset.
        """
        current = self.subsets[k]
        keep_set = set(keep)
        if not keep_set or not keep_set < set(current):
            raise InvalidSplitError(
                f"split needs a non-empty proper subset of {current}, "
                f"got {sorted(keep_set)}")
        top = tuple(v for v in current if v in keep_set)
        bottom = tuple(v for v in current if v not in keep_set)
        make = lambda chosen: Subfamily(
            self.subsets[:k] + (chosen,) + self.subsets[k + 1:])
        return make(top), make(bottom)

    def describe(self, family: FamilyModel) -> dict[str, list[int]]:
        return {name: list(sub)
                for name, sub in zip(family.param_names, self.subsets)}


class ConcreteMC:
    """A realised chain: sparse rows of ``(successor, probability)``, or with
    ``rows`` None their ``masses`` (each row's ``integer_row``, the form the
    exact solver reads), and the states reachable from the initial state."""

    def __init__(self, n_states: int, initial: int, rows, rewards,
                 reachable: frozenset[int], labels=None, *, masses=None):
        self.n_states, self.initial, self.rewards = n_states, initial, rewards
        self.reachable, self.labels = reachable, labels or {}
        # the form given is its property's cached value
        vars(self).update({"rows": rows} if masses is None else
                          {"masses": masses})

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        return tuple([tuple([(t, Fraction(m, den)) for t, m in row])
                      for den, row in self.masses])

    @cached_property
    def masses(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        return tuple([integer_row(row) for row in self.rows])

    def label_states(self, name: str) -> frozenset[int]:
        try:
            return self.labels[name]
        except KeyError:
            raise ModelError(f"unknown label {name!r}",
                             code="unknown-label") from None


def integer_row(row) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(key, weight)`` pairs as ``(den, ((key, numerator), ...))``, integer
    numerators over their common denominator.  One positive scale keeps
    every sum and comparison the rationals give."""
    den = math.lcm(*[p.denominator for _, p in row])
    return den, tuple([(k, p.numerator * (den // p.denominator))
                       for k, p in row])


def merged_row(row, values) -> tuple[int, tuple[tuple[int, int], ...]]:
    """A family row under the assignment ``values``, as its common
    denominator and ascending ``(successor, numerator)`` pairs.  Weights of
    distinct parameters that map to the same successor merge additively."""
    den, terms = integer_row([(values[k], p) for p, k in row])
    merged: dict[int, int] = {}
    for t, m in terms:
        merged[t] = merged.get(t, 0) + m
    return den, tuple(sorted(merged.items()))


def instantiate(family: FamilyModel, r: Realisation) -> ConcreteMC:
    """Realise the family under ``r``, over all of its states.

    Weights of distinct parameters that map to the same successor merge
    additively, so every row still sums to exactly one.
    """
    r.validate(family)
    masses = tuple([merged_row(row, r.values) for row in family.rows])
    reached = reachable_states([row for _, row in masses], family.initial)
    return ConcreteMC(family.n_states, family.initial, None, family.rewards,
                      reached, dict(family.labels), masses=masses)


def member_chain(family: FamilyModel, r: Realisation) -> ConcreteMC:
    """The states of member ``r`` that its initial state reaches, as a chain
    of their own, numbered in ascending family order.

    Only the reached rows are built, as ``merged_row`` masses (the rows are
    made when read); rewards and labels follow the new numbers.  Its
    value at the initial state, all that an exact check of one member
    reads, is the one ``instantiate(family, r)`` gives.
    """
    r.validate(family)
    found = {family.initial: ()}
    stack = [family.initial]
    while stack:
        s = stack.pop()
        row = found[s] = merged_row(family.rows[s], r.values)
        for t, _ in row[1]:
            if t not in found:
                found[t] = ()
                stack.append(t)
    states = sorted(found)
    local = {s: i for i, s in enumerate(states)}
    masses = tuple([(den, tuple([(local[t], m) for t, m in row]))
                    for den, row in map(found.__getitem__, states)])
    rewards = (None if family.rewards is None else
               tuple([family.rewards[s] for s in states]))
    labels = {name: frozenset([i for i, s in enumerate(states)
                               if s in marked])
              for name, marked in family.labels.items()}
    return ConcreteMC(len(states), local[family.initial], None, rewards,
                      frozenset(range(len(states))), labels, masses=masses)


def reachable_states(rows, initial: int) -> frozenset[int]:
    seen = {initial}
    queue = deque([initial])
    while queue:
        s = queue.popleft()
        for succ, _ in rows[s]:
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return frozenset(seen)


def all_realisations(family: FamilyModel) -> Iterator[Realisation]:
    """Every member of the family, in lexicographic order over the domains."""
    for combo in product(*family.domains):
        yield Realisation(combo)
