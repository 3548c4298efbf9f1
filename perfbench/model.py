"""Plain description of a family, independent of famsynth's own classes.

The generators build a :class:`Model`, write it as ``.fmc`` text for
famsynth's parser, and hand the same description to the exact oracle, so
that the oracle never depends on the code it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Model:
    """States ``0 .. n-1``; ``rows[s]`` lists ``(weight, parameter index)``;
    ``params`` lists ``(name, domain)`` with domains of state indices."""

    n: int
    initial: int
    params: list[tuple[str, tuple[int, ...]]]
    rows: list[list[tuple[Fraction, int]]]
    labels: dict[str, list[int]]
    rewards: list[Fraction] | None = None

    @property
    def members(self) -> int:
        n = 1
        for _, dom in self.params:
            n *= len(dom)
        return n


class Draft:
    """Accumulates states, parameters and rows; fixed moves use one
    singleton parameter per target state."""

    def __init__(self):
        self.n = 0
        self.params: list[tuple[str, tuple[int, ...]]] = []
        self.rows: dict[int, list[tuple[Fraction, int]]] = {}
        self.rewards: dict[int, Fraction] = {}
        self.labels: dict[str, list[int]] = {}
        self._fixed: dict[int, int] = {}

    def state(self, reward=0, label: str | None = None) -> int:
        s = self.n
        self.n += 1
        if reward:
            self.rewards[s] = Fraction(reward)
        if label is not None:
            self.labels.setdefault(label, []).append(s)
        return s

    def param(self, name: str, domain) -> int:
        self.params.append((name, tuple(domain)))
        return len(self.params) - 1

    def to(self, target: int) -> int:
        """The singleton parameter that always moves to ``target``."""
        k = self._fixed.get(target)
        if k is None:
            k = self.param(f"to{target}", (target,))
            self._fixed[target] = k
        return k

    def row(self, s: int, *terms):
        """``terms`` are ``(weight, parameter)`` pairs; repeats merge."""
        merged: dict[int, Fraction] = {}
        for w, k in terms:
            merged[k] = merged.get(k, Fraction(0)) + Fraction(w)
        assert sum(merged.values()) == 1, (s, terms)
        self.rows[s] = [(w, k) for k, w in merged.items()]

    def build(self, initial: int, with_rewards: bool) -> Model:
        rewards = None
        if with_rewards:
            rewards = [self.rewards.get(s, Fraction(0)) for s in range(self.n)]
        return Model(self.n, initial, list(self.params),
                     [self.rows[s] for s in range(self.n)],
                     dict(self.labels), rewards)


def from_family(family) -> Model:
    """Copy a famsynth ``FamilyModel`` (for ``random_family``) into a Model."""
    return Model(
        n=family.n_states, initial=family.initial,
        params=list(zip(family.param_names, family.domains)),
        rows=[list(row) for row in family.rows],
        labels={k: sorted(v) for k, v in family.labels.items()},
        rewards=list(family.rewards) if family.rewards is not None else None)


def relabel(model: Model, rng: random.Random) -> Model:
    """An isomorphic copy under a random permutation of the state indices.

    Domains keep their order (value ``i`` of a parameter stays value ``i``),
    so every member keeps its position in enumeration order.
    """
    perm = list(range(model.n))
    rng.shuffle(perm)
    rows: list[list[tuple[Fraction, int]]] = [[] for _ in range(model.n)]
    for s, row in enumerate(model.rows):
        rows[perm[s]] = list(row)
    rewards = None
    if model.rewards is not None:
        rewards = [Fraction(0)] * model.n
        for s, r in enumerate(model.rewards):
            rewards[perm[s]] = r
    return Model(
        n=model.n, initial=perm[model.initial],
        params=[(name, tuple(perm[v] for v in dom))
                for name, dom in model.params],
        rows=rows,
        labels={k: sorted(perm[v] for v in vs)
                for k, vs in model.labels.items()},
        rewards=rewards)


def to_fmc(model: Model) -> str:
    """The model as ``.fmc`` text (see ``docs/format.md``)."""
    out = [f"states {model.n}", f"initial {model.initial}", "", "params"]
    for name, dom in model.params:
        out.append(f"{name} : {' '.join(map(str, dom))}")
    out += ["", "trans"]
    for s, row in enumerate(model.rows):
        terms = " + ".join(f"{w}:{model.params[k][0]}" for w, k in row)
        out.append(f"{s} : {terms}")
    if model.rewards is not None:
        out += ["", "rewards"]
        out += [f"{s} : {r}" for s, r in enumerate(model.rewards) if r]
    out += ["", "labels"]
    for name in sorted(model.labels):
        out.append(f"{name} : {' '.join(map(str, model.labels[name]))}")
    return "\n".join(out) + "\n"
