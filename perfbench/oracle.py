"""Exact member-by-member oracle, written against :class:`model.Model` only.

Each member is instantiated as a chain over the states reachable from the
initial state, and the value at the initial state is found by eliminating
the other unknowns one at a time in exact rational arithmetic.  Nothing
here calls famsynth: the answers it checks come from famsynth's engine,
quotient and synthesis code.
"""

from __future__ import annotations

import random
import re
from collections import deque
from fractions import Fraction
from itertools import product

from model import Model

ZERO = Fraction(0)
ONE = Fraction(1)

PROB = "P"
REWARD = "E"


def chain(model: Model, values) -> list[dict[int, Fraction]]:
    """Successor distribution of every state under one parameter assignment."""
    rows = []
    for row in model.rows:
        dist: dict[int, Fraction] = {}
        for w, k in row:
            t = values[k]
            dist[t] = dist.get(t, ZERO) + w
        rows.append(dist)
    return rows


def _reachable(rows, initial: int, goal: frozenset[int]) -> set[int]:
    """States reachable from ``initial`` without leaving a goal state."""
    seen = {initial}
    queue = deque([initial])
    while queue:
        s = queue.popleft()
        if s in goal:
            continue
        for t in rows[s]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def _backward(rows, states: set[int], targets: set[int],
              goal: frozenset[int]) -> set[int]:
    """States of ``states`` with a path into ``targets`` that does not pass
    through a goal state (goal states keep no outgoing edges)."""
    preds: dict[int, list[int]] = {s: [] for s in states}
    for s in states:
        if s in goal:
            continue
        for t in rows[s]:
            preds[t].append(s)
    seen = set(targets)
    queue = deque(seen)
    while queue:
        t = queue.popleft()
        for s in preds[t]:
            if s not in seen:
                seen.add(s)
                queue.append(s)
    return seen


def _eliminate(eqs: dict[int, tuple[dict[int, Fraction], Fraction]],
               keep: int) -> Fraction:
    """Solve ``x_u = sum_v a_uv x_v + b_u`` for ``x_keep``.

    Unknowns are eliminated one by one, fewest users first, substituting
    each into the equations that mention it.  Every unknown can escape its
    own loops, so ``1 - a_uu`` never vanishes.
    """
    coef = {u: dict(c) for u, (c, _) in eqs.items()}
    const = {u: b for u, (_, b) in eqs.items()}
    users: dict[int, set[int]] = {u: set() for u in eqs}
    for u, c in coef.items():
        for v in c:
            users[v].add(u)
    pending = sorted((u for u in eqs if u != keep),
                     key=lambda u: (len(users[u]) * len(coef[u]), u))
    for u in pending:
        cu = coef.pop(u)
        bu = const.pop(u)
        a = cu.pop(u, ZERO)
        if a:
            scale = ONE / (ONE - a)
            cu = {v: q * scale for v, q in cu.items()}
            bu *= scale
        for v in cu:
            users[v].discard(u)
        for w in users.pop(u):
            if w == u:
                continue
            cw = coef[w]
            c = cw.pop(u)
            for v, q in cu.items():
                cw[v] = cw.get(v, ZERO) + c * q
                users[v].add(w)
            const[w] += c * bu
    a = coef[keep].get(keep, ZERO)
    return const[keep] / (ONE - a)


def reach_probability(model: Model, values, goal: frozenset[int]) -> Fraction:
    rows = chain(model, values)
    if model.initial in goal:
        return ONE
    reach = _reachable(rows, model.initial, goal)
    live = _backward(rows, reach, reach & goal, goal)
    if model.initial not in live:
        return ZERO
    eqs = {}
    for s in live - goal:
        c: dict[int, Fraction] = {}
        b = ZERO
        for t, p in rows[s].items():
            if t in goal:
                b += p
            elif t in live:
                c[t] = c.get(t, ZERO) + p
        eqs[s] = (c, b)
    return _eliminate(eqs, model.initial)


def expected_reward(model: Model, values, goal: frozenset[int]
                    ) -> Fraction | None:
    """Reward accumulated before the first goal visit; None when the goal is
    not reached almost surely."""
    if model.initial in goal:
        return ZERO
    rows = chain(model, values)
    reach = _reachable(rows, model.initial, goal)
    live = _backward(rows, reach, reach & goal, goal)
    doomed = _backward(rows, reach, reach - live, goal)
    if model.initial in doomed:
        return None
    eqs = {}
    for s in reach - goal:
        c = {t: p for t, p in rows[s].items() if t not in goal}
        eqs[s] = (c, model.rewards[s])
    return _eliminate(eqs, model.initial)


def member_value(model: Model, kind: str, goal_label: str, values):
    goal = frozenset(model.labels[goal_label])
    if kind == PROB:
        return reach_probability(model, values, goal)
    return expected_reward(model, values, goal)


def satisfies(value, relation: str, threshold: Fraction) -> bool:
    return {"<": value < threshold, "<=": value <= threshold,
            ">=": value >= threshold, ">": value > threshold}[relation]


_SPEC = re.compile(r'([PE])\s*(max|min|<=|>=|<|>)\s*([0-9./]*)\s+F\s+"(\w+)"')


def parse_spec(text: str) -> tuple[str, str, Fraction | None, str]:
    """``(kind, relation or direction, threshold or None, goal label)``."""
    kind, rel, number, goal = _SPEC.fullmatch(text.strip()).groups()
    return kind, rel, Fraction(number) if number else None, goal


class Oracle:
    """Exact member values of one model and one objective, memoised.

    Families up to ``enum_cap`` members are checked exhaustively; larger
    ones on a seeded sample of ``sample`` members.
    """

    def __init__(self, model: Model, kind: str, goal: str, rng: random.Random,
                 enum_cap: int, sample: int):
        self.model = model
        self.kind = kind
        self.goal = goal
        self.exhaustive = model.members <= enum_cap
        domains = [dom for _, dom in model.params]
        if self.exhaustive:
            self.members = [tuple(m) for m in product(*domains)]
        else:
            self.members = [tuple(rng.choice(dom) for dom in domains)
                            for _ in range(sample)]
        self._values: dict[tuple, object] = {}

    def value(self, member: tuple):
        v = self._values.get(member, self)
        if v is self:
            v = member_value(self.model, self.kind, self.goal, member)
            self._values[member] = v
        return v

    def values(self) -> list:
        return [self.value(m) for m in self.members]


# ---------------------------------------------------------------------------
# Checks of famsynth's answers.  Each returns None when the answer is right
# and otherwise a one-line reason.
# ---------------------------------------------------------------------------

def _box_size(box) -> int:
    n = 1
    for sub in box:
        n *= len(sub)
    return n


def _disjoint(a, b) -> bool:
    return any(not set(x) & set(y) for x, y in zip(a, b))


def _expected_bucket(value, relation, threshold) -> str:
    if value is None:
        return "undefined"
    return "T" if satisfies(value, relation, threshold) else "F"


def check_threshold(orc: Oracle, relation: str, threshold: Fraction,
                    buckets: dict[str, list]) -> str | None:
    """The T, F and undefined boxes cover every member exactly once and put
    each checked member where its exact value says."""
    boxes = [(box, name) for name, bucket in buckets.items() for box in bucket]
    total = sum(_box_size(box) for box, _ in boxes)
    if total != orc.model.members:
        return f"buckets hold {total} members, the family has " \
               f"{orc.model.members}"
    if orc.exhaustive:
        where = {}
        for box, name in boxes:
            for member in product(*box):
                if member in where:
                    return f"member {member} lies in two boxes"
                where[member] = name
    else:
        for i, (a, _) in enumerate(boxes):
            for b, _ in boxes[i + 1:]:
                if not _disjoint(a, b):
                    return f"boxes {a} and {b} overlap"
        where = {}
        for member in orc.members:
            for box, name in boxes:
                if all(v in sub for v, sub in zip(member, box)):
                    where[member] = name
                    break
    for member in orc.members:
        want = _expected_bucket(orc.value(member), relation, threshold)
        if where.get(member) != want:
            return f"member {member} is in {where.get(member)}, " \
                   f"its exact value puts it in {want}"
    return None


def close(reported: float, exact: Fraction) -> bool:
    """Within 1e-6, relative to the value once it exceeds one: rewards run
    to the thousands and value iteration stops on an absolute residual."""
    return abs(reported - float(exact)) <= 1e-6 * max(1.0, abs(float(exact)))


def check_optimum(orc: Oracle, direction: str, witness: tuple,
                  reported: float) -> str | None:
    """The witness's exact value is the optimum (over every member, or at
    least as good as every sampled one) and the reported value is close."""
    exact = orc.value(witness)
    if exact is None:
        return f"witness {witness} has an undefined value"
    if not close(reported, exact):
        return f"reported {reported!r}, the witness's exact value is {exact}"
    defined = [v for v in orc.values() if v is not None]
    best = max(defined) if direction == "max" else min(defined)
    if orc.exhaustive and exact != best:
        return f"witness value {exact}, the optimum is {best}"
    if (exact < best) if direction == "max" else (exact > best):
        return f"witness value {exact}, a sampled member reaches {best}"
    return None


def check_feasibility(orc: Oracle, relation: str, threshold: Fraction,
                      member: tuple | None) -> str | None:
    """A returned member satisfies the spec exactly; None means that no
    (checked) member does."""
    if member is None:
        for m in orc.members:
            v = orc.value(m)
            if v is not None and satisfies(v, relation, threshold):
                return f"no member reported, but {m} satisfies"
        return None
    v = orc.value(member)
    if v is None or not satisfies(v, relation, threshold):
        return f"member {member} has value {v}, which fails the spec"
    return None
