"""Tests of the benchmark's exact oracle and its answer checks.

    python3 -m pytest perfbench/test_oracle.py

The oracle is checked on chains with closed-form answers and on the bundled
worked example, whose ``phi`` holds for exactly the two members with k1=1.
"""

import pathlib
import random
import sys
from fractions import Fraction as F

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
from model import Draft, from_family, relabel, to_fmc  # noqa: E402


def geometric(p, reward):
    """One state that reaches the goal with probability ``p`` per step."""
    b = Draft()
    s = b.state(reward=reward)
    goal = b.state(label="goal")
    b.row(s, (1 - p, b.to(s)), (p, b.to(goal)))
    b.row(goal, (1, b.to(goal)))
    return b.build(s, with_rewards=True)


def gamblers_ruin(n, start, up):
    """Walk on 0..n from ``start``; both ends are labelled ``end``, ``n``
    alone is ``win``; every step costs one."""
    b = Draft()
    states = [b.state(reward=0 if i in (0, n) else 1) for i in range(n + 1)]
    b.labels = {"win": [states[n]], "end": [states[0], states[n]]}
    for i in range(n + 1):
        if i in (0, n):
            b.row(states[i], (1, b.to(states[i])))
        else:
            b.row(states[i], (up, b.to(states[i + 1])),
                  (1 - up, b.to(states[i - 1])))
    return b.build(states[start], with_rewards=True)


def example1():
    """The bundled worked example, read with famsynth's parser."""
    from famsynth import parse_family

    text = (HERE.parent / "models" / "example1.fmc").read_text()
    return from_family(parse_family(text)[0])


def test_geometric_chain():
    model = geometric(F(1, 3), 2)
    assert oracle.member_value(model, oracle.PROB, "goal", (0, 1)) == 1
    assert oracle.member_value(model, oracle.REWARD, "goal", (0, 1)) == 6


def test_gamblers_ruin():
    n, i, p = 5, 2, F(1, 3)
    r = (1 - p) / p
    win = (1 - r ** i) / (1 - r ** n)
    steps = i / (1 - 2 * p) - n / (1 - 2 * p) * win
    model = gamblers_ruin(n, i, p)
    values = tuple(dom[0] for _, dom in model.params)
    assert oracle.member_value(model, oracle.PROB, "win", values) == win
    assert oracle.member_value(model, oracle.REWARD, "end", values) == steps


def test_reward_undefined_when_goal_avoidable():
    model = gamblers_ruin(4, 2, F(1, 2))
    values = tuple(dom[0] for _, dom in model.params)
    assert oracle.member_value(model, oracle.REWARD, "win", values) is None


def test_example1_phi_accepts_exactly_k1_one():
    model = example1()
    orc = oracle.Oracle(model, oracle.PROB, "one", random.Random(0), 64, 0)
    accepted = [m for m in orc.members
                if oracle.satisfies(orc.value(m), ">=", F(1, 10))]
    assert accepted == [(0, 1, 2), (0, 1, 3)]


def test_relabel_keeps_every_member_value():
    model = gamblers_ruin(6, 3, F(3, 8))
    copy = relabel(model, random.Random(5))
    values = tuple(dom[0] for _, dom in copy.params)
    assert oracle.member_value(copy, oracle.PROB, "win", values) == \
        oracle.member_value(model, oracle.PROB, "win",
                            tuple(dom[0] for _, dom in model.params))
    assert to_fmc(copy) != to_fmc(model)


def test_checks_catch_wrong_answers():
    model = example1()
    orc = oracle.Oracle(model, oracle.PROB, "one", random.Random(0), 64, 0)
    full = ((0,), (0, 1), (2, 3))
    right = {"T": [((0,), (1,), (2, 3))], "F": [((0,), (0,), (2, 3))],
             "undefined": []}
    assert oracle.check_threshold(orc, ">=", F(1, 10), right) is None
    swapped = {"T": right["F"], "F": right["T"], "undefined": []}
    assert oracle.check_threshold(orc, ">=", F(1, 10), swapped)
    overlap = {"T": [full], "F": right["F"], "undefined": []}
    assert oracle.check_threshold(orc, ">=", F(1, 10), overlap)
    best = max(orc.values())
    witness = next(m for m in orc.members if orc.value(m) == best)
    assert oracle.check_optimum(orc, "max", witness, float(best)) is None
    assert oracle.check_optimum(orc, "max", witness, float(best) - 1e-5)
    assert oracle.check_feasibility(orc, ">=", F(1, 10), (0, 1, 2)) is None
    assert oracle.check_feasibility(orc, ">=", F(1, 10), (0, 0, 2))
    assert oracle.check_feasibility(orc, ">=", F(1, 10), None)


def test_sampled_oracle_checks_the_sample_only():
    model = example1()
    orc = oracle.Oracle(model, oracle.PROB, "one", random.Random(3), 2, 5)
    assert not orc.exhaustive and len(orc.members) == 5
    right = {"T": [((0,), (1,), (2, 3))], "F": [((0,), (0,), (2, 3))],
             "undefined": []}
    assert oracle.check_threshold(orc, ">=", F(1, 10), right) is None
    gap = {"T": right["T"], "F": [((0,), (0,), (2,))], "undefined": []}
    assert "buckets hold 3 members" in oracle.check_threshold(
        orc, ">=", F(1, 10), gap)
