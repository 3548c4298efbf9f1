import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famsynth import (
    ConcreteMC,
    Realisation,
    Specification,
    Subfamily,
    UndefinedRewardError,
    all_realisations,
    build_quotient,
    exact_mc_probability,
    exact_mc_reward,
    induced_chain,
    instantiate,
    parse_spec,
    prob0_exists,
    prob1_forall,
    random_family,
    solve_mc_exact,
    solve_prob,
    solve_reward,
)
from famsynth import engine
from famsynth.engine import (
    SparseMDP,
    MdpAction,
    mdp_from_mc,
    prob0_forall,
    prob1_exists,
)
from conftest import R1, R2, ladder, random_subfamily

ONE = frozenset({1})


def quotient_mdp(example1):
    model, _ = example1
    return build_quotient(model).restrict(Subfamily.full(model)).mdp


def exact_optima(mdp, goal, kind, cap=64):
    """Independent oracle: enumerate every memoryless scheduler, evaluate its
    induced chain with exact rationals, and return per live state the
    (min, max) over them, ``inf`` for an undefined reward; None when there
    are more than ``cap`` schedulers."""
    free = [s for s in live_states(mdp) if s not in goal]
    ranges = [range(len(mdp.actions[s])) for s in free]
    if math.prod(len(r) for r in ranges) > cap:
        return None
    lo = {s: math.inf for s in live_states(mdp)}
    hi = {s: -math.inf for s in live_states(mdp)}
    choices = [0] * mdp.n_states
    for combo in itertools.product(*ranges):
        for s, ai in zip(free, combo):
            choices[s] = ai
        chain = induced_chain(mdp, choices)
        if kind == "probability":
            exact = exact_mc_probability(chain, goal)
        else:
            exact = exact_mc_reward(chain, goal)
        for s in lo:
            v = math.inf if exact[s] is None else exact[s]
            lo[s] = min(lo[s], v)
            hi[s] = max(hi[s], v)
    return lo, hi


def test_prob0_exists_on_worked_quotient(example1):
    mdp = quotient_mdp(example1)
    assert prob0_exists(mdp, ONE) == {0, 2, 3}


def test_prob0_exists_trivial_cases(example1):
    mdp = quotient_mdp(example1)
    assert prob0_exists(mdp, frozenset(range(4))) == frozenset()
    # an absorbing non-goal state avoids any goal set that excludes it
    loop = SparseMDP(2, 0, [[MdpAction(((1, 1.0),), None)],
                            [MdpAction(((1, 1.0),), None)]])
    assert 1 in prob0_exists(loop, frozenset({0}))


def test_prob1_forall_on_worked_quotient(example1):
    mdp = quotient_mdp(example1)
    assert prob1_forall(mdp, ONE) == {1}
    assert prob1_forall(mdp, frozenset(range(4))) == frozenset(range(4))


def test_prob1_forall_self_loop_goal():
    loop = SparseMDP(1, 0, [[MdpAction(((0, 1.0),), None)]])
    assert prob1_forall(loop, frozenset({0})) == {0}


def test_solve_prob_direct_step():
    mdp = SparseMDP(2, 0, [[MdpAction(((1, 1.0),), None)],
                           [MdpAction(((1, 1.0),), None)]])
    res = solve_prob(mdp, frozenset({1}), "max")
    assert res.at_initial == 1.0


def test_solve_prob_geometric_loop_sums_to_one():
    mdp = SparseMDP(2, 0, [[MdpAction(((0, 0.5), (1, 0.5)), None)],
                           [MdpAction(((1, 1.0),), None)]])
    for direction in ("max", "min"):
        res = solve_prob(mdp, frozenset({1}), direction)
        assert res.at_initial == 1.0  # pinned by qualitative analysis


def test_solve_prob_worked_quotient_matches_scheduler_enumeration(example1):
    mdp = quotient_mdp(example1)
    worst, best = exact_optima(mdp, ONE, "probability")
    assert (worst[mdp.initial], best[mdp.initial]) == (0, 1)
    assert solve_prob(mdp, ONE, "max").at_initial == pytest.approx(1.0, abs=1e-6)
    assert solve_prob(mdp, ONE, "min").at_initial == pytest.approx(0.0, abs=1e-6)


def test_solve_reward_one_step():
    mdp = SparseMDP(2, 0, [[MdpAction(((1, 1.0),), None)],
                           [MdpAction(((1, 1.0),), None)]],
                    rewards=[1.0, 0.0])
    res = solve_reward(mdp, frozenset({1}), "min")
    assert res.at_initial == pytest.approx(1.0, abs=1e-6)


def test_solve_reward_geometric():
    # x = 1 + x/2 solves to 2
    mdp = SparseMDP(2, 0, [[MdpAction(((0, 0.5), (1, 0.5)), None)],
                           [MdpAction(((1, 1.0),), None)]],
                    rewards=[1.0, 0.0])
    oracle = Fraction(1) / (1 - Fraction(1, 2))
    assert oracle == 2
    for direction in ("max", "min"):
        res = solve_reward(mdp, frozenset({1}), direction)
        assert res.at_initial == pytest.approx(2.0, abs=1e-6)


def test_solve_reward_all_zero_rewards():
    mdp = SparseMDP(2, 0, [[MdpAction(((1, 1.0),), None)],
                           [MdpAction(((1, 1.0),), None)]],
                    rewards=[0.0, 0.0])
    assert solve_reward(mdp, frozenset({1}), "min").at_initial == 0.0


def test_solve_reward_zero_reward_cycle_is_not_free():
    # state 0 (reward 0) may loop forever or step to 1 (reward 1) then goal;
    # an almost-sure policy must pass 1, so the minimum is 1, not 0.
    mdp = SparseMDP(3, 0,
                    [[MdpAction(((0, 1.0),), None),
                      MdpAction(((1, 1.0),), None)],
                     [MdpAction(((2, 1.0),), None)],
                     [MdpAction(((2, 1.0),), None)]],
                    rewards=[0.0, 1.0, 0.0])
    res = solve_reward(mdp, frozenset({2}), "min")
    assert res.at_initial == pytest.approx(1.0, abs=1e-6)
    chain = induced_chain(mdp, res.choices)
    assert exact_mc_reward(chain, frozenset({2}))[0] == 1


def test_solve_reward_min_repairs_a_start_policy_that_never_leaves():
    # states 0 and 1 (reward 1) can swap forever or leave for state 2, which
    # costs 10 before the goal; greedy on the zero start values picks the
    # swap at both, a policy that never leaves their component
    mdp = SparseMDP(4, 0,
                    [[MdpAction(((1, 1.0),), "swap"),
                      MdpAction(((2, 1.0),), "leave")],
                     [MdpAction(((0, 1.0),), "swap"),
                      MdpAction(((2, 1.0),), "leave")],
                     [MdpAction(((3, 1.0),), None)],
                     [MdpAction(((3, 1.0),), None)]],
                    rewards=[1.0, 1.0, 10.0, 0.0])
    res = solve_reward(mdp, frozenset({3}), "min")
    for v in res.values[:2]:
        assert v == pytest.approx(11.0, rel=1e-12) and v <= 11.0
    assert [mdp.actions[s][res.choices[s]].tag for s in (0, 1)] == \
        ["leave", "leave"]


def test_solve_reward_min_undefined_at_initial():
    mdp = SparseMDP(2, 0, [[MdpAction(((0, 1.0),), None)],
                           [MdpAction(((1, 1.0),), None)]],
                    rewards=[1.0, 0.0])
    with pytest.raises(UndefinedRewardError):
        solve_reward(mdp, frozenset({1}), "min")
    assert math.isinf(solve_reward(mdp, frozenset({1}), "max").at_initial)


def test_chain_values_on_worked_example(example1):
    model, specs = example1
    spec = specs["phi"]
    goal = model.label_states(spec.goal)

    def value(r):
        mdp = mdp_from_mc(instantiate(model, Realisation(r)))
        return solve_prob(mdp, goal, "max").at_initial

    assert value(R1) == 0.0 and not spec.satisfied(value(R1))
    assert value(R2) == 1.0 and spec.satisfied(value(R2))
    assert parse_spec('P>=0 F "one"').satisfied(value(R1))


def test_sparse_mdp_validation():
    from famsynth import ModelError
    with pytest.raises(ModelError):
        SparseMDP(1, 0, [[MdpAction(((0, 0.9),), None)]]).validate()
    with pytest.raises(ModelError):
        SparseMDP(2, 0, [[MdpAction(((0, 1.0),), None)], []]).validate()
    ok = SparseMDP(1, 0, [[MdpAction(((0, 1.0),), None)]])
    assert ok.validate() is ok


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_float_engine_matches_exact_oracle_on_chains(seed):
    family = random_family(seed, max_states=8, rewards=seed % 2 == 0)
    goal = family.label_states("goal")
    for r in all_realisations(family):
        mc = instantiate(family, r)
        mdp = mdp_from_mc(mc)
        value = solve_prob(mdp, goal, "max").at_initial
        assert value == pytest.approx(
            float(exact_mc_probability(mc, goal)[mc.initial]), abs=1e-6)
        if family.rewards is not None:
            exact = exact_mc_reward(mc, goal)[mc.initial]
            if exact is None:
                with pytest.raises(UndefinedRewardError):
                    solve_mc_exact(mc, Specification(
                        kind="expected-reward", goal="goal", direction="min"))
            else:
                value = solve_reward(mdp, goal, "min").at_initial
                assert value == pytest.approx(float(exact), abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_max_dominates_min_per_state(seed):
    family = random_family(seed, max_states=7)
    restricted = build_quotient(family).restrict(Subfamily.full(family))
    mdp = restricted.mdp
    goal = family.label_states("goal")
    hi = solve_prob(mdp, goal, "max").values
    lo = solve_prob(mdp, goal, "min").values
    assert all(h >= l - 1e-9 for h, l in zip(hi, lo))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_qualitative_pinning_is_exact(seed):
    family = random_family(seed, max_states=7)
    restricted = build_quotient(family).restrict(Subfamily.full(family))
    mdp = restricted.mdp
    goal = family.label_states("goal")
    res_min = solve_prob(mdp, goal, "min")
    for s in prob1_forall(mdp, goal):
        assert res_min.values[s] == 1.0
    for s in prob0_exists(mdp, goal):
        assert res_min.values[s] == 0.0
    res_max = solve_prob(mdp, goal, "max")
    p1e, _ = prob1_exists(mdp, goal)
    for s in p1e:
        assert res_max.values[s] == 1.0
    for s in prob0_forall(mdp, goal):
        assert res_max.values[s] == 0.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_extracted_scheduler_attains_reported_value(seed):
    family = random_family(seed, max_states=7, rewards=seed % 2 == 0)
    restricted = build_quotient(family).restrict(Subfamily.full(family))
    mdp = restricted.mdp
    goal = family.label_states("goal")
    results = [(solve_prob(mdp, goal, "max"), "probability", "max"),
               (solve_prob(mdp, goal, "min"), "probability", "min")]
    if family.rewards is not None:
        results.append((solve_reward(mdp, goal, "max"), "reward", "max"))
        try:
            results.append((solve_reward(mdp, goal, "min"), "reward", "min"))
        except UndefinedRewardError:
            pass
    for res, kind, direction in results:
        chain = induced_chain(mdp, res.choices)
        if kind == "probability":
            exact = exact_mc_probability(chain, goal)
        else:
            exact = exact_mc_reward(chain, goal)
        got = exact[chain.initial]
        got = math.inf if got is None else float(got)
        if math.isinf(res.at_initial):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(res.at_initial, abs=1e-7)
        if direction == "max":
            # the maximising scheduler attains every reported value
            for v, e in zip(res.values, exact):
                if math.isinf(v):
                    assert e is None
                else:
                    assert e is not None and Fraction(v) <= e


def test_uncertified_scheduler_leaves_end_component(monkeypatch):
    # states 0 and 1 swap by Dirac actions (index 0) or exit to the goal 2
    # or the sink 3 with 1/2 each; at the fixpoint the swaps tie exactly
    # with the exits, and a plain argmax keeps them and never leaves.  A
    # component that fails certification keeps the last policy evaluated,
    # which policy iteration made proper, so it leaves too.
    monkeypatch.setattr(engine, "_certify", lambda *args: None)
    leave = MdpAction(((2, 0.5), (3, 0.5)), "leave")
    mdp = SparseMDP(4, 0,
                    [[MdpAction(((1, 1.0),), "swap"), leave],
                     [MdpAction(((0, 1.0),), "swap"), leave],
                     [MdpAction(((2, 1.0),), None)],
                     [MdpAction(((3, 1.0),), None)]])
    goal = frozenset({2})
    res = solve_prob(mdp, goal, "max")
    assert res.certified is False
    chain = induced_chain(mdp, res.choices)
    assert exact_mc_probability(chain, goal)[0] == Fraction(1, 2)


def assert_never_above_exact(mc, goal):
    """Every value of both solvers in both directions, run on the float copy
    of the chain ``mc``, is at most its exact rational value."""
    mdp = mdp_from_mc(mc)
    exact_p = exact_mc_probability(mc, goal)
    exact_r = None if mc.rewards is None else exact_mc_reward(mc, goal)
    for direction in ("max", "min"):
        for s, v in enumerate(solve_prob(mdp, goal, direction).values):
            assert Fraction(v) <= exact_p[s]
        if exact_r is None:
            continue
        try:
            res = solve_reward(mdp, goal, direction)
        except UndefinedRewardError:
            continue
        for s, v in enumerate(res.values):
            if not math.isinf(v):
                assert Fraction(v) <= exact_r[s]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_values_never_exceed_exact_on_random_chains(seed):
    family = random_family(seed, max_states=8, rewards=seed % 2 == 0)
    goal = family.label_states("goal")
    for r in all_realisations(family):
        assert_never_above_exact(instantiate(family, r), goal)


@settings(max_examples=60, deadline=None)
@given(digits=st.integers(1, 7),
       to_sink=st.lists(st.booleans(), min_size=1, max_size=4),
       rewards=st.lists(st.integers(0, 5), min_size=4, max_size=4))
def test_values_never_exceed_exact_on_stiff_ladders(digits, to_sink, rewards):
    # rung i keeps 1-10**-digits on a self-loop and splits the rest between
    # the next rung and either the sink or the goal; none of these
    # probabilities is a float, so the engine solves a rounded chain
    loop = 1 - Fraction(1, 10 ** digits)
    half = (1 - loop) / 2
    rungs = len(to_sink)
    goal, sink = rungs, rungs + 1
    rows = tuple(((i, loop), (i + 1, half), (sink if sink_side else goal, half))
                 for i, sink_side in enumerate(to_sink))
    rows += (((goal, Fraction(1)),), ((sink, Fraction(1)),))
    n = rungs + 2
    mc = ConcreteMC(n, 0, rows,
                    tuple(Fraction(r) for r in rewards[:rungs] + [0, 0]),
                    frozenset(range(n)))
    assert_never_above_exact(mc, frozenset({goal}))


@settings(max_examples=80, deadline=None)
@given(exponents=st.lists(st.integers(1, 30), min_size=2, max_size=6),
       to_sink=st.lists(st.booleans(), min_size=6, max_size=6),
       rewards=st.lists(st.integers(0, 5), min_size=6, max_size=6))
def test_values_never_exceed_exact_on_stiff_cycles(exponents, to_sink,
                                                    rewards):
    # state i keeps 1-2**-j on a self-loop and splits the rest between state
    # i+1 (around the cycle) and either the sink or the goal, so the cycle
    # is one component; the probabilities are floats, so the engine solves
    # the exact chain, towards the goal and towards either end
    n = len(exponents)
    goal, sink = n, n + 1
    rows = []
    for i, j in enumerate(exponents):
        half = Fraction(1, 2 ** (j + 1))
        rows.append(((i, 1 - 2 * half), ((i + 1) % n, half),
                     (sink if to_sink[i] else goal, half)))
    rows += [((goal, Fraction(1)),), ((sink, Fraction(1)),)]
    mc = ConcreteMC(n + 2, 0, tuple(rows),
                    tuple(Fraction(r) for r in rewards[:n] + [0, 0]),
                    frozenset(range(n + 2)))
    assert_never_above_exact(mc, frozenset({goal}))
    assert_never_above_exact(mc, frozenset({goal, sink}))


@pytest.mark.parametrize("kind", ["probability", "reward"])
@pytest.mark.parametrize("k", range(1, 13))
def test_stiff_self_loops_lie_just_below_exact(k, kind):
    # state 0 has two actions that keep 1 - e and 1 - e/2 on a self-loop
    # and leave towards the goal 1 (and, for probabilities, the sink 2);
    # both directions must come within a relative 2**-45 below the exact
    # optimum of the float chain, each action's value in closed form
    e = 10.0 ** -k
    if kind == "probability":
        exits = [((1, e / 3), (2, e * 2 / 3)), ((1, e / 8), (2, e * 3 / 8))]
        reward = 0.0
    else:
        exits = [((1, e),), ((1, e / 2),)]
        reward = 3.0
    actions = [MdpAction(((0, 1.0 - sum(p for _, p in out)),) + out, ai)
               for ai, out in enumerate(exits)]
    mdp = SparseMDP(3, 0, [actions, [MdpAction(((1, 1.0),), None)],
                           [MdpAction(((2, 1.0),), None)]],
                    rewards=[reward, 0.0, 0.0])
    value = {1: Fraction(kind == "probability"), 2: Fraction(0)}
    exact = [(Fraction(reward) + sum(Fraction(p) * value[t] for t, p in out))
             / sum(Fraction(p) for _, p in out) for out in exits]
    solve = solve_prob if kind == "probability" else solve_reward
    for direction, best in (("max", max(exact)), ("min", min(exact))):
        got = solve(mdp, frozenset({1}), direction).at_initial
        assert 0 <= best - Fraction(got) <= best * Fraction(1, 2 ** 45)


def assert_exact_equations(mc, goal):
    """The exact chain solver's vectors satisfy their defining equations in
    exact arithmetic, with the qualitative cases pinned: probability 1 on
    the goal and 0 where no path leads to it, reward None exactly where the
    goal is missed with positive probability."""
    reach = set(goal)
    changed = True
    while changed:
        changed = False
        for s in set(range(mc.n_states)) - reach:
            if any(t in reach for t, _ in mc.rows[s]):
                reach.add(s)
                changed = True
    prob = exact_mc_probability(mc, goal)
    assert all(isinstance(x, Fraction) for x in prob)
    for s, row in enumerate(mc.rows):
        if s in goal:
            assert prob[s] == 1
        elif s not in reach:
            assert prob[s] == 0
        else:
            assert prob[s] == sum(p * prob[t] for t, p in row)
    if mc.rewards is None:
        return
    reward = exact_mc_reward(mc, goal)
    for s, row in enumerate(mc.rows):
        if prob[s] < 1:
            assert reward[s] is None
        elif s in goal:
            assert reward[s] == 0
        else:
            assert isinstance(reward[s], Fraction)
            assert reward[s] == mc.rewards[s] + sum(p * reward[t]
                                                    for t, p in row)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_exact_solver_satisfies_its_equations_on_random_chains(seed):
    family = random_family(seed, max_states=30, max_params=4,
                           rewards=seed % 2 == 0)
    goal = family.label_states("goal")
    for r in itertools.islice(all_realisations(family), 8):
        assert_exact_equations(instantiate(family, r), goal)


@pytest.mark.parametrize("k", range(1, 8))
def test_exact_solver_satisfies_its_equations_on_stiff_chains(k):
    family = ladder(k)
    for r in all_realisations(family):
        mc = instantiate(family, r)
        assert_exact_equations(mc, mc.label_states("goal"))
        assert exact_mc_probability(mc, mc.label_states("goal"))[0] == \
            Fraction(1, 2)
    # a stiff four-state cycle 0-1-2-3 leaking to the goal (4), the sink (5)
    # and a three-state trap 6-7-8 that never reaches the goal
    stay = 1 - Fraction(1, 10 ** k)
    leak = (1 - stay) / 3
    rows = [((s, stay), ((s + 1) % 4, leak), (exit_, 2 * leak))
            for s, exit_ in enumerate((4, 5, 6, 4))]
    rows += [((4, Fraction(1)),), ((5, Fraction(1)),)]
    rows += [((7, Fraction(1, 3)), (8, Fraction(2, 3))), ((8, Fraction(1)),),
             ((6, Fraction(1)),)]
    rewards = tuple(Fraction(r) for r in (1, 2, 3, 4, 0, 0, 1, 1, 1))
    mc = ConcreteMC(9, 0, tuple(rows), rewards, frozenset(range(9)))
    for goal in ({4}, {4, 5}, {4, 5, 6}, {7}):
        assert_exact_equations(mc, frozenset(goal))
    assert exact_mc_reward(mc, frozenset({4, 5, 6}))[0] is not None


# Fixpoint formulations of the graph analyses, kept as references for the
# worklist versions: each sweeps every live state until nothing changes.

def live_states(mdp):
    return range(mdp.n_states) if mdp.live is None else mdp.live


def fixpoint_prob0_exists(mdp, goal):
    inside = set(live_states(mdp)) - set(goal)
    changed = True
    while changed:
        changed = False
        for s in sorted(inside):
            if not any(all(t in inside for t, _ in dist)
                       for dist, _ in mdp.actions[s]):
                inside.discard(s)
                changed = True
    return frozenset(inside)


def fixpoint_backward_closure(mdp, targets, skip):
    seen = set(targets)
    changed = True
    while changed:
        changed = False
        for s in live_states(mdp):
            if s in seen or s in skip:
                continue
            if any(t in seen for dist, _ in mdp.actions[s] for t, _ in dist):
                seen.add(s)
                changed = True
    return seen


def fixpoint_prob1_exists(mdp, goal):
    universe = set(live_states(mdp))
    while True:
        value_set = set(goal) & universe
        choice = {}
        while True:
            frontier = frozenset(value_set)
            added = False
            for s in live_states(mdp):
                if s not in universe or s in frontier:
                    continue
                for ai, (dist, _) in enumerate(mdp.actions[s]):
                    if all(t in universe for t, _ in dist) and any(
                            t in frontier for t, _ in dist):
                        value_set.add(s)
                        choice[s] = ai
                        added = True
                        break
            if not added:
                break
        if value_set == universe:
            return frozenset(universe), choice
        universe = value_set


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_graph_analyses_match_fixpoint_references(seed):
    rng = random.Random(seed)
    family = random_family(seed, max_states=rng.choice([6, 12, 24]),
                           max_params=rng.choice([3, 6]))
    quotient = build_quotient(family)
    states = range(family.n_states)
    goals = [family.label_states("goal"), frozenset(),
             frozenset(rng.sample(states, rng.randint(1, len(states))))]
    for sub in (Subfamily.full(family), random_subfamily(family, rng),
                random_subfamily(family, rng)):
        restricted = quotient.restrict(sub)
        mdp = restricted.mdp
        # family numbers throughout: goal states the restriction does not
        # reach are passed as they are
        everything = frozenset(mdp.live)
        for goal in goals:
            avoidable = fixpoint_prob0_exists(mdp, goal)
            assert prob0_exists(mdp, goal) == avoidable
            sure = everything - fixpoint_backward_closure(mdp, avoidable, goal)
            assert prob1_forall(mdp, goal) == sure
            assert prob1_forall(mdp, goal, avoidable=avoidable) == sure
            assert prob0_forall(mdp, goal) == \
                everything - fixpoint_backward_closure(mdp, goal, frozenset())
            region, witness = prob1_exists(mdp, goal)
            ref_region, ref_witness = fixpoint_prob1_exists(mdp, goal)
            assert region == ref_region
            assert witness == ref_witness


def compacted(mdp):
    """``mdp``'s live states renumbered 0, 1, ... in ascending order, as an
    MDP without dead states, and the map from its numbers to the new ones."""
    local = {s: i for i, s in enumerate(mdp.live)}
    actions = [[MdpAction(tuple((local[t], p) for t, p in dist), tag)
                for dist, tag in mdp.actions[s]] for s in mdp.live]
    rewards = None if mdp.rewards is None else \
        [mdp.rewards[s] for s in mdp.live]
    return SparseMDP(len(local), local[mdp.initial], actions, rewards), local


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_family_numbered_restriction_solves_like_its_compacted_copy(seed):
    # the engine solves only a restriction's live states, and in family
    # order: bit for bit the solve of the same states numbered 0, 1, ...
    rng = random.Random(seed)
    family = random_family(seed, max_states=rng.choice([6, 12, 24]),
                           max_params=rng.choice([3, 6]), max_domain=4,
                           rewards=True)
    goal = family.label_states("goal")
    quotient = build_quotient(family)
    for sub in (Subfamily.full(family), random_subfamily(family, rng),
                random_subfamily(family, rng)):
        mdp = quotient.restrict(sub).mdp
        small, local = compacted(mdp)
        small_goal = frozenset(local[s] for s in goal if s in local)
        for solve in (solve_prob, solve_reward):
            for direction in ("max", "min"):
                try:
                    want = solve(small, small_goal, direction)
                except UndefinedRewardError:
                    with pytest.raises(UndefinedRewardError):
                        solve(mdp, goal, direction)
                    continue
                got = solve(mdp, goal, direction)
                assert got.pinned == want.pinned
                assert got.at_initial.hex() == want.at_initial.hex()
                assert [got.values[s].hex() for s in local] == \
                    [v.hex() for v in want.values]
                assert [got.choices[s] for s in local] == \
                    list(want.choices)


def assert_hint_changes_nothing(mdp, goal, hints):
    """Solve both directions for probabilities and rewards, cold and from
    each hint: every value stays at or below the exact optimum (where the
    scheduler enumeration is small enough), and the value at the initial
    state within a relative 1e-9 of the cold solve's."""
    kinds = [(solve_prob, "probability")]
    if mdp.rewards is not None:
        kinds.append((solve_reward, "reward"))
    for solve, kind in kinds:
        optima = exact_optima(mdp, goal, kind)
        for i, direction in enumerate(("min", "max")):
            try:
                cold = solve(mdp, goal, direction)
            except UndefinedRewardError:
                for hint in hints:
                    with pytest.raises(UndefinedRewardError):
                        solve(mdp, goal, direction, start=hint)
                continue
            for hint in hints + [list(cold.values)]:
                got = solve(mdp, goal, direction, start=hint)
                assert math.isclose(got.at_initial, cold.at_initial,
                                    rel_tol=1e-9)
                if optima is None:
                    continue
                for s, bound in optima[i].items():
                    v = got.values[s]
                    assert v <= bound if math.isinf(v) else \
                        Fraction(v) <= bound


# Hints of the magnitude a solve produces, with non-finite entries, which
# the engine ignores; a hint near the float range could overflow the first
# greedy backup and is not a value any solve hands on.
hint_entries = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, 1.0]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_start_hint_keeps_certified_values_on_restrictions(seed, data):
    # a child restriction solved from arbitrary hints and from the values of
    # its parent, a restriction with more actions, as the loop hands them
    rng = random.Random(seed)
    family = random_family(seed, max_states=8, max_params=3, rewards=True)
    goal = family.label_states("goal")
    quotient = build_quotient(family)
    parent = quotient.restrict(Subfamily.full(family)).mdp
    child = quotient.restrict(random_subfamily(family, rng)).mdp
    n = family.n_states
    hints = [data.draw(st.lists(hint_entries, min_size=n, max_size=n))]
    for solve in (solve_prob, solve_reward):
        for direction in ("min", "max"):
            try:
                hints.append(list(solve(parent, goal, direction).values))
            except UndefinedRewardError:
                pass
    assert_hint_changes_nothing(child, goal, hints)


@settings(max_examples=40, deadline=None)
@given(digits=st.integers(1, 9),
       to_sink=st.lists(st.booleans(), min_size=1, max_size=4),
       rewards=st.lists(st.integers(0, 5), min_size=4, max_size=4),
       data=st.data())
def test_start_hint_keeps_certified_values_on_stiff_ladders(
        digits, to_sink, rewards, data):
    # rung i keeps 1-10**-digits or 1-10**-digits/2 on a self-loop and
    # splits the rest between the next rung and either the sink or the
    # goal; none of these probabilities is dyadic, so rounding shows
    rungs = len(to_sink)
    goal, sink = rungs, rungs + 1
    actions = []
    for i, sink_side in enumerate(to_sink):
        per = []
        for e in (10.0 ** -digits, 10.0 ** -digits / 2):
            per.append(MdpAction(((i, 1 - e), (i + 1, e / 2),
                                  (sink if sink_side else goal, e / 2)), e))
        actions.append(per)
    actions += [[MdpAction(((goal, 1.0),), None)],
                [MdpAction(((sink, 1.0),), None)]]
    mdp = SparseMDP(rungs + 2, 0, actions,
                    [float(r) for r in rewards[:rungs]] + [0.0, 0.0])
    n = rungs + 2
    hints = [data.draw(st.lists(hint_entries, min_size=n, max_size=n))]
    assert_hint_changes_nothing(mdp, frozenset({goal}), hints)


@pytest.mark.parametrize("swap_reward", [0.0, 1.0],
                         ids=["zero-reward-end-component", "no-end-component"])
@settings(max_examples=25, deadline=None)
@given(leave=st.sampled_from([0.5, 0.25, 1e-6]),
       data=st.data())
def test_start_hint_keeps_reward_min_with_and_without_end_components(
        swap_reward, leave, data):
    # states 0 and 1 swap, or leave towards the goal 3 through state 2,
    # which costs 10, or by a lossy exit that may land back at 0; with a
    # zero swap reward the pair is an end component the solver collapses
    mdp = SparseMDP(4, 0,
                    [[MdpAction(((1, 1.0),), "swap"),
                      MdpAction(((0, 1 - leave), (2, leave)), "leave")],
                     [MdpAction(((0, 1.0),), "swap"),
                      MdpAction(((2, 1.0),), "leave")],
                     [MdpAction(((3, 1.0),), None)],
                     [MdpAction(((3, 1.0),), None)]],
                    rewards=[swap_reward, swap_reward, 10.0, 0.0])
    hints = [data.draw(st.lists(hint_entries, min_size=4, max_size=4))]
    assert_hint_changes_nothing(mdp, frozenset({3}), hints)
