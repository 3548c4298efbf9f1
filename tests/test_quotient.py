import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famsynth import (
    ConsistencyError,
    FamilyModel,
    ModelError,
    QuotientMDP,
    Realisation,
    SizeCapError,
    Subfamily,
    all_realisations,
    build_all_in_one,
    build_quotient,
    instantiate,
    is_consistent,
    random_family,
    scheduler_to_realisations,
    solve_prob,
    solve_reward,
)
from famsynth.engine import (
    MdpAction,
    SparseMDP,
    exact_mc_probability,
    exact_mc_reward,
    induced_chain,
)
from famsynth.quotient import inherit
from famsynth.synthesis import important_states
from conftest import R2, random_subfamily

H = Fraction(1, 2)


def pick_scheduler(restricted, wanted):
    """The action indices of a scheduler choosing, per reached state, the
    first action whose partial assignment agrees with ``wanted`` (a dict of
    param name -> value); 0 at every other state."""
    family = restricted.family
    choices = []
    for s, acts in enumerate(restricted.mdp.actions):
        pick = 0
        for ai, (_, ma) in enumerate(acts):
            ok = all(wanted.get(family.param_names[k], v) == v
                     for k, v in zip(ma.params, ma.values))
            if ok:
                pick = ai
                break
        choices.append(pick)
    return tuple(choices)


def test_quotient_merged_action_counts(example1):
    model, _ = example1
    quotient = build_quotient(model)
    assert quotient.action_counts() == (2, 4, 2, 4)
    assert quotient.n_actions == 12


def test_quotient_of_single_realisation_family_is_its_chain():
    model = FamilyModel(
        n_states=2, initial=0, param_names=("a", "b"),
        domains=((1,), (0,)),
        rows=(((Fraction(1), 0),), ((Fraction(1), 1),)))
    quotient = build_quotient(model)
    assert quotient.action_counts() == (1, 1)
    restricted = quotient.restrict(Subfamily.full(model))
    mc = instantiate(model, next(all_realisations(model)))
    for s in range(2):
        [(dist, ma)] = restricted.mdp.actions[s]
        assert ma.dist_exact == mc.rows[s]


def test_two_values_give_two_dirac_actions():
    model = FamilyModel(
        n_states=3, initial=0, param_names=("k",), domains=((1, 2),),
        rows=(((Fraction(1), 0),), ((Fraction(1), 0),), ((Fraction(1), 0),)))
    assert build_quotient(model).action_counts() == (2, 2, 2)


def test_distinct_signatures_same_distribution_merge():
    # two parameters with equal domains: (a,b) and (b,a) give one distribution
    model = FamilyModel(
        n_states=2, initial=0, param_names=("x", "y"),
        domains=((0, 1), (0, 1)),
        rows=(((H, 0), (H, 1)), ((Fraction(1), 0),)))
    quotient = build_quotient(model)
    # signatures 00,01,10,11 -> distributions {0:1}, {0:.5,1:.5} twice, {1:1}
    assert quotient.action_counts()[0] == 3
    bound = len(model.domains[0]) * len(model.domains[1])
    assert quotient.action_counts()[0] <= bound


def test_restrict_keeps_matching_signatures(example1):
    model, _ = example1
    quotient = build_quotient(model)
    sub = Subfamily(((0,), (1,), (2, 3)))
    restricted = quotient.restrict(sub)
    [(dist, ma)] = restricted.mdp.actions[0]
    assert ma.dist_exact == ((0, H), (1, H))
    assert len(restricted.mdp.actions[1]) == 2  # k1 fixed, k2 still free


def test_restrict_rejects_a_value_outside_the_domain(example1):
    # k1's domain is (0, 1): state 7 is no value of it, and the "subfamily"
    # would have size 6 in a family of 4 members
    model, _ = example1
    with pytest.raises(ModelError, match=r"\(0, 1, 7\) of k1") as err:
        QuotientMDP(model).restrict(Subfamily(((0,), (0, 1, 7), (2, 3))))
    assert err.value.code == "bad-domain"
    with pytest.raises(ModelError, match="k2"):
        QuotientMDP(model).restrict(Subfamily(((0,), (0, 1), (3, 3))))


def test_restrict_rejects_a_subfamily_of_another_arity(example1):
    # example1 has three parameters: a fourth subset once gave a restriction
    # of size 8, and two subsets an IndexError
    model, _ = example1
    for subsets in (((0,), (0, 1), (2, 3), (1, 2)), ((0,), (0, 1))):
        with pytest.raises(ModelError, match=f"{len(subsets)} parameters, "
                           "the family 3") as err:
            QuotientMDP(model).restrict(Subfamily(subsets))
        assert err.value.code == "bad-domain"


def test_restrict_to_full_family_is_identity(example1):
    model, _ = example1
    quotient = build_quotient(model)
    full = quotient.restrict(Subfamily.full(model))
    assert tuple(len(a) for a in full.mdp.actions) == (2, 4, 2, 4)


def test_singleton_restriction_replays_instantiation(example1):
    model, _ = example1
    quotient = build_quotient(model)
    for r in all_realisations(model):
        restricted = quotient.restrict(Subfamily.of_realisation(r))
        mc = instantiate(model, r)
        for s in restricted.mdp.live:
            [(dist, ma)] = restricted.mdp.actions[s]
            assert ma.dist_exact == mc.rows[s]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_merged_replay_on_random_families(seed):
    family = random_family(seed, max_states=6)
    quotient = build_quotient(family)
    for r in all_realisations(family):
        restricted = quotient.restrict(Subfamily.of_realisation(r))
        mc = instantiate(family, r)
        for s in restricted.mdp.live:
            [(_, ma)] = restricted.mdp.actions[s]
            assert ma.dist_exact == mc.rows[s]


def test_merged_action_count_bound_on_random_families():
    for seed in range(25):
        family = random_family(seed, max_states=7, max_params=3)
        quotient = build_quotient(family)
        for s, count in enumerate(quotient.action_counts()):
            bound = 1
            for k in family.support(s):
                bound *= len(family.domains[k])
            assert 1 <= count <= bound


def test_inconsistent_scheduler_detected(example1):
    model, _ = example1
    quotient = build_quotient(model)
    restricted = quotient.restrict(Subfamily.full(model))
    # k1=1 at state 0 (reaches state 1), k1=0 elsewhere
    choices = list(pick_scheduler(restricted, {"k1": 1}))
    # at state 1 deliberately choose a k1=0 action
    for ai, (_, ma) in enumerate(restricted.mdp.actions[1]):
        if dict(zip(ma.params, ma.values))[1] == 0:
            choices[1] = ai
            break
    sched = tuple(choices)
    ok, witness = is_consistent(restricted, sched, frozenset())
    assert not ok
    assert witness[0] == 1  # parameter index of k1
    with pytest.raises(ConsistencyError):
        scheduler_to_realisations(restricted, sched, frozenset())


def test_singleton_restriction_scheduler_is_consistent(example1):
    model, _ = example1
    quotient = build_quotient(model)
    restricted = quotient.restrict(Subfamily.of_realisation(Realisation(R2)))
    sched = pick_scheduler(restricted, {})
    ok, _ = is_consistent(restricted, sched, frozenset())
    assert ok
    sub = scheduler_to_realisations(restricted, sched, frozenset())
    assert sub.to_realisation() == Realisation(R2)


def test_conflict_at_unreachable_state_is_ignored():
    # state 2 is unreachable under a scheduler that fixes a=1 at state 0
    model = FamilyModel(
        n_states=3, initial=0, param_names=("a", "c"),
        domains=((1, 2), (1,)),
        rows=(((Fraction(1), 0),), ((Fraction(1), 1),), ((Fraction(1), 0),)))
    quotient = build_quotient(model)
    restricted = quotient.restrict(Subfamily.full(model))
    choices = []
    for s, acts in enumerate(restricted.mdp.actions):
        want = 1 if s == 0 else (2 if s == 2 else None)
        pick = 0
        for ai, (_, ma) in enumerate(acts):
            assignment = dict(zip(ma.params, ma.values))
            if want is None or assignment.get(0) == want:
                pick = ai
                break
        choices.append(pick)
    sched = tuple(choices)
    ok, _ = is_consistent(restricted, sched, frozenset())
    assert ok
    sub = scheduler_to_realisations(restricted, sched, frozenset())
    assert sub.subsets[0] == (1,)


def test_scheduler_to_realisations_keeps_unseen_params_free():
    # parameter b only matters at state 2, which the scheduler never reaches
    model = FamilyModel(
        n_states=3, initial=0, param_names=("a", "b"),
        domains=((1,), (0, 2)),
        rows=(((Fraction(1), 0),), ((Fraction(1), 0),), ((Fraction(1), 1),)))
    quotient = build_quotient(model)
    restricted = quotient.restrict(Subfamily.full(model))
    sched = pick_scheduler(restricted, {})
    sub = scheduler_to_realisations(restricted, sched, frozenset())
    assert sub.subsets == ((1,), (0, 2))


def test_worked_example_consistent_scheduler_maps_to_r2(example1):
    model, _ = example1
    quotient = build_quotient(model)
    restricted = quotient.restrict(Subfamily.full(model))
    sched = pick_scheduler(restricted, {"k1": 1, "k2": 2})
    ok, _ = is_consistent(restricted, sched, frozenset())
    assert ok
    sub = scheduler_to_realisations(restricted, sched, frozenset())
    assert sub.to_realisation() == Realisation(R2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_consistent_scheduler_value_multisets_agree(seed):
    """Values of all singleton-consistent schedulers == member values."""
    family = random_family(seed, max_states=6, max_params=3, max_domain=2)
    if family.n_realisations > 32:
        return
    goal = family.label_states("goal")
    quotient = build_quotient(family)
    member_values = []
    consistent_values = []
    for r in all_realisations(family):
        mc = instantiate(family, r)
        member_values.append(float(exact_mc_probability(mc, goal)[mc.initial]))
        restricted = quotient.restrict(Subfamily.of_realisation(r))
        consistent_values.append(solve_prob(
            restricted.mdp, goal, "max").at_initial)
    member_values.sort()
    consistent_values.sort()
    assert all(abs(a - b) <= 1e-6
               for a, b in zip(member_values, consistent_values))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_sandwich_min_member_max(seed):
    family = random_family(seed, max_states=7)
    goal = family.label_states("goal")
    quotient = build_quotient(family)
    restricted = quotient.restrict(Subfamily.full(family))
    hi = solve_prob(restricted.mdp, goal, "max").at_initial
    lo = solve_prob(restricted.mdp, goal, "min").at_initial
    for r in all_realisations(family):
        mc = instantiate(family, r)
        v = float(exact_mc_probability(mc, goal)[mc.initial])
        assert lo - 1e-6 <= v <= hi + 1e-6


def test_all_in_one_worked_example(example1):
    model, _ = example1
    aio = build_all_in_one(model)
    assert len(aio.mdp.actions[0]) == 4
    # under the first member (a self-looping chain) only (0, r1) is reachable
    first = aio.mdp.actions[0][0]
    assert first.tag == 0
    [(target, p)] = first.dist
    assert p == 1.0
    assert aio.state_info[target] == (model.initial, 0)
    (succ, prob), = aio.mdp.actions[target][0].dist
    assert succ == target and prob == 1.0


def test_all_in_one_max_matches_quotient(example1):
    model, _ = example1
    aio = build_all_in_one(model)
    goal = aio.goal_ids("one")
    assert solve_prob(aio.mdp, goal, "max").at_initial == \
        pytest.approx(1.0, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_all_in_one_extremes_match_quotient_extremes(seed):
    family = random_family(seed, max_states=6, max_params=2)
    goal = family.label_states("goal")
    quotient = build_quotient(family).restrict(Subfamily.full(family))
    aio = build_all_in_one(family)
    aio_goal = aio.goal_ids("goal")
    for direction in ("max", "min"):
        q = solve_prob(quotient.mdp, goal, direction).at_initial
        a = solve_prob(aio.mdp, aio_goal, direction).at_initial
        assert a == pytest.approx(q, abs=1e-6)


def test_all_in_one_cap(example1):
    model, _ = example1
    with pytest.raises(SizeCapError):
        build_all_in_one(model, cap=3)


def test_single_member_all_in_one_is_prefixed_chain():
    model = FamilyModel(
        n_states=2, initial=0, param_names=("a",), domains=((1,),),
        rows=(((Fraction(1), 0),), ((Fraction(1), 0),)))
    aio = build_all_in_one(model)
    assert len(aio.mdp.actions[0]) == 1
    assert all(len(acts) == 1 for acts in aio.mdp.actions)


def listed_actions(quotient):
    """Per merged action of each state the full family's restriction
    reaches, in family numbers and action order: the state, the assignment
    as ``name=value`` pairs and the exact distribution."""
    family = quotient.family
    mdp = quotient.restrict(Subfamily.full(family)).mdp
    return [(s, ",".join(f"{family.param_names[k]}={v}"
                         for k, v in zip(ma.params, ma.values)),
             ma.dist_exact)
            for s, acts in enumerate(mdp.actions) for _, ma in acts]


def test_restriction_lists_every_action(example1):
    model, _ = example1
    listed = listed_actions(build_quotient(model))
    assert [s for s, _, _ in listed].count(0) == 2
    assert [s for s, _, _ in listed].count(1) == 4
    assert any("k1=1" in sig for _, sig, _ in listed)


def unreachable_family(conflict=False):
    """Four states: nothing leads to state 2, and state 0 leads to state 3
    only when ``k`` is 3.  With ``conflict`` state 3 reads ``k`` too."""
    rows = ((Fraction(1), 0),), ((Fraction(1), 1),), ((Fraction(1), 1),), \
        ((Fraction(1), 0 if conflict else 1),)
    return FamilyModel(
        n_states=4, initial=0, param_names=("k", "one"),
        domains=((1, 3), (1,)), rows=rows,
        rewards=(Fraction(1), Fraction(0), Fraction(5), Fraction(2)))


def naive_restriction(family, sub):
    """Per state, (params, values, exact dist) of the first signature of each
    distinct distribution, filtering the full signature product."""
    out = []
    for s in range(family.n_states):
        supp = family.support(s)
        seen = set()
        row = []
        for sig in product(*(family.domains[k] for k in supp)):
            if any(v not in sub.subsets[k] for k, v in zip(supp, sig)):
                continue
            value = dict(zip(supp, sig))
            merged = {}
            for p, k in family.rows[s]:
                merged[value[k]] = merged.get(value[k], 0) + p
            dist = tuple(sorted(merged.items()))
            if dist not in seen:
                seen.add(dist)
                row.append((supp, sig, dist))
        out.append(row)
    return out


def naive_reached(family, rows):
    """States the initial state reaches over the naive filter's actions."""
    seen = {family.initial}
    stack = [family.initial]
    while stack:
        for _, _, dist in rows[stack.pop()]:
            for t, _ in dist:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return seen


def assert_restriction_is_naive_filter(quotient, sub):
    """The restriction's live states are exactly the states the naive filter
    reaches, ascending; they hold the naive filter's actions in family
    numbers, and every other state holds none."""
    family = quotient.family
    restricted = quotient.restrict(sub)
    rows = naive_restriction(family, sub)
    assert restricted.mdp.live == tuple(sorted(naive_reached(family, rows)))
    assert restricted.mdp.n_states == family.n_states
    assert restricted.mdp.initial == family.initial
    for s, actions in enumerate(restricted.mdp.actions):
        got = [(ma.params, ma.values, ma.dist_exact) for _, ma in actions]
        assert got == (rows[s] if s in restricted.mdp.live else [])
        for dist, ma in actions:
            assert dist == tuple((t, float(p)) for t, p in ma.dist_exact)
    return restricted


def naive_mdp(family, sub):
    """The naive filter as an MDP over every family state, family-numbered."""
    actions = [[MdpAction(tuple((t, float(p)) for t, p in dist), None)
                for _, _, dist in row]
               for row in naive_restriction(family, sub)]
    rewards = None
    if family.rewards is not None:
        rewards = [float(r) for r in family.rewards]
    return SparseMDP(family.n_states, family.initial, actions, rewards)


def assert_solutions_match_naive(restricted, goal):
    """Both directions give bit-identical values and equal choices at every
    reached state, against the engine run on the family-numbered MDP."""
    naive = naive_mdp(restricted.family, restricted.sub)
    states = restricted.mdp.live
    solvers = [solve_prob]
    if naive.rewards is not None:
        solvers.append(solve_reward)
    for solve in solvers:
        for direction in ("max", "min"):
            want = solve(naive, goal, direction)
            got = solve(restricted.mdp, goal, direction)
            for s in states:
                assert got.values[s] == want.values[s]
                assert got.choices[s] == want.choices[s]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_restrict_matches_naive_filter(seed):
    rng = random.Random(seed)
    family = random_family(seed, max_states=rng.choice([5, 10]),
                           max_params=rng.choice([3, 5]), max_domain=4,
                           rewards=True)
    goal = family.label_states("goal")
    quotient = build_quotient(family)
    subs = [Subfamily.full(family)]
    subs += [random_subfamily(family, rng) for _ in range(4)]
    members = list(all_realisations(family))
    subs += [Subfamily.of_realisation(r)
             for r in rng.sample(members, min(4, len(members)))]
    # twice over, so later restrictions reuse the actions of earlier ones
    for sub in subs + subs[::-1]:
        parent = assert_restriction_is_naive_filter(quotient, sub)
        assert_solutions_match_naive(parent, goal)
        # children after their parent: the states the split parameter does
        # not touch reuse the parent's memoised actions, the others are
        # enumerated
        for k, current in enumerate(sub.subsets):
            if len(current) < 2:
                continue
            keep = rng.sample(current, rng.randint(1, len(current) - 1))
            for child in sub.split(k, keep):
                restricted = assert_restriction_is_naive_filter(quotient,
                                                                child)
                assert restricted.mdp.actions == \
                    QuotientMDP(family).restrict(child).mdp.actions
                assert_solutions_match_naive(restricted, goal)
                assert set(restricted.mdp.live) <= set(parent.mdp.live)
                for s in restricted.mdp.live:
                    if k not in family.support(s):
                        assert restricted.mdp.actions[s] is \
                            parent.mdp.actions[s]


def assert_inherited_is_sound(parent, res, child, got, goal, solve,
                              direction):
    """``got = inherit(parent.mdp.actions, res, child, goal)``, with ``res``
    from ``solve(parent.mdp, goal, direction)``, is None exactly when some
    state of ``child`` outside ``goal`` lost the distribution the parent's
    scheduler chose there; otherwise, at every state of ``child``, it agrees
    with a fresh solve on ``child`` and is attained by the scheduler it
    carries, whose choices index the child's own actions outside ``goal``."""
    chosen = [acts[c].tag if acts else None
              for acts, c in zip(parent.mdp.actions, res.choices)]
    kept = [s for s in child.mdp.live if s not in goal]
    survives = all(any(ma.dist_exact == chosen[s].dist_exact
                       for _, ma in child.mdp.actions[s])
                   for s in kept)
    assert (got is not None) == survives
    if got is None:
        return
    fresh = solve(child.mdp, goal, direction)
    assert got.pinned == res.pinned
    assert got.at_initial == got.values[child.mdp.initial]
    for s in child.mdp.live:
        v, w = got.values[s], fresh.values[s]
        assert v == w == float("inf") or v == pytest.approx(w, rel=1e-9,
                                                            abs=0)
    for s in kept:
        acts = child.mdp.actions[s]
        assert acts[got.choices[s]].tag.dist_exact == chosen[s].dist_exact
    chain = induced_chain(child.mdp, got.choices)
    if solve is solve_prob:
        exact = exact_mc_probability(chain, goal)
    else:
        exact = exact_mc_reward(chain, goal)
    for s in child.mdp.live:
        v, e = got.values[s], exact[s]
        if v == math.inf:
            assert e == math.inf
        else:
            assert Fraction(v) <= e < math.inf


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_inherited_result_is_the_childs_own(seed):
    # a subfamily split a few times; both children of each split inherit
    # every direction their parent solved
    rng = random.Random(seed)
    family = random_family(seed, max_states=rng.choice([6, 12]),
                           max_params=rng.choice([2, 4]), max_domain=4,
                           rewards=True)
    goal = family.label_states("goal")
    quotient = build_quotient(family)
    parent = quotient.restrict(Subfamily.full(family))
    for _ in range(3):
        splittable = [k for k, values in enumerate(parent.sub.subsets)
                      if len(values) > 1]
        if not splittable:
            break
        k = rng.choice(splittable)
        current = parent.sub.subsets[k]
        keep = rng.sample(current, rng.randint(1, len(current) - 1))
        children = [quotient.restrict(child)
                    for child in parent.sub.split(k, keep)]
        for solve in (solve_prob, solve_reward):
            for direction in ("max", "min"):
                res = solve(parent.mdp, goal, direction)
                for child in children:
                    if direction == "min" and res.at_initial == math.inf:
                        # a reward no parent scheduler defines: no child
                        # scheduler defines it either
                        assert solve(child.mdp, goal,
                                     direction).at_initial == math.inf
                    assert_inherited_is_sound(
                        parent, res, child,
                        inherit(parent.mdp.actions, res, child, goal), goal,
                        solve, direction)
        parent = rng.choice(children)


def consistency(restricted, choices, goal):
    """``is_consistent``'s answer, and the subfamily of a consistent
    scheduler."""
    ok, witness = is_consistent(restricted, choices, goal)
    return ok, witness, (scheduler_to_realisations(restricted, choices, goal)
                         if ok else None)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6))
def test_goal_state_choices_are_never_read(seed):
    # a first-visit value never reads the choice at a goal state, so no
    # answer may change when every goal state's choice moves to another of
    # its actions: not the important states, the consistency verdict and
    # member, nor a child's inheritance and values
    rng = random.Random(seed)
    family = random_family(seed, max_states=rng.choice([6, 12, 24]),
                           max_params=rng.choice([2, 4]), max_domain=4,
                           rewards=True)
    goal = family.label_states("goal")
    quotient = build_quotient(family)
    parent = quotient.restrict(random_subfamily(family, rng))
    splittable = parent.sub.splittable
    children = []
    if splittable:
        k = rng.choice(splittable)
        current = parent.sub.subsets[k]
        keep = rng.sample(current, rng.randint(1, len(current) - 1))
        children = [quotient.restrict(child)
                    for child in parent.sub.split(k, keep)]

    def moved(res):
        choices = list(res.choices)
        for s in goal.intersection(parent.mdp.live):
            choices[s] = rng.randrange(len(parent.mdp.actions[s]))
        return dataclasses.replace(res, choices=tuple(choices))

    def same(got, want):
        return (got is None) == (want is None) and (
            got is None or got.values == want.values)

    for solve in (solve_prob, solve_reward):
        res = {}
        for direction in ("max", "min"):
            res[direction] = solve(parent.mdp, goal, direction)
            ours, theirs = res[direction], moved(res[direction])
            assert consistency(parent, theirs.choices, goal) == \
                consistency(parent, ours.choices, goal)
            for child in children:
                assert same(inherit(parent.mdp.actions, theirs, child, goal),
                            inherit(parent.mdp.actions, ours, child, goal))
        assert important_states(moved(res["min"]), moved(res["max"]),
                                parent, goal) == \
            important_states(res["min"], res["max"], parent, goal)


def test_restriction_drops_states_the_initial_state_cannot_reach():
    quotient = build_quotient(unreachable_family())
    full = quotient.restrict(Subfamily.full(quotient.family))
    assert full.mdp.live == (0, 1, 3)
    # family state 2 keeps no action; state 3 and its successor keep their
    # family numbers
    assert full.mdp.actions[2] == []
    assert [dist for dist, _ in full.mdp.actions[0]] == \
        [((1, 1.0),), ((3, 1.0),)]
    assert full.mdp.rewards == [1.0, 0.0, 5.0, 2.0]
    # a smaller restriction drops state 3 and keeps the others' numbers
    only_one = quotient.restrict(Subfamily(((1,), (1,))))
    assert only_one.mdp.live == (0, 1)
    assert only_one.mdp.actions[3] == []
    assert only_one.mdp.actions[0] == full.mdp.actions[0][:1]


def test_conflict_witness_names_family_states():
    quotient = build_quotient(unreachable_family(conflict=True))
    restricted = quotient.restrict(Subfamily.full(quotient.family))
    assert restricted.mdp.live == (0, 1, 3)
    # k = 3 at state 0 leads to state 3, which picks k = 1
    wanted = {0: 3, 3: 1}
    choices = [0] * 4
    for s in restricted.mdp.live:
        acts = restricted.mdp.actions[s]
        choices[s] = next(ai for ai, (_, ma) in enumerate(acts)
                          if s not in wanted or ma.values == (wanted[s],))
    scheduler = tuple(choices)
    assert is_consistent(restricted, scheduler, frozenset()) == \
        (False, (0, 0, 3))
    with pytest.raises(ConsistencyError, match="for k at states 0 and 3$"):
        scheduler_to_realisations(restricted, scheduler, frozenset())


def test_restriction_names_family_states_and_skips_unreached_ones():
    quotient = build_quotient(unreachable_family())
    mdp = quotient.restrict(Subfamily.full(quotient.family)).mdp
    assert (mdp.n_states, mdp.initial) == (4, 0)
    assert listed_actions(quotient) == [
        (0, "k=1", ((1, 1),)),
        (0, "k=3", ((3, 1),)),
        (1, "one=1", ((1, 1),)),
        (3, "one=1", ((1, 1),)),
    ]


def test_tables_are_built_on_first_reach(monkeypatch):
    built = []
    build = QuotientMDP._record

    def counting(quotient, s):
        built.append(s)
        return build(quotient, s)

    monkeypatch.setattr(QuotientMDP, "_record", counting)
    quotient = build_quotient(unreachable_family())
    assert built == []
    # nothing per state before the first restriction: no record, memo or
    # memo key, only the rewards the engine reads at every state
    assert quotient._records == [None] * 4
    assert set(vars(quotient)) == {"family", "_records", "_rewards_float"}
    quotient.restrict(Subfamily.full(quotient.family))
    quotient.restrict(Subfamily(((1,), (1,))))
    # state 2 is never reached, and no reached state is made twice
    assert sorted(built) == [0, 1, 3]
    assert quotient._records[2] is None
    assert quotient.action_counts() == (2, 1, 1, 1)
    assert sorted(built) == [0, 1, 2, 3]


def test_signatures_keep_their_action_and_share_their_distribution():
    # a=1, b=2 and a=2, b=1 give one distribution.  A signature keeps one
    # action object in every list it appears in, and the signatures of one
    # distribution share its float and integer forms: ``inherit``'s
    # comparisons and the kept quotient's footprint rely on both
    family = FamilyModel(
        n_states=3, initial=0, param_names=("a", "b"),
        domains=((1, 2), (1, 2)),
        rows=(((H, 0), (H, 1)), ((Fraction(1), 0),), ((Fraction(1), 1),)))
    quotient = build_quotient(family)
    lists = [quotient.restrict(Subfamily(subsets)).mdp.actions[0]
             for subsets in (((1, 2), (1, 2)), ((2,), (1, 2)),
                             ((1, 2), (1,)), ((2,), (1,)))]
    [whole, a2, b1, both] = [{action.tag.values: action for action in acts}
                             for acts in lists]
    assert list(whole) == [(1, 1), (1, 2), (2, 2)]
    assert list(a2) == [(2, 1), (2, 2)] and list(b1) == [(1, 1), (2, 1)]
    assert whole[(2, 2)] is a2[(2, 2)]
    assert a2[(2, 1)] is b1[(2, 1)] is both[(2, 1)]
    # the two signatures of the mixed distribution share its float and
    # integer forms
    assert whole[(1, 2)].dist is a2[(2, 1)].dist
    assert whole[(1, 2)].tag.masses is a2[(2, 1)].tag.masses
    assert whole[(1, 2)].tag.dist_exact == ((1, H), (2, H))


def test_unification_is_exact_for_non_dyadic_weights():
    # state 0: 1/2 = 1/3 + 1/6, so a=1, b=c=2 and a=2, b=c=1 give the same
    # distribution; state 1: 1/10 + 1/5 = 3/10 exactly but not in floats
    assert 0.1 + 0.2 != 0.3
    third, sixth, tenth = Fraction(1, 3), Fraction(1, 6), Fraction(1, 10)
    family = FamilyModel(
        n_states=3, initial=0,
        param_names=("a", "b", "c", "d", "e", "f", "g", "h"),
        domains=((1, 2),) * 3 + ((0, 2),) * 4 + ((2,),),
        rows=(((H, 0), (third, 1), (sixth, 2)),
              ((tenth, 3), (2 * tenth, 4), (3 * tenth, 5), (4 * tenth, 6)),
              ((Fraction(1), 7),)))
    quotient = build_quotient(family)
    assert quotient.action_counts() == (7, 11, 1)
    # the helper also checks each ``dist`` against ``float`` of
    # ``dist_exact``, entry by entry
    full = assert_restriction_is_naive_filter(quotient,
                                              Subfamily.full(family))
    merged = {0: ((1, 2, 2), (2, 1, 1)), 1: ((0, 0, 2, 2), (2, 2, 0, 2))}
    for s, (first, second) in merged.items():
        values = [ma.values for _, ma in full.mdp.actions[s]]
        assert first in values and second not in values
    [group] = [ma for _, ma in full.mdp.actions[1]
               if ma.values == (0, 0, 2, 2)]
    assert group.dist_exact == ((0, 3 * tenth), (2, 7 * tenth))
    # without its smallest signature the group keeps the other one
    for s, sub in ((0, Subfamily(((2,), (1, 2), (1, 2), (0, 2), (0, 2),
                                  (0, 2), (0, 2), (2,)))),
                   (1, Subfamily(((1, 2), (1, 2), (1, 2), (2,), (0, 2),
                                  (0, 2), (0, 2), (2,))))):
        restricted = assert_restriction_is_naive_filter(quotient, sub)
        acts = restricted.mdp.actions[s]
        assert merged[s][1] in [ma.values for _, ma in acts]


def test_restrict_representative_ignores_subset_order(example1):
    model, _ = example1
    quotient = build_quotient(model)
    forward = Subfamily(((0,), (0, 1), (2, 3)))
    backward = Subfamily(((0,), (1, 0), (3, 2)))
    for sub in (forward, backward):
        assert_restriction_is_naive_filter(quotient, sub)
    assert quotient.restrict(forward).mdp.actions == \
        quotient.restrict(backward).mdp.actions


def test_worked_example_actions_are_pinned(example1):
    model, _ = example1
    quotient = build_quotient(model)
    mdp = quotient.restrict(Subfamily.full(model)).mdp
    assert (mdp.n_states, mdp.initial) == (4, 0)
    assert listed_actions(quotient) == [
        (0, "k0=0,k1=0", ((0, 1),)),
        (0, "k0=0,k1=1", ((0, H), (1, H))),
        (1, "k1=0,k2=2", ((0, H), (2, H))),
        (1, "k1=0,k2=3", ((0, H), (3, H))),
        (1, "k1=1,k2=2", ((1, H), (2, H))),
        (1, "k1=1,k2=3", ((1, H), (3, H))),
        (2, "k2=2", ((2, 1),)),
        (2, "k2=3", ((3, 1),)),
        (3, "k1=0,k2=2", ((0, H), (2, H))),
        (3, "k1=0,k2=3", ((0, H), (3, H))),
        (3, "k1=1,k2=2", ((1, H), (2, H))),
        (3, "k1=1,k2=3", ((1, H), (3, H))),
    ]


def test_merged_actions_of_one_signature_compare_equal(example1):
    # separate quotients build separate objects for the same signature
    model, _ = example1
    full = QuotientMDP(model).restrict(Subfamily.full(model))
    part = QuotientMDP(model).restrict(Subfamily(((0,), (1,), (2, 3))))
    for s in part.mdp.live:
        before = {ma.values: ma for _, ma in full.mdp.actions[s]}
        for _, ma in part.mdp.actions[s]:
            twin = before[ma.values]
            assert twin is not ma
            assert twin == ma and hash(twin) == hash(ma)
            assert twin.dist_exact == ma.dist_exact


F = Fraction

# Three parameters over pairwise disjoint domains: no two signatures of a
# row share a distribution.
DISJOINT = FamilyModel(
    n_states=6, initial=0, param_names=("a", "b", "c"),
    domains=((1, 2), (3, 4), (0, 5)),
    rows=(((H, 0), (F(1, 4), 1), (F(1, 4), 2)), ((H, 1), (H, 2)),
          ((F(1, 3), 0), (F(2, 3), 1)), ((F(1), 2),), ((H, 0), (H, 2)),
          ((F(1), 0),)))

# ``x`` and ``y`` carry equal weights over one shared domain, so the
# signatures (x, y) and (y, x) unify at states 0 and 1.
SWAPPED = FamilyModel(
    n_states=5, initial=0, param_names=("x", "y", "z"),
    domains=((1, 2, 3), (1, 2, 3), (0, 4)),
    rows=(((H, 0), (H, 1)), ((F(1, 4), 0), (F(1, 4), 1), (H, 2)),
          ((F(1), 2),), ((H, 0), (H, 2)), ((H, 1), (H, 2))))

# Unequal weights over overlapping domains: a signature may repeat a
# successor, whose masses then add up.
REPEATED = FamilyModel(
    n_states=4, initial=0, param_names=("u", "v", "w"),
    domains=((0, 1), (1, 2), (2, 3)),
    rows=(((F(1, 6), 0), (F(1, 3), 1), (H, 2)), ((F(1, 3), 0), (F(2, 3), 1)),
          ((H, 1), (H, 2)), ((F(1), 2),)))


def boxes(family):
    """Every subfamily whose subset of each parameter is its whole domain or
    a part of it, in domain order."""
    return [Subfamily(box) for box in product(*(
        [part for r in range(1, len(dom) + 1)
         for part in combinations(dom, r)] for dom in family.domains))]


@pytest.mark.parametrize("family", [DISJOINT, SWAPPED, REPEATED],
                         ids=["disjoint", "swapped", "repeated"])
def test_whole_and_partial_domains_match_naive_filter(family):
    # every box after the full family on one quotient, where a state whose
    # support keeps its whole domains hits the memo, and each on a fresh
    # quotient, where such a state is enumerated beside narrowed ones
    shared = build_quotient(family)
    full = assert_restriction_is_naive_filter(shared, Subfamily.full(family))
    for sub in boxes(family):
        assert_restriction_is_naive_filter(shared, sub)
        fresh = assert_restriction_is_naive_filter(QuotientMDP(family), sub)
        assert fresh.mdp.actions == shared.restrict(sub).mdp.actions
    counts = tuple(len(acts) for acts in full.mdp.actions)
    signatures = tuple(len(list(product(*(family.domains[k]
                                          for k in family.support(s)))))
                       for s in range(family.n_states))
    if family is DISJOINT:
        assert counts == signatures == (8, 4, 4, 2, 4, 2)
    elif family is SWAPPED:
        # 9 signatures, 6 distributions: (x, y) and (y, x) share one
        assert counts[:2] == (6, 12) and signatures[:2] == (9, 18)
    else:
        # u = v = 1 puts 1/2 on state 1 at state 0 and 1 at state 1
        assert [ma.dist_exact for _, ma in full.mdp.actions[1]
                if ma.values == (1, 1)] == [((1, F(1)),)]
        assert ((1, H), (2, H)) in [ma.dist_exact
                                    for _, ma in full.mdp.actions[0]]
