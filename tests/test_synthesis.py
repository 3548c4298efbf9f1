import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from famsynth import (
    Realisation,
    Specification,
    Subfamily,
    UndefinedRewardError,
    UnsupportedSpecError,
    all_realisations,
    build_quotient,
    feasibility,
    instantiate,
    max_synthesis,
    member_chain,
    min_synthesis,
    one_by_one,
    parse_family,
    parse_spec,
    random_family,
    random_spec,
    solve_mc_exact,
    solve_prob,
    solve_reward,
    threshold_synthesis,
)
from famsynth import engine, synthesis
from famsynth.synthesis import (_variance_score, extract_counts,
                                 important_states, lead_predicate,
                                 select_predicate)
from famsynth.engine import exact_mc_probability, exact_mc_reward, mdp_from_mc
from famsynth.quotient import before_goal
from conftest import (REPO, R1, R2, R3, R4, ladder, random_subfamily,
                      satisfied_exactly)

NEAR_OPTIMAL_DOC = """
states 4
initial 0
params
k1 : 1 3
k2 : 2 3
k3 : 2 3
k4 : 2 3
k5 : 2 3
k6 : 2 3
kg : 2
ks : 3
trans
0 : 1:k1
1 : 1/5:k2 + 1/5:k3 + 1/5:k4 + 1/5:k5 + 1/5:k6
2 : 1:kg
3 : 1:ks
labels
goal : 2
specs
phi : P>=9/10 F "goal"
"""

# Stiff two-state cycle: each state keeps 1-10**-k on a self-loop and splits
# the rest between the other state and the goal (state 0) or the sink
# (state 1).  From state 0 the goal is reached with probability exactly 2/3
# and "done" after an expected reward of exactly 8/3 * 10**k; the dummy
# parameter on the goal's row makes two members.
CYCLE_DOC = """
states 4
initial 0
params
d : 2 3
a : 0
b : 1
kg : 2
ks : 3
trans
0 : {loop}:a + {half}:b + {half}:kg
1 : {loop}:b + {half}:a + {half}:ks
2 : 1:d
3 : 1:ks
rewards
0 : 1
1 : 2
labels
goal : 2
done : 2 3
"""


def stiff_cycle(k):
    loop = 1 - Fraction(1, 10 ** k)
    family, _ = parse_family(CYCLE_DOC.format(loop=loop, half=(1 - loop) / 2))
    return family


# Near tie: state 0 picks k, state 1 reaches the goal with 1/2 - eps and
# state 2 with 1/2, so the two members differ by eps.  The reward variant
# pays 1 in states 1 and 2 and retries there on a miss, so its members are
# worth 1/(1/2 - eps) and 2.
NEAR_TIE_DOC = """
states 5
initial 0
params
k : 1 2
g : 3
z : 4
trans
0 : 1:k
1 : {lo}:g + {hi}:z
2 : 1/2:g + 1/2:z
3 : 1:g
4 : 1:z
labels
goal : 3
"""

NEAR_TIE_REWARD_DOC = """
states 4
initial 0
params
k : 1 2
g : 3
a : 1
b : 2
trans
0 : 1:k
1 : {lo}:g + {hi}:a
2 : 1/2:g + 1/2:b
3 : 1:g
rewards
1 : 1
2 : 1
labels
goal : 3
"""


def buckets(outcome):
    return (outcome.bucket_members(outcome.accepted),
            outcome.bucket_members(outcome.rejected),
            outcome.bucket_members(outcome.undefined))


def test_threshold_partitions_worked_example(example1):
    model, specs = example1
    out = threshold_synthesis(model, specs["phi"])
    assert out.bucket_members(out.accepted) == {R2, R3}
    assert out.bucket_members(out.rejected) == {R1, R4}
    assert not out.undefined


def test_trivial_lower_bound_accepts_in_one_iteration(example1):
    model, _ = example1
    out = threshold_synthesis(model, parse_spec('P>=0 F "one"'))
    assert out.stats.iterations == 1
    # a probability min decides alone: the max is never solved
    assert out.stats.solver_calls == 1
    assert out.bucket_members(out.accepted) == {R1, R2, R3, R4}


def test_threshold_requires_threshold_spec(example1):
    model, specs = example1
    with pytest.raises(UnsupportedSpecError):
        threshold_synthesis(model, specs["obj"])
    with pytest.raises(UnsupportedSpecError):
        max_synthesis(model, specs["phi"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_threshold_partition_equals_member_by_member_oracle(seed):
    family = random_family(seed, max_states=7, max_params=3,
                           rewards=seed % 2 == 0)
    spec = random_spec(seed, family)
    assert buckets(threshold_synthesis(family, spec)) == \
        buckets(one_by_one(family, spec))


def test_max_synthesis_worked_example(example1):
    model, specs = example1
    out = max_synthesis(model, specs["obj"])
    assert out.best_value == pytest.approx(1.0, abs=1e-6)
    assert out.best.values in {R2, R3}


def test_consistency_ignores_choices_at_the_goal(example1):
    # the root's max scheduler takes k1=1 at state 0 and k1=0 at state 1,
    # the goal; a first visit never uses the goal's choice, so the scheduler
    # is consistent and its member ends the run at the root
    model, specs = example1
    out = max_synthesis(model, specs["obj"], collect_trace=True)
    assert [rec.decision for rec in out.trace] == ["improve"]
    assert out.best.values == R2
    assert out.best_value == 1.0


def test_max_synthesis_single_member_family():
    family = random_family(3, max_params=1, max_domain=1)
    assert family.n_realisations == 1
    spec = Specification(kind="probability", goal="goal", direction="max")
    out = max_synthesis(family, spec)
    mc = instantiate(family, out.best)
    goal = family.label_states("goal")
    assert out.best_value == pytest.approx(
        float(exact_mc_probability(mc, goal)[mc.initial]), abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), direction=st.sampled_from(["max", "min"]),
       kind=st.sampled_from(["probability", "expected-reward"]))
def test_optimum_matches_brute_force(seed, direction, kind):
    rewards = kind == "expected-reward"
    family = random_family(seed, max_states=7, max_params=3, rewards=rewards)
    if family.n_realisations > 64:
        return
    spec = Specification(kind=kind, goal="goal", direction=direction)
    goal = family.label_states("goal")
    exact = exact_mc_reward if rewards else exact_mc_probability

    def value(member):
        """The member's exact value; ``inf`` for an undefined reward."""
        mc = instantiate(family, member)
        return float(exact(mc, goal)[mc.initial])

    values = [v for v in map(value, all_realisations(family)) if v != math.inf]
    run = max_synthesis if direction == "max" else min_synthesis
    if not values:
        with pytest.raises(UndefinedRewardError):
            run(family, spec)
        return
    want = max(values) if direction == "max" else min(values)
    out = run(family, spec, collect_trace=True)
    assert out.best_value == pytest.approx(want, abs=1e-6)
    # the witness value matches what the loop reports
    assert value(out.best) == pytest.approx(out.best_value, abs=1e-6)
    # the running bound never decreases (max) / increases (min)
    bounds = [r.best_value for r in out.trace if r.best_value is not None]
    for a, b in zip(bounds, bounds[1:]):
        assert b >= a - 1e-12 if direction == "max" else b <= a + 1e-12


def test_reward_objective_over_partially_defined_family(example1_rewards):
    model, _ = example1_rewards
    spec = Specification(kind="expected-reward", goal="two", direction="max")
    out = max_synthesis(model, spec)
    assert out.best.values == R2
    assert out.best_value == pytest.approx(4.0, abs=1e-6)


def test_reward_objective_with_no_defined_member_raises():
    # the goal is unreachable for every member, so no reward is defined
    doc = """states 2
initial 0
params
a : 0
trans
0 : 1:a
1 : 1:a
rewards
0 : 1
1 : 0
labels
goal : 1
"""
    model, _ = parse_family(doc)
    spec = Specification(kind="expected-reward", goal="goal", direction="max")
    with pytest.raises(UndefinedRewardError):
        max_synthesis(model, spec)


def test_feasibility_worked_example(example1):
    model, specs = example1
    member = feasibility(model, specs["phi"])
    assert member.values in {R2, R3}
    assert member.as_dict(model)["k1"] == 1


def test_feasibility_almost_sure_goal(example1):
    model, _ = example1
    member = feasibility(model, parse_spec('P>=1 F "two"'))
    assert member.values == R2


def test_feasibility_none_when_unsatisfiable():
    doc = """states 3
initial 0
params
kg : 1 2
ks : 2
trans
0 : 1/2:kg + 1/2:ks
1 : 1/2:kg + 1/2:ks
2 : 1:ks
labels
goal : 1
"""
    model, _ = parse_family(doc)
    out = feasibility(model, parse_spec('P>=0.99 F "goal"'))
    assert out is None


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       kind=st.sampled_from(["probability", "expected-reward"]),
       relation=st.sampled_from(["<", "<=", ">=", ">"]),
       pick=st.integers(0, 80), shift=st.sampled_from([-1, 0, 1]))
# a singleton whose bounds straddle the threshold is accepted by its exact
# check, and that member is the answer
@example(seed=28, kind="expected-reward", relation=">=", pick=1, shift=0)
def test_feasibility_member_satisfies_spec_exactly(seed, kind, relation,
                                                   pick, shift):
    # the threshold sits at a member's exact value or just beside it, where
    # a member that only the float bounds satisfy would show
    family = random_family(seed, max_states=20, max_params=5, rewards=True)
    objective = Specification(kind=kind, goal="goal", direction="max")
    values = [v for v in (solve_mc_exact(instantiate(family, r), objective)
                          for r in all_realisations(family)) if v != math.inf]
    threshold = sorted(values)[pick % len(values)] if values else Fraction(1)
    threshold = max(Fraction(0), threshold + Fraction(shift, 1000))
    if kind == "probability":
        threshold = min(threshold, Fraction(1))
        if (relation, threshold) in ((">", 1), ("<", 0)):
            relation = relation + "="
    spec = Specification(kind=kind, goal="goal", relation=relation,
                         threshold=threshold)
    member = feasibility(family, spec)
    if member is None:
        assert not one_by_one(family, spec).accepted
    else:
        assert satisfied_exactly(instantiate(family, member), spec)


@pytest.mark.parametrize("doc, eps, query", [
    (NEAR_TIE_DOC, Fraction(-1, 10 ** 17), "P<=1/2"),
    (NEAR_TIE_REWARD_DOC, Fraction(1, 10 ** 17), "E<=2"),
    (NEAR_TIE_DOC, Fraction(1, 10 ** 17), "P>=1/2")],
    ids=["prob", "reward", "accept-whole"])
def test_feasibility_goes_on_after_a_failed_candidate(doc, eps, query):
    # member k=1 misses the bound by a margin that rounding the chain to
    # floats erases, so the witness-side scheduler of the whole family ties
    # and picks it; its exact check fails, and the family splits even where
    # the float bounds accept it whole.  k=2 is the witness, and k=1's
    # singleton reuses the failed check.
    half = Fraction(1, 2)
    family, _ = parse_family(doc.format(lo=half - eps, hi=half + eps))
    spec = parse_spec(f'{query} F "goal"')
    out = synthesis._feasibility(family, spec, collect_trace=True)
    assert [rec.decision for rec in out.trace] == \
        ["split", "reject", "witness"]
    assert out.stats.exact_calls == 2
    obo = one_by_one(family, spec)
    assert obo.bucket_members(obo.accepted) == {out.best.values}
    assert feasibility(family, spec).values == out.best.values


def test_feasibility_takes_no_exact_check_for_an_infinite_witness():
    # the root's max scheduler misses the goal, so its reward is inf: that
    # meets E>=39/4 but names no member worth checking, and the root splits
    # on both directions instead.  The witness is the only exact check.
    family = random_family(34, max_states=40, max_params=6, max_domain=4,
                           rewards=True)
    spec = random_spec(1034, family)
    assert str(spec) == 'E>=39/4 F "goal"'
    out = synthesis._feasibility(family, spec, collect_trace=True)
    assert out.trace[0].max_value == math.inf
    assert [rec.decision for rec in out.trace] == \
        ["split", "undefined", "witness"]
    assert out.stats.exact_calls == 1
    assert out.best.values == (14, 24, 27)


# Thresholds at the float rounding edge: 1 - 10**-20 rounds to the float
# 1.0 and 10**-400 to 0.0, so a bound pinned at exactly 1 or 0 ties the float
# threshold while the exact comparison does not.
NEAR_ONE = 1 - Fraction(1, 10 ** 20)
NEAR_ZERO = Fraction(1, 10 ** 400)


@pytest.mark.parametrize("relation, threshold, goal", [
    ("<=", NEAR_ONE, "one"), (">", NEAR_ONE, "one"),
    (">=", NEAR_ZERO, "two"), ("<", NEAR_ZERO, "two")],
    ids=["le-near-one", "gt-near-one", "ge-near-zero", "lt-near-zero"])
def test_pinned_bounds_at_the_rounding_edge_match_one_by_one(
        example1, relation, threshold, goal):
    # members with k1 = 1 reach "one" almost surely and the others never;
    # only (k1, k2) = (1, 2) reaches "two", almost surely, and the others
    # never: every bound of every subfamily is pinned at 0 or 1
    model, _ = example1
    spec = Specification(kind="probability", goal=goal, relation=relation,
                         threshold=threshold)
    assert_matches_one_by_one(model, spec)


def test_rounding_edge_corpus_matches_one_by_one():
    for seed in range(40):
        family = random_family(seed, max_states=12, max_params=3,
                               max_domain=3)
        for threshold in (NEAR_ONE, NEAR_ZERO):
            for relation in ("<", "<=", ">=", ">"):
                assert_matches_one_by_one(family, Specification(
                    kind="probability", goal="goal", relation=relation,
                    threshold=threshold))


@pytest.mark.parametrize("model, query, exact_calls", [
    ("example1", 'P>=1 F "two"', 0),
    ("example1", 'P<=0 F "one"', 0),
    ("example1", 'P>=1/10 F "one"', 0),
    ("maze-5x5", 'P<=0 F "goal"', 0),
    ("maze-5x5", 'P>=4/5 F "goal"', 1)])
def test_feasibility_confirms_only_a_witness_not_pinned(model, query,
                                                        exact_calls):
    # a consistent witness pinned at exactly 1 (max) or 0 (min) is its
    # member's exact value; the maze's P>=4/5 witness is not pinned
    family, _ = parse_family((REPO / "models" / f"{model}.fmc").read_text())
    spec = parse_spec(query)
    out = synthesis._feasibility(family, spec)
    assert out.stats.exact_calls == exact_calls
    assert satisfied_exactly(member_chain(family, out.best), spec)


def near_tie_family(eps):
    half = Fraction(1, 2)
    family, _ = parse_family(NEAR_TIE_DOC.format(lo=half - eps, hi=half + eps))
    return family


# Known wrong answers: at eps = 1e-17 member k=1's value 1/2 - eps rounds to
# the float 0.5, and classification takes the quotient's float values as
# one-sided bounds of the exact ones.  Each test asserts the oracle's answer
# and must start to pass once decisions rest on certified exact bounds.
float_tie = pytest.mark.xfail(
    strict=True, reason="float rounding ties members closer than 1e-16")


@float_tie
@pytest.mark.parametrize("query", ["P<1/2", "P>=1/2"])
def test_near_tie_threshold_matches_one_by_one(query):
    family = near_tie_family(Fraction(1, 10 ** 17))
    spec = parse_spec(f'{query} F "goal"')
    assert buckets(threshold_synthesis(family, spec)) == \
        buckets(one_by_one(family, spec))


@float_tie
def test_near_tie_feasibility_finds_the_member_below():
    family = near_tie_family(Fraction(1, 10 ** 17))
    spec = parse_spec('P<1/2 F "goal"')
    member = feasibility(family, spec)
    obo = one_by_one(family, spec)
    assert member is not None
    assert {member.values} == obo.bucket_members(obo.accepted)


# On member (2, 1, 0) of this family, state 7 (which the initial state does
# not reach) has no self-loop, and value iteration solves it by one plain
# backup.  Its expected reward rounds to 8.732142857142858 in both
# directions, one ulp above the exact 489/56, unless the backup is stepped
# down to the exact sum of its terms.
def test_plain_backup_stays_below_exact_reward_on_seed_2748():
    family = random_family(2748, max_states=8, rewards=True)
    goal = family.label_states("goal")
    mc = instantiate(family, Realisation((2, 1, 0)))
    exact = exact_mc_reward(mc, goal)
    for direction in ("max", "min"):
        values = solve_reward(mdp_from_mc(mc), goal, direction).values
        assert all(Fraction(v) <= e for v, e in zip(values, exact))


# One member whose state 0 keeps 1 - 10**-k on a self-loop, leaves for
# ``done`` with the rest and pays 3 per step, so its reward is 3 * 10**k.
STIFF_REWARD_DOC = """
states 2
initial 0
params
a : 0
d : 1
trans
0 : {stay}:a + {leave}:d
1 : 1:d
rewards
0 : 3
labels
done : 1
"""


@pytest.mark.parametrize("relation", ["<", ">="])
@pytest.mark.parametrize("k", range(6, 13))
def test_large_threshold_at_the_exact_value_matches_one_by_one(k, relation):
    # the engine's value lies a relative rounding error below 3 * 10**k,
    # more than an absolute 1e-6 once k >= 6, so the margin must scale
    # with the threshold
    leave = Fraction(1, 10 ** k)
    family, _ = parse_family(STIFF_REWARD_DOC.format(stay=1 - leave,
                                                     leave=leave))
    spec = parse_spec(f'E{relation}{3 * 10 ** k} F "done"')
    assert buckets(threshold_synthesis(family, spec)) == \
        buckets(one_by_one(family, spec))


def test_threshold_reward_undefined_bucket(example1_rewards):
    model, _ = example1_rewards
    out = threshold_synthesis(model, parse_spec('E<=5 F "two"'))
    assert out.bucket_members(out.accepted) == {R2}
    assert out.bucket_members(out.undefined) == {R1, R3, R4}
    assert not out.rejected


# ---------------------------------------------------------------------------
# Splitting strategy pieces
# ---------------------------------------------------------------------------

def worked_results(example1, label="one"):
    model, _ = example1
    quotient = build_quotient(model)
    restricted = quotient.restrict(Subfamily.full(model))
    goal = model.label_states(label)
    res_max = solve_prob(restricted.mdp, goal, "max")
    res_min = solve_prob(restricted.mdp, goal, "min")
    imp = important_states(res_min, res_max, restricted, goal)
    return restricted, res_max, res_min, imp


def through_three(example1):
    """Example1's results for goal "two" (state 2), with the max scheduler
    sent from state 1 towards state 3 by ``k1=1, k2=3``, and that goal.
    Solved, the max scheduler goes 0 -> 1 -> 2 and the min one stays at
    state 0; with state 1's choice moved, the max one reaches states 0, 1
    and 3 before the goal."""
    restricted, res_max, res_min, _ = worked_results(example1, "two")
    actions = restricted.mdp.actions[1]
    pick = next(c for c, (_, ma) in enumerate(actions) if ma.values == (1, 3))
    choices = list(res_max.choices)
    choices[1] = pick
    res_max = dataclasses.replace(res_max, choices=tuple(choices))
    goal = restricted.family.label_states("two")
    assert before_goal(restricted.mdp, res_max.choices, goal) == {0, 1, 3}
    return restricted, res_max, res_min, goal


@pytest.fixture
def no_importance_cutoff(monkeypatch):
    # the widened cut then takes every reached state with a varying row,
    # whatever its gap; it applies only when fewer states have the full gap
    # than the subfamily has splittable parameters
    monkeypatch.setattr(synthesis, "IMPORTANCE", 0.0)


def test_importance_ratio_thresholding(example1):
    restricted, res_max, res_min, goal = through_three(example1)
    # synthetic per-state values: global gap 1, state 1 gap 0.7, state 3
    # gap 0.4; only state 0 has the full gap, fewer states than the two
    # splittable parameters, so the cut widens to IMPORTANCE times the gap
    res_max = dataclasses.replace(res_max, values=(1.0, 1.0, 1.0, 0.5))
    res_min = dataclasses.replace(res_min, values=(0.0, 0.3, 1.0, 0.1))
    assert important_states(res_min, res_max, restricted, goal) == {0, 1}


def test_importance_full_gap_states_suffice(example1):
    restricted, res_max, res_min, goal = through_three(example1)
    # gaps 1, 1, 0.7 at states 0, 1 and 3: states 0 and 1 have the full
    # gap, one for each of the two splittable parameters k1 and k2, so
    # state 3 is left out
    res_max = dataclasses.replace(res_max, values=(1.0, 1.0, 1.0, 0.8))
    res_min = dataclasses.replace(res_min, values=(0.0, 0.0, 1.0, 0.1))
    assert important_states(res_min, res_max, restricted, goal) == {0, 1}


def test_importance_delta_zero_takes_all_varying_states(
        example1, no_importance_cutoff):
    restricted, res_max, res_min, goal = through_three(example1)
    # only state 0 has the full gap, and a zero share takes every reached
    # state with a varying row, state 1's zero gap included; state 2 is
    # the goal
    res_max = dataclasses.replace(res_max, values=(1.0, 0.5, 1.0, 0.5))
    res_min = dataclasses.replace(res_min, values=(0.0, 0.5, 1.0, 0.2))
    assert important_states(res_min, res_max, restricted, goal) == {0, 1, 3}


def test_importance_walk_stops_at_the_goal(example1, no_importance_cutoff):
    # for goal "one" (state 1) the max scheduler goes from state 0 to the
    # goal and the min one stays at state 0: states 2 and 3 lie only
    # beyond the goal, so even a zero share takes state 0 alone
    _, _, _, imp = worked_results(example1)
    assert imp == {0}


def test_importance_empty_when_gap_is_zero(example1):
    restricted, res_max, res_min, _ = worked_results(example1)
    res_max = dataclasses.replace(res_max, values=(0.5,) * 4)
    res_min = dataclasses.replace(res_min, values=(0.5,) * 4)
    imp = important_states(res_min, res_max, restricted,
                           restricted.family.label_states("one"))
    assert imp == frozenset()


def test_extract_counts_directly(example1):
    # goal "two": the max scheduler picks k1=1 at state 0 and k1=0, k2=2 at
    # state 1, the min one k1=0 at state 0 and k1=0, k2=3 at state 1; both
    # states have the full gap 1, so both are important
    restricted, res_max, res_min, imp = worked_results(example1, "two")
    assert imp == {0, 1}
    c_max = extract_counts(res_max.choices, imp, restricted)
    assert c_max == {1: {0: 1, 1: 1}, 2: {2: 1, 3: 0}}
    c_min = extract_counts(res_min.choices, imp, restricted)
    assert c_min == {1: {0: 2, 1: 0}, 2: {2: 0, 3: 1}}
    c_empty = extract_counts(res_max.choices, frozenset(), restricted)
    assert all(v == 0 for counts in c_empty.values()
               for v in counts.values())


def test_extract_counts_two_states_same_value(example1):
    restricted, res_max, _, _ = worked_results(example1)
    # states 0 and 3 both pick k1=1 under the maximising scheduler
    c = extract_counts(res_max.choices, frozenset({0, 3}), restricted)
    assert c[1] == {0: 0, 1: 2}


ZEROS = (0.0, 0.0)


def test_score_formulas():
    c_max = {0: {0: 2, 1: 0}}
    c_min = {0: {0: 0, 1: 2}}
    sub = Subfamily(((0, 1),))
    assert _variance_score(c_max[0], c_min[0]) == 4
    # equal worth: the balanced cut keeps the first value
    assert select_predicate(c_max, c_min, sub, ZEROS, ZEROS) == (0, (0,))


def test_select_predicate_prefers_higher_score_first_on_ties():
    c_max = {0: {0: 2, 1: 0}, 1: {0: 1, 1: 1}}
    c_min = {0: {0: 0, 1: 2}, 1: {0: 1, 1: 1}}
    sub = Subfamily(((0, 1), (0, 1)))
    assert [_variance_score(c_max[k], c_min[k]) for k in (0, 1)] == [4, 0]
    assert select_predicate(c_max, c_min, sub, ZEROS, ZEROS)[0] == 0
    # all-zero scores and values: declaration order, then domain order
    zeros = {0: {0: 0, 1: 0}, 1: {0: 0, 1: 0}}
    assert select_predicate(zeros, zeros, sub, ZEROS, ZEROS) == (0, (0,))


def test_select_predicate_scores_recomputable():
    c_max = {0: {0: 3, 1: 1}, 1: {0: 0, 1: 2}}
    c_min = {0: {0: 1, 1: 0}, 1: {0: 2, 1: 0}}
    sub = Subfamily(((0, 1), (0, 1)))
    for k in (0, 1):
        assert _variance_score(c_max[k], c_min[k]) == sum(
            abs(c_max[k][t] - c_min[k][t]) for t in sub.subsets[k])
    # b's counts differ more (4 against 3), so b is split
    assert select_predicate(c_max, c_min, sub, ZEROS, ZEROS)[0] == 1


def worths(*values):
    """``(v_max, v_min)`` by state that give state ``t`` worth
    ``values[t]``."""
    return values, (0.0,) * len(values)


def test_select_predicate_breaks_variance_ties_by_value_spread():
    # a parameter's value is a successor state, worth V_max + V_min there;
    # with equal variance the parameter whose values spread furthest in
    # worth is split, and equal spreads go by declaration order
    sub = Subfamily(((0, 1), (2, 3), (4, 5)))
    zeros = {k: dict.fromkeys(sub.subsets[k], 0) for k in range(3)}
    param, _ = select_predicate(zeros, zeros, sub,
                                *worths(0.5, 0.75, 0.0, 1.0, 0.25, 0.5))
    assert param == 1
    param, _ = select_predicate(zeros, zeros, sub,
                                *worths(0.5, 0.75, 0.0, 1.0, 0.25, 1.25))
    assert param == 1
    # a higher variance still wins over a wider spread
    c_max = {0: {0: 1, 1: 0}, 1: {2: 0, 3: 0}, 2: {4: 0, 5: 0}}
    param, _ = select_predicate(c_max, zeros, sub,
                                *worths(0.5, 0.75, 0.0, 1.0, 0.25, 1.25))
    assert param == 0


def test_select_predicate_cuts_at_the_largest_value_drop():
    # values ranked by worth, larger first, are cut at the largest drop
    # between neighbours and the upper part kept; choice counts no longer
    # pick the values
    sub = Subfamily(((0, 1, 2, 3),))
    c_max = {0: {0: 0, 1: 0, 2: 0, 3: 1}}
    c_min = {0: dict.fromkeys(range(4), 0)}
    _, keep = select_predicate(c_max, c_min, sub, *worths(9.0, 10.0, 8.0, 1.0))
    assert keep == (0, 1, 2)
    # drops 2, 2, 1, 2 from 7, 5, 3, 2, 0: of the tied cuts after one, two
    # and four values, the balanced one keeps two
    sub = Subfamily(((0, 1, 2, 3, 4),))
    c_max = {0: {0: 1, 1: 0, 2: 0, 3: 0, 4: 0}}
    c_min = {0: dict.fromkeys(range(5), 0)}
    _, keep = select_predicate(c_max, c_min, sub,
                               *worths(0.0, 2.0, 3.0, 5.0, 7.0))
    assert keep == (3, 4)
    # drops 2, 1, 2: the cuts after one and three values are as balanced,
    # so the earlier one keeps one value
    sub = Subfamily(((0, 1, 2, 3),))
    _, keep = select_predicate(c_min, c_min, sub, *worths(5.0, 3.0, 2.0, 0.0))
    assert keep == (0,)


def test_select_predicate_ranks_an_infinite_value_first():
    # an expected reward is inf at a state that may miss the goal: it ranks
    # above every finite value, and the drop to a finite one is infinite
    sub = Subfamily(((0, 1, 2, 3),))
    counts = {0: dict.fromkeys(range(4), 0)}
    _, keep = select_predicate(counts, counts, sub,
                               *worths(5.0, 4.0, math.inf, 0.0))
    assert keep == (2,)
    # two infinite values are 0 apart, so the cut keeps them together
    sub = Subfamily(((1, 2, 3),))
    counts = {0: dict.fromkeys((1, 2, 3), 0)}
    _, keep = select_predicate(counts, counts, sub,
                               *worths(0.0, math.inf, 1.0, math.inf))
    assert keep == (1, 3)


def test_select_predicate_spreads_an_infinite_value_furthest():
    # an infinite value beside a finite one spreads infinitely far; two
    # infinite values spread 0
    sub = Subfamily(((0, 1), (2, 3)))
    zeros = {0: {0: 0, 1: 0}, 1: {2: 0, 3: 0}}
    param, _ = select_predicate(zeros, zeros, sub,
                                *worths(1.0, 100.0, math.inf, 0.0))
    assert param == 1
    param, _ = select_predicate(zeros, zeros, sub,
                                *worths(math.inf, math.inf, 1.0, 2.0))
    assert param == 1


def test_lead_predicate_cuts_between_the_leads_picks():
    # the lead's values by state; k0's values are states 1-5, k1's 6 and 7
    values = (0.0, 1.0, 0.5, 0.5, 0.0, 0.0, 1.0, 0.25)
    sub = Subfamily(((1, 2, 3, 4, 5), (6, 7), (0,)))
    k0 = dict.fromkeys((1, 2, 3, 4, 5), 0)
    # one state off the most frequent pick each: k0's picks spread 1.0, k1's
    # 0.75.  Best first for max, k0's drops are 0.5, 0, 0.5, 0: the cut
    # after three values is more balanced than the one after one
    picks = {0: {**k0, 1: 1, 5: 1}, 1: {6: 1, 7: 1}}
    assert lead_predicate(picks, sub, values, True) == (0, (1, 2, 3))
    # ascending for min, equal values in domain order: 4, 5, 2, 3, 1
    assert lead_predicate(picks, sub, values, False) == (0, (4, 5))
    # more states off k1's most frequent pick
    picks[1] = {6: 2, 7: 2}
    assert lead_predicate(picks, sub, values, True) == (1, (6,))
    assert lead_predicate(picks, sub, values, False) == (1, (7,))
    # only the cut between picks 2 and 3 separates them, though the drop
    # after three values is larger; k1 is picked at one value only
    picks = {0: {**k0, 2: 1, 3: 1}, 1: {6: 3, 7: 0}}
    assert lead_predicate(picks, sub, values, True) == (0, (1, 2))


def reference_cut(current, worth, picked):
    """The kept values of the best of every cut between the first and last
    picked value, with equal worth ranked in domain order."""
    ranked = sorted(current, key=lambda t: (-worth[t], current.index(t)))
    at = [i for i, t in enumerate(ranked) if t in picked]

    def drop(i):
        above, below = worth[ranked[i - 1]], worth[ranked[i]]
        return 0.0 if above == below else above - below

    n = len(ranked)
    cut = min(range(at[0] + 1, at[-1] + 1),
              key=lambda i: (-drop(i), abs(n - 2 * i), i))
    return tuple(t for t in current if t in ranked[:cut])


@st.composite
def cut_cases(draw):
    subset = tuple(sorted(draw(st.lists(st.integers(0, 7), min_size=2,
                                        max_size=8, unique=True))))
    values = tuple(draw(st.lists(st.sampled_from(
        (0.0, 0.25, 0.5, 1.0, 2.0, math.inf)), min_size=8, max_size=8)))
    picked = set(draw(st.lists(st.sampled_from(subset), min_size=2,
                               unique=True)))
    counts = {t: draw(st.integers(1, 3)) if t in picked else 0
              for t in subset}
    return subset, values, counts, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cut_cases())
def test_split_rules_keep_the_best_cut_in_their_window(case):
    # both split rules cut one ranking: select_predicate over every value,
    # worth v_max + v_min; lead_predicate between the lead's first and last
    # pick, worth the lead's value for max and its negation for min
    subset, values, counts, maximize = case
    sub = Subfamily((subset,))
    zeros = {0: dict.fromkeys(subset, 0)}
    assert select_predicate(zeros, zeros, sub, values, (0.0,) * 8) == (
        0, reference_cut(subset, values, subset))
    worth = values if maximize else tuple(-v for v in values)
    picked = {t for t, n in counts.items() if n}
    assert lead_predicate({0: counts}, sub, values, maximize) == (
        0, reference_cut(subset, worth, picked))


# ---------------------------------------------------------------------------
# Loop-shape properties
# ---------------------------------------------------------------------------

def test_termination_bound_on_random_runs():
    for seed in range(20):
        family = random_family(seed, max_states=6, rewards=seed % 2 == 0)
        spec = random_spec(seed, family)
        out = threshold_synthesis(family, spec)
        assert out.stats.iterations <= 2 * family.n_realisations - 1


def test_singletons_always_classified_never_split():
    for seed in range(12):
        family = random_family(seed, max_states=6)
        spec = random_spec(seed, family)
        out = threshold_synthesis(family, spec, collect_trace=True)
        for rec in out.trace:
            if rec.size == 1:
                assert rec.decision != "split"


def test_near_optimal_threshold_needs_few_iterations():
    model, specs = parse_family(NEAR_OPTIMAL_DOC)
    out = threshold_synthesis(model, specs["phi"])
    assert model.n_realisations == 64
    assert out.stats.iterations < 0.25 * model.n_realisations
    assert out.bucket_members(out.accepted) == {(1, 2, 2, 2, 2, 2, 2, 3)}


@pytest.mark.parametrize("eps", [Fraction(sign, 10 ** k)
                                 for k in range(7, 13) for sign in (1, -1)],
                         ids=lambda eps: f"{float(eps):g}")
def test_near_tie_optimum_matches_one_by_one(eps):
    # members far closer than 1e-7 are still told apart: the optimum is
    # the solver's own choice, not the first action within some slack of
    # it; the sign of eps decides which member is optimal
    half = Fraction(1, 2)
    for doc, query in ((NEAR_TIE_DOC, "Pmax"), (NEAR_TIE_DOC, "Pmin"),
                       (NEAR_TIE_REWARD_DOC, "Emax"),
                       (NEAR_TIE_REWARD_DOC, "Emin")):
        family, _ = parse_family(doc.format(lo=half - eps, hi=half + eps))
        spec = parse_spec(f'{query} F "goal"')
        solve = max_synthesis if query.endswith("max") else min_synthesis
        assert solve(family, spec).best.values == \
            one_by_one(family, spec).best.values, query


def test_trace_records_have_loop_shape(example1):
    model, specs = example1
    out = threshold_synthesis(model, specs["phi"], collect_trace=True)
    assert len(out.trace) == out.stats.iterations
    first = out.trace[0]
    assert first.size == 4
    assert first.decision == "split"
    assert first.split_param == "k1"
    decisions = {rec.decision for rec in out.trace}
    assert decisions <= {"accept", "reject", "split", "undefined"}
    # P>=1/10 solves min first: a subfamily it accepts never solves max.
    # The accepted child k1=1 inherits the root's max and solves only min,
    # the rejected child k1=0 inherits min and solves only max: four solves
    # in all, two of them the root's
    accepted = out.trace[1]
    assert accepted.decision == "accept"
    assert accepted.min_value == 1.0
    assert out.stats.solver_calls == 4
    assert out.stats.inherited == 2
    assert all(rec.min_value is not None and rec.max_value is not None
               for rec in out.trace if rec.decision == "split")


TWO_MEMBER_DOC = """
states 3
initial 0
params
k : 1 2
stay1 : 1
stay2 : 2
trans
0 : 1:k
1 : 1:stay1
2 : 1:stay2
labels
goal : 1
"""


@pytest.mark.parametrize("relation", ["<=", ">="])
def test_inherited_direction_is_classified_before_a_solve(relation):
    # k=1 reaches the goal surely and k=2 never: the root solves both
    # directions and splits into two singletons.  Each child inherits the
    # direction whose scheduler picks its value, first or second in the
    # solve order, and takes the other from it as a singleton: no child
    # solves anything
    family, _ = parse_family(TWO_MEMBER_DOC)
    spec = parse_spec(f'P{relation}1/2 F "goal"')
    out = threshold_synthesis(family, spec)
    assert out.stats.iterations == 3
    assert out.stats.solver_calls == 2
    assert out.stats.inherited == 4
    assert buckets(out) == buckets(one_by_one(family, spec))


@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("bound", ["<=0.4995", ">=0.4999", "<=1/2", "<1/2",
                                   ">=1/2", ">1/2"])
def test_stiff_self_loop_threshold_matches_one_by_one(k, bound):
    # both members are worth exactly 1/2: sweeps stopping on a 1e-8
    # residual stop far short of it at k=5 and need over 10^6 passes at
    # k=6, and a value rounded above it would put them in the wrong bucket
    # at 1/2 itself
    family = ladder(k)
    spec = parse_spec(f'P{bound} F "goal"')
    assert buckets(threshold_synthesis(family, spec)) == \
        buckets(one_by_one(family, spec))


@pytest.mark.parametrize("k", range(1, 8))
def test_stiff_cycle_matches_exact_values_and_one_by_one(k):
    # a stiff component of two states: sweeps stopping on a residual stop
    # short of its values or need over 10^6 passes, where policy iteration
    # solves it directly
    family = stiff_cycle(k)
    reward = Fraction(8, 3) * 10 ** k
    for bound in ("<=2/3", "<2/3", ">=2/3", ">2/3", "<=0.6665", ">=0.6666"):
        spec = parse_spec(f'P{bound} F "goal"')
        assert buckets(threshold_synthesis(family, spec)) == \
            buckets(one_by_one(family, spec))
    for relation in ("<=", "<", ">=", ">"):
        spec = parse_spec(f'E{relation}{reward} F "done"')
        assert buckets(threshold_synthesis(family, spec)) == \
            buckets(one_by_one(family, spec))
    for r in all_realisations(family):
        mc = instantiate(family, r)
        mdp = mdp_from_mc(mc)
        goal, done = mc.label_states("goal"), mc.label_states("done")
        exact_p = exact_mc_probability(mc, goal)
        exact_r = exact_mc_reward(mc, done)
        assert exact_p[0] == Fraction(2, 3) and exact_r[0] == reward
        for direction in ("max", "min"):
            got_p = solve_prob(mdp, goal, direction).values
            got_r = solve_reward(mdp, done, direction).values
            for got, exact in zip(got_p + got_r, exact_p + exact_r):
                assert got == pytest.approx(float(exact), rel=1e-8, abs=0)


# ---------------------------------------------------------------------------
# Components that fail certification
# ---------------------------------------------------------------------------

def assert_matches_one_by_one(family, spec, rel=0.0):
    """Threshold partition, feasibility and optimum equal the exact
    oracle's, the optimum's value to within ``rel``.  A feasibility or
    optimal member may differ from the oracle's on ties, so it is checked
    by its exact value."""
    if spec.objective_only:
        run = max_synthesis if spec.direction == "max" else min_synthesis
        try:
            want = one_by_one(family, spec).best_value
        except UndefinedRewardError:
            with pytest.raises(UndefinedRewardError):
                run(family, spec)
            return
        out = run(family, spec)
        exact = solve_mc_exact(member_chain(family, out.best), spec)
        assert float(exact) == want, spec
        assert out.best_value == pytest.approx(want, rel=rel, abs=0), spec
        return
    want = one_by_one(family, spec)
    assert buckets(threshold_synthesis(family, spec)) == buckets(want), spec
    member = feasibility(family, spec)
    accepted = want.bucket_members(want.accepted)
    assert member.values in accepted if accepted else member is None, spec


def test_stiff_family_matches_one_by_one(stiff_family):
    # The min solve of each root has a component that policy iteration
    # cannot certify.  Gauss-Seidel sweeps stopped short of the value there
    # (stiff-loop's Pmin came out 4.4e-13 for 0.99999970) or did not settle
    # within 10^6 passes (stiff-cap).
    for query in ("P>=1/2", "Pmin", "Pmax"):
        assert_matches_one_by_one(stiff_family,
                                  parse_spec(f'{query} F "goal"'))


@pytest.mark.parametrize("failing, rel", [((False, True), 0.0),
                                          ((True,), 1e-9), ((False,), 1e-9)],
                         ids=["both", "max", "min"])
def test_uncertified_values_decide_nothing(monkeypatch, failing, rel):
    # No component of the failing directions is certified, and a failed one
    # reports 0 at every state, which bounds nothing: threshold, feasibility
    # and optimum answers must still be the exact oracle's, so no
    # uncertified value may accept, reject, discard or raise the best
    # value.  With one direction failing, a certified lead meets an
    # uncertified other direction; certified optima may lie a few ulps
    # below the exact value, so only runs that certify no cycle must
    # report it exactly.
    certify = engine._certify

    def failing_certify(acts, policy, chosen, factors, x, maximize):
        if maximize in failing:
            return None
        return certify(acts, policy, chosen, factors, x, maximize)

    monkeypatch.setattr(engine, "_certify", failing_certify)
    solve = engine._policy_iteration

    def zeroing(comp, rows, values, choices, maximize, start=None):
        certified = solve(comp, rows, values, choices, maximize, start)
        if not certified:
            for s in comp:
                values[s] = 0.0
        return certified

    monkeypatch.setattr(engine, "_policy_iteration", zeroing)
    for seed in range(40):
        family = random_family(seed, max_states=8, rewards=True)
        for i in range(3):
            assert_matches_one_by_one(family,
                                      random_spec(seed + 1000 * i, family))
        for query in ("Pmax", "Pmin", "Emax", "Emin"):
            assert_matches_one_by_one(family,
                                      parse_spec(f'{query} F "goal"'), rel)


def test_uncertified_other_direction_never_raises_the_bound(monkeypatch):
    # the root's max scheduler here is inconsistent, so max synthesis
    # solves min for the split; a min that is not certified bounds nothing,
    # and read as a reachable value, 2 would discard every subfamily
    family = random_family(943, max_states=12, max_params=4, max_domain=4)

    def uncertified_min(mdp, goal, direction, start=None):
        res = solve_prob(mdp, goal, direction, start=start)
        if direction == "min":
            values = list(res.values)
            values[res.initial] = 2.0
            res = dataclasses.replace(res, values=tuple(values),
                                      certified=False)
        return res

    monkeypatch.setattr(synthesis, "solve_prob", uncertified_min)
    out = max_synthesis(family, parse_spec('Pmax F "goal"'),
                        collect_trace=True)
    assert out.trace[0].decision == "split"
    assert out.best_value == 1.0


# Member k=2 leaves the goal unreached with probability 1/2 (undefined
# reward); member k=3 pays 1 in state 0 and 1 per visit of the cycle at state
# 3, worth exactly 3.
UNDEFINED_SINGLETON_DOC = """
states 5
initial 0
params
k : 2 3
g : 1
a : 3
s : 4
trans
0 : 1:k
1 : 1:g
2 : 1/2:a + 1/2:s
3 : 1/2:a + 1/2:g
4 : 1:s
rewards
0 : 1
2 : 1
3 : 1
labels
goal : 1
"""


def test_uncertified_singleton_with_undefined_reward_is_discarded(
        monkeypatch):
    # no component is certified, so each singleton after the root's split
    # is valued by the exact solver, and k=2's undefined reward is read as
    # inf: it is discarded as undefined, not raised
    monkeypatch.setattr(engine, "_certify", lambda *args: None)
    family, _ = parse_family(UNDEFINED_SINGLETON_DOC)
    spec = parse_spec('Emax F "goal"')
    out = max_synthesis(family, spec, collect_trace=True)
    assert [rec.decision for rec in out.trace] == \
        ["split", "discard-undefined", "improve"]
    assert out.stats.exact_calls == 2
    want = one_by_one(family, spec)
    assert out.best == want.best
    assert out.best_value == want.best_value == 3.0


# Known wrong answer: member c1=6 of stiff-loose has an expected reward of
# 8449306253.630165, and its certified lower bound 8449227641.858248 lies
# 9.3e-6 (relative) below it, beyond MARGIN, so E>=8449306253 rejects the
# member.  This test must start to pass once bounds are two-sided.
@pytest.mark.xfail(strict=True,
                   reason="a certified bound lies further below the exact "
                          "value than the margin")
def test_loose_certified_bound_matches_one_by_one(stiff_loose):
    spec = parse_spec('E>=8449306253 F "goal"')
    assert buckets(threshold_synthesis(stiff_loose, spec)) == \
        buckets(one_by_one(stiff_loose, spec))


def test_refinement_decisions_pinned_on_larger_family():
    # 123 states and 4096 members: a faster restriction or graph analysis
    # that changes any split changes these counts
    family = random_family(3, max_states=300, max_params=10, max_domain=4,
                           rewards=True)
    out = threshold_synthesis(family, parse_spec('P<=7/10 F "goal"'))
    assert out.stats.iterations == 151
    assert out.member_counts() == {"T": 3199, "F": 897, "undefined": 0}
    # 131 of the directions used are taken without a solve, 129 from the
    # parent and two from a singleton's other direction
    assert out.stats.solver_calls == 171
    assert out.stats.solver_calls + out.stats.inherited == 302


def test_optimum_decisions_pinned_on_larger_family():
    # a change to the split rules, restriction or inheritance that changes
    # any split changes these counts
    family = random_family(1, max_states=150, max_params=10, max_domain=4,
                           rewards=True)
    out = max_synthesis(family, parse_spec('Pmax F "goal"'),
                        collect_trace=True)
    # the root's max is pinned at 1, but its scheduler is not consistent,
    # so the root splits apart the lead's picks with no min solve; so does
    # the next subfamily.  The last one's member is pinned at probability
    # 1, so the subfamilies still queued are dropped unsolved.  Splitting
    # by variance with both directions solved took 5 subfamilies and 8
    # solves, and first in, first out 16 subfamilies
    assert [(rec.decision, rec.split_param, rec.min_value)
            for rec in out.trace[:2]] == [("split", "k2", None),
                                          ("split", "k9", None)]
    assert out.stats.iterations == 4
    assert out.best.values == (16, 31, 6, 0, 14, 1, 34, 24, 1, 31)
    assert out.best_value == 1.0
    # the other direction is never solved: one solve per subfamily
    assert out.stats.solver_calls == 4
    assert out.stats.inherited == 0
    # Emin splits its root's lead apart on k9: one half has no member with
    # a defined reward, and the other's lead is consistent.  Splitting by
    # variance took 11 subfamilies and 11 solves
    out = min_synthesis(family, parse_spec('Emin F "goal"'))
    assert (out.stats.iterations, out.stats.solver_calls) == (3, 3)
    assert out.best.values == (16, 31, 13, 1, 6, 1, 34, 24, 1, 31)
    family = random_family(16, max_states=60, max_params=8, max_domain=4,
                           rewards=True)
    # the root's min scheduler is consistent on the states it reaches
    # before the goal, so Emin ends at the root
    out = min_synthesis(family, parse_spec('Emin F "goal"'))
    assert out.stats.iterations == 1
    assert out.best.values == (14, 13, 7, 10, 23, 19, 19, 14)
    assert out.stats.solver_calls == 1
    # Emax splits the root on k3, two of whose three values lead where the
    # max scheduler may miss the goal: worth inf, they stay together.  Only
    # the choice counts tell apart the one whose members are all undefined,
    # so this is a real growth over a count-ranked cut, which took 3
    # subfamilies and 5 solves
    out = max_synthesis(family, parse_spec('Emax F "goal"'))
    assert out.stats.iterations == 13
    assert out.best.values == (13, 13, 0, 9, 19, 0, 4, 14)
    assert out.stats.solver_calls == 17
    assert out.stats.solver_calls + out.stats.inherited == 22


@pytest.mark.parametrize("model, query, iterations", [
    ("maze-5x5", 'P>=19/100 F "goal"', 61),
    ("maze-5x5", 'P<=0 F "goal"', 47),
    ("pipeline-4x3", 'E<=70 F "done"', 35),
])
def test_value_ordered_split_on_benchmark_families(model, query, iterations):
    # the benchmark's maze (729 members) and pipeline (81 members) before
    # their states are renumbered; a split that counted choices instead of
    # cutting at the largest drop in solved value took 165, 195 and 107
    # iterations here
    family, _ = parse_family((REPO / "models" / f"{model}.fmc").read_text())
    spec = parse_spec(query)
    out = threshold_synthesis(family, spec)
    assert out.stats.iterations == iterations
    assert buckets(out) == buckets(one_by_one(family, spec))


# ---------------------------------------------------------------------------
# Solves skipped where the answer is fixed
# ---------------------------------------------------------------------------

def assert_same_result(got, want, states):
    """Bit for bit at ``states``: values, choices, ``pinned``."""
    assert got.pinned == want.pinned
    assert [got.values[s].hex() for s in states] == \
        [want.values[s].hex() for s in states]
    assert [got.choices[s] for s in states] == \
        [want.choices[s] for s in states]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6),
       kind=st.sampled_from(["probability", "expected-reward"]),
       order=st.sampled_from([("max", "min"), ("min", "max")]))
def test_singleton_takes_the_other_direction_of_its_one_chain(seed, kind,
                                                               order):
    # a singleton's restriction has one action per state, so both
    # directions solve its member's chain: the second is the first, counted
    # as inherited; any larger subfamily still solves it
    rng = random.Random(seed)
    reward = kind == "expected-reward"
    family = random_family(seed, max_states=rng.choice([6, 12, 24]),
                           max_params=rng.choice([3, 6]), max_domain=4,
                           rewards=reward)
    loop = synthesis._Loop(family, Specification(
        kind=kind, goal="goal", direction="max"), False)
    goal, stats = loop.goal, loop.stats
    first, second = order

    def fresh(restricted, direction):
        return (solve_reward if reward else solve_prob)(
            restricted.mdp, goal, direction)

    def both(restricted, parent=None):
        """Solve ``first`` then ``second`` as a step does; whether
        ``second`` was solved rather than taken."""
        res = {}
        loop.solve(restricted, first, parent, res)
        calls, used = stats.solver_calls, stats.solver_calls + stats.inherited
        loop.solve(restricted, second, parent, res)
        assert stats.solver_calls + stats.inherited == used + 1
        return res, stats.solver_calls > calls

    sub = random_subfamily(family, rng)
    restricted = loop.quotient.restrict(sub)
    res, solved = both(restricted)
    if not sub.is_singleton:
        assert solved
        assert_same_result(res[second], fresh(restricted, second),
                           restricted.mdp.live)
    member = Realisation(tuple(rng.choice(values) for values in sub.subsets))
    single = loop.quotient.restrict(Subfamily.of_realisation(member))
    # taken from a fresh solve: a fresh solve of the singleton
    got, solved = both(single)
    assert not solved
    assert_same_result(got[second], fresh(single, second),
                       single.mdp.live)
    # taken from the parent's result: at most the member's exact values
    got, solved = both(single, synthesis._Parent(restricted.mdp.actions, res))
    assert not solved
    chain = member_chain(family, member)
    exact = (exact_mc_reward if reward else exact_mc_probability)(
        chain, chain.label_states("goal"))
    # the chain holds the states the singleton reaches, renumbered in order
    assert chain.n_states == len(single.mdp.live)
    local = {s: i for i, s in enumerate(single.mdp.live)}
    for s in single.mdp.live:
        v, bound = got[second].values[s], exact[local[s]]
        assert v <= bound if math.isinf(v) else Fraction(v) <= bound


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), direction=st.sampled_from(["max", "min"]))
@example(seed=27146, direction="max")  # a lead split; 0.75, then 1 is found
def test_optimum_stop_at_pinned_extreme_keeps_the_optimum(seed, direction):
    # a consistent scheduler pinned at exactly 1 (max) or 0 (min) is its
    # member's value and the optimum: runs that stop there return what runs
    # that go on return, in no more iterations
    family = random_family(seed, max_states=12, max_params=4, max_domain=4)
    spec = Specification(kind="probability", goal="goal", direction=direction)
    run = max_synthesis if direction == "max" else min_synthesis
    out = run(family, spec, collect_trace=True)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(synthesis, "_pinned_extreme", lambda res, maximize: False)
        full = run(family, spec, collect_trace=True)
    assert (out.best, out.best_value) == (full.best, full.best_value)
    assert out.trace == full.trace[:len(out.trace)]


def test_optimum_goes_on_past_a_max_pinned_at_zero():
    # the first member found is pinned at 0, which later members beat: the
    # second split's halves tie on its max, 1, and the smaller half, whose
    # members are all worth 0, comes first.  The last member, pinned at 1,
    # ends the search with a subfamily still queued: a run that never stops
    # early takes the same steps first and returns the same member
    family = random_family(101, max_states=40, max_params=10, max_domain=4)
    spec = parse_spec('Pmax F "goal"')
    out = max_synthesis(family, spec, collect_trace=True)
    assert [(r.size, r.decision, r.max_value) for r in out.trace] == [
        (72, "split", 1.0), (24, "split", 1.0), (6, "improve", 0.0),
        (18, "split", 1.0), (9, "improve", 0.125), (9, "improve", 1.0)]
    assert out.best_value == 1.0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(synthesis, "_pinned_extreme", lambda res, maximize: False)
        full = max_synthesis(family, spec, collect_trace=True)
    assert out.trace == full.trace[:-1]
    assert (out.best, out.best_value) == (full.best, full.best_value)


def test_optimum_bound_is_the_best_member_found():
    # only a split with an infinite lead solves the other direction: here
    # Emax splits whose max schedulers may miss the goal.  The second
    # subfamily's max, 8, is the first member found, so it improves; the
    # mins of the next two splits show that each of their members is worth
    # at least 9.75, but a split's values do not move the bound, which
    # stays at the best member found until a member beats it
    family = random_family(12, max_states=12, max_params=4, max_domain=4,
                           rewards=True)
    spec = parse_spec('Emax F "goal"')
    out = max_synthesis(family, spec, collect_trace=True)
    assert [rec.decision for rec in out.trace] == \
        ["split", "improve", "split", "split", "improve", "split", "split",
         "discard-undefined", "improve", "discard", "discard-undefined"]
    assert out.trace[2].min_value > 9.7 > out.trace[1].max_value == 8.0
    assert out.trace[3].min_value > 9.7
    assert [rec.best_value for rec in out.trace[:5]] == \
        [None, 8.0, 8.0, 8.0, 17.5]
    assert (out.stats.iterations, out.stats.solver_calls) == (11, 11)
    assert out.best.values == one_by_one(family, spec).best.values == \
        (6, 5, 4)
    assert out.best_value == out.trace[8].max_value


def test_optimum_keeps_a_lead_that_ties_the_reached_value():
    # the root's min scheduler is inconsistent, so the root splits apart
    # its picks and solves no max: no split max can move the bound.  The
    # second subfamily's lead is consistent and improves; the third ties it
    # and is discarded: only a strictly better lead improves.  The second's
    # lead is certified, so it takes no exact check.
    family = random_family(611, max_states=20, max_params=4, max_domain=4)
    out = min_synthesis(family, parse_spec('Pmin F "goal"'),
                        collect_trace=True)
    assert [rec.decision for rec in out.trace] == \
        ["split", "improve", "discard"]
    assert out.trace[0].max_value is None
    assert out.trace[2].min_value == out.trace[1].best_value
    assert out.stats.exact_calls == 0
    assert out.best.values == (10, 14, 15)
    assert out.best_value == out.trace[1].min_value


def test_optimum_keeps_an_exactly_valued_lead_above_a_split_max(
        monkeypatch):
    # min solves marked uncertified bound nothing, so every subfamily
    # splits with both directions solved and each singleton is valued
    # exactly; the singleton (10, 14, 15) is worth 0.3392857142857143,
    # 4e-16 above the certified max of the split that holds it, so a bound
    # raised to that max would discard it and its sibling and return
    # (10, 14, 17) at 1.0
    def uncertified_min(mdp, goal, direction, start=None):
        res = solve_prob(mdp, goal, direction, start=start)
        if direction == "min":
            res = dataclasses.replace(res, certified=False)
        return res

    monkeypatch.setattr(synthesis, "solve_prob", uncertified_min)
    monkeypatch.setattr(synthesis, "inherit", lambda *args: None)
    family = random_family(611, max_states=20, max_params=4, max_domain=4)
    spec = parse_spec('Pmin F "goal"')
    out = min_synthesis(family, spec, collect_trace=True)
    want = one_by_one(family, spec)
    assert out.best.values == want.best.values == (10, 14, 15)
    assert out.best_value == want.best_value == 0.3392857142857143
    [holder] = [rec for rec in out.trace if rec.decision == "split"
                and rec.subfamily == {"k0": [10, 17], "k1": [14], "k2": [15]}]
    assert holder.max_value < out.best_value


def test_optima_match_one_by_one_on_larger_families():
    # every family of at most 256 members among these seeds, rewards on
    # the even ones.  On seed 1342 a bound raised to the certified max of
    # the split k0 in {64, 100}, 9.999999999999979, discarded both
    # singletons, whose certified Emin is 9.999999999999986, and returned
    # (55, 27) at 12.857 for the optimum (64, 27) at 10
    queries = 0
    for seed in range(1320, 1360):
        family = random_family(seed, max_states=120, max_params=9,
                               max_domain=4, rewards=seed % 2 == 0)
        if family.n_realisations > 256:
            continue
        for query in ("Pmax", "Pmin") + ("Emax", "Emin") * (seed % 2 == 0):
            assert_matches_one_by_one(
                family, parse_spec(f'{query} F "goal"'), rel=1e-6)
            queries += 1
    assert queries == 76


# ---------------------------------------------------------------------------
# Refinement order
# ---------------------------------------------------------------------------

def test_feasibility_searches_best_first():
    # the halves of the split with the highest max come next, the smaller
    # first, so the search goes down towards the witness: first in, first
    # out took 79 iterations to the same member
    family = random_family(72, max_states=150, max_params=10, max_domain=4,
                           rewards=True)
    spec = parse_spec('E>=10 F "goal"')
    out = synthesis._feasibility(family, spec, collect_trace=True)
    assert out.stats.iterations == 10
    assert out.trace[-1].decision == "witness"
    assert out.best.values == (11, 4, 4, 7, 9, 16, 0, 19, 7, 9)
    assert spec.satisfied(solve_mc_exact(member_chain(family, out.best), spec))


def test_optimum_searches_best_first():
    # the third subfamily splits with max 0.231, so its halves wait behind
    # the 576 members of its parent's sibling, whose parent has max 1: the
    # search goes on there and ends at a member pinned at 1 before either
    # half comes out.  Ordering the halves by size alone took 7
    # subfamilies, and first in, first out 7
    family = random_family(114, max_states=150, max_params=10, max_domain=4,
                           rewards=True)
    out = max_synthesis(family, parse_spec('Pmax F "goal"'),
                        collect_trace=True)
    assert out.trace[2].max_value < 0.232
    assert [rec.size for rec in out.trace] == [1728, 864, 288, 576, 288]
    assert out.stats.solver_calls == 5
    assert out.best_value == 1.0
    assert solve_mc_exact(member_chain(family, out.best),
                          parse_spec('Pmax F "goal"')) == 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), direction=st.sampled_from(["max", "min"]))
# lead splits are rare among random draws; on these, the largest drop over
# all cuts would keep both of the lead's picks in one half
@example(seed=9, direction="max")
@example(seed=50, direction="min")
def test_optimum_splits_an_inconsistent_lead_apart(seed, direction):
    # a finite lead bounds its subfamily, and an inconsistent one is no
    # member: the split cuts a parameter the lead picked two or more values
    # of, with those picks on both sides, and solves no other direction.
    # Only an infinite lead solves both
    rng = random.Random(seed)
    rewards = seed % 2 == 0
    family = random_family(seed, max_states=rng.choice([12, 40, 60]),
                           max_params=4, max_domain=4, rewards=rewards)
    spec = Specification(kind="expected-reward" if rewards else "probability",
                         goal="goal", direction=direction)
    splits = []
    split = synthesis._Loop.split

    def recording(loop, restricted, res):
        name = split(loop, restricted, res)
        # the two halves are the last two pushed
        halves = [entry[2] for entry in
                  sorted(loop.queue, key=lambda entry: entry[1])[-2:]]
        splits.append((restricted, dict(res), name, halves, loop.goal))
        return name

    run = max_synthesis if direction == "max" else min_synthesis
    try:
        want = one_by_one(family, spec).best_value
    except UndefinedRewardError:
        return
    with pytest.MonkeyPatch.context() as m:
        m.setattr(synthesis._Loop, "split", recording)
        out = run(family, spec, collect_trace=True)
    records = [rec for rec in out.trace if rec.decision == "split"]
    assert len(records) == len(splits)
    for rec, (restricted, res, name, halves, goal) in zip(records, splits):
        found = res[direction]
        finite = found.certified and not math.isinf(found.at_initial)
        if not finite:
            assert set(res) == {"min", "max"}
            continue
        assert set(res) == {direction}
        assert (rec.max_value if direction == "min" else rec.min_value) is None
        k = family.param_names.index(name)
        picked = set()
        for s in before_goal(restricted.mdp, found.choices, goal):
            tag = restricted.mdp.actions[s][found.choices[s]].tag
            picked.update(v for p, v in zip(tag.params, tag.values) if p == k)
        assert len(picked) >= 2
        for half in halves:
            assert picked & set(half.subsets[k])
    assert float(solve_mc_exact(member_chain(family, out.best), spec)) == want
    assert out.best_value == pytest.approx(want, rel=1e-9, abs=0)


def assert_halves_of_earlier_splits(trace, complete):
    """Every record after the first is one half of an earlier ``split``
    record's subfamily, cut on its ``split_param``, and no subfamily comes
    twice; with ``complete`` (the queue ran empty) both halves of every
    split came."""
    halves = {}  # split records' subfamilies -> the halves taken so far
    seen = set()
    for rec in trace:
        box = tuple((name, tuple(values))
                    for name, values in rec.subfamily.items())
        assert box not in seen
        seen.add(box)
        if rec is not trace[0]:
            # the least enclosing split is the parent: any other one
            # encloses the parent too
            parents = [(split, param) for split, param in halves
                       if all(set(v) < set(dict(split)[k]) if k == param
                              else v == list(dict(split)[k])
                              for k, v in rec.subfamily.items())]
            assert parents
            split, param = min(parents, key=lambda p: math.prod(
                len(v) for _, v in p[0]))
            halves[split, param].append(set(rec.subfamily[param]))
        if rec.decision == "split":
            halves[box, rec.split_param] = []
    for (split, param), taken in halves.items():
        assert len(taken) <= 2
        if len(taken) == 2:
            assert taken[0].isdisjoint(taken[1])
            assert taken[0] | taken[1] == set(dict(split)[param])
        else:
            assert not complete


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6),
       mode=st.sampled_from(["threshold", "feasibility", "max", "min"]))
def test_refinement_order_keeps_the_tree_and_the_answers(seed, mode):
    # threshold synthesis refines first in, first out, and the search
    # modes best first: either way the loop takes each half of a split
    # once, after its split, and the answers equal the exact oracle's
    rng = random.Random(seed)
    family = random_family(seed, max_states=rng.choice([12, 40, 60]),
                           max_params=4, max_domain=4,
                           rewards=seed % 2 == 0)
    assert family.n_realisations <= 256
    spec = random_spec(seed, family)
    if mode in ("max", "min"):
        spec = Specification(kind=spec.kind, goal="goal", direction=mode)
        run = max_synthesis if mode == "max" else min_synthesis
        try:
            want = one_by_one(family, spec).best_value
        except UndefinedRewardError:
            with pytest.raises(UndefinedRewardError):
                run(family, spec)
            return
        out = run(family, spec, collect_trace=True)
        assert float(solve_mc_exact(member_chain(family, out.best),
                                    spec)) == want
        assert out.best_value == pytest.approx(want, rel=1e-6, abs=0)
        assert_halves_of_earlier_splits(out.trace, complete=False)
    elif mode == "feasibility":
        out = synthesis._feasibility(family, spec, collect_trace=True)
        want = one_by_one(family, spec)
        assert (out.best is not None) == bool(want.accepted)
        if out.best is not None:
            assert out.best.values in want.bucket_members(want.accepted)
        assert_halves_of_earlier_splits(out.trace, complete=False)
    else:
        out = threshold_synthesis(family, spec, collect_trace=True)
        assert buckets(out) == buckets(one_by_one(family, spec))
        assert_halves_of_earlier_splits(out.trace, complete=True)


def query_answers(family, seed):
    """Each query's answer and trace decisions on ``family``, for three
    ``random_spec`` thresholds (threshold and feasibility) and the four
    optima, and apart the optima's float values."""
    answers, values = [], []

    def decisions(out):
        return [(r.subfamily, r.decision, r.split_param) for r in out.trace]

    for i in range(3):
        spec = random_spec(seed + 1000 * i, family)
        out = threshold_synthesis(family, spec, collect_trace=True)
        answers.append(([out.bucket_members(b) for b in
                         (out.accepted, out.rejected, out.undefined)],
                        decisions(out)))
        out = synthesis._feasibility(family, spec, collect_trace=True)
        answers.append((out.best, decisions(out)))
    for query, synth in (("Pmax", max_synthesis), ("Pmin", min_synthesis),
                         ("Emax", max_synthesis), ("Emin", min_synthesis)):
        spec = parse_spec(f'{query} F "goal"')
        try:
            out = synth(family, spec, collect_trace=True)
        except UndefinedRewardError:
            answers.append(None)
            continue
        exact = solve_mc_exact(member_chain(family, out.best), spec)
        answers.append((out.best, exact, decisions(out)))
        values.append(out.best_value)
    return answers, values


def test_parent_values_hint_changes_no_answer_and_saves_factorisations(
        monkeypatch):
    # a child that cannot inherit starts its solve from the parent's values;
    # against solves that start cold, every partition, witness, exact
    # optimum and decision stays, and fewer policies are evaluated
    calls = [0]
    factor = engine._factor

    def counting(chosen):
        calls[0] += 1
        return factor(chosen)

    monkeypatch.setattr(engine, "_factor", counting)
    shipped = cold = 0
    for seed in (0, 3, 16, 27):
        family = random_family(seed, max_states=40, max_params=6,
                               rewards=True)
        before = calls[0]
        want, want_values = query_answers(family, seed)
        shipped += calls[0] - before
        with monkeypatch.context() as m:
            m.setattr(synthesis, "solve_prob",
                      lambda mdp, goal, d, start=None: solve_prob(mdp, goal, d))
            m.setattr(synthesis, "solve_reward",
                      lambda mdp, goal, d, start=None:
                      solve_reward(mdp, goal, d))
            before = calls[0]
            got, got_values = query_answers(family, seed)
            cold += calls[0] - before
        assert got == want
        # certified optima may differ in their last digits
        assert got_values == pytest.approx(want_values, rel=1e-9)
    assert shipped < cold


# ---------------------------------------------------------------------------
# One quotient per family
# ---------------------------------------------------------------------------

MAZE = REPO / "models" / "maze-5x5.fmc"


def every_mode(text):
    """The four queries of the threshold spec ``text``: threshold and
    feasibility synthesis on it, max and min synthesis on its objective."""
    spec = parse_spec(text)
    highest, lowest = (Specification(kind=spec.kind, goal=spec.goal,
                                     direction=d) for d in ("max", "min"))
    return [(threshold_synthesis, spec), (synthesis._feasibility, spec),
            (max_synthesis, highest), (min_synthesis, lowest)]


def answer(family, run, spec):
    """The outcome of ``run`` on ``family`` with its trace and its stats but
    the phase times, which alone vary between runs; or the error raised."""
    try:
        out = run(family, spec, collect_trace=True)
    except UndefinedRewardError as exc:
        return repr(exc)
    out.stats.times = synthesis.PhaseTimes()
    return out


# each case: a maker of equal families, the specs compared, and the specs
# asked first on the family that is queried again
QUERIED = {
    "maze": (lambda: parse_family(MAZE.read_text())[0],
             ['P>=19/100 F "goal"'], ['P<=1/10 F "goal"', 'P>1/2 F "goal"']),
    **{f"probability-{seed}": (
        lambda seed=seed: random_family(seed, max_states=12, max_params=5),
        ['P>=1/2 F "goal"'], ['P<3/10 F "goal"', 'P>9/10 F "goal"'])
       for seed in (9, 21)},
    **{f"reward-{seed}": (
        lambda seed=seed: random_family(seed, max_states=12, max_params=5,
                                        rewards=True),
        ['E<=6 F "goal"', 'P>=1/2 F "goal"'],
        ['E>=3 F "goal"', 'P<3/10 F "goal"'])
       for seed in (3, 33)},
}


@pytest.mark.parametrize("case", QUERIED)
def test_a_query_does_not_depend_on_earlier_queries(case):
    make, asked, earlier = QUERIED[case]
    used = make()
    for text in earlier:
        for run, spec in every_mode(text):
            answer(used, run, spec)
    for text in asked:
        for run, spec in every_mode(text):
            assert answer(used, run, spec) == answer(make(), run, spec)


def test_a_family_keeps_one_quotient():
    text = MAZE.read_text()
    family, _ = parse_family(text)
    quotient = build_quotient(family)
    assert build_quotient(family) is quotient
    assert quotient.family is family
    threshold_synthesis(family, parse_spec('P>=19/100 F "goal"'))
    assert build_quotient(family) is quotient
    # an equal family parsed again gets a quotient of its own
    again, _ = parse_family(text)
    assert again == family
    assert build_quotient(again) is not quotient
    assert build_quotient(again).family is again
