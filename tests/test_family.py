from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famsynth import (
    FamilyModel,
    InvalidRealisationError,
    InvalidSplitError,
    ModelError,
    Realisation,
    Specification,
    Subfamily,
    all_realisations,
    instantiate,
    member_chain,
    random_family,
    solve_mc_exact,
)
from conftest import R1, R2, R3, R4

H = Fraction(1, 2)


def test_instantiate_merges_weights_to_same_successor(example1):
    model, _ = example1
    mc = instantiate(model, Realisation(R1))
    assert mc.rows[0] == ((0, Fraction(1)),)
    assert mc.reachable == {0}


def test_instantiate_progressing_realisation(example1):
    model, _ = example1
    mc = instantiate(model, Realisation(R2))
    assert mc.rows[0] == ((0, H), (1, H))
    assert mc.reachable == {0, 1, 2}


def test_instantiate_single_state_self_loop():
    model = FamilyModel(n_states=1, initial=0, param_names=("k",),
                        domains=((0,),), rows=(((Fraction(1), 0),),))
    mc = instantiate(model, Realisation((0,)))
    assert mc.rows == (((0, Fraction(1)),),)
    assert mc.reachable == {0}


def test_instantiate_rejects_bad_assignments(example1):
    model, _ = example1
    with pytest.raises(InvalidRealisationError):
        instantiate(model, Realisation((0, 1)))
    with pytest.raises(InvalidRealisationError):
        instantiate(model, Realisation((0, 2, 2)))


def test_all_realisations_of_worked_example(example1):
    model, _ = example1
    members = [r.values for r in all_realisations(model)]
    assert members == [R1, R4, R2, R3]


def test_all_realisations_single_parameter():
    model = FamilyModel(n_states=3, initial=0, param_names=("k",),
                        domains=((0, 1, 2),), rows=(
                            ((Fraction(1), 0),),
                            ((Fraction(1), 0),),
                            ((Fraction(1), 0),)))
    assert len(list(all_realisations(model))) == 3


def test_all_realisations_no_duplicates():
    model = FamilyModel(
        n_states=4, initial=0, param_names=("a", "b", "c"),
        domains=((0, 1), (0, 1, 2), (0, 1, 2, 3)),
        rows=tuple(((Fraction(1, 2), 0), (Fraction(1, 2), 1))
                   for _ in range(4)))
    members = {r.values for r in all_realisations(model)}
    assert len(members) == 24


def test_split_partitions_member_counts():
    sub = Subfamily(((0, 1), (2, 3)))
    top, bottom = sub.split(0, {1})
    assert top.subsets == ((1,), (2, 3))
    assert bottom.subsets == ((0,), (2, 3))
    assert top.size + bottom.size == sub.size == 4


def test_split_uneven():
    sub = Subfamily(((4, 5, 6),))
    top, bottom = sub.split(0, {4, 5})
    assert (top.size, bottom.size) == (2, 1)


def test_split_rejects_improper_subsets():
    sub = Subfamily(((4,), (5, 6)))
    with pytest.raises(InvalidSplitError):
        sub.split(0, {4})
    with pytest.raises(InvalidSplitError):
        sub.split(1, {5, 6})
    with pytest.raises(InvalidSplitError):
        sub.split(1, set())


def test_singleton_subfamily_roundtrip():
    r = Realisation((0, 1, 2))
    sub = Subfamily.of_realisation(r)
    assert sub.is_singleton
    assert sub.to_realisation() == r
    with pytest.raises(InvalidRealisationError):
        Subfamily(((0, 1),)).to_realisation()


def test_model_validation_codes():
    with pytest.raises(ModelError) as err:
        FamilyModel(n_states=1, initial=0, param_names=("k",),
                    domains=((0,),), rows=(((Fraction(9, 10), 0),),))
    assert err.value.code == "row-sum"
    with pytest.raises(ModelError) as err:
        FamilyModel(n_states=1, initial=0, param_names=("k",),
                    domains=((),), rows=(((Fraction(1), 0),),))
    assert err.value.code == "empty-domain"
    with pytest.raises(ModelError) as err:
        FamilyModel(n_states=1, initial=0, param_names=("k",),
                    domains=((0,),),
                    rows=(((Fraction(1, 2), 0), (Fraction(1, 2), 0)),))
    assert err.value.code == "dup-param"
    with pytest.raises(ModelError) as err:
        FamilyModel(n_states=1, initial=3, param_names=("k",),
                    domains=((0,),), rows=(((Fraction(1), 0),),))
    assert err.value.code == "bad-initial"
    with pytest.raises(ModelError) as err:
        FamilyModel(n_states=1, initial=0, param_names=("k",),
                    domains=((0,),), rows=(((Fraction(1), 0),),),
                    rewards=(Fraction(-1),))
    assert err.value.code == "bad-reward"


def test_spec_invariants():
    with pytest.raises(ModelError):
        Specification(kind="probability", goal="g", relation=">=",
                      threshold=Fraction(3, 2))
    with pytest.raises(ModelError):
        Specification(kind="expected-reward", goal="g", relation="<=",
                      threshold=Fraction(-1))
    with pytest.raises(ModelError):
        Specification(kind="probability", goal="g", relation=">",
                      threshold=Fraction(1))
    with pytest.raises(ModelError):
        Specification(kind="probability", goal="g", relation=">",
                      threshold=Fraction(1, 2), direction="max")
    spec = Specification(kind="probability", goal="g", direction="max")
    assert spec.objective_only


def family_with(**changes):
    """A valid two-state family, with ``changes`` to its fields."""
    fields = dict(n_states=2, initial=0, param_names=("a", "b"),
                  domains=((0, 1), (1,)),
                  rows=(((H, 0), (H, 1)), ((Fraction(1), 1),)),
                  rewards=(Fraction(1), Fraction(0)), labels={"goal": {1}})
    fields.update(changes)
    return FamilyModel(**fields)


def spec_with(**changes):
    """A valid threshold spec, with ``changes`` to its fields."""
    fields = dict(kind="probability", goal="goal", relation=">=",
                  threshold=H)
    fields.update(changes)
    return Specification(**fields)


ONE = ((Fraction(1), 1),)


@pytest.mark.parametrize("make, changes, code", [
    (family_with, {"n_states": 0}, "bad-state"),
    (family_with, {"param_names": ("a",)}, "bad-domain"),
    (family_with, {"param_names": ("a", "a")}, "dup-param"),
    (family_with, {"domains": ((0, 0), (1,))}, "bad-domain"),
    (family_with, {"domains": ((0, 2), (1,))}, "bad-domain"),
    (family_with, {"rows": (ONE,)}, "bad-row"),
    (family_with, {"rows": (ONE, ())}, "bad-row"),
    (family_with, {"rows": (ONE, ((Fraction(1), 2),))}, "unknown-param"),
    (family_with, {"rows": (ONE, ((Fraction(0), 0), (Fraction(1), 1)))},
     "bad-prob"),
    (family_with, {"rows": (ONE, ((0.5, 0), (0.5, 1)))}, "bad-prob"),
    (family_with, {"rewards": (Fraction(1),)}, "bad-reward"),
    (family_with, {"labels": {"goal": {2}}}, "bad-label"),
    (spec_with, {"kind": "rate"}, "bad-spec"),
    (spec_with, {"relation": None, "threshold": None,
                 "direction": "sideways"}, "bad-spec"),
    (spec_with, {"relation": None}, "bad-spec"),
], ids=["no-state", "domain-count", "dup-name", "repeated-value",
        "value-not-a-state", "row-count", "empty-row", "unknown-param",
        "zero-weight", "float-weight", "reward-count", "label-state",
        "spec-kind", "spec-direction", "spec-relation"])
def test_direct_construction_errors(make, changes, code):
    make()  # valid without the changes
    with pytest.raises(ModelError) as err:
        make(**changes)
    assert err.value.code == code


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_random_family_rows_sum_to_one_exactly(seed):
    family = random_family(seed)
    for r in all_realisations(family):
        mc = instantiate(family, r)
        for s in mc.reachable:
            assert sum(p for _, p in mc.rows[s]) == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_full_subfamily_contains_exactly_all_realisations(seed):
    family = random_family(seed, max_states=6)
    full = Subfamily.full(family)
    members = list(all_realisations(family))
    assert full.size == family.n_realisations == len(members)
    assert all(full.contains(r) for r in members)
    assert {r.values for r in full.members()} == {r.values for r in members}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_split_union_preserves_member_set(seed, data):
    family = random_family(seed, max_states=6)
    full = Subfamily.full(family)
    splittable = [k for k in range(family.n_params)
                  if len(full.subsets[k]) > 1]
    if not splittable:
        return
    k = data.draw(st.sampled_from(splittable))
    keep_size = data.draw(
        st.integers(1, len(full.subsets[k]) - 1))
    keep = full.subsets[k][:keep_size]
    top, bottom = full.split(k, keep)
    left = {r.values for r in top.members()}
    right = {r.values for r in bottom.members()}
    assert left.isdisjoint(right)
    assert left | right == {r.values for r in full.members()}


def exact_answer(chain, spec):
    """``solve_mc_exact``'s answer, or the type of the error it raises."""
    try:
        return solve_mc_exact(chain, spec)
    except ModelError as exc:
        return type(exc)


def assert_member_chain_is_reached_part(family, r):
    """``member_chain`` holds exactly the states ``instantiate`` reaches,
    ascending, with their rows, rewards and labels renumbered.  Its integer
    rows, which the exact check solves, are its rows: the family row's
    weights summed per successor in ``Fraction``s."""
    whole = instantiate(family, r)
    chain = member_chain(family, r)
    states = sorted(whole.reachable)
    local = {s: i for i, s in enumerate(states)}
    assert chain.n_states == len(whole.reachable) == len(chain.rows)
    assert chain.reachable == frozenset(range(chain.n_states))
    assert chain.initial == local[family.initial]
    for row, (den, masses), s in zip(chain.rows, chain.masses, states):
        merged = {}
        for p, k in family.rows[s]:
            t = local[r.values[k]]
            merged[t] = merged.get(t, 0) + p
        assert tuple((t, Fraction(m, den)) for t, m in masses) == row == \
            tuple(sorted(merged.items()))
        assert row == tuple((local[t], p) for t, p in whole.rows[s])
        assert sum(p for _, p in row) == 1
    if family.rewards is None:
        assert chain.rewards is None
    else:
        assert chain.rewards == tuple(family.rewards[s] for s in states)
    assert chain.labels == {name: frozenset(local[s] for s in marked
                                            if s in local)
                            for name, marked in family.labels.items()}
    return whole, chain


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), rewards=st.booleans())
def test_member_chain_answers_like_instantiate(seed, rewards):
    family = random_family(seed, max_states=10, max_params=4, max_domain=4,
                           rewards=rewards)
    specs = [Specification(kind="probability", goal="goal", relation=">=",
                           threshold=H),
             Specification(kind="expected-reward", goal="goal",
                           relation="<=", threshold=Fraction(5))]
    for r in all_realisations(family):
        whole, chain = assert_member_chain_is_reached_part(family, r)
        for spec in specs:
            assert exact_answer(chain, spec) == exact_answer(whole, spec)


def test_member_chain_merges_non_dyadic_weights_exactly():
    # 1/10 + 1/5 on one successor is 3/10 exactly, though not in floats;
    # state 2 is never reached
    tenth = Fraction(1, 10)
    family = FamilyModel(
        n_states=4, initial=0, param_names=("a", "b", "c", "d"),
        domains=((1,), (1,), (3,), (2, 3)),
        rows=(((tenth, 0), (2 * tenth, 1), (7 * tenth, 2)),
              ((3 * tenth, 2), (7 * tenth, 3)),
              ((Fraction(1), 3),), ((Fraction(1), 2),)),
        rewards=(Fraction(1), Fraction(2), Fraction(4), Fraction(0)),
        labels={"goal": frozenset({2, 3})})
    r = Realisation((1, 1, 3, 3))
    _, chain = assert_member_chain_is_reached_part(family, r)
    assert chain.rows == (((1, 3 * tenth), (2, 7 * tenth)),
                          ((2, Fraction(1)),), ((2, Fraction(1)),))
    assert chain.rewards == (Fraction(1), Fraction(2), Fraction(0))
    assert chain.labels == {"goal": frozenset({2})}
    reward = Specification(kind="expected-reward", goal="goal",
                           relation="<=", threshold=Fraction(8, 5))
    value = solve_mc_exact(chain, reward)
    assert value == Fraction(8, 5) and reward.satisfied(value)
