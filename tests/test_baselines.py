
import pytest

from famsynth import (
    FamilyModel,
    SizeCapError,
    all_in_one_check,
    all_realisations,
    instantiate,
    one_by_one,
    parse_family,
    random_family,
    random_spec,
    serialize_family,
    solve_mc_exact,
    threshold_synthesis,
)
from famsynth.engine import exact_mc_probability
from conftest import R1, R2, R3, R4


def test_one_by_one_worked_example(example1):
    model, specs = example1
    out = one_by_one(model, specs["phi"])
    assert out.bucket_members(out.accepted) == {R2, R3}
    assert out.bucket_members(out.rejected) == {R1, R4}


def test_one_by_one_max_breaks_ties_by_enumeration_order(example1):
    model, specs = example1
    out = one_by_one(model, specs["obj"])
    assert out.best_value == pytest.approx(1.0)
    assert out.best.values == R2  # first optimum in lexicographic order


def test_one_by_one_trivial_threshold(example1):
    model, _ = example1
    from famsynth import parse_spec
    out = one_by_one(model, parse_spec('P>=0 F "one"'))
    assert out.bucket_members(out.accepted) == {R1, R2, R3, R4}
    assert not out.rejected


def test_one_by_one_cap(example1):
    model, specs = example1
    with pytest.raises(SizeCapError):
        one_by_one(model, specs["phi"], cap=3)


def test_all_in_one_member_values(example1):
    model, specs = example1
    result = all_in_one_check(model, specs["phi"])
    # enumeration order: (0,0,2), (0,0,3), (0,1,2), (0,1,3)
    assert result.member_values == pytest.approx([0.0, 0.0, 1.0, 1.0],
                                                 abs=1e-6)
    assert result.minimum == pytest.approx(0.0)
    assert result.maximum == pytest.approx(1.0)


def test_all_in_one_single_member_collapses_to_chain():
    family = random_family(3, max_params=1, max_domain=1)
    assert family.n_realisations == 1
    spec = random_spec(3, family)
    result = all_in_one_check(family, spec)
    member = next(all_realisations(family))
    mc = instantiate(family, member)
    goal = family.label_states("goal")
    want = float(exact_mc_probability(mc, goal)[mc.initial])
    if spec.kind == "probability":
        assert result.member_values[0] == pytest.approx(want, abs=1e-6)


def test_all_in_one_values_match_exact_oracle():
    for seed in range(15):
        family = random_family(seed, max_states=6, rewards=seed % 3 == 0)
        spec = random_spec(seed, family)
        result = all_in_one_check(family, spec)
        for r, got in zip(all_realisations(family), result.member_values):
            mc = instantiate(family, r)
            # an undefined reward is inf on both sides
            want = float(solve_mc_exact(mc, spec))
            assert got == pytest.approx(want, abs=1e-6)


def test_random_family_is_deterministic():
    a = random_family(42, rewards=True)
    b = random_family(42, rewards=True)
    assert a == b
    assert random_family(42) != random_family(43)


def test_random_family_roundtrips_and_validates():
    for seed in range(100):
        family = random_family(seed, rewards=seed % 2 == 0)
        assert isinstance(family, FamilyModel)
        model2, _ = parse_family(serialize_family(family))
        assert model2 == family
        # goal reachable in at least one realisation
        goal = family.label_states("goal")
        hits = 0
        for r in all_realisations(family):
            if set(instantiate(family, r).reachable) & set(goal):
                hits += 1
                break
        assert hits == 1


def test_approaches_agree_on_random_corpus():
    for seed in range(20):
        family = random_family(seed, max_states=6, rewards=seed % 2 == 0)
        spec = random_spec(seed, family)
        obo = one_by_one(family, spec)
        aio = all_in_one_check(family, spec).outcome(spec)
        ref = threshold_synthesis(family, spec)
        want = obo.bucket_members(obo.accepted)
        for other in (aio, ref):
            assert other.bucket_members(other.accepted) == want
