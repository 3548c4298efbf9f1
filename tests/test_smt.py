import re
import warnings

import pytest

from famsynth import (
    MalformedModelError,
    Subfamily,
    UnsupportedSpecError,
    build_quotient,
    decode_model,
    default_solver_command,
    encode_feasibility,
    one_by_one,
    parse_spec,
    random_family,
    run_solver,
)
from famsynth import prob0_exists, prob1_forall
from conftest import R2


def full_restriction(model):
    return build_quotient(model).restrict(Subfamily.full(model))


@pytest.fixture()
def reward_encoding(example1_rewards):
    model, _ = example1_rewards
    spec = parse_spec('E<=5 F "two"')
    restricted = full_restriction(model)
    return model, spec, encode_feasibility(restricted, spec)


def test_variable_count_on_worked_example(reward_encoding):
    model, spec, enc = reward_encoding
    # 4 reward reals + 12 choice booleans + 2*4 reachability booleans
    # + 4 ranking reals
    assert enc.n_variables == 4 + 12 + 4 + 4 + 4
    assert enc.text.count("(declare-const") == 28


def test_structural_constraints_cover_the_right_states(reward_encoding):
    model, spec, enc = reward_encoding
    restricted = full_restriction(model)
    goal = model.label_states("two")
    s_rel = frozenset(range(4)) - prob1_forall(restricted.mdp, goal)
    s_crit = prob0_exists(restricted.mdp, goal)
    assert enc.s_rel == s_rel
    assert enc.s_crit == s_crit
    for s in goal:
        assert f"(assert (= e_{s} 0.0))" in enc.text
    for s in s_rel:
        assert re.search(rf"=> ch_{s}_\d+ \(= p1g_{s} ", enc.text)
    for s in s_crit:
        assert re.search(rf"=> ch_{s}_\d+ \(= ppg_{s} ", enc.text)
    # pinned booleans outside the constrained regions
    for s in range(4):
        if s not in s_rel:
            assert f"(assert p1g_{s})" in enc.text
        if s not in s_crit:
            assert f"(assert ppg_{s})" in enc.text


CONSTANT = re.compile(r"\b(?:(?:e|p1g|ppg|o)_\d+|ch_\d+_\d+)\b")
DECLARED = re.compile(r"\(declare-const (\S+) ")


def test_every_constant_used_is_declared_when_states_are_unreachable():
    renumbered = 0
    for seed in range(40):
        family = random_family(seed, max_states=8, max_params=3,
                               rewards=True)
        restricted = full_restriction(family)
        enc = encode_feasibility(restricted, parse_spec('E<=6 F "goal"'))
        declared = DECLARED.findall(enc.text)
        assert len(declared) == len(set(declared)) == enc.n_variables
        assert set(CONSTANT.findall(enc.text)) == set(declared)
        # constants carry family state numbers
        assert {int(name[2:]) for name in declared if name.startswith("e_")} \
            == set(restricted.states) == set(enc.states)
        assert {ma.state for ma in enc.choice_vars.values()} == \
            set(restricted.states)
        renumbered += restricted.states != tuple(range(len(restricted.states)))
    assert renumbered >= 5


def test_exactly_one_choice_per_state(reward_encoding):
    _, _, enc = reward_encoding
    # state 1 has four actions: one disjunction plus six pairwise exclusions
    assert "(assert (or ch_1_0 ch_1_1 ch_1_2 ch_1_3))" in enc.text
    assert enc.text.count("(assert (not (and ch_1_0 ch_1_1)))") == 1


def test_probabilities_emitted_as_exact_rationals(reward_encoding):
    _, _, enc = reward_encoding
    assert "(/ 1 2)" in enc.text
    assert "0.5" not in enc.text


def test_unsupported_specs_rejected(example1_rewards, example1):
    model, _ = example1_rewards
    restricted = full_restriction(model)
    with pytest.raises(UnsupportedSpecError):
        encode_feasibility(restricted, parse_spec('P>=0.5 F "two"'))
    with pytest.raises(UnsupportedSpecError):
        encode_feasibility(restricted, parse_spec('E>=1 F "two"'))
    plain, _ = example1
    with pytest.raises(UnsupportedSpecError):
        encode_feasibility(full_restriction(plain),
                           parse_spec('E<=1 F "two"'))


def craft_model_text(enc, wanted):
    """Fake solver output choosing, per state, the first action compatible
    with the given parameter values."""
    chosen = {}
    for name, ma in sorted(enc.choice_vars.items()):
        if ma.state in chosen:
            continue
        if all(wanted.get(k, v) == v for k, v in zip(ma.params, ma.values)):
            chosen[ma.state] = name
    lines = ["(model"]
    for name in enc.choice_vars:
        value = "true" if name in chosen.values() else "false"
        lines.append(f"  (define-fun {name} () Bool {value})")
    lines.append(")")
    return "\n".join(lines)


def test_decode_model_recovers_realisation(reward_encoding):
    model, spec, enc = reward_encoding
    text = craft_model_text(enc, {1: 1, 2: 2})  # k1=1, k2=2
    member = decode_model(enc, text)
    assert member.values == R2


def test_decode_model_completes_missing_params_lexicographically():
    family = random_family(3, max_params=1, max_domain=1, rewards=True)
    spec = parse_spec('E<=1000 F "goal"')
    enc = encode_feasibility(full_restriction(family), spec)
    text = craft_model_text(enc, {})
    member = decode_model(enc, text)
    assert member.values == tuple(d[0] for d in family.domains)


def test_decode_model_rejects_double_choice(reward_encoding):
    _, _, enc = reward_encoding
    lines = ["(model"]
    for name in enc.choice_vars:
        lines.append(f"  (define-fun {name} () Bool true)")
    lines.append(")")
    with pytest.raises(MalformedModelError):
        decode_model(enc, "\n".join(lines))


def test_decode_model_rejects_missing_choice(reward_encoding):
    _, _, enc = reward_encoding
    with pytest.raises(MalformedModelError):
        decode_model(enc, "(model)")


def test_decode_verifies_against_the_bound(example1_rewards):
    model, _ = example1_rewards
    tight = parse_spec('E<=2 F "two"')  # no member satisfies this
    enc = encode_feasibility(full_restriction(model), tight)
    text = craft_model_text(enc, {1: 1, 2: 2})
    with pytest.raises(MalformedModelError):
        decode_model(enc, text)


@pytest.mark.parametrize("bound, wanted", [
    # exact reward 4, above the bound by only 1e-9, which a float check
    # with a tolerance would let pass
    ("3999999999/1000000000", {1: 1, 2: 2}),
    # the goal is missed with positive probability: no reward is defined
    ("5", {1: 1, 2: 3})], ids=["reward-4", "undefined"])
def test_decode_verifies_the_bound_exactly(example1_rewards, bound, wanted):
    model, _ = example1_rewards
    spec = parse_spec(f'E<={bound} F "two"')
    enc = encode_feasibility(full_restriction(model), spec)
    text = craft_model_text(enc, wanted)
    with pytest.raises(MalformedModelError):
        decode_model(enc, text)


def test_sat_iff_feasible_with_external_solver():
    command = default_solver_command()
    if command is None:
        warnings.warn("no SMT solver binary configured; "
                      "sat-iff-feasible cross-check skipped")
        pytest.skip("no SMT solver binary configured")
    checked = 0
    for seed in range(40):
        family = random_family(seed, max_states=6, max_params=3,
                               rewards=True)
        if family.n_realisations > 32:
            continue
        spec = parse_spec('E<=6 F "goal"')
        enc = encode_feasibility(full_restriction(family), spec)
        status, model_text = run_solver(enc, command)
        obo = one_by_one(family, spec)
        feasible = bool(obo.accepted)
        assert status in ("sat", "unsat")
        assert (status == "sat") == feasible
        if status == "sat":
            member = decode_model(enc, model_text)
            assert Subfamily.full(family).contains(member)
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20
