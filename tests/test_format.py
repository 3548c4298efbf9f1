from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famsynth import (
    FormatError,
    Specification,
    parse_family,
    parse_spec,
    random_family,
    random_spec,
    serialize_family,
)

def test_parse_worked_example(example1):
    model, specs = example1
    assert model.n_states == 4
    assert model.param_names == ("k0", "k1", "k2")
    assert model.domains == ((0,), (0, 1), (2, 3))
    assert model.rows[0] == ((Fraction(1, 2), 0), (Fraction(1, 2), 1))
    assert model.n_realisations == 4
    assert specs["phi"] == Specification(
        kind="probability", goal="one", relation=">=",
        threshold=Fraction(1, 10))


def test_decimal_literals_are_exact_rationals():
    doc = """
states 1
initial 0
params
k : 0
trans
0 : 0.1:k + 9/10:k2   # a comment survives parsing
"""
    with pytest.raises(FormatError) as err:
        parse_family(doc)  # k2 unknown
    assert err.value.code == "unknown-param"
    with pytest.raises(FormatError) as err:
        parse_family(doc.replace("k2", "k"))  # k twice in one row
    assert err.value.code == "dup-param"
    model, _ = parse_family("""
states 2
initial 0
params
a : 0
b : 1
trans
0 : 0.1:a + 0.9:b
1 : 1:b
""")
    assert model.rows[0][0][0] == Fraction(1, 10)
    assert model.rows[0][1][0] == Fraction(9, 10)


def test_row_sum_error_carries_line_number():
    doc = """states 1
initial 0
params
k : 0
trans
0 : 0.9:k
"""
    with pytest.raises(FormatError) as err:
        parse_family(doc)
    assert err.value.code == "row-sum"
    assert err.value.line == 6


def test_spec_string_grammar():
    spec = parse_spec('P>=0.1 F "one"')
    assert spec.kind == "probability"
    assert spec.relation == ">="
    assert spec.threshold == Fraction(1, 10)
    assert spec.goal == "one"
    assert parse_spec('Emin F "goal"').direction == "min"
    assert parse_spec('E<=5 F "g"').threshold == 5
    with pytest.raises(FormatError):
        parse_spec('P~0.5 F "g"')
    with pytest.raises(FormatError) as err:
        parse_spec('P>1 F "g"')
    assert err.value.code == "threshold-range"
    with pytest.raises(FormatError) as err:
        parse_spec('P<=2 F "g"')
    assert err.value.code == "threshold-range"


def test_unknown_label_in_spec_rejected():
    doc = """states 1
initial 0
params
k : 0
trans
0 : 1:k
labels
goal : 0
specs
phi : P>=0 F "nope"
"""
    with pytest.raises(FormatError) as err:
        parse_family(doc)
    assert err.value.code == "unknown-label"


def test_reward_spec_requires_rewards_section():
    doc = """states 1
initial 0
params
k : 0
trans
0 : 1:k
labels
goal : 0
specs
phi : E<=1 F "goal"
"""
    with pytest.raises(FormatError) as err:
        parse_family(doc)
    assert err.value.code == "missing-section"


def test_missing_sections_reported():
    with pytest.raises(FormatError) as err:
        parse_family("initial 0\nparams\nk : 0\ntrans\n0 : 1:k\n")
    assert err.value.code == "missing-section"
    with pytest.raises(FormatError) as err:
        parse_family("states 1\ninitial 0\ntrans\n0 : 1:k\n")
    assert err.value.code == "missing-section"


def test_serialize_omits_empty_sections(example1):
    model, _ = example1
    bare = model.__class__(
        n_states=model.n_states, initial=model.initial,
        param_names=model.param_names, domains=model.domains,
        rows=model.rows)
    text = serialize_family(bare)
    assert "labels" not in text
    assert "rewards" not in text
    assert "specs" not in text


def test_roundtrip_worked_example(example1):
    model, specs = example1
    text = serialize_family(model, specs)
    model2, specs2 = parse_family(text)
    assert model2 == model
    assert specs2 == specs


def test_roundtrip_with_rewards(example1_rewards):
    model, specs = example1_rewards
    text = serialize_family(model, specs)
    model2, specs2 = parse_family(text)
    assert model2 == model
    assert "rewards" in text


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), rewards=st.booleans())
def test_roundtrip_random_corpus(seed, rewards):
    family = random_family(seed, rewards=rewards)
    specs = {"phi": random_spec(seed, family)}
    text = serialize_family(family, specs)
    family2, specs2 = parse_family(text)
    assert family2 == family
    assert specs2 == specs
    assert serialize_family(family2, specs2) == text


# One valid document; each case below breaks it in one place.
VALID = """states 2
initial 0
params
a : 0 1
b : 1
trans
0 : 1/2:a + 1/2:b
1 : 1:b
rewards
0 : 1
labels
goal : 1
specs
phi : P>=1/2 F "goal"
"""


@pytest.mark.parametrize("old, new, code, line", [
    ("states 2", "states two", "syntax", 1),
    ("initial 0\n", "initial 0\nstates 2\n", "dup-section", 3),
    ("initial 0\n", "initial 0\ninitial 1\n", "dup-section", 3),
    ("specs\n", "labels\nspecs\n", "dup-section", 13),
    ("b : 1\n", "b : 1\nb 1\n", "syntax", 6),
    ("params\n", "c : 0\nparams\n", "syntax", 3),
    ("a : 0 1", "1a : 0 1", "syntax", 4),
    ("b : 1\n", "b : 1\nb : 0\n", "dup-param", 6),
    ("a : 0 1", "a : 0 x", "bad-state", 4),
    ("b : 1\n", "b :\n", "empty-domain", 5),
    ("1 : 1:b\n", "1 : 1:b\n1 : 1:b\n", "dup-entry", 9),
    ("1 : 1:b", "1 : b", "syntax", 8),
    ("1/2:a", "half:a", "bad-number", 7),
    ("0 : 1\nlabels", "0 : 1\n0 : 2\nlabels", "dup-entry", 11),
    ("goal : 1\n", "goal : 1\ngoal : 0\n", "dup-entry", 13),
    ("goal : 1", "goal :", "syntax", 12),
    ('"goal"\n', '"goal"\nphi : Pmax F "goal"\n', "dup-entry", 15),
    ('F "goal"', 'F ""', "syntax", 14),
    ("initial 0\n", "", "missing-section", None),
    ("1 : 1:b\n", "", "missing-section", None),
    ("1 : 1:b\n", "1 : 1:b\n2 : 1:b\n", "bad-state", None),
    ("rewards\n0 : 1", "rewards\n5 : 1", "bad-state", None),
], ids=["states-not-a-number", "dup-states", "dup-initial", "dup-section",
        "no-key", "outside-section", "bad-identifier", "dup-parameter",
        "bad-state-index", "empty-domain", "dup-row", "term-without-param",
        "bad-number", "dup-reward", "dup-label", "label-without-state",
        "dup-spec", "spec-without-goal", "missing-initial", "missing-row",
        "row-of-unknown-state", "reward-of-unknown-state"])
def test_parse_errors(old, new, code, line):
    parse_family(VALID)  # valid without the change
    assert VALID.count(old) == 1
    with pytest.raises(FormatError) as err:
        parse_family(VALID.replace(old, new))
    assert (err.value.code, err.value.line) == (code, line)
