import math
import pathlib

import pytest

from fractions import Fraction

from famsynth import Subfamily, parse_family, solve_mc_exact

REPO = pathlib.Path(__file__).resolve().parent.parent
EXAMPLE1 = REPO / "models" / "example1.fmc"

# The worked four-state family; realisations in enumeration order are
# (k0, k1, k2) = (0,0,2), (0,0,3), (0,1,2), (0,1,3).
R1 = (0, 0, 2)
R4 = (0, 0, 3)
R2 = (0, 1, 2)
R3 = (0, 1, 3)

# Families with components that policy iteration cannot certify: stiff-loop
# (2 members) and stiff-cap (4 members) must still match the exact oracle;
# stiff-loose (3 members) has a certified reward bound looser than the
# classification margin.
STIFF_LOOP = REPO / "models" / "stiff-loop.fmc"
STIFF_CAP = REPO / "models" / "stiff-cap.fmc"
STIFF_LOOSE = REPO / "models" / "stiff-loose.fmc"


@pytest.fixture(scope="session")
def example1():
    model, specs = parse_family(EXAMPLE1.read_text())
    return model, specs


@pytest.fixture(scope="session")
def example1_rewards():
    """The worked family with rewards that only realisation (0,1,2) keeps
    finite for reaching state 2 (its expected reward is exactly 4)."""
    text = EXAMPLE1.read_text().replace(
        "labels",
        "rewards\n0 : 1\n1 : 1\n2 : 0\n3 : 5\n\nlabels", 1)
    model, specs = parse_family(text)
    return model, specs


@pytest.fixture(scope="session", params=[STIFF_LOOP, STIFF_CAP],
                ids=lambda path: path.stem)
def stiff_family(request):
    model, _ = parse_family(request.param.read_text())
    return model


@pytest.fixture(scope="session")
def stiff_loose():
    model, _ = parse_family(STIFF_LOOSE.read_text())
    return model


def satisfied_exactly(mc, spec):
    """Whether the chain's exact value is defined and satisfies ``spec``."""
    value = solve_mc_exact(mc, spec)
    return value != math.inf and spec.satisfied(value)


def random_subfamily(family, rng):
    """A random subfamily whose value subsets are listed in shuffled order,
    not in domain order."""
    subsets = []
    for dom in family.domains:
        values = rng.sample(dom, rng.randint(1, len(dom)))
        subsets.append(tuple(values))
    return Subfamily(tuple(subsets))


# Stiff ladder: the initial state keeps 1-10**-k on a self-loop and splits
# the rest between the goal and a sink, so both members have value exactly
# 1/2, far below which the residual test of plain sweeps stops; the dummy
# parameter on the goal's row makes two members.
LADDER_DOC = """
states 3
initial 0
params
d : 1 2
k0 : 0
kg : 1
ks : 2
trans
0 : {loop}:k0 + {rest}:kg + {rest}:ks
1 : 1:d
2 : 1:ks
labels
goal : 1
"""


def ladder(k):
    loop = 1 - Fraction(1, 10 ** k)
    family, _ = parse_family(LADDER_DOC.format(loop=loop, rest=(1 - loop) / 2))
    return family
