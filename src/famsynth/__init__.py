"""famsynth: synthesis over finite families of Markov chains.

Threshold, max/min and feasibility queries answered by quotient-MDP
abstraction refinement, with one-by-one and all-in-one baselines.
"""

from .errors import (
    ConsistencyError,
    FamsynthError,
    FormatError,
    InvalidRealisationError,
    InvalidSplitError,
    ModelError,
    SizeCapError,
    UndefinedRewardError,
    UnsupportedSpecError,
)
from .family import (
    PROBABILITY,
    REWARD,
    ConcreteMC,
    FamilyModel,
    Realisation,
    Specification,
    Subfamily,
    all_realisations,
    instantiate,
    member_chain,
)
from .fmc import parse_family, parse_spec, serialize_family
from .engine import (
    CheckResult,
    SparseMDP,
    solve_mc_exact,
    solve_prob,
    solve_reward,
)
from .quotient import (
    AllInOneMDP,
    MergedAction,
    QuotientMDP,
    RestrictedQuotient,
    build_all_in_one,
    build_quotient,
    is_consistent,
    scheduler_to_realisations,
)
from .synthesis import (
    ScoreReport,
    SynthesisOutcome,
    extract_counts,
    feasibility,
    important_states,
    max_synthesis,
    min_synthesis,
    select_predicate,
    threshold_synthesis,
)
from .baselines import (
    all_in_one_check,
    one_by_one,
    random_family,
    random_spec,
)

__version__ = "0.1.0"
