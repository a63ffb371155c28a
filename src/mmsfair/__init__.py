"""mmsfair: a workbench for maximin-share fair division of indivisible items.

Exact maximin-share computation, ranking-based allocation mechanisms under
three information models, exhaustive misreport search, executable
impossibility chains, and a Monte-Carlo harness for the uniform random
mechanism.
"""

from .adversary import (
    FEASIBLE_UNKNOWN,
    INFEASIBLE,
    CountingReport,
    exhaustive_common_ranking_ratio,
    harmonic_number,
    ordinal_adversary_share,
    ordinal_adversary_valuation,
    ordinal_lower_bound_check,
)
from .fixtures import (
    APPROX_FAILURE,
    CONSISTENT,
    FIXTURE_NAMES,
    MANIPULABLE,
    ChainFixture,
    ChainReport,
    builtin_fixture,
    fixture_applies,
    format_fixture,
    parse_fixture,
    run_chain,
)
from .instance import (
    Allocation,
    EnumerationLimitError,
    Instance,
    InstanceError,
    Ranking,
    derive_ranking,
    format_instance,
    parse_instance,
    validate_allocation,
)
from .mechanisms import (
    BEST_ITEM,
    CARDINAL,
    CUT_AND_CHOOSE,
    MECHANISM_NAMES,
    MODELS,
    ORDINAL,
    PICK_SEQ,
    PR,
    PR_EXACT_24,
    PUBLIC_RANKINGS,
    RANDOM_UNIFORM,
    SQRT_SEQ,
    Mechanism,
    MechanismError,
    PickingSequence,
    best_item_sequence,
    mechanism,
    models_for,
    pr_sequence,
    run_mechanism,
    theoretical_ratio,
    truthful_models,
)
from .mms import (
    UNBOUNDED,
    approximation_ratio,
    maximin_share,
)
from .montecarlo import (
    Bernoulli,
    ContinuousUniform01,
    DiscreteUniform,
    MCConfig,
    MCResult,
    mc_config,
    montecarlo_randomized,
    parse_distribution,
)
from .seqbuild import (
    InfeasibleParams,
    SqrtSeqParams,
    build_sqrt_sequence,
    length_bound,
    power_lower_rational,
    sqrt_seq_params,
    verify_pick_positions,
    verify_schedule_demand,
)
from .strategy import (
    DeviationReport,
    GridVerification,
    GridWitness,
    deviation_search,
    verify_truthful_on_grid,
)

__version__ = "0.1.0"
