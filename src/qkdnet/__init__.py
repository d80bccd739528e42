"""Secret-key agreement over trusted-repeater QKD networks with
Byzantine nodes: multipath XOR establishment, key authentication,
deterministic privacy amplification, and a Monte-Carlo validation
harness for the analytic bounds."""

from .adversary import (
    AdversaryConfig,
    AdversaryView,
    PublishedBundle,
    controlled_paths,
    corrupt,
    disclose,
    guessing_advantage,
    honest_path_view,
)
from .bits import BitString, inner_product, split_key, xor_combine
from .mac import (
    MacKey,
    MacParams,
    Tag,
    impersonation_bound,
    reduction_polynomial,
    split_for_two_messages,
    tag,
    verify,
)
from .network import (
    NetworkGraph,
    PathSet,
    QkdLink,
    RateModel,
    link_rate,
    max_disjoint_paths,
    required_paths,
    vertex_disjoint_paths,
)
from .protocol import (
    Challenge,
    SecurityParams,
    SessionOutcome,
    deterministic_pa,
    full_session,
    make_challenge,
    make_response,
    multipath_establish,
    verify_challenge,
    verify_response,
)
from .sim import (
    Scenario,
    Stats,
    TrialResult,
    check_bounds,
    exact_oracles,
    load_scenario,
    run_monte_carlo,
    run_trial,
)
from .transport import (
    LinkKeyPool,
    classical_send,
    path_forward_key,
    qkd_generate,
)

__version__ = "0.1.0"
