"""Secret-key agreement over trusted-repeater QKD networks with
Byzantine nodes: multipath XOR establishment, key authentication,
deterministic privacy amplification, and a Monte-Carlo validation
harness for the analytic bounds."""

from .adversary import (
    AdversaryConfig,
    AdversaryView,
    controlled_paths,
    corrupt,
    guessing_advantage,
)
from .bits import BitString
from .mac import (
    MacKey,
    impersonation_bound,
    reduction_polynomial,
    tag,
)
from .network import (
    NetworkGraph,
    PathSet,
    QkdLink,
    RateModel,
    link_rate,
    required_paths,
    vertex_disjoint_paths,
)
from .protocol import SecurityParams, SessionOutcome, deterministic_pa, full_session
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
from .transport import LinkKeyPool

__version__ = "0.1.0"
