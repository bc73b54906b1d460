"""stabsim: self-stabilizing mutual exclusion over bounded unison clocks,
run under pluggable adversarial schedulers, with worst-case search oracles.
"""

from .clock import ClockParams, ssme_params
from .daemon import (
    CentralAdversarial,
    CentralRandom,
    CentralRoundRobin,
    RandomDistributed,
    SynchronousDaemon,
    enumerate_choices,
    make_daemon,
)
from .engine import (
    FalsificationError,
    IslandReport,
    Trace,
    convergence_index_au,
    convergence_index_me,
    format_trace,
    islands,
    liveness_report,
    local_state,
    restrict_trace,
    run,
    step,
)
from .graph import Graph, build_graph, generate, load_graph, save_graph
from .protocol import (
    DijkstraProtocol,
    SsmeProtocol,
    is_unison_legitimate,
    make_protocol,
)
from .search import (
    lower_bound_witness,
    ssme_unfair_step_bound,
    sync_worst_case,
    worst_case_unfair,
)

__version__ = "0.1.0"

__all__ = [
    "ClockParams",
    "ssme_params",
    "SynchronousDaemon",
    "CentralRoundRobin",
    "CentralRandom",
    "CentralAdversarial",
    "RandomDistributed",
    "enumerate_choices",
    "make_daemon",
    "FalsificationError",
    "IslandReport",
    "Trace",
    "run",
    "step",
    "is_unison_legitimate",
    "islands",
    "local_state",
    "restrict_trace",
    "convergence_index_me",
    "convergence_index_au",
    "liveness_report",
    "format_trace",
    "Graph",
    "build_graph",
    "generate",
    "load_graph",
    "save_graph",
    "SsmeProtocol",
    "DijkstraProtocol",
    "make_protocol",
    "sync_worst_case",
    "worst_case_unfair",
    "lower_bound_witness",
    "ssme_unfair_step_bound",
    "__version__",
]
