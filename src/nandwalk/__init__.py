"""Evaluation of NAND trees by a continuous-time quantum walk.

A right-moving wave packet on a long runway scatters off a binary tree
encoding the instance; at band center the tree transmits when the root
value is 1 and reflects when it is 0, so a single measurement of the
right-side probability after time L/2 decides the tree in O(sqrt(N)) time.
"""

__version__ = "0.1.0"

from .nand_core import (
    EvalTrace,
    NonPowerOfTwoError,
    TreeInput,
    embed_parity,
    eval_nand,
    expected_hard_queries,
    hard_instance,
    hard_query_law,
    hard_query_samples,
    parity_blocks,
    parity_layout,
    parse_input,
    randomized_eval,
)
from .scattering import (
    BoundReport,
    DegenerateRecursionError,
    ProjectiveValue,
    SymbolicY,
    combine_y,
    energy_grid,
    leaf_y,
    predict_p_right,
    scan_bounds,
    transmission,
    y_at_zero,
    y_bottom,
)
from .lattice import (
    HamiltonianGraph,
    NodeIndexMap,
    build_driver,
    build_full,
    build_oracle,
    build_runway,
    dense_eig,
    extra_node,
    runway_node,
    tree_node,
)
from .dynamics import (
    RunConfig,
    Verdict,
    evolve_cheb,
    evolve_exact,
    initial_packet,
    prob_right,
    run_algorithm,
)
from .spectral import (
    band_mass,
    packet_spectrum,
    parseval_total,
    tail_mass,
)
from .harness import cli_main, sweep
