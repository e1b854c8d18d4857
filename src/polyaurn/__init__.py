"""Periodic urn models with exact finite-time laws, limit-law machinery,
martingale tail-sum experiments, and the companion growth processes
(immigrated increasing forests, thick-labeled Stirling words, restaurant
seating with competition)."""

__version__ = "0.1.0"

from .urns import (
    Pmf,
    UrnSpec,
    empirical_pmf,
    enumerate_histories,
    exact_pmf_dp,
    marginal_pmf,
    multicolor_polya_young,
    polya_young,
    sequence_urn,
    simulate_counts_batch,
    simulate_white_batch,
    spec_from_json,
    spec_to_json,
    triangular,
    with_white_immigration,
)
from .moments import (
    LimitConstants,
    asymptotic_constants,
    binomial_moments,
    density_cutoff,
    g_factor,
    limit_Cs,
    limit_density,
    limit_mixed_moment,
    limit_moments,
    mixed_rising_moment,
    pmf_via_moments,
    product_ratio,
    raw_moments,
    rising_factorial_moment,
    tilted_density_moment,
)
from .laws import (
    BesselParams,
    Decomposition,
    DecompositionReport,
    Law,
    UnsupportedLawError,
    beta_law,
    decomposition_for,
    dirichlet_law,
    gen_gamma_law,
    local_time_law,
    ml3_law,
    mixed_moment_at,
    moment_at,
    powered_law,
    product_law,
    tilted_law,
    verify_decomposition,
    verify_multicolor_decomposition,
)
from .martingale import (
    StatMoments,
    TailSumReport,
    lil_diagnostic,
    limit_mean_square,
    mean_square,
    tail_sum_experiment,
    tail_variance,
    tail_variance_asymptotic,
)
from .trees import (
    TreeFamily,
    dary_family,
    descendants_urn,
    forest_total_weight,
    gport_family,
    outdegree_urn,
    recursive_family,
    root_descendants_urn,
    simulate_statistic_batch,
    statistic_pmf,
)
from .stirling import (
    all_words,
    block_count,
    block_count_law,
    block_count_pmf_from_urn,
    block_count_urn,
    blocks,
    forest_to_word,
    gap_count,
    random_word,
    simulate_block_counts,
    stirling_count,
    word_to_forest,
)
from .crp import (
    CrpParams,
    capacity,
    seating_probabilities,
    seating_weights,
    simulate_table_count_batch,
    table_count_pmf,
    table_count_urn,
    tree_equivalents,
)
from .rng import derive_seed, resolve_master_seed, run_blocks
