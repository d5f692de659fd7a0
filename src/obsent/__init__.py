"""Coarse-grained observational entropy on the 1D quasiperiodic (Aubry-Andre) lattice.

Submodules
----------
model     Hamiltonian construction, diagonalization, basis changes.
entropy   Coarse-graining partitions and the entropy functionals.
dynamics  Quench evolution, quench entropy tables, free-lattice oracle.
sampling  Seeded phases and the phase-realization engine every average runs through.
analysis  Eigenstate-ensemble statistics, the fluctuation across sizes, fits.
runner    Presets, validation, CSV/JSON emission.
"""

__version__ = "0.1.0"

from .model import (
    GOLDEN_RATIO_INVERSE,
    EigenSystem,
    ModelParams,
    build_hamiltonian,
    chain_diagonals,
    chain_eigensystem,
    chain_eigenvalues,
    chain_eigenvectors,
    chain_solvers,
    eigendecompose,
    kinetic_index_order,
    site_state,
    to_momentum,
)
from .entropy import (
    CoarseGraining,
    MacrostateDistribution,
    block_entropy,
    is_rougher,
    macrostate_probs,
    make_block_partition,
    observational_entropy,
    partition_from_blocks,
    shannon_entropy,
    uniform_block_entropy,
)
from .dynamics import (
    BESSEL_MAX_ARG,
    BESSEL_MAX_ORDER,
    bessel_j,
    bessel_j_sequence,
    bessel_reference_entropy,
    evolve_many,
    quench_entropy_table,
)
from .analysis import (
    FitResult,
    eigenstate_entropy_table,
    fit_log_slope,
    normalized_fluctuation,
    resolve_mid_count,
)
from .sampling import phase_sequence
from .runner import ConfigError, ExperimentConfig, config_from_mapping, make_config, run, validate
