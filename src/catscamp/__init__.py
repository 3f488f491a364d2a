"""catscamp: two-engine simulator of a parity-swapping cat-state amplifier.

The package pairs an exact Gaussian-sum characteristic-function calculus
(:mod:`catscamp.phasespace`) with a truncated number-basis oracle
(:mod:`catscamp.fock`); every protocol quantity can be computed both ways
and the two engines cross-check each other.  :mod:`catscamp.pipeline` wires
the comparison and subtraction stages together, :mod:`catscamp.sweeps`
produces deterministic CSV parameter sweeps, and :mod:`catscamp.cli` is the
command-line front end (``catscamp run|sweep|wigner|validate``).
"""

from .phasespace import (
    GaussianSumState,
    DetectorPOVMChi,
    NO_CLICK,
    CLICK,
    NegligibleEventError,
    NonIntegrableError,
    PhaseSpaceError,
    tensor,
    substitute_beamsplitter,
    overlap,
    purity,
    condition,
    outcome_probability,
    wigner,
    validate_state,
)
from .fock import (
    FockVector,
    FockDensity,
    TwoModeFock,
    TruncationError,
    beamsplitter_fock,
    squeeze_fock,
    ladder,
    condition_fock,
    fidelity_fock,
    chi_from_fock,
    position_distribution,
)
from .states import (
    EVEN,
    ODD,
    CatSpec,
    SqueezeSpec,
    ChannelParams,
    cat_chi,
    cat_fock,
    coherent_chi,
    coherent_fock,
    squeezed_vacuum_chi,
    squeezed_vacuum_fock,
    squeezed_coherent_chi,
    squeeze_chi,
    vacuum_chi,
    cat_squeezed_overlap,
    optimal_squeezing,
    squeezing_db,
    comparison_channel_params,
    subtracted_squeezed_cat_overlap,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    CoherentScampResult,
    run_parity_swap,
    fidelity_vs_ideal,
    run_coherent_scamp,
    ideal_gain_curve,
    wigner_report,
    T2_95,
    T2_99,
    HALF,
)

__version__ = "0.1.0"
