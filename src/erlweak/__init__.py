"""Weak measurement, postselection, and weak values in epistemically
restricted Liouville mechanics."""

from .analytic import (
    DegeneratePostselectionError,
    DiscreteSpectrumInput,
    SingularConditioningError,
    WeakValue,
    first_order_shifts,
    gaussian_condition,
    oracle_postselected_means,
    postselected_means_discrete,
    postselected_means_gaussian,
    weak_value_discrete,
    weak_value_gaussian,
)
from .bounds import RegimeMargin, discrete_regime_margin, gaussian_regime_margin
from .dynamics import (
    SymplecticMap,
    apply_to_points,
    apply_to_state,
    coupling_map,
)
from .montecarlo import (
    EmptyWindowError,
    ExperimentConfig,
    InsufficientAcceptanceError,
    LostPrecisionError,
    PostselectedEstimate,
    acceptance_probability,
    exact_strong_correlation,
    joint_momentum_histogram,
    oracle_estimate,
    run_weak_experiment,
    sample_state,
    strong_measurement_correlation,
    windowed_oracle,
)
from .states import (
    GaussianState,
    Quadrature,
    RestrictionResult,
    check_epistemic_restriction,
    make_particle,
    make_pure_device,
    quadrature_moments,
    symplectic_form,
    tensor,
)

__version__ = "0.3.0"
