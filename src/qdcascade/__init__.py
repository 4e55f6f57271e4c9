"""Polarization entanglement of cascade photon pairs under nuclear spin noise.

Quantifies how Overhauser fluctuations and the fine-structure splitting
limit the Bell-state fidelity, purity and concurrence of photon pairs from
the biexciton-exciton decay, and provides the counting-experiment
simulation and maximum-likelihood tomography used to characterize them.
"""

from .linalg import HBAR_UEV_PS, InvalidDensityMatrixError, tensor
from .metrics import (
    EntanglementMetrics,
    concurrence,
    fidelity_phi_plus,
    metrics_from_rho,
    purity,
    trace_distance,
)
from .model import (
    PhysicalParams,
    SimConfig,
    analytic_fidelity,
    apply_multipair_mixing,
    coherence_loss,
    k_from_g2,
    monte_carlo_rho,
    monte_carlo_rhos,
    overhauser_samples,
    sigma_from_t2star,
)
from .tomography import (
    BasisSetting,
    CountRecord,
    InsufficientSettingsError,
    ReconstructionResult,
    ZeroCountsError,
    fidelity_from_visibilities,
    load_count_records_csv,
    mle_reconstruct,
    save_count_records_csv,
    simulate_counts,
    standard_settings,
    visibility,
)

__version__ = "0.1.0"

__all__ = [
    "HBAR_UEV_PS",
    "BasisSetting",
    "CountRecord",
    "EntanglementMetrics",
    "InsufficientSettingsError",
    "InvalidDensityMatrixError",
    "PhysicalParams",
    "ReconstructionResult",
    "SimConfig",
    "ZeroCountsError",
    "analytic_fidelity",
    "apply_multipair_mixing",
    "coherence_loss",
    "concurrence",
    "fidelity_from_visibilities",
    "fidelity_phi_plus",
    "k_from_g2",
    "load_count_records_csv",
    "metrics_from_rho",
    "mle_reconstruct",
    "monte_carlo_rho",
    "monte_carlo_rhos",
    "overhauser_samples",
    "purity",
    "save_count_records_csv",
    "sigma_from_t2star",
    "simulate_counts",
    "standard_settings",
    "tensor",
    "trace_distance",
    "visibility",
]
