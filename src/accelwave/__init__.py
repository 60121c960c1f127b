"""accelwave: acceleration-wave analysis for 1-D relaxation models.

Characteristic structure and coupling-condition verdicts, the closed-form
amplitude evolution with blow-up classification, and an independent
finite-volume wavefront simulation for cross-checking, over viscoelastic
solids and relaxing non-Newtonian fluids.
"""

__version__ = "0.1.0"

from .amplitude import (
    AmplitudeOutcome,
    ScanRow,
    Trajectory,
    classify,
    closed_form,
    integrate,
    singular_limit_scan,
)
from .characteristics import (
    Degenerate,
    DegenerateWaveError,
    DissipativeFinite,
    Eigensystem,
    FamilyReport,
    HyperbolicityError,
    KConditionReport,
    SingularLimit,
    StateVector,
    WaveCoefficients,
    assemble_ab_numeric,
    coefficients_ab,
    eigensystem,
    equilibrium_state,
    grad_lambda,
    k_condition,
    quasilinear_matrix,
    source_jacobian,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    SimConfig,
    SweepConfig,
    apply_sweep_value,
    bundled_config_path,
    load_scenario,
    material_from_dict,
    material_to_dict,
    scenario_from_dict,
    scenario_to_dict,
)
from .materials import (
    FluidParams,
    IdealGas,
    MaterialModel,
    Maxwell,
    MooneyRivlin,
    Newtonian,
    PotentialDerivs,
    PowerLaw,
    ProductionJacobian,
    QuadraticCubic,
    RegularizedPowerLaw,
    RelaxationError,
    SingularProductionSlope,
    SolidParams,
    elastic_derivs,
    production,
    production_jacobian,
    zener_relaxation_response,
)
from .wavefront import (
    EnergyReport,
    FrontTrace,
    Grid,
    KinkIC,
    SimResult,
    SimulationError,
    Snapshot,
    detect_front_position,
    entropy_monitor,
    measure_front_slope,
    simulate,
)
from . import amplitude, characteristics, config, materials, wavefront

__all__ = [*amplitude.__all__, *characteristics.__all__, *config.__all__,
           *materials.__all__, *wavefront.__all__]
