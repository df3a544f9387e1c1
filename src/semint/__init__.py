"""Symplectic-energy-momentum integration via discrete-time Hamilton equations.

The integrator advances a piecewise-linear trajectory in extended phase space
whose segment midpoints exactly satisfy the Hamiltonian constraint, with the
Lagrange multiplier of each step acting as a state-determined time step.
Alongside the integrator itself, the package carries the well-posedness
machinery: Newton-Kantorovich certificates for the implicit midpoint solve,
a cubic constraint model with a rigorous quartic error constant, region-based
existence/uniqueness prediction for the multipliers, and ghost-root
detection near sign changes of the curvature scalar.
"""

from .bounds import DerivedConstants, RegionBounds, derive_constants, estimate_bounds
from .constraint import ConstraintCurve, CubicModel, cubic_model, g_derivative, g_eval
from .decoupler import (
    KantorovichReport,
    kantorovich_report,
    midpoint_sensitivity,
    solve_midpoint_coords,
)
from .extphase import (
    ClassicalModel,
    ExtendedState,
    FieldSample,
    HamiltonianModel,
    apply_J,
    autonomize,
    sample_fields,
)
from .models import free_time, oscillator, pendulum
from .multiplier import (
    GhostReport,
    MultiplierSet,
    Region,
    RootPrediction,
    capital_lambda,
    classify_region,
    ghost_check,
    predict_roots,
    solve_roots,
)
from .trajectory import (
    ConservationReport,
    DTHTrajectory,
    StepOptions,
    choose_conjugate_momentum,
    classify_vertex,
    conservation_report,
    interpolate_at_time,
    propagate,
    step,
)

__version__ = "0.1.0"
