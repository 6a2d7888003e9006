"""topocrit: band geometry and criticality of two-band lattice models.

Closed-form band geometry (lower-band states, the Berry connection and
curvature of the Dirac models, the quantum geometric tensor whose real part
is the fidelity susceptibility), two quantum-walk models with their
quasienergy bands and curvature functions, Ornstein-Zernike peak fits and
critical exponents, Wannier-type correlation series, a curvature
renormalization-group flow with phase-boundary detection, and integer
topological invariants with an independent plaquette oracle.
"""

__version__ = "0.1.0"

from .errors import (AtCriticality, GaugeSingularity, InsufficientDecade,
                     OracleMismatch, PoorFit, QuantizationFailure,
                     TopocritError, UndersampledPeak,
                     WindowTouchesCriticality, ZeroGap)
from .geometry import (berry_connection_1d, berry_curvature_2d_dirac,
                       lower_band_states, quantum_geometric_tensor)
from .walk1d import (WalkParams, energy_1d, peak_asymptotics_1d,
                     rotated_curvature_1d)
from .walk2d import peak_asymptotics_2d
from .models import WALK_1D, WALK_2D, Walk1D, Walk2D
from .criticality import (CurvatureProfile, ExponentFit, extract_exponents,
                          fit_lorentzian, sample_peak)
from .correlation import (CorrelationSeries, fit_decay,
                          wannier_correlation_1d, wannier_correlation_2d)
from .crg import CriticalLine, FlowField, detect_critical_lines, flow_field
from .invariants import (InvariantResult, chern_number_2d, chern_plaquette,
                         winding_number_1d)
