"""topocrit: band geometry and criticality of two-band lattice models.

Closed-form and numeric band geometry (lower-band states, Berry
connection/curvature, the quantum geometric tensor whose real part is the
fidelity susceptibility), two quantum-walk models with their effective
Hamiltonians and curvature functions, Ornstein-Zernike peak fits and
critical exponents, Wannier-type correlation series, a curvature
renormalization-group flow with phase-boundary detection, and integer
topological invariants with an independent plaquette oracle.
"""

__version__ = "0.1.0"

from .errors import (AtCriticality, FlatDegenerate,
                     GaugeSingularity, InsufficientDecade, OracleMismatch,
                     PoorFit, QuantizationFailure, TopocritError,
                     UndersampledPeak, WindowTouchesCriticality, ZeroGap)
from .geometry import (berry_connection_1d, berry_connection_fd,
                       berry_curvature_2d_dirac, berry_curvature_fd,
                       lower_band_states, qgt_finite_difference,
                       quantum_geometric_tensor)
from .walk1d import (EffectiveHamiltonianSample, Unitary2, WalkParams,
                     effective_hamiltonian, energy_1d, peak_asymptotics_1d,
                     rotated_curvature_1d, unitary_1d)
from .walk2d import peak_asymptotics_2d, unitary_2d
from .models import WALK_1D, WALK_2D, Walk1D, Walk2D
from .criticality import (CurvatureProfile, ExponentFit, extract_exponents,
                          fit_lorentzian, flip_test, sample_peak)
from .correlation import (CorrelationSeries, fit_decay,
                          wannier_correlation_1d, wannier_correlation_2d)
from .crg import (CriticalLine, FlowField, detect_critical_lines,
                  flow_field, rg_step, walk_curvature_callback)
from .invariants import (InvariantResult, chern_number_2d, chern_plaquette,
                         winding_number_1d)
