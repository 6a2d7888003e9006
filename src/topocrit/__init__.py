"""topocrit: band geometry and criticality of two-band lattice models.

Closed-form and numeric band geometry (Berry connection/curvature, quantum
geometric tensor, fidelity), two quantum-walk models with their effective
Hamiltonians and curvature functions, Ornstein-Zernike peak fits and
critical exponents, Wannier-type correlation series, a curvature
renormalization-group flow with phase-boundary detection, and integer
topological invariants with an independent plaquette oracle.
"""

__version__ = "0.1.0"

from .errors import (AtCriticality, EmptyGrid, FlatDegenerate,
                     GaugeSingularity, InsufficientDecade, OracleMismatch,
                     PoorFit, QuantizationFailure, TopocritError,
                     UndersampledPeak, WindowTouchesCriticality, ZeroGap)
from .geometry import (QGT, RealVec3, Spinor,
                       berry_connection_1d, berry_connection_fd,
                       berry_curvature_2d_dirac, berry_curvature_fd,
                       dhat_derivative, dirac_d_1d, dirac_d_2d, dirac_qgt_2d,
                       eigenstate_lower, eigenstate_lower_north,
                       fidelity_overlap, fidelity_susceptibility_1d_dirac,
                       lower_band_state, manifold_area_2d, manifold_length_1d,
                       metric_1d, metric_det_2d, qgt_2d, qgt_finite_difference)
from .walk1d import (EffectiveHamiltonianSample, Unitary2, WalkParams,
                     curvature_1d, effective_hamiltonian, energy_1d,
                     peak_asymptotics_1d, rotated_curvature_1d,
                     rotated_eigenstate_lower, unitary_1d, zeta_1d)
from .walk2d import (Momentum2, curvature_2d, energy_2d, peak_asymptotics_2d,
                     unitary_2d, zeta_2d)
from .models import WALK_1D, WALK_2D, Walk1D, Walk2D
from .criticality import (CurvatureProfile, ExponentFit, extract_exponents,
                          find_gap_closings, fit_lorentzian, flip_test,
                          sample_peak)
from .correlation import (CorrelationSeries, fit_decay,
                          wannier_correlation_1d, wannier_correlation_2d)
from .crg import (CriticalLine, FlowField, RGFlowSample,
                  detect_critical_lines, flow_field, rg_step,
                  walk_curvature_callback)
from .invariants import (InvariantResult, chern_number_2d, chern_plaquette,
                         winding_number_1d)
