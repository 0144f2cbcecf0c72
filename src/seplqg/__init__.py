"""seplqg: separation-based output-feedback control for black-box plants.

Pipeline: open-loop trajectory optimization (gradient descent on the
cost of the noiseless rollout, with a reverse-mode gradient over the
plant's adjoint, or over central-difference Jacobians of its steps for a
black box, and the belief means of the result reported by one EnKF
rollout inside `optimize`), time-varying ERA identification of the
perturbation LTV system from impulse responses, and reduced-order
time-varying LQG synthesis, evaluated by paired-noise Monte Carlo.
"""

from .belief import GaussianBelief, enkf_update_members
from .harness import MonteCarloReport, complexity_report, run_monte_carlo
from .lqg import LqgController, design_lqg, kf_forward, lqg_update, lqr_backward
from .plant import HeatPlant, HeatPlantConfig, LinearPlant, Plant
from .sysid import LtvRom, MarkovParams, collect_impulse_responses, tv_era, validate_rom
from .trajopt import CostSpec, NominalTrajectory, OptimizeOptions, optimize

__version__ = "0.1.0"
