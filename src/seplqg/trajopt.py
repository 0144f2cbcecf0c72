"""Open-loop trajectory optimization in belief space.

The paper's first stage, a deterministic trajectory optimization on the
black-box simulation model: plain gradient descent with backtracking,

    U <- U - alpha * grad J(U),

on J(U) = `CostSpec.total(x_det(U), U)`, x_det(U) being the noiseless
rollout of U from the prior mean.  Under maximum-likelihood
observations the planned belief mean is that noiseless state, so the
plan stays a belief-space plan.

The gradient is the hot path: one reverse pass over the rollout's tape,
one adjoint row per step, with the plant's adjoint from
`plant.adjoints`, exact when the plant has `step_vjp` and a
central-difference Jacobian of each step for a black box with only
`step`.  The rollouts of the descent are not observed.  The line
search's rollout of the accepted iterate serves the next gradient, so
no iterate is rolled out twice.

The belief `optimize` reports, its means and their cost, is that of one
seeded stochastic EnKF rollout of the final controls, which filters the
noiseless observations, within `optimize`.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import load, memory_only, save
from .belief import enkf_update_members, psd_sqrt
from .exceptions import GradientEvaluationError, InsufficientEnsembleError
from .plant import adjoints
from .rng import stream

__all__ = [
    "CostSpec",
    "NominalTrajectory",
    "OptimizeOptions",
    "optimize",
]


def _vector(name, value, n):
    """`value`, a scalar or n entries, as a float vector of n entries; a
    ValueError names `name` if it has another length or is not finite."""
    v = np.asarray(value, dtype=float)
    if v.ndim == 0:
        v = np.full(n, float(v))
    if v.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class CostSpec:
    """Quadratic belief-space cost with diagonal weights, held as the
    vectors of their diagonals: q_mean and q_terminal (n_x,), r_u (n_u,).

    Stage k:  sum_i q_mean_i (mu_k,i - target_i)^2 + sum_m r_u,m u_k,m^2
    Terminal: sum_i q_terminal_i (mu_N,i - target_i)^2

    This class is the one place the cost is evaluated.  `state_cost`,
    `control_cost` and `gradient` work row by row over the last axis,
    with elementwise products and a row-wise sum, so a row of an (R, n)
    batch gets the same bits as that row alone: the Monte Carlo scores
    a chunk of runs in one batch and stays chunk-exact.  The weights
    and the target must be finite, the weights >= 0 and r_u > 0; a
    ValueError names the field that is not.
    """

    q_mean: np.ndarray
    r_u: np.ndarray
    q_terminal: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        n_x, n_u = len(np.atleast_1d(self.q_mean)), len(np.atleast_1d(self.r_u))
        for name, n in (("q_mean", n_x), ("q_terminal", n_x), ("target", n_x), ("r_u", n_u)):
            object.__setattr__(self, name, _vector(name, getattr(self, name), n))
        for name in ("q_mean", "q_terminal"):
            if getattr(self, name).min() < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.r_u.min() <= 0:
            raise ValueError("r_u must be > 0")

    @classmethod
    def from_weights(cls, n_x, n_u, q_mean=1.0, r_u=1.0, q_terminal=1.0, target=0.0):
        """Build the weights from scalars or per-entry vectors."""
        return cls(
            q_mean=_vector("q_mean", q_mean, n_x),
            r_u=_vector("r_u", r_u, n_u),
            q_terminal=_vector("q_terminal", q_terminal, n_x),
            target=_vector("target", target, n_x),
        )

    def state_cost(self, mu, terminal=False):
        """(mu - target)' diag(q) (mu - target) of each row of mu, q
        being q_terminal if `terminal` and q_mean if not."""
        d = mu - self.target
        return (d * d * (self.q_terminal if terminal else self.q_mean)).sum(-1)

    def control_cost(self, u):
        """u' diag(r_u) u of each row of u."""
        return (u * u * self.r_u).sum(-1)

    def gradient(self, means, controls):
        """The stage costs' gradients along a trajectory: (C_mu (N+1,
        n_x), C_u (N, n_u)), C_mu[k] = 2 q o (mu_k - target) with q =
        q_terminal on the last row of `means` and q_mean before, and
        C_u[k] = 2 r_u o u_k."""
        d = means - self.target
        C_mu = 2.0 * d * self.q_mean
        C_mu[-1] = 2.0 * d[-1] * self.q_terminal
        return C_mu, 2.0 * controls * self.r_u

    def total(self, means, controls):
        """Cost of a whole trajectory: means (N+1, n_x) and controls (N,
        n_u).  Another number of means, or a row of another width, is
        rejected, where the row-wise sums would broadcast a width of 1."""
        if len(means) != len(controls) + 1:
            raise ValueError(f"the cost needs N+1 = {len(controls) + 1} means for N controls, got {len(means)}")
        if means.shape[1:] != self.q_mean.shape or controls.shape[1:] != self.r_u.shape:
            raise ValueError(f"the cost needs rows of n_x = {self.q_mean.size} means and n_u = "
                             f"{self.r_u.size} controls, got {means.shape} and {controls.shape}")
        total = self.state_cost(means[:-1]).sum() + self.control_cost(controls).sum()
        total += self.state_cost(means[-1], terminal=True)
        return float(total)


@dataclass
class NominalTrajectory:
    """Optimized nominal: controls (N, n_u); the belief of those
    controls, its means and the noiseless observations over k = 0..N
    from one seeded EnKF rollout, and nominal_cost, the cost of those
    means; and optimizer bookkeeping.  Every Monte Carlo run starts
    exactly at x0 = means[0], so no stage reads a covariance, and none is
    kept.  nominal.json stores every field but cost_history, the
    deterministic costs of the accepted iterates, which is an in-memory
    diagnostic.  Keys of the file besides the stored fields, such as the
    prior_cov an older nominal.json holds, are ignored."""

    controls: np.ndarray
    means: np.ndarray
    observations: np.ndarray
    nominal_cost: float
    iterations: int
    converged: bool
    cost_history: list = memory_only(list)

    def __post_init__(self):
        self.controls = np.atleast_2d(np.asarray(self.controls, dtype=float))
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.observations = np.atleast_2d(np.asarray(self.observations, dtype=float))
        n = self.controls.shape[0]
        for name, arr in (("means", self.means), ("observations", self.observations)):
            if arr.shape[0] != n + 1:
                raise ValueError(f"{name} must have length N+1 = {n + 1}, got {arr.shape[0]}")
        if not np.isfinite(self.nominal_cost):
            raise ValueError("nominal_cost must be finite")

    @property
    def horizon(self):
        return self.controls.shape[0]

    to_json = save
    from_json = classmethod(load)


# ---------------------------------------------------------------------------
# Deterministic descent engine
# ---------------------------------------------------------------------------


def _check_finite_gradient(grad):
    """Raise on a non-finite gradient.  The reverse pass reaches the
    latest step first and a non-finite adjoint spreads from there to
    every earlier one, so the latest bad step is the one named."""
    bad = np.flatnonzero(~np.isfinite(grad).all(axis=1))
    if bad.size:
        k = int(bad[-1])
        channel = int(np.flatnonzero(~np.isfinite(grad[k]))[0])
        raise GradientEvaluationError(f"non-finite gradient at control entry (k={k}, channel={channel})")


def _gradient(plant, spec, U, states, h):
    """Gradient (N, n_u) at U by one reverse pass over its noiseless
    tape `states`: lambda_N = C_x,N, then (g_x, g_u) = step_vjp(x_k, u_k,
    lambda_k+1), grad_k = C_u,k + g_u and lambda_k = C_x,k + g_x, the
    adjoint from `adjoints` with h its difference step for a black box."""
    step_vjp = adjoints(plant, states, h)[0]
    C_x, grad = spec.gradient(states, U)
    lam = C_x[-1]
    for k in range(U.shape[0] - 1, -1, -1):
        g_x, g_u = step_vjp(states[k], U[k], lam, k)
        grad[k] += g_u
        lam = C_x[k] + g_x
    _check_finite_gradient(grad)
    return grad


# ---------------------------------------------------------------------------
# Reported belief
# ---------------------------------------------------------------------------


def _enkf_means(plant, b0, U, states, M, seed):
    """Means (N+1, n_x) and noiseless observations (N+1, n_y) of one
    stochastic EnKF rollout of M members that filters the observations
    of `states`, the noiseless tape of U, its noise drawn from streams
    of `seed`.  means[0] is the prior mean, not a sample estimate; one
    step's members are held at a time."""
    N = U.shape[0]
    members = b0.mean + stream(seed, "enkf-init").standard_normal((M, plant.n_x)) @ psd_sqrt(b0.cov).T
    w_draws = stream(seed, "enkf-w").standard_normal((N, M, plant.n_u)) @ psd_sqrt(plant.W).T
    v_draws = stream(seed, "enkf-v").standard_normal((N, M, plant.n_y)) @ psd_sqrt(plant.V).T
    obs = np.array([plant.observe(x, 0.0, k) for k, x in enumerate(states)])
    means = np.empty((N + 1, plant.n_x))
    means[0] = b0.mean
    for k in range(N):
        members = plant.step(members, U[k], w_draws[k], k)
        members = enkf_update_members(members, obs[k + 1], v_draws[k], plant, plant.V, k + 1)
        means[k + 1] = members.mean(axis=0)
    return means, obs


@dataclass
class OptimizeOptions:
    """Descent settings; the defaults are those of the built-in heat
    benchmark."""

    alpha: float = 30.0
    max_iters: int = 120
    tol: float = 1e-6
    # size and seed of the EnKF that reports the belief of the result
    M: int = 16
    seed: int = 0
    # finite-difference step, used only for plants without an adjoint
    h: float = 1e-2


_MAX_HALVINGS = 30


def optimize(u_init, b0, plant, spec, opts=None):
    """Gradient descent with backtracking on the deterministic cost
    J(U) = spec.total(x_det(U), U), then the belief of the result.

    The step size alpha / (1 + max|grad|) is restored at every iteration
    and halved, at most 30 times, within an iteration until the cost
    decreases.  Stops when the cost improvement falls below
    tol*(1+|J|), when the gradient norm falls below tol, or at max_iters
    (returning the best iterate seen, converged=False).  cost_history
    holds the accepted deterministic costs.

    The returned means, observations and nominal_cost are those of one
    EnKF rollout of the final controls with opts.M members and opts.seed;
    an M below 2 is rejected before any plant step.
    """
    opts = opts or OptimizeOptions()
    if opts.M < 2:
        raise InsufficientEnsembleError(f"the EnKF needs at least 2 members, got M={opts.M}")
    U = np.atleast_2d(np.asarray(u_init, dtype=float)).copy()
    states = plant.rollout(b0.mean, U)
    J = spec.total(states, U)
    history = [J]
    iterations = 0
    converged = False
    for it in range(opts.max_iters):
        grad = _gradient(plant, spec, U, states, opts.h)
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= opts.tol:
            converged = True
            break
        alpha = opts.alpha / (1.0 + np.abs(grad).max())
        accepted = False
        for _ in range(_MAX_HALVINGS):
            U_try = U - alpha * grad
            states_try = plant.rollout(b0.mean, U_try)
            J_try = spec.total(states_try, U_try)
            if J_try < J:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            # no decrease left above roundoff; keep the best iterate
            break
        delta = J - J_try
        U, J, states = U_try, J_try, states_try
        history.append(J)
        iterations = it + 1
        if delta <= opts.tol * (1.0 + abs(J)):
            converged = True
            break
    means, observations = _enkf_means(plant, b0, U, states, opts.M, opts.seed)
    return NominalTrajectory(
        controls=U,
        means=means,
        observations=observations,
        nominal_cost=spec.total(means, U),
        iterations=iterations,
        converged=converged,
        cost_history=history,
    )
