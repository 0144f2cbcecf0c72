"""Black-box plant contract and concrete plants.

A plant is anything that can be stepped and observed:

    x[k+1] = f(x[k], u[k], w[k]),    y[k] = h(x[k], v[k])

with zero-mean Gaussian white noises w ~ N(0, W) entering through the
control channels and v ~ N(0, V) additive at the sensors.  A plant
subclasses `Plant` and calls `Plant.__init__` with its dimensions, W,
V, horizon and dt, which every stage reads as its attributes.  Everything
downstream (belief propagation, trajectory optimization, impulse-response
identification, Monte Carlo evaluation) only touches plants through this
interface, so swapping the nonlinear heat slab for a small linear oracle
is a one-line change in tests.

`step` and `observe` are pure functions of their arguments and broadcast
over leading batch dimensions: a state array of shape (..., n_x) maps to
(..., n_x).  The optional time index `k` matters only for time-varying
plants (see `LinearPlant` with stacked matrices).

A plant may also expose its adjoints, optional methods broadcasting
like `step` over the leading axes of an adjoint g:

    step_vjp(state, control, g, k) -> (g @ d step/d state, g @ d step/d control)
    observe_vjp(g, k)              -> g @ d observe/d state

The process noise enters with the control, so the step's derivatives at
control u + w are those of the noisy step, and `observe_vjp` takes no
state because the observation is linear in it.  `HeatPlant` and
`LinearPlant` have both.  Every stage differentiates a plant through
one helper, `adjoints`, which returns these methods when the plant has
them and, for a black box with only `step` and `observe`, the adjoint
times their central-difference Jacobians.  Trajectory optimization
takes one adjoint row per step of its rollouts; the Monte Carlo's
linearized filter takes its Jacobians as the adjoints of the identity
and scores its runs by one adjoint row per step.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import IntegrationDivergedError

__all__ = [
    "Plant",
    "HeatPlantConfig",
    "HeatPlant",
    "LinearPlant",
    "adjoints",
]


def _check_psd(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.allclose(M, M.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(M).min() < -1e-10:
        raise ValueError(f"{name} must be positive semi-definite")
    return M


class Plant:
    """Base class of the plants: `__init__` checks and stores the
    dimensions, horizon and noise covariances, W n_u x n_u (process
    noise enters through the control channels) and V n_y x n_y
    (additive measurement noise); subclasses implement step/observe."""

    def __init__(self, n_x, n_u, n_y, W, V, horizon, dt):
        if min(n_x, n_u, n_y) < 1:
            raise ValueError("state/control/measurement dimensions must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.n_x, self.n_u, self.n_y, self.horizon, self.dt = n_x, n_u, n_y, horizon, dt
        self.W = _check_psd(W, "W")
        self.V = _check_psd(V, "V")
        if self.W.shape[0] != n_u:
            raise ValueError(f"W must be {n_u}x{n_u}")
        if self.V.shape[0] != n_y:
            raise ValueError(f"V must be {n_y}x{n_y}")

    def step(self, state, control, process_noise, k=0):
        raise NotImplementedError

    def observe(self, state, meas_noise, k=0):
        raise NotImplementedError

    def rollout(self, x0, controls):
        """Noiseless states (N+1, n_x) of the controls (N, n_u) from x0,
        none of them observed.

        controls must have length N = horizon of the rollout; shorter
        sequences roll out a shorter horizon.
        """
        controls = np.atleast_2d(np.asarray(controls, dtype=float))
        states = np.empty((controls.shape[0] + 1, self.n_x))
        states[0] = np.asarray(x0, dtype=float)
        for k, u in enumerate(controls):
            states[k + 1] = self.step(states[k], u, 0.0, k)
        return states

    def simulate_nominal(self, x0, controls):
        """Noiseless rollout: the states (N+1, n_x) of `rollout` and their
        observations (N+1, n_y)."""
        states = self.rollout(x0, controls)
        return states, np.array([self.observe(x, 0.0, k) for k, x in enumerate(states)])


def adjoints(plant, states, h):
    """(step_vjp, observe_vjp) of `plant` along the noiseless `states`
    (N+1, n_x), as the plant contract defines them.

    A plant's own methods are returned as they are.  A black box lacking
    one gets the adjoint times a central-difference Jacobian with step
    h: of `step` at (x, u), formed from one batch of 2(n_x + n_u)
    single-step rows, or of `observe` at states[k].  A gradient by one
    reverse pass over N steps then steps 2(n_x + n_u) N rows, where
    differencing whole rollouts, each forked from the tape at its
    perturbed control, steps n_u N (N+1): this route is the cheaper one
    while n_x < n_u (N - 1) / 2, about 622 on the built-in heat benchmark
    (n_u = 5, N = 250; its n_x is 100).  An h <= 0 is rejected.
    """
    if not h > 0:
        raise ValueError(f"the difference step h must be positive, got {h}")

    def jacobian(f, z):
        E = h * np.eye(len(z))
        out = f(z + np.concatenate([E, -E]))
        return ((out[: len(z)] - out[len(z) :]) / (2.0 * h)).T

    def step_vjp(x, u, g, k):
        n_x = len(x)
        gz = g @ jacobian(lambda z: plant.step(z[:, :n_x], z[:, n_x:], 0.0, k), np.concatenate([x, u]))
        return gz[..., :n_x], gz[..., n_x:]

    def observe_vjp(g, k):
        return g @ jacobian(lambda x: plant.observe(x, 0.0, k), states[k])

    return getattr(plant, "step_vjp", step_vjp), getattr(plant, "observe_vjp", observe_vjp)


def _as_finite(x, what, k):
    # NaN/inf propagate through the sum, so one reduction checks the array
    if not np.isfinite(np.sum(x)):
        raise IntegrationDivergedError(f"{what} produced a non-finite state at step k={k}")
    return x


# ---------------------------------------------------------------------------
# Nonlinear heat slab
# ---------------------------------------------------------------------------

_DEFAULT_POSITIONS = (0.1, 0.3, 0.5, 0.7, 0.9)


def _grid_nodes(n, fractions):
    """Indices of the nodes of an n-node grid nearest each fraction of
    its length, 0 and 1 being its ends."""
    return tuple(int(round(f * (n - 1))) for f in fractions)


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# explicit-Euler stability margin: max K*dt/dx^2 over the operating
# temperature range must stay below this
_STABILITY_LIMIT = 0.5
_DEFAULT_DIFFUSION_NUMBER = 0.38


@dataclass(frozen=True)
class HeatPlantConfig:
    """One-dimensional heat slab with point actuators and point sensors.

    Dynamics: dT/dt = K(x,T) d2T/dx2 - eta*T + u(t), with insulated left
    end (ghost-node Neumann) and a fixed right end T(L,t) = t_right.
    Diffusivity is affine in temperature, K(x,T) = k0*(1 + k1*T).
    Actuation and sensing happen at the grid nodes nearest the given
    fractional positions.  When k0 is omitted it defaults to
    0.38*dx^2/dt, which keeps the explicit scheme stable over
    temp_range with the default k1.
    """

    n_grid: int = 100
    L: float = 1.0
    eta: float = 5e-4
    k0: float = None
    k1: float = 1e-3
    actuators: tuple = _DEFAULT_POSITIONS
    sensors: tuple = _DEFAULT_POSITIONS
    t_init: float = 100.0
    t_right: float = 150.0
    dt: float = 0.25
    horizon: int = 250
    temp_range: tuple = (0.0, 300.0)

    def __post_init__(self):
        for name in ("n_grid", "horizon"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("L", "eta", "k0", "k1", "t_init", "t_right", "dt"):
            value = getattr(self, name)
            if not (_is_finite(value) or name == "k0" and value is None):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        object.__setattr__(self, "temp_range", tuple(self.temp_range))
        if len(self.temp_range) != 2 or not all(map(_is_finite, self.temp_range)):
            raise ValueError(f"temp_range must be two finite numbers, got {self.temp_range!r}")
        if self.n_grid < 3:
            raise ValueError("n_grid must be >= 3")
        if self.L <= 0 or self.dt <= 0 or self.horizon < 1:
            raise ValueError("L, dt must be positive and horizon >= 1")
        if self.k0 is None:
            object.__setattr__(self, "k0", _DEFAULT_DIFFUSION_NUMBER * self.dx**2 / self.dt)
        if self.k0 < 0:
            raise ValueError("k0 must be non-negative")
        lo, hi = self.temp_range
        if 1.0 + self.k1 * lo <= 0 or 1.0 + self.k1 * hi <= 0:
            raise ValueError(f"diffusivity factor 1 + k1*T must stay positive on temp_range {self.temp_range}")
        kmax = self.k0 * max(1.0 + self.k1 * lo, 1.0 + self.k1 * hi)
        number = kmax * self.dt / self.dx**2
        if number > _STABILITY_LIMIT + 1e-12:
            raise ValueError(
                f"explicit scheme unstable: max K*dt/dx^2 = {number:.4g} > {_STABILITY_LIMIT} "
                f"over temp_range {self.temp_range}"
            )
        for name in ("actuators", "sensors"):
            fr = np.asarray(getattr(self, name), dtype=float)
            if fr.ndim != 1 or len(fr) < 1 or not np.all((fr >= 0) & (fr <= 1)):
                raise ValueError(f"{name} must be fractions in [0, 1]")
            object.__setattr__(self, name, tuple(fr))
        if len(set(self.actuator_nodes)) != len(self.actuator_nodes):
            raise ValueError("actuator positions map to duplicate grid nodes")
        if len(set(self.sensor_nodes)) != len(self.sensor_nodes):
            raise ValueError("sensor positions map to duplicate grid nodes")

    @property
    def dx(self):
        return self.L / (self.n_grid - 1)

    @property
    def actuator_nodes(self):
        return _grid_nodes(self.n_grid, self.actuators)

    @property
    def sensor_nodes(self):
        return _grid_nodes(self.n_grid, self.sensors)


class HeatPlant(Plant):
    """Explicit finite-difference model of the nonlinear heat slab.

    One step of forward Euler with a centered second difference.  The
    left end uses a ghost node for the Neumann condition; the right-end
    (Dirichlet) entry is carried through unchanged, so trajectories
    started with state[-1] = t_right keep it exactly.  Control and
    process noise enter together as point sources at the actuator
    nodes.
    """

    def __init__(self, config=None, W=None, V=None):
        self.config = config if config is not None else HeatPlantConfig()
        c = self.config
        n_u = len(c.actuators)
        n_y = len(c.sensors)
        super().__init__(c.n_grid, n_u, n_y, np.eye(n_u) if W is None else W,
                         np.eye(n_y) if V is None else V, c.horizon, c.dt)
        self._act = np.asarray(c.actuator_nodes)
        self._sen = np.asarray(c.sensor_nodes)
        self._inv_dx2 = 1.0 / c.dx**2
        # step coefficients with dt folded in
        self._a = c.k0 * self._inv_dx2 * c.dt
        self._a_k1 = self._a * c.k1

    def initial_state(self):
        """Uniform t_init profile with the Dirichlet entry at t_right."""
        x0 = np.full(self.config.n_grid, float(self.config.t_init))
        x0[-1] = self.config.t_right
        return x0

    def _laplacian(self, T):
        """Second difference of T (times dx^2) with the boundary rows.

        The interior runs on the flat buffer, where contiguous 1-D
        operations are 2-3x faster than strided (..., n) views; the first
        and last entry of each row, which that mixes with the next row,
        are set below."""
        T = np.ascontiguousarray(T)
        lap = np.empty_like(T)
        t, out = T.reshape(-1), lap.reshape(-1)[1:-1]
        np.subtract(t[2:], t[1:-1], out=out)
        out -= t[1:-1]
        out += t[:-2]
        lap[..., 0] = 2.0 * (T[..., 1] - T[..., 0])
        lap[..., -1] = 0.0
        return lap

    def _laplacian_t(self, g):
        """Transpose of `_laplacian` applied to g."""
        r = np.zeros_like(g)
        inner = g[..., 1:-1]
        r[..., 2:] += inner
        r[..., :-2] += inner
        r[..., 1:-1] -= 2.0 * inner
        r[..., 1] += 2.0 * g[..., 0]
        r[..., 0] -= 2.0 * g[..., 0]
        return r

    def step(self, state, control, process_noise, k=0):
        c = self.config
        T = np.asarray(state, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            # dt K(x,T)/dx^2 * lap = (a + a k1 T) * lap, formed in lap's buffer
            lap = self._laplacian(T)
            out = T * self._a_k1
            out += self._a
            lap *= out
            np.multiply(T, 1.0 - c.eta * c.dt, out=out)
            out += lap
            drive = np.add(control, process_noise, dtype=float)
            drive *= c.dt
            # one actuator column at a time: a fancy-indexed += gathers and
            # scatters a copy of the columns
            for j, node in enumerate(self._act):
                out[..., node] += drive[..., j]
            out[..., -1] = T[..., -1]
        return _as_finite(out, "heat plant step", k)

    def step_vjp(self, state, control, g, k=0):
        """Adjoint of `step`.  With a = k0*dt/dx^2 and L the second
        difference, the step is (1 - eta*dt) T + a (1 + k1 T) * (L T) plus
        the drive, so its transpose applied to g is (1 - eta*dt) g +
        a k1 (L T) * g + L'(a (1 + k1 T) * g)."""
        c = self.config
        T = np.asarray(state, dtype=float)
        g = np.array(g, dtype=float)
        # the Dirichlet entry is carried through unchanged
        g_right = g[..., -1].copy()
        g[..., -1] = 0.0
        g_state = g * (1.0 - c.eta * c.dt)
        g_state += self._a_k1 * self._laplacian(T) * g
        g_state += self._laplacian_t(g * (self._a + self._a_k1 * T))
        g_state[..., -1] += g_right
        return g_state, g[..., self._act] * c.dt

    def observe(self, state, meas_noise, k=0):
        T = np.asarray(state)
        return T[..., self._sen] + meas_noise

    def observe_vjp(self, g, k=0):
        """Adjoint of the sensor row selection: a scatter."""
        g = np.asarray(g, dtype=float)
        out = np.zeros(g.shape[:-1] + (self.n_x,))
        out[..., self._sen] = g
        return out


# ---------------------------------------------------------------------------
# Linear oracle plants
# ---------------------------------------------------------------------------


class LinearPlant(Plant):
    """Linear plant x[k+1] = A_k x + B_k (u + w), y = C_k x + v.

    A, B, C may be single matrices (time-invariant) or stacked arrays
    with a leading time axis (A, B of length >= horizon; C of length >=
    horizon + 1).  Used as an oracle: the Kalman filter, the LQ optimum
    and the Markov parameters are all available in closed form.
    """

    def __init__(self, A, B, C, W=None, V=None, dt=1.0, horizon=None):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        C = np.asarray(C, dtype=float)
        self._tv = A.ndim == 3
        if self._tv != (B.ndim == 3) or self._tv != (C.ndim == 3):
            raise ValueError("A, B, C must be all time-varying or all constant")
        n_x = A.shape[-1]
        n_u = B.shape[-1]
        n_y = C.shape[-2]
        if horizon is None:
            horizon = A.shape[0] if self._tv else 1
        self._A, self._B, self._C = A, B, C
        super().__init__(n_x, n_u, n_y, np.zeros((n_u, n_u)) if W is None else W,
                         np.zeros((n_y, n_y)) if V is None else V, horizon, dt)

    def matrices(self, k):
        """(A_k, B_k, C_k); a constant plant ignores k.  A and B exist for
        k = 0..N-1, C for k = 0..N."""
        if self._tv:
            return self._A[k], self._B[k], self.output_matrix(k)
        return self._A, self._B, self._C

    def output_matrix(self, k):
        if not self._tv:
            return self._C
        return self._C[min(k, self._C.shape[0] - 1)]

    def step(self, state, control, process_noise, k=0):
        A = self._A[k] if self._tv else self._A
        B = self._B[k] if self._tv else self._B
        x = np.asarray(state, dtype=float)
        with np.errstate(invalid="ignore", over="ignore"):
            out = x @ A.T + np.add(control, process_noise) @ B.T
        return _as_finite(out, "linear plant step", k)

    def step_vjp(self, state, control, g, k=0):
        A = self._A[k] if self._tv else self._A
        B = self._B[k] if self._tv else self._B
        g = np.asarray(g, dtype=float)
        return g @ A, g @ B

    def observe(self, state, meas_noise, k=0):
        C = self.output_matrix(k)
        x = np.asarray(state, dtype=float)
        return x @ C.T + meas_noise

    def observe_vjp(self, g, k=0):
        return np.asarray(g, dtype=float) @ self.output_matrix(k)
