"""Gradient-based minimization of the discretized functional.

Two algorithms: plain gradient descent and Adam with bias correction.
`train` owns the whole loop: parameter initialization, grid handling,
loss recording, and failure capture (a Pade pole or a domain violation
mid-run produces a failed report instead of an exception).
"""

from __future__ import annotations

import itertools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .boundary import BoundaryExponents, compose_final_many
from .errors import VaripadeError
from .families import init_params, param_count
from .loss import Plan, loss_and_grad, sample_grid

# points bound at once when resampled grids are bound in blocks of steps: the
# block's tables take about 1-2 MB for the structures of the paper
_BLOCK_POINTS = 8192


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str = "adam"  # adam | sgd
    learning_rate: float = 0.01
    steps: int = 20000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grid_n: int = 1000
    grid_mode: str = "midpoint"  # midpoint | random (resampled every step)
    seed: int = 0
    record_every: int = 50
    train_exponents: bool = True
    # trust region for the boundary exponents m_a, m_b; without it descent can
    # shrink an exponent toward 0, hiding the endpoint transition between
    # sample points and optimizing away the boundary condition
    exponent_bounds: tuple = (0.5, 4.0)
    # diagonal preconditioning: shrink the step (and initial weight) of any
    # coordinate whose output sensitivity at initialization exceeds 1; rescues
    # high-order polynomial bases on intervals wider than [-1, 1]
    precondition: bool = False
    early_stop: bool = False
    early_stop_tol: float = 1e-12
    early_stop_window: int = 100

    def __post_init__(self):
        if self.algorithm not in ("adam", "sgd"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.grid_mode not in ("midpoint", "random"):
            raise ValueError(f"unknown grid_mode {self.grid_mode!r}")
        for name in ("steps", "grid_n", "record_every", "seed", "early_stop_window"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("learning_rate", "adam_beta1", "adam_beta2", "adam_eps", "early_stop_tol"):
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive and finite")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("Adam betas must lie in (0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.early_stop_tol < 0:
            raise ValueError("early_stop_tol must be nonnegative")
        if self.grid_n < 1 or self.record_every < 1 or self.early_stop_window < 1:
            raise ValueError("grid_n, record_every and early_stop_window must be positive")
        bounds = self.exponent_bounds
        if not (isinstance(bounds, (tuple, list)) and len(bounds) == 2 and all(map(_finite, bounds))):
            raise ValueError(f"exponent_bounds must be two finite numbers, got {bounds!r}")
        lo, hi = bounds
        if not (0 < lo <= 1.0 <= hi):
            raise ValueError("exponent_bounds must bracket the initial m = 1")


def _finite(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class TrainReport:
    loss_history: list  # [(step, loss)]
    final_params: np.ndarray = field(repr=False)  # family params + (rho_a, rho_b)
    final_loss: float = float("nan")
    j_final: float = float("nan")
    wall_time_ms: float = 0.0
    status: str = "max_steps"  # converged | max_steps | failed
    failure_reason: Optional[str] = None
    steps_done: int = 0  # optimizer updates applied
    failure_step: Optional[int] = None  # the step whose evaluation failed (= steps_done)

    @property
    def exponents(self):
        return BoundaryExponents(float(self.final_params[-2]), float(self.final_params[-1]))

    @property
    def family_params(self):
        return self.final_params[:-2]


def sgd_step(params, grad, lr):
    """One descent step w_new = w_old - lr * grad."""
    return params - lr * grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros(n), np.zeros(n))


def adam_step(state, params, grad, config):
    """One Adam update with bias correction; returns (new state, new params)."""
    t = state.t + 1
    m = config.adam_beta1 * state.m + (1.0 - config.adam_beta1) * grad
    v = config.adam_beta2 * state.v + (1.0 - config.adam_beta2) * grad * grad
    m_hat = m / (1.0 - config.adam_beta1 ** t)
    v_hat = v / (1.0 - config.adam_beta2 ** t)
    new_params = params - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return AdamState(m, v, t), new_params


def train(problem, spec, config=TrainConfig()):
    """Minimize the discretized functional; never raises, failures go in status."""
    start = time.perf_counter()
    bc = problem.bc
    theta = np.concatenate([init_params(spec, config.seed, domain=(bc.x_a, bc.x_b)), [0.0, 0.0]])
    pf = param_count(spec)
    adam = config.algorithm == "adam"
    state = AdamState.zeros(pf + 2) if adam else None
    record_every = config.record_every
    log_lo, log_hi = np.log(config.exponent_bounds[0]), np.log(config.exponent_bounds[1])
    step_scale = 1.0
    history = []
    status = "max_steps"
    reason = None
    loss = float("nan")
    exps = BoundaryExponents(float(theta[-2]), float(theta[-1]))
    steps_done = 0
    try:
        midpoint = sample_grid(bc, config.grid_n, "midpoint")
        fixed = Plan(problem, spec, midpoint) if config.grid_mode == "midpoint" else None
        if config.precondition:
            step_scale = _sensitivity_scale(problem, spec, theta, midpoint)
            theta = theta * step_scale
        # (plan, row) of every step: a fixed grid is one row that every step reuses
        grids = itertools.repeat((fixed, 0)) if fixed else _resampled_grids(problem, spec, config)
        for step in range(config.steps):
            plan, row = next(grids)
            loss, grad = loss_and_grad(problem, spec, theta[:pf], exps, plan, row)
            if step % record_every == 0:
                history.append((step, loss))
            if not config.train_exponents:
                grad[pf:] = 0.0
            if adam:
                state, new_theta = adam_step(state, theta, grad, config)
            else:
                new_theta = sgd_step(theta, grad, config.learning_rate)
            theta = theta + step_scale * (new_theta - theta)
            theta[pf:] = np.clip(theta[pf:], log_lo, log_hi)
            exps = BoundaryExponents(float(theta[-2]), float(theta[-1]))
            steps_done = step + 1
            if config.early_stop and _stalled(history, step, config):
                status = "converged"
                break
        loss, _ = loss_and_grad(problem, spec, theta[:pf], exps, fixed or midpoint)
        label = steps_done if not history or history[-1][0] < steps_done else history[-1][0] + 1
        history.append((label, loss))
    except VaripadeError as exc:
        status = "failed"
        reason = str(exc)
        if not history:
            history.append((0, loss))
    elapsed = (time.perf_counter() - start) * 1000.0
    return TrainReport(
        loss_history=history,
        final_params=theta,
        final_loss=float(loss),
        j_final=float(loss),
        wall_time_ms=elapsed,
        status=status,
        failure_reason=reason,
        steps_done=steps_done,
        failure_step=steps_done if status == "failed" else None,
    )


def _resampled_grids(problem, spec, config):
    """(plan, row) of every step on a grid resampled at every step.

    The grids are drawn and bound in blocks of consecutive steps, at most
    _BLOCK_POINTS points to a block; step s draws its grid from
    default_rng(seed * 1_000_003 + s) all the same. If a block does not
    bind, its grids are bound one at a time, so that the failure lands on
    its own step.
    """
    n = config.grid_n
    rows = max(1, _BLOCK_POINTS // n)
    for first in range(0, config.steps, rows):
        seeds = [config.seed * 1_000_003 + step for step in range(first, min(first + rows, config.steps))]
        try:
            plan = Plan(problem, spec, sample_grid(problem.bc, n, "random", seed=seeds))
        except VaripadeError:
            for seed in seeds:
                yield Plan(problem, spec, sample_grid(problem.bc, n, "random", seed=seed)), 0
        else:
            for row in range(len(seeds)):
                yield plan, row


def _sensitivity_scale(problem, spec, theta, grid):
    """Per-coordinate step shrink factor 1/max(sensitivity, 1).

    Sensitivity is the RMS over the grid of the model's value and slope
    gradients at initialization; only coordinates steeper than O(1) are
    slowed (and their initial random weights shrunk to match), which tames
    ill-conditioned bases without touching well-scaled parameters.
    """
    pf = param_count(spec)
    _, _, gy, gdy = compose_final_many(
        spec, theta[:pf], theta[pf], theta[pf + 1], problem.bc, grid.points
    )
    rms = np.sqrt(np.mean(gy * gy + gdy * gdy, axis=1))
    scale = 1.0 / np.maximum(rms, 1.0)
    scale[pf:] = 1.0
    return scale


def _stalled(history, step, config):
    if len(history) < 2:
        return False
    window = config.early_stop_window
    recent = [l for s, l in history if s >= step - window]
    if len(recent) < 2:
        return False
    return abs(recent[-1] - recent[0]) < config.early_stop_tol
