"""Gradient-based minimization of the discretized functional.

Two algorithms: plain gradient descent and Adam with bias correction.
`adam_step` updates its `AdamState` in place. `train` owns the whole loop:
parameter initialization, grid handling, loss recording, and failure capture
(a Pade pole, a domain violation or an overflow mid-run produces a failed
report instead of an exception). A step allocates little: one Adam state
serves the whole run, and the step-scale blend reuses the update's array.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .boundary import compose_final_many
from .errors import EvaluationOverflowError, VaripadeError, check_finite, check_integer
from .families import init_kept, init_params, param_count
from .loss import Plan, loss_and_grad, sample_grid

# points bound at once when resampled grids are bound in blocks of steps: the
# block's tables take about 1-2 MB for the structures of the paper
_BLOCK_POINTS = 8192

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# trust region for the boundary exponents m_a, m_b; without it descent can
# shrink an exponent toward 0, hiding the endpoint transition between
# sample points and optimizing away the boundary condition
EXPONENT_BOUNDS = (0.5, 4.0)


@dataclass(frozen=True)
class TrainConfig:
    algorithm: str = "adam"  # adam | sgd
    learning_rate: float = 0.01
    steps: int = 20000
    grid_n: int = 1000
    grid_mode: str = "midpoint"  # midpoint | random (resampled every step)
    seed: int = 0
    record_every: int = 50
    train_exponents: bool = True
    # diagonal preconditioning: shrink the step (and initial weight) of any
    # coordinate whose output sensitivity at initialization exceeds 1
    precondition: bool = False

    def __post_init__(self):
        if self.algorithm not in ("adam", "sgd"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.grid_mode not in ("midpoint", "random"):
            raise ValueError(f"unknown grid_mode {self.grid_mode!r}")
        for name, minimum in (("steps", 0), ("grid_n", 1), ("record_every", 1), ("seed", 0)):
            check_integer(name, getattr(self, name), minimum)
        for name in ("train_exponents", "precondition"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        check_finite("learning_rate", self.learning_rate)
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")


@dataclass(frozen=True)
class TrainReport:
    loss_history: list  # [(step, loss)]
    final_params: np.ndarray = field(repr=False)  # family params + (rho_a, rho_b)
    j_final: float = float("nan")
    wall_time_ms: float = 0.0
    status: str = "max_steps"  # max_steps | failed
    failure_reason: Optional[str] = None
    steps_done: int = 0  # optimizer updates applied
    failure_step: Optional[int] = None  # the step whose evaluation failed (= steps_done)

    @property
    def exponents(self):
        """The boundary exponents (m_a, m_b) = (exp(rho_a), exp(rho_b))."""
        return float(np.exp(self.final_params[-2])), float(np.exp(self.final_params[-1]))


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


def adam_step(state, params, grad, lr):
    """One Adam update with bias correction.

    Updates state.m, state.v and state.t in place and returns
    (state, new params); `params` is left as it is.
    """
    state.t += 1
    t = state.t
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    step = m / (1.0 - ADAM_BETA1 ** t)
    step *= lr
    denom = np.sqrt(v / (1.0 - ADAM_BETA2 ** t))
    denom += ADAM_EPS
    step /= denom
    return state, params - step


def train(problem, spec, config=TrainConfig()):
    """Minimize the discretized functional; never raises, failures go in status."""
    start = time.perf_counter()
    bc = problem.bc
    theta = np.concatenate([init_params(spec, config.seed, domain=(bc.x_a, bc.x_b)), [0.0, 0.0]])
    pf = param_count(spec)
    adam = config.algorithm == "adam"
    state = AdamState.zeros(pf + 2) if adam else None
    record_every = config.record_every
    log_lo, log_hi = math.log(EXPONENT_BOUNDS[0]), math.log(EXPONENT_BOUNDS[1])
    step_scale = 1.0
    history = []
    status = "max_steps"
    reason = None
    loss = float("nan")
    steps_done = 0
    try:
        midpoint = sample_grid(bc, config.grid_n, "midpoint")
        fixed = Plan(problem, spec, midpoint) if config.grid_mode == "midpoint" else None
        if config.precondition:
            step_scale = _sensitivity_scale(problem, spec, theta, midpoint)
            init_scale = step_scale.copy()
            init_scale[init_kept(spec)] = 1.0
            theta = theta * init_scale
        # (plan, row) of every step: a fixed grid is one row that every step reuses
        grids = itertools.repeat((fixed, 0)) if fixed else _resampled_grids(problem, spec, config)
        # a finite gradient beyond ~1e154 overflows Adam's grad * grad; the
        # finiteness check of the second moment below reports it
        with np.errstate(over="ignore"):
            for step in range(config.steps):
                plan, row = next(grids)
                loss, grad = loss_and_grad(plan, theta, row)
                if step % record_every == 0:
                    history.append((step, loss))
                if not config.train_exponents:
                    grad[pf:] = 0.0
                if adam:
                    state, new_theta = adam_step(state, theta, grad, config.learning_rate)
                    if not np.isfinite(state.v).all():
                        raise EvaluationOverflowError(
                            f"non-finite Adam second moment at step {step} for {spec}")
                else:
                    new_theta = sgd_step(theta, grad, config.learning_rate)
                # the blend theta + step_scale * (new_theta - theta), in new_theta's array
                new_theta -= theta
                new_theta *= step_scale
                new_theta += theta
                theta = new_theta
                for i in (pf, pf + 1):
                    theta[i] = min(max(float(theta[i]), log_lo), log_hi)
                steps_done = step + 1
        loss, _ = loss_and_grad(fixed or Plan(problem, spec, midpoint), theta)
        history.append((steps_done, loss))
    except VaripadeError as exc:
        status = "failed"
        reason = str(exc)
        if not history:
            history.append((0, loss))
    elapsed = (time.perf_counter() - start) * 1000.0
    return TrainReport(
        loss_history=history,
        final_params=theta,
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
    slowed (and, but for `init_kept`, their initial weights shrunk to match),
    which tames ill-conditioned bases without touching well-scaled parameters.
    """
    pf = param_count(spec)
    _, _, gy, gdy = compose_final_many(
        spec, theta[:pf], theta[pf], theta[pf + 1], problem.bc, grid.points
    )
    with np.errstate(all="ignore"):  # an overflowed square is reported below
        rms = np.sqrt(np.mean(gy * gy + gdy * gdy, axis=1))
    if not np.isfinite(rms).all():
        raise EvaluationOverflowError(f"non-finite output sensitivity at step 0 for {spec}")
    scale = 1.0 / np.maximum(rms, 1.0)
    scale[pf:] = 1.0
    return scale

