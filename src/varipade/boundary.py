"""Fixed-endpoint conformance.

The composed model is

    y(x) = y_family(x) * (x - x_a)^m_a * (x_b - x)^m_b + g(x)

where g is the straight line through the endpoint values. The factor
vanishes at both endpoints, so the composition hits (x_a, y_a) and
(x_b, y_b) for any family parameters. The exponents are stored as
rho with m = exp(rho), keeping them positive under unconstrained
optimization.

`compose_final_many` owns the flat parameter layout: the family
parameters, then rho_a and rho_b. The family and the boundary factor each
return only their own gradient rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationOverflowError
from .families import _first_jet, family_jet_many, param_count


@dataclass(frozen=True)
class BoundaryCondition:
    x_a: float
    x_b: float
    y_a: float
    y_b: float

    def __post_init__(self):
        if not all(np.isfinite([self.x_a, self.x_b, self.y_a, self.y_b])):
            raise ValueError(f"boundary values must be finite, got {self}")
        if not self.x_b - self.x_a > 0:
            raise ValueError(f"need x_a < x_b, got [{self.x_a}, {self.x_b}]")


@dataclass(frozen=True)
class BoundaryExponents:
    rho_a: float = 0.0
    rho_b: float = 0.0

    @property
    def m_a(self):
        return float(np.exp(self.rho_a))

    @property
    def m_b(self):
        return float(np.exp(self.rho_b))


def _check_inside(bc, xs):
    outside = (xs <= bc.x_a) | (xs >= bc.x_b)
    if np.any(outside):
        bad = float(xs[int(np.argmax(outside))])
        raise DomainError(f"x = {bad} outside the open interval ({bc.x_a}, {bc.x_b})")


def boundary_factor_many(bc, rho_a, rho_b, xs):
    """Vectorized jet of the boundary factor; the two gradient rows are (rho_a, rho_b)."""
    xs = np.asarray(xs, dtype=float)
    _check_inside(bc, xs)
    u = xs - bc.x_a
    v = bc.x_b - xs
    m_a = np.exp(rho_a)
    m_b = np.exp(rho_b)
    fac = u ** m_a * v ** m_b
    logistic = m_a / u - m_b / v  # d/dx of log(fac)
    dfac = fac * logistic
    lu = np.log(u)
    lv = np.log(v)
    gy = np.array([fac * m_a * lu, fac * m_b * lv])
    gdy = np.array([fac * m_a * (lu * logistic + 1.0 / u), fac * m_b * (lv * logistic - 1.0 / v)])
    return fac, dfac, gy, gdy


def boundary_factor_jet(bc, exps, x):
    """Jet of (x - x_a)^m_a (x_b - x)^m_b at scalar x, gradients w.r.t. rho."""
    return _first_jet(*boundary_factor_many(bc, exps.rho_a, exps.rho_b, np.array([float(x)])))


def linear_interpolant(bc, x):
    """The line through (x_a, y_a) and (x_b, y_b): returns (value, slope)."""
    slope = (bc.y_b - bc.y_a) / (bc.x_b - bc.x_a)
    value = np.asarray(x, dtype=float) * slope + (bc.x_b * bc.y_a - bc.y_b * bc.x_a) / (
        bc.x_b - bc.x_a
    )
    if np.ndim(x) == 0:
        return float(value), slope
    return value, slope


def compose_final_many(spec, params, rho_a, rho_b, bc, xs):
    """Vectorized jet of the boundary-conforming composition.

    `params` is the flat family vector; the gradient rows are
    (family params..., rho_a, rho_b), param_count(spec) + 2 in all.
    """
    xs = np.asarray(xs, dtype=float)
    pf = param_count(spec)
    fy, fdy, fgy, fgdy = family_jet_many(spec, params, xs)
    by, bdy, bgy, bgdy = boundary_factor_many(bc, rho_a, rho_b, xs)
    gval, gslope = linear_interpolant(bc, xs)
    y = fy * by + gval
    dy = fdy * by + fy * bdy + gslope
    gy = np.empty((pf + 2, xs.shape[0]))
    gdy = np.empty((pf + 2, xs.shape[0]))
    gy[:pf] = fgy * by
    gy[pf:] = fy * bgy
    gdy[:pf] = fgdy * by + fgy * bdy
    gdy[pf:] = fdy * bgy + fy * bgdy
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(dy))
            and np.all(np.isfinite(gy)) and np.all(np.isfinite(gdy))):
        raise EvaluationOverflowError(f"non-finite value in composed model for {spec}")
    return y, dy, gy, gdy


def compose_final(spec, params, exps, bc, x):
    """Scalar jet of y_family * boundary_factor + interpolant at x."""
    return _first_jet(*compose_final_many(spec, params, exps.rho_a, exps.rho_b, bc, np.array([float(x)])))
