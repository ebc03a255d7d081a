"""Fixed-endpoint conformance.

The composed model is

    y(x) = y_family(x) * (x - x_a)^m_a * (x_b - x)^m_b + g(x)

where g is the straight line through the endpoint values. The factor
vanishes at both endpoints, so the composition hits (x_a, y_a) and
(x_b, y_b) for any family parameters. The exponents are stored as
rho with m = exp(rho), keeping them positive under unconstrained
optimization.

The flat parameter layout is the family parameters, then rho_a and rho_b.
`compose_final_many` is the forward jet of the composition: dense gradient
rows, kept for evaluation, the step preconditioner and as the test oracle.
Training pulls the loss back through `BoundaryTables.compose` instead, on
tables computed once per grid.
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
        bad = float(xs.flat[int(np.argmax(outside))])
        raise DomainError(f"x = {bad} outside the open interval ({bc.x_a}, {bc.x_b})")


class BoundaryTables:
    """What the composition reads from the grid alone, computed once per grid.

    u = x - x_a and v = x_b - x, their logs and reciprocals, and the
    interpolant g with its slope. `xs` is one grid (N,) or a block of grids
    (K, N); `row(k)` is grid k's share.
    """

    _ROW_TABLES = ("u", "v", "log_u", "log_v", "inv_u", "inv_v", "gval")

    def __init__(self, bc, xs):
        _check_inside(bc, xs)
        self.u = xs - bc.x_a
        self.v = bc.x_b - xs
        with np.errstate(all="ignore"):  # 1/u of a subnormal u reaches the finiteness checks
            self.log_u = np.log(self.u)
            self.log_v = np.log(self.v)
            self.inv_u = 1.0 / self.u
            self.inv_v = 1.0 / self.v
        self.gval, self.gslope = linear_interpolant(bc, xs)

    def row(self, k):
        """The tables of grid k of a block: C-contiguous views, no copies."""
        t = object.__new__(BoundaryTables)
        for name in self._ROW_TABLES:
            setattr(t, name, getattr(self, name)[k])
        t.gslope = self.gslope
        return t

    def factor(self, rho_a, rho_b):
        """(m_a, m_b, factor, d/dx of log(factor)) at exponents exp(rho)."""
        m_a = np.exp(rho_a)
        m_b = np.exp(rho_b)
        fac = self.u ** m_a * self.v ** m_b
        return m_a, m_b, fac, m_a / self.u - m_b / self.v

    def compose(self, fy, fdy, rho_a, rho_b):
        """Composed y, dy from family values fy, fdy, and the pullback of a loss.

        pullback(cy, cdy), with cy and cdy the loss's weights on y and dy,
        returns the family's weights (c1, c2) on fy and fdy and the gradient
        over (rho_a, rho_b).
        """
        m_a, m_b, fac, logistic = self.factor(rho_a, rho_b)
        dfac = fac * logistic
        y = fy * fac + self.gval
        dy = fdy * fac + fy * dfac + self.gslope

        def pullback(cy, cdy):
            # the exponent rows of boundary_factor_many against fy*cy + fdy*cdy and fy*cdy
            s1 = fac * (fy * cy + fdy * cdy)
            s2 = fac * (fy * cdy)
            t = s1 + logistic * s2
            grad = np.array([m_a * (self.log_u @ t + self.inv_u @ s2),
                             m_b * (self.log_v @ t - self.inv_v @ s2)])
            return cy * fac + cdy * dfac, cdy * fac, grad

        return y, dy, pullback


def boundary_factor_many(bc, rho_a, rho_b, xs):
    """Vectorized jet of the boundary factor; the two gradient rows are (rho_a, rho_b)."""
    t = BoundaryTables(bc, np.asarray(xs, dtype=float))
    m_a, m_b, fac, logistic = t.factor(rho_a, rho_b)  # logistic: d/dx of log(fac)
    dfac = fac * logistic
    gy = np.array([fac * m_a * t.log_u, fac * m_b * t.log_v])
    gdy = np.array([fac * m_a * (t.log_u * logistic + t.inv_u), fac * m_b * (t.log_v * logistic - t.inv_v)])
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
    with np.errstate(all="ignore"):  # the finiteness check below reports an overflow
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
    if not (np.isfinite(y).all() and np.isfinite(dy).all()
            and np.isfinite(gy).all() and np.isfinite(gdy).all()):
        raise EvaluationOverflowError(f"non-finite value in composed model for {spec}")
    return y, dy, gy, gdy


def compose_final(spec, params, exps, bc, x):
    """Scalar jet of y_family * boundary_factor + interpolant at x."""
    return _first_jet(*compose_final_many(spec, params, exps.rho_a, exps.rho_b, bc, np.array([float(x)])))
