"""Fixed-endpoint conformance.

The composed model is

    y(x) = y_family(x) * (x - x_a)^m_a * (x_b - x)^m_b + g(x)

where g is the straight line through the endpoint values. The factor
vanishes at both endpoints, so the composition hits (x_a, y_a) and
(x_b, y_b) for any family parameters. The exponents are stored as
rho with m = exp(rho), keeping them positive under unconstrained
optimization.

The flat parameter layout is the family parameters, then rho_a and rho_b.
Training pulls the loss back through `BoundaryTables.compose`, on tables
computed once per grid: the logs and reciprocals of u = x - x_a and
v = x_b - x. The factor is exp(m_a log u + m_b log v), one exp per step
instead of two powers, and its x-derivative is the factor times
m_a / u - m_b / v. `compose_final_many` is the jet of the
composition, with dense gradient rows, kept for the step preconditioner
and as the test oracle: its rows are the per-point terms of that same
pullback, so the chain rule is written once. It hands the family the
interval (x_a, x_b), from which the family derives its reference map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, EvaluationOverflowError, check_finite
from .families import _EACH, _SUM, family_jet_many, unit_weights


@dataclass(frozen=True)
class BoundaryCondition:
    x_a: float
    x_b: float
    y_a: float
    y_b: float

    def __post_init__(self):
        for name in ("x_a", "x_b", "y_a", "y_b"):
            check_finite(name, getattr(self, name))
        if not self.x_b - self.x_a > 0:
            raise ValueError(f"need x_a < x_b, got [{self.x_a}, {self.x_b}]")


def _check_inside(bc, xs):
    outside = (xs <= bc.x_a) | (xs >= bc.x_b)
    if np.any(outside):
        bad = float(xs.flat[int(np.argmax(outside))])
        raise DomainError(f"x = {bad} outside the open interval ({bc.x_a}, {bc.x_b})", bad)


class BoundaryTables:
    """What the composition reads from the grid alone, computed once per grid.

    The logs and reciprocals of u = x - x_a and v = x_b - x, and the
    interpolant g with its slope. `xs` is one grid (N,) or a block of grids
    (K, N); `row(k)` is grid k's share.
    """

    _ROW_TABLES = ("log_u", "log_v", "inv_u", "inv_v", "gval")

    def __init__(self, bc, xs):
        _check_inside(bc, xs)
        u = xs - bc.x_a
        v = bc.x_b - xs
        with np.errstate(all="ignore"):  # 1/u of a subnormal u reaches the finiteness checks
            self.log_u = np.log(u)
            self.log_v = np.log(v)
            self.inv_u = 1.0 / u
            self.inv_v = 1.0 / v
        self.gval, self.gslope = linear_interpolant(bc, xs)

    def row(self, k):
        """The tables of grid k of a block: C-contiguous views, no copies."""
        t = object.__new__(BoundaryTables)
        for name in self._ROW_TABLES:
            setattr(t, name, getattr(self, name)[k])
        t.gslope = self.gslope
        return t

    def compose(self, fy, fdy, rho_a, rho_b):
        """Composed y, dy from family values fy, fdy, and the pullback of a loss.

        pullback(cy, cdy), with cy and cdy the loss's weights on y and dy,
        returns the family's weights (c1, c2) on fy and fdy and the gradient
        over (rho_a, rho_b); pullback(cy, cdy, _EACH) returns that gradient's
        per-point terms as (2, N) rows.
        """
        m_a, m_b = np.exp(rho_a), np.exp(rho_b)
        log_u, log_v, inv_u, inv_v = self.log_u, self.log_v, self.inv_u, self.inv_v
        fac = np.exp(m_a * log_u + m_b * log_v)
        logistic = m_a * inv_u - m_b * inv_v  # d/dx of log(fac)
        y = fy * fac + self.gval
        dy = (fdy + fy * logistic) * fac + self.gslope

        def pullback(cy, cdy, terms=_SUM):
            # d fac / d rho_a = fac * m_a * log_u, and d logistic / d rho_a = m_a / u
            dot = terms[0]
            c2 = cdy * fac
            c1 = cy * fac + logistic * c2
            t = fy * c1 + fdy * c2
            s2 = fy * c2
            grad = np.array([m_a * (dot(log_u, t) + dot(inv_u, s2)),
                             m_b * (dot(log_v, t) - dot(inv_v, s2))])
            return c1, c2, grad

        return y, dy, pullback


def boundary_factor_many(bc, rho_a, rho_b, xs):
    """Vectorized jet of the boundary factor; the two gradient rows are (rho_a, rho_b).

    It is the composition of the constant family 1 between zero end values.
    """
    xs = np.asarray(xs, dtype=float)
    weights = unit_weights(xs.shape[0])  # the first is the constant family's (y, dy)
    tables = BoundaryTables(replace(bc, y_a=0.0, y_b=0.0), xs)
    fac, dfac, pullback = tables.compose(*weights[0], rho_a, rho_b)
    gy, gdy = (pullback(*w, _EACH)[2] for w in weights)
    return fac, dfac, gy, gdy


def linear_interpolant(bc, x):
    """The line through (x_a, y_a) and (x_b, y_b): returns (value, slope)."""
    slope = (bc.y_b - bc.y_a) / (bc.x_b - bc.x_a)
    value = np.asarray(x, dtype=float) * slope + (bc.x_b * bc.y_a - bc.y_b * bc.x_a) / (
        bc.x_b - bc.x_a
    )
    return value, slope


def compose_final_many(spec, params, rho_a, rho_b, bc, xs):
    """Vectorized jet of the boundary-conforming composition.

    `params` is the flat family vector; the gradient rows are
    (family params..., rho_a, rho_b), param_count(spec) + 2 in all.
    """
    xs = np.asarray(xs, dtype=float)
    fy, fdy, fgy, fgdy = family_jet_many(spec, params, xs, (bc.x_a, bc.x_b))
    with np.errstate(all="ignore"):  # the finiteness check below reports an overflow
        y, dy, pullback = BoundaryTables(bc, xs).compose(fy, fdy, rho_a, rho_b)
        # the composition's per-point weights (c1, c2) on the family's y and dy rows
        gy, gdy = (np.concatenate([fgy * c1 + fgdy * c2, grad])
                   for c1, c2, grad in (pullback(*w, _EACH) for w in unit_weights(xs.shape[0])))
    if not (np.isfinite(y).all() and np.isfinite(dy).all()
            and np.isfinite(gy).all() and np.isfinite(gdy).all()):
        raise EvaluationOverflowError(f"non-finite value in composed model for {spec}")
    return y, dy, gy, gdy
