"""Parametric function families: values, jets and gradient pullbacks.

A "jet" at x bundles the model value y, its x-derivative dy/dx, and the
exact partial derivatives of both with respect to every trainable
parameter. Each family writes those derivatives once, in closed form, as
its pullback: the gradient of sum(c1 * y + c2 * dy/dx) for weights c1, c2.
Training takes the sum; the jet is its per-point terms at weights (1, 0)
and (0, 1). Every formula here is hand-derived and checked against finite
differences in the test suite.

`family_tables` derives the reference map from the interval (x_a, x_b),
passed as `domain`. Pade, Leg and Poly are polynomials in t = x / scale,
scale = max(1, |x_a|, |x_b|), so t lies in [-1, 1] on the interval and is
x itself on intervals inside [-1, 1]. Their table holds the basis values p
and their x-slopes dp side by side, [p | dp] of shape (k, 2N) for k basis
functions on N points, so a step's values and slopes are one matmul and its
pullback one more, against the stacked weights [c1; c2]. Leg and Poly are
one polynomial kernel; Pade is the quotient of two on a shared power table,
both evaluated by one (2, k) @ (k, 2N) matmul and pulled back by another.

RBF reads one table per grid, T = [1, x~, x~^2, x~^3] at x~ = x - centre,
the interval's midpoint, and the centres c~ = c - centre.
Its exponent -(x~ - c~)^2 / (2 sigma) is a row of T[:3] times (h c~^2,
-2 h c~, h) with h = -1 / (2 sigma), so a step is three small matmuls:
exponents, then (y, dy) from phi, then the raw moments sum(phi x~^k c) of
the pullback, which the binomial theorem turns into the central moments
sum(phi (x~ - c~)^k c) the gradient needs. That expansion subtracts terms of
size |x~|^3 to leave one of size |x~ - c~|^3: without centring, an interval
such as (1000, 1001.5) would cancel about ten digits away.

Parameter layouts (flat vector, in order):

    Pade-[m/n]   w_1..w_m, b1, w'_1..w'_n, b2            (m + n + 2)
    MLP-[[l,a],...]  per layer: W (row-major, l x l_prev), shared scalar
                 bias; then output weights (l_last) and output bias
    RBF-[l]      w_1..w_l, c_1..c_l, rho_1..rho_l, b     (3l + 1)
                 with kernel width sigma_j = exp(rho_j)
    Leg-m        w_1..w_m, b                             (m + 1)
    Poly-m       w_1..w_m, b                             (m + 1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvaluationOverflowError,
    InvalidStructureError,
    PoleError,
    StructureSyntaxError,
)

_POLE_FLOOR = 1e-8
_ACTIVATIONS = ("sigmoid", "tanh")


@dataclass(frozen=True)
class FamilySpec:
    kind: str  # Pade | MLP | RBF | Leg | Poly
    pade_m: int = 0
    pade_n: int = 0
    layers: tuple = ()  # tuple of (width, activation)
    centers: int = 0
    degree: int = 0

    def __str__(self):
        if self.kind == "Pade":
            return f"Pade-[{self.pade_m}/{self.pade_n}]"
        if self.kind == "MLP":
            inner = ",".join(f"[{w},{a}]" for w, a in self.layers)
            return f"MLP-[{inner}]"
        if self.kind == "RBF":
            return f"RBF-[{self.centers}]"
        return f"{self.kind}-{self.degree}"


_PADE_RE = re.compile(r"Pade-\[(\d+)/(\d+)\]\Z")
_RBF_RE = re.compile(r"RBF-\[(\d+)\]\Z")
_DEG_RE = re.compile(r"(Leg|Poly)-(\d+)\Z")
_MLP_RE = re.compile(r"MLP-\[(.+)\]\Z")
_MLP_LAYER_RE = re.compile(r"\[(\d+),([A-Za-z]+)\]\Z")


def parse_structure(text):
    """Parse a structure string such as Pade-[5/5] or MLP-[[8,sigmoid]]."""
    if not isinstance(text, str):
        raise StructureSyntaxError(f"structure must be a string, got {type(text).__name__}")
    text = text.strip()
    m = _PADE_RE.match(text)
    if m:
        return FamilySpec("Pade", pade_m=int(m.group(1)), pade_n=int(m.group(2)))
    m = _RBF_RE.match(text)
    if m:
        centers = int(m.group(1))
        if centers < 1:
            raise InvalidStructureError(f"RBF needs at least one center: {text}")
        return FamilySpec("RBF", centers=centers)
    m = _DEG_RE.match(text)
    if m:
        degree = int(m.group(2))
        if degree < 1:
            raise InvalidStructureError(f"degree must be positive: {text}")
        return FamilySpec(m.group(1), degree=degree)
    m = _MLP_RE.match(text)
    if m:
        parts = re.findall(r"\[[^\[\]]*\]", m.group(1))
        if ",".join(parts) != m.group(1):
            raise StructureSyntaxError(f"MLP layers must be [width,activation] entries "
                                       f"separated by single commas: {text!r}")
        layers = []
        for part in parts:
            lm = _MLP_LAYER_RE.match(part)
            if lm is None:
                raise StructureSyntaxError(f"bad MLP layer {part!r} in {text!r}")
            width, act = int(lm.group(1)), lm.group(2)
            if width < 1:
                raise InvalidStructureError(f"layer width must be positive: {text}")
            if act not in _ACTIVATIONS:
                raise InvalidStructureError(f"unknown activation {act!r} in {text!r}")
            layers.append((width, act))
        return FamilySpec("MLP", layers=tuple(layers))
    raise StructureSyntaxError(f"unrecognized structure string {text!r}")


def param_count(spec):
    if spec.kind == "Pade":
        return spec.pade_m + spec.pade_n + 2
    if spec.kind == "MLP":
        total = 0
        prev = 1
        for width, _ in spec.layers:
            total += width * prev + 1  # weight matrix + shared scalar bias
            prev = width
        return total + prev + 1  # output weights + output bias
    if spec.kind == "RBF":
        return 3 * spec.centers + 1
    return spec.degree + 1


def init_params(spec, seed, domain=(-1.0, 1.0)):
    """Deterministic initialization; `domain` places RBF centers and widths."""
    rng = np.random.default_rng(seed)
    if spec.kind == "Pade":
        num = rng.normal(0.0, 0.1, spec.pade_m + 1)
        den = rng.normal(0.0, 0.01, spec.pade_n)
        return np.concatenate([num, den, [1.0]])
    if spec.kind == "RBF":
        x_a, x_b = float(domain[0]), float(domain[1])
        l = spec.centers
        w = rng.normal(0.0, 0.1, l)
        centers = x_a + (np.arange(1, l + 1) - 0.5) * (x_b - x_a) / l
        rho = np.full(l, np.log((x_b - x_a) / l))
        b = rng.normal(0.0, 0.1, 1)
        return np.concatenate([w, centers, rho, b])
    return rng.normal(0.0, 0.1, param_count(spec))


def init_kept(spec):
    """Indices of initial weights a step preconditioner must not shrink: Pade's
    denominator constant b2 = 1 keeps the denominator off zero at step 0."""
    return [param_count(spec) - 1] if spec.kind == "Pade" else []


# ---------------------------------------------------------------------------
# Per-family values, jets and pullbacks (vectorized over x)
# ---------------------------------------------------------------------------

def _powers(xs, deg):
    """x^j and j*x^(j-1) for j = 1..deg; shapes (..., deg, N) for xs of shape (..., N)."""
    p = np.empty(xs.shape[:-1] + (deg, xs.shape[-1]))
    dp = np.empty_like(p)
    for j in range(1, deg + 1):
        p[..., j - 1, :] = xs ** j
    if deg:
        dp[..., 0, :] = 1.0
        dp[..., 1:, :] = np.arange(2, deg + 1)[:, None] * p[..., :-1, :]
    return p, dp


def legendre_table(deg, xs):
    """Values and x-derivatives of P_0..P_deg by the three-term recurrence.

    Shapes (..., deg + 1, N) for xs of shape (..., N): a block of grids keeps
    each grid's table contiguous.
    """
    shape = xs.shape[:-1] + (deg + 1, xs.shape[-1])
    p = np.zeros(shape)
    dp = np.zeros(shape)
    p[..., 0, :] = 1.0
    if deg >= 1:
        p[..., 1, :] = xs
        dp[..., 1, :] = 1.0
    for k in range(1, deg):
        p[..., k + 1, :] = ((2 * k + 1) * xs * p[..., k, :] - k * p[..., k - 1, :]) / (k + 1)
        dp[..., k + 1, :] = (
            (2 * k + 1) * (p[..., k, :] + xs * dp[..., k, :]) - k * dp[..., k - 1, :]
        ) / (k + 1)
    return p, dp


def _each_dot(a, c):
    """The per-point terms of a @ c, points first: shape (N,) + a.shape[:-1] + c.shape[1:]."""
    terms = a.reshape(a.shape + (1,) * (c.ndim - 1)) * c
    return np.moveaxis(terms, a.ndim - 1, 0)


def _each_pair(a, c):
    """The per-point terms of a @ c on a [p | dp] table, whose columns i and N + i are point i."""
    terms = _each_dot(a, c)
    n = terms.shape[0] // 2
    return terms[:n] + terms[n:]


# Each family computes its values on a grid once and returns them with
# pullback(c1, c2, terms), the parameter gradient of sum(c1 * y + c2 * dy).
# `terms` = (dot(table, c), total(c), pair(table, c)) takes the sum over the
# grid: _SUM gives the (P,) gradient that `loss_and_grad` reads, and _EACH
# its (N, P) per-point terms, the dense jet's rows at weights (1, 0) and
# (0, 1). `pair` is the dot on a [p | dp] table against the stacked weights
# [c1; c2]. `tables` is what `family_tables` computed from the grid alone.
_SUM = (np.matmul, lambda c: c.sum(keepdims=True), np.matmul)
_EACH = (_each_dot, lambda c: c[:, None], _each_pair)


def _polynomial(spec, theta, pd):
    """Leg and Poly: y = theta[:-1] @ p + theta[-1] on the [p | dp] table of basis functions 1..deg.

    Returns y, dy and the pullback of sum(c1 * y + c2 * dy) over theta.
    """
    n = pd.shape[-1] // 2
    ydy = theta[:-1] @ pd
    y = ydy[:n] + theta[-1]
    dy = ydy[n:]

    def pullback(c1, c2, terms=_SUM):
        _, total, pair = terms
        return np.concatenate([pair(pd, np.concatenate([c1, c2])), total(c1)], axis=-1)

    return y, dy, pullback


def _pade(spec, theta, tables):
    """The quotient of two polynomials, both on one [p | dp] power table."""
    m, n = spec.pade_m, spec.pade_n
    xs, pd = tables
    npts = xs.shape[-1]
    # the numerator's and the denominator's weights as the rows of one matmul
    w = np.zeros((2, pd.shape[0]))
    w[0, :m] = theta[:m]
    w[1, :n] = theta[m + 1 : m + n + 1]
    both = w @ pd
    num = both[0, :npts] + theta[m]
    den = both[1, :npts] + theta[-1]
    dnum, dden = both[0, npts:], both[1, npts:]
    bad = np.abs(den) < _POLE_FLOOR
    if np.any(bad):
        raise PoleError(float(xs[int(np.argmax(bad))]))
    inv = 1.0 / den
    y = num * inv
    z = dden * inv
    dy = dnum * inv - y * z

    def pullback(c1, c2, terms=_SUM):
        # the quotient rule's weights on [num | dnum] (row 0) and on [den | dden] (row 1)
        _, total, pair = terms
        c = np.empty((2, 2, npts))
        c[0, 1] = inv * c2
        c[0, 0] = inv * c1 - z * c[0, 1]
        c[1] = -y * c[0]
        c[1, 0] -= dy * c[0, 1]
        g = pair(pd, c.reshape(2, 2 * npts).T)
        return np.concatenate([g[..., :m, 0], total(c[0, 0]), g[..., :n, 1], total(c[1, 0])],
                              axis=-1)

    return y, dy, pullback


def _rbf(spec, theta, tables):
    """Gaussians in the centred x~ = x - centre, as matmuls on T = [1, x~, x~^2, x~^3]."""
    l = spec.centers
    w = theta[:l]
    centre, t = tables
    c = theta[l : 2 * l] - centre
    inv = np.exp(-theta[2 * l : 3 * l])  # 1 / sigma
    b = theta[3 * l]
    # exponent -(x~ - c~)^2 / (2 sigma) = h c~^2 - 2 h c~ x~ + h x~^2
    h = -0.5 * inv
    hc = h * c
    phi = np.array([hc * c, -2.0 * hc, h]).T @ t[:3]
    np.exp(phi, out=phi)
    # dy = sum w phi (c~ - x~) / sigma
    wi = w * inv
    wy = np.array([w, wi, wi * c]) @ phi
    y = wy[0] + b
    dy = wy[2] - t[1] * wy[1]

    def pullback(c1, c2, terms=_SUM):
        # raw moments sum(phi x~^k c1), k < 3, and sum(phi x~^k c2), k < 4, in one dot
        dot, total, _ = terms
        raw = dot(phi, np.concatenate([t[:3] * c1, t * c2]).T)
        a0, a1, a2, b0, b1, b2, b3 = np.moveaxis(raw, -1, 0)
        # the central moments sum(phi u^k c), u = x~ - c~, by the binomial theorem
        u1 = a1 - c * a0
        u2 = a2 - c * (a1 + u1)
        v1 = b1 - c * b0
        v2 = b2 - c * (b1 + v1)
        v3 = b3 - c * (2.0 * b2 - c * b1 + v2)
        # d phi / d c = phi u / sigma and d phi / d rho = phi u^2 / (2 sigma)
        return np.concatenate([
            a0 - inv * v1,
            wi * (u1 + b0 - inv * v2),
            wi * (0.5 * u2 + v1 - 0.5 * inv * v3),
            total(c1),
        ], axis=-1)

    return y, dy, pullback


def _mlp(spec, theta, xs):
    """The MLP carries all P tangents forward; its pullback contracts them."""
    n = xs.shape[0]
    gy = np.zeros((param_count(spec), n))
    gdy = np.zeros_like(gy)
    h = xs[None, :]
    hx = np.ones((1, n))
    g = np.zeros((gy.shape[0], 1, n))
    gx = np.zeros((gy.shape[0], 1, n))
    o = 0
    for width, act in spec.layers:
        prev = h.shape[0]
        wmat = theta[o : o + width * prev].reshape(width, prev)
        bias = theta[o + width * prev]
        a = wmat @ h + bias
        ax = wmat @ hx
        ga = np.einsum("ij,pjn->pin", wmat, g)
        gax = np.einsum("ij,pjn->pin", wmat, gx)
        rows = np.arange(width * prev)
        ga[o + rows, rows // prev, :] += h[rows % prev, :]
        gax[o + rows, rows // prev, :] += hx[rows % prev, :]
        ga[o + width * prev, :, :] += 1.0
        if act == "sigmoid":
            s = 1.0 / (1.0 + np.exp(-a))
            s1 = s * (1.0 - s)
            s2 = s1 * (1.0 - 2.0 * s)
        else:
            s = np.tanh(a)
            s1 = 1.0 - s * s
            s2 = -2.0 * s * s1
        h = s
        hx = s1 * ax
        g = s1[None] * ga
        gx = s2[None] * ax[None] * ga + s1[None] * gax
        o += width * prev + 1
    width = h.shape[0]
    wout = theta[o : o + width]
    bout = theta[o + width]
    y = wout @ h + bout
    dy = wout @ hx
    gy[:] += np.einsum("i,pin->pn", wout, g)
    gdy[:] += np.einsum("i,pin->pn", wout, gx)
    gy[o : o + width] += h
    gy[o + width] += 1.0
    gdy[o : o + width] += hx
    return y, dy, lambda c1, c2, terms=_SUM: terms[0](gy, c1) + terms[0](gdy, c2)


_FAMILIES = {"Pade": _pade, "Leg": _polynomial, "Poly": _polynomial, "RBF": _rbf, "MLP": _mlp}


def family_tables(spec, xs, domain=(-1.0, 1.0)):
    """What a family reads from the grid alone, computed once per grid.

    `xs` is one grid (N,) or a block of grids (K, N) inside the interval
    `domain` = (x_a, x_b); every table then has the leading row axis, and
    `table_row(tables, k)` is grid k's share. Pade, Leg and Poly tabulate
    their bases at t = x / scale, which lies in [-1, 1] on the interval, as
    one [p | dp] table (..., k, 2N): the values, then the slopes
    d/dx = (d/dt) / scale, with Pade's grid kept beside it. RBF tabulates
    T = [1, x~, x~^2, x~^3] at x~ = x - centre, the interval's midpoint,
    with `centre` kept as one entry per grid.
    """
    x_a, x_b = domain
    scale, centre = max(1.0, abs(x_a), abs(x_b)), 0.5 * (x_a + x_b)
    # an overflowed power reaches the finiteness checks of the values
    with np.errstate(all="ignore"):
        if spec.kind == "Leg":
            p, dp = legendre_table(spec.degree, xs / scale)
            return np.concatenate([p[..., 1:, :], dp[..., 1:, :] / scale], axis=-1)
        if spec.kind == "Poly":
            p, dp = _powers(xs / scale, spec.degree)
            return np.concatenate([p, dp / scale], axis=-1)
        if spec.kind == "Pade":
            p, dp = _powers(xs / scale, max(spec.pade_m, spec.pade_n))
            return xs, np.concatenate([p, dp / scale], axis=-1)
        if spec.kind == "RBF":
            xt = xs - centre
            x2 = xt * xt
            t = np.stack([np.ones_like(xt), xt, x2, x2 * xt], axis=-2)
            return np.full(xs.shape[:-1] + (1,), float(centre)), t
    if spec.kind in _FAMILIES:
        return xs
    raise InvalidStructureError(f"unknown family kind {spec.kind!r}")


def table_row(tables, k):
    """Row k of block tables: each array's grid-k slice, a C-contiguous view."""
    if isinstance(tables, tuple):
        return tuple(table_row(t, k) for t in tables)
    return tables[k]


def unit_weights(n):
    """Weights (1, 0) and (0, 1) on (y, dy) at n points, which pick out the jet's rows."""
    one, zero = np.ones(n), np.zeros(n)
    return (one, zero), (zero, one)


def family_forward(spec, params, tables):
    """Family values on a grid and the pullback of their parameter gradient.

    `tables` is family_tables(spec, xs). Returns (y, dy_dx, pullback), where
    pullback(c1, c2) is the (P,) gradient of sum(c1 * y + c2 * dy_dx), and
    pullback(c1, c2, _EACH) its (N, P) terms, one row per point.
    """
    theta = np.asarray(params, dtype=float)
    pf = param_count(spec)
    if theta.shape[0] < pf:
        raise ValueError(f"parameter vector of length {theta.shape[0]} too short for {spec}")
    return _FAMILIES[spec.kind](spec, theta[:pf], tables)


def family_jet_many(spec, params, xs, domain=(-1.0, 1.0)):
    """Vectorized jet over an array of x values, on family_tables(spec, xs, domain).

    Returns (y, dy_dx, grad_y, grad_dy_dx) with shapes (N,), (N,),
    (P, N), (P, N), where P = param_count(spec); only the first P
    entries of `params` are read. The gradient rows are the per-point terms
    of the training pullback at weights (1, 0) and (0, 1).
    """
    xs = np.asarray(xs, dtype=float)
    tables = family_tables(spec, xs, domain)
    with np.errstate(all="ignore"):  # the finiteness check below reports an overflow
        y, dy, pullback = family_forward(spec, params, tables)
        gy, gdy = (pullback(*w, _EACH).T for w in unit_weights(xs.shape[0]))
    if not (np.isfinite(y).all() and np.isfinite(dy).all()
            and np.isfinite(gy).all() and np.isfinite(gdy).all()):
        raise EvaluationOverflowError(f"non-finite value while evaluating {spec}")
    return y, dy, gy, gdy
