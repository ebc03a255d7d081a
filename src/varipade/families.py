"""Parametric function families: values, jets and gradient pullbacks.

A "jet" at x bundles the model value y, its x-derivative dy/dx, and the
exact partial derivatives of both with respect to every trainable
parameter. Training needs only the pullback of those partials, the
gradient of sum(c1 * y + c2 * dy/dx) for given weights c1, c2, which each
family computes in closed form without forming the dense jet. Every
formula here is hand-derived and checked against finite differences in
the test suite.

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
        layers = []
        for part in re.findall(r"\[[^\[\]]*\]", m.group(1)):
            lm = _MLP_LAYER_RE.match(part)
            if lm is None:
                raise StructureSyntaxError(f"bad MLP layer {part!r} in {text!r}")
            width, act = int(lm.group(1)), lm.group(2)
            if width < 1:
                raise InvalidStructureError(f"layer width must be positive: {text}")
            if act not in _ACTIVATIONS:
                raise InvalidStructureError(f"unknown activation {act!r} in {text!r}")
            layers.append((width, act))
        if not layers:
            raise StructureSyntaxError(f"MLP needs at least one layer: {text!r}")
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


# Each family computes its values on a grid once and returns two ways to
# differentiate them: rows() gives the dense (P, N) gradient rows of y and dy
# (the forward jet, for `family_jet_many`), and pullback(c1, c2) gives
# grad_y @ c1 + grad_dy @ c2 without forming them (for `loss_and_grad`).
# `tables` is what `family_tables` computed from the grid alone.

def _pade(spec, theta, tables):
    m, n = spec.pade_m, spec.pade_n
    w = theta[:m]
    b1 = theta[m]
    wp = theta[m + 1 : m + 1 + n]
    b2 = theta[m + 1 + n]
    xs, (p, dp) = tables
    num = w @ p[:m] + b1
    dnum = w @ dp[:m]
    den = wp @ p[:n] + b2
    dden = wp @ dp[:n]
    bad = np.abs(den) < _POLE_FLOOR
    if np.any(bad):
        raise PoleError(float(xs[int(np.argmax(bad))]))
    inv = 1.0 / den
    inv2 = inv * inv
    y = num * inv
    dy = dnum * inv - num * dden * inv2

    def rows():
        gy = np.empty((m + n + 2, xs.shape[0]))
        gdy = np.empty_like(gy)
        gy[:m] = p[:m] * inv
        gy[m] = inv
        gy[m + 1 : m + 1 + n] = -num * p[:n] * inv2
        gy[m + 1 + n] = -num * inv2
        gdy[:m] = dp[:m] * inv - p[:m] * dden * inv2
        gdy[m] = -dden * inv2
        gdy[m + 1 : m + 1 + n] = (
            -dnum * p[:n] * inv2 - num * dp[:n] * inv2 + 2.0 * num * dden * p[:n] * inv2 * inv
        )
        gdy[m + 1 + n] = -dnum * inv2 + 2.0 * num * dden * inv2 * inv
        return gy, gdy

    def pullback(c1, c2):
        # numerator rows read (a1, a2), denominator rows (e1, e2), against (p, dp)
        a1 = inv * c1 - dden * inv2 * c2
        a2 = inv * c2
        e1 = inv2 * ((2.0 * num * dden * inv - dnum) * c2 - num * c1)
        e2 = -num * inv2 * c2
        return np.concatenate([
            p[:m] @ a1 + dp[:m] @ a2, [a1.sum()], p[:n] @ e1 + dp[:n] @ e2, [e1.sum()],
        ])

    return y, dy, rows, pullback


def _basis(spec, theta, tables):
    """Leg and Poly: a linear combination of fixed basis rows plus a bias."""
    deg = spec.degree
    p, dp = tables  # (deg, N) rows for basis functions 1..deg
    w = theta[:deg]
    y = w @ p + theta[deg]
    dy = w @ dp

    def rows():
        gy = np.empty((deg + 1, p.shape[1]))
        gy[:deg] = p
        gy[deg] = 1.0
        gdy = np.zeros_like(gy)
        gdy[:deg] = dp
        return gy, gdy

    def pullback(c1, c2):
        return np.concatenate([p @ c1 + dp @ c2, [c1.sum()]])

    return y, dy, rows, pullback


def _rbf(spec, theta, xs):
    l = spec.centers
    w = theta[:l]
    c = theta[l : 2 * l]
    sig = np.exp(theta[2 * l : 3 * l])
    b = theta[3 * l]
    u = xs[None, :] - c[:, None]
    s = sig[:, None]
    phi = np.exp(-u * u / (2.0 * s))
    phix = -phi * u / s
    y = w @ phi + b
    dy = w @ phix

    def rows():
        wc = w[:, None]
        gy = np.empty((3 * l + 1, xs.shape[0]))
        gdy = np.empty_like(gy)
        gy[:l] = phi
        gy[l : 2 * l] = wc * phi * u / s
        gy[2 * l : 3 * l] = wc * phi * u * u / (2.0 * s)
        gy[3 * l] = 1.0
        gdy[:l] = phix
        gdy[l : 2 * l] = wc * phi * (1.0 / s - u * u / (s * s))
        gdy[2 * l : 3 * l] = wc * (phi * u / s - phi * u ** 3 / (2.0 * s * s))
        gdy[3 * l] = 0.0
        return gy, gdy

    def pullback(c1, c2):
        q = phi * u / s  # d phi / d c
        r = q * u  # 2 d phi / d rho
        qc2 = q @ c2
        return np.concatenate([
            phi @ c1 - qc2,
            w * (q @ c1 + (phi @ c2 - r @ c2) / sig),
            w * (0.5 * (r @ c1) + qc2 - 0.5 * ((r * u) @ c2) / sig),
            [c1.sum()],
        ])

    return y, dy, rows, pullback


def _mlp(spec, theta, xs):
    """The MLP carries all P tangents forward, so its rows come with its values."""
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
    return y, dy, lambda: (gy, gdy), lambda c1, c2: gy @ c1 + gdy @ c2


_FAMILIES = {"Pade": _pade, "Leg": _basis, "Poly": _basis, "RBF": _rbf, "MLP": _mlp}


def family_tables(spec, xs):
    """What a family reads from the grid alone, computed once per grid.

    `xs` is one grid (N,) or a block of grids (K, N); every table then has
    the leading row axis, and `table_row(tables, k)` is grid k's share.
    """
    # an overflowed power reaches the finiteness checks of the values
    with np.errstate(all="ignore"):
        if spec.kind == "Leg":
            p, dp = legendre_table(spec.degree, xs)
            return p[..., 1:, :], dp[..., 1:, :]
        if spec.kind == "Poly":
            return _powers(xs, spec.degree)
        if spec.kind == "Pade":
            return xs, _powers(xs, max(spec.pade_m, spec.pade_n))
    if spec.kind in _FAMILIES:
        return xs
    raise InvalidStructureError(f"unknown family kind {spec.kind!r}")


def table_row(tables, k):
    """Row k of block tables: each array's grid-k slice, a C-contiguous view."""
    if isinstance(tables, tuple):
        return tuple(table_row(t, k) for t in tables)
    return tables[k]


def _family_params(spec, params):
    theta = np.asarray(params, dtype=float)
    pf = param_count(spec)
    if theta.shape[0] < pf:
        raise ValueError(f"parameter vector of length {theta.shape[0]} too short for {spec}")
    return theta[:pf]


def family_forward(spec, params, tables):
    """Family values on a grid and the pullback of their parameter gradient.

    `tables` is family_tables(spec, xs). Returns (y, dy_dx, pullback), where
    pullback(c1, c2) is the (P,) gradient of sum(c1 * y + c2 * dy_dx).
    """
    y, dy, _, pullback = _FAMILIES[spec.kind](spec, _family_params(spec, params), tables)
    return y, dy, pullback


def family_jet_many(spec, params, xs):
    """Vectorized jet over an array of x values.

    Returns (y, dy_dx, grad_y, grad_dy_dx) with shapes (N,), (N,),
    (P, N), (P, N), where P = param_count(spec); only the first P
    entries of `params` are read.
    """
    xs = np.asarray(xs, dtype=float)
    tables = family_tables(spec, xs)
    with np.errstate(all="ignore"):  # the finiteness check below reports an overflow
        y, dy, jet_rows, _ = _FAMILIES[spec.kind](spec, _family_params(spec, params), tables)
        gy, gdy = jet_rows()
    if not (np.isfinite(y).all() and np.isfinite(dy).all()
            and np.isfinite(gy).all() and np.isfinite(gdy).all()):
        raise EvaluationOverflowError(f"non-finite value while evaluating {spec}")
    return y, dy, gy, gdy
