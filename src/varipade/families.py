"""Parametric function families with full jet evaluation.

A "jet" at x bundles the model value y, its x-derivative dy/dx, and the
exact partial derivatives of both with respect to every trainable
parameter. Jets are the differentiation currency consumed by the loss
assembly; every formula here is hand-derived and checked against finite
differences in the test suite.

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
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Jet:
    """Value, x-derivative, and parameter gradients of both at one x."""

    y: float
    dy_dx: float
    grad_y: np.ndarray = field(repr=False)
    grad_dy_dx: np.ndarray = field(repr=False)


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
# Per-family jets (vectorized over x)
# ---------------------------------------------------------------------------

def _powers(xs, deg):
    """Stack x^j and j*x^(j-1) for j = 1..deg; shapes (deg, N)."""
    n = xs.shape[0]
    if deg == 0:
        return np.zeros((0, n)), np.zeros((0, n))
    p = np.vstack([xs ** j for j in range(1, deg + 1)])
    dp = np.vstack([j * xs ** (j - 1) for j in range(1, deg + 1)])
    return p, dp


def legendre_table(deg, xs):
    """Values and x-derivatives of P_0..P_deg by the three-term recurrence."""
    n = xs.shape[0]
    p = np.zeros((deg + 1, n))
    dp = np.zeros((deg + 1, n))
    p[0] = 1.0
    if deg >= 1:
        p[1] = xs
        dp[1] = 1.0
    for k in range(1, deg):
        p[k + 1] = ((2 * k + 1) * xs * p[k] - k * p[k - 1]) / (k + 1)
        dp[k + 1] = ((2 * k + 1) * (p[k] + xs * dp[k]) - k * dp[k - 1]) / (k + 1)
    return p, dp


def _pade_jet(spec, theta, xs, gy, gdy):
    m, n = spec.pade_m, spec.pade_n
    w = theta[:m]
    b1 = theta[m]
    wp = theta[m + 1 : m + 1 + n]
    b2 = theta[m + 1 + n]
    p, dp = _powers(xs, max(m, n))
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
    return y, dy


def _poly_jet(spec, theta, xs, gy, gdy, basis=None):
    deg = spec.degree
    if basis is None:
        p, dp = _powers(xs, deg)
    else:
        p, dp = basis  # (deg, N) rows for basis functions 1..deg
    w = theta[:deg]
    y = w @ p + theta[deg]
    dy = w @ dp
    gy[:deg] = p
    gy[deg] = 1.0
    gdy[:deg] = dp
    return y, dy


def _rbf_jet(spec, theta, xs, gy, gdy):
    l = spec.centers
    w = theta[:l]
    c = theta[l : 2 * l]
    sig = np.exp(theta[2 * l : 3 * l])
    b = theta[3 * l]
    u = xs[None, :] - c[:, None]
    s = sig[:, None]
    phi = np.exp(-u * u / (2.0 * s))
    phix = -phi * u / s
    wc = w[:, None]
    y = w @ phi + b
    dy = w @ phix
    gy[:l] = phi
    gy[l : 2 * l] = wc * phi * u / s
    gy[2 * l : 3 * l] = wc * phi * u * u / (2.0 * s)
    gy[3 * l] = 1.0
    gdy[:l] = phix
    gdy[l : 2 * l] = wc * phi * (1.0 / s - u * u / (s * s))
    gdy[2 * l : 3 * l] = wc * (phi * u / s - phi * u ** 3 / (2.0 * s * s))
    return y, dy


def _mlp_jet(spec, theta, xs, gy, gdy):
    n = xs.shape[0]
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
    return y, dy


def family_jet_many(spec, params, xs):
    """Vectorized jet over an array of x values.

    Returns (y, dy_dx, grad_y, grad_dy_dx) with shapes (N,), (N,),
    (P, N), (P, N), where P = param_count(spec); only the first P
    entries of `params` are read.
    """
    xs = np.asarray(xs, dtype=float)
    theta = np.asarray(params, dtype=float)
    pf = param_count(spec)
    if theta.shape[0] < pf:
        raise ValueError(f"parameter vector of length {theta.shape[0]} too short for {spec}")
    gy = np.zeros((pf, xs.shape[0]))
    gdy = np.zeros((pf, xs.shape[0]))
    theta = theta[:pf]
    if spec.kind == "Pade":
        y, dy = _pade_jet(spec, theta, xs, gy, gdy)
    elif spec.kind == "Poly":
        y, dy = _poly_jet(spec, theta, xs, gy, gdy)
    elif spec.kind == "Leg":
        p, dp = legendre_table(spec.degree, xs)
        y, dy = _poly_jet(spec, theta, xs, gy, gdy, basis=(p[1:], dp[1:]))
    elif spec.kind == "RBF":
        y, dy = _rbf_jet(spec, theta, xs, gy, gdy)
    elif spec.kind == "MLP":
        y, dy = _mlp_jet(spec, theta, xs, gy, gdy)
    else:
        raise InvalidStructureError(f"unknown family kind {spec.kind!r}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(dy))
            and np.all(np.isfinite(gy)) and np.all(np.isfinite(gdy))):
        raise EvaluationOverflowError(f"non-finite value while evaluating {spec}")
    return y, dy, gy, gdy


def _first_jet(y, dy, gy, gdy):
    """The scalar Jet of the first point of a vectorized jet."""
    return Jet(float(y[0]), float(dy[0]), gy[:, 0].copy(), gdy[:, 0].copy())


def eval_jet(spec, params, x):
    """Jet of the bare family (no boundary composition) at scalar x."""
    return _first_jet(*family_jet_many(spec, params, np.array([float(x)])))
