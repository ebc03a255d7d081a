import numpy as np
import pytest

from varipade import (
    BoundaryCondition,
    InvalidStructureError,
    PoleError,
    StructureSyntaxError,
    family_jet_many,
    init_params,
    legendre_table,
    param_count,
    parse_structure,
)
from varipade.families import family_forward, family_tables


class TestParseStructure:
    def test_pade(self):
        spec = parse_structure("Pade-[5/5]")
        assert (spec.kind, spec.pade_m, spec.pade_n) == ("Pade", 5, 5)

    def test_mlp_two_layers(self):
        spec = parse_structure("MLP-[[32,sigmoid],[32,sigmoid]]")
        assert spec.layers == ((32, "sigmoid"), (32, "sigmoid"))

    def test_round_trip(self):
        for text in ["Pade-[8/10]", "MLP-[[3,tanh],[5,sigmoid]]", "RBF-[16]", "Leg-15", "Poly-10"]:
            assert str(parse_structure(text)) == text

    def test_zero_width_rbf_rejected(self):
        with pytest.raises(InvalidStructureError):
            parse_structure("RBF-[0]")

    def test_unknown_activation_rejected(self):
        with pytest.raises(InvalidStructureError):
            parse_structure("MLP-[[8,relu]]")

    @pytest.mark.parametrize("text", ["Pade-[5]", "MLP-[]", "Frob-3", "Leg-", 5, b"Leg-3",
                                      "MLP-[[4,tanh]junk]", "MLP-[x[4,tanh]y]",
                                      "MLP-[[4,tanh],,[3,tanh]]"])
    def test_garbage_rejected(self, text):
        with pytest.raises((StructureSyntaxError, InvalidStructureError)) as exc:
            parse_structure(text)
        if not isinstance(text, str):  # a non-string is named by its type
            assert exc.type is StructureSyntaxError
            assert f"got {type(text).__name__}" in str(exc.value)


# the nine structure strings from the published result tables
TABLE_COUNTS = [
    ("Pade-[5/5]", 12),
    ("RBF-[8]", 25),
    ("MLP-[[8,sigmoid]]", 18),
    ("Leg-10", 11),
    ("Poly-10", 11),
    ("Pade-[8/10]", 20),
    ("MLP-[[16,sigmoid]]", 34),
    ("Leg-15", 16),
    ("RBF-[16]", 49),
    ("Pade-[4/5]", 11),
]


@pytest.mark.parametrize("text,expected", TABLE_COUNTS)
def test_param_count_table(text, expected):
    assert param_count(parse_structure(text)) == expected


class TestInit:
    def test_deterministic(self):
        spec = parse_structure("MLP-[[8,sigmoid]]")
        assert np.array_equal(init_params(spec, 7), init_params(spec, 7))
        assert not np.array_equal(init_params(spec, 7), init_params(spec, 8))

    def test_pade_denominator_bias_is_one(self):
        spec = parse_structure("Pade-[5/5]")
        for seed in range(5):
            assert init_params(spec, seed)[-1] == 1.0

    def test_rbf_centers_evenly_spaced(self):
        spec = parse_structure("RBF-[8]")
        theta = init_params(spec, 0, domain=(-1.0, 1.0))
        centers = theta[8:16]
        expected = -1.0 + (np.arange(1, 9) - 0.5) * (2.0 / 8)
        assert np.allclose(centers, expected, atol=1e-15)
        widths = np.exp(theta[16:24])
        assert np.allclose(widths, 2.0 / 8)


class TestFamilyJet:
    def test_constant_rational(self):
        spec = parse_structure("Pade-[2/2]")
        theta = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 2.0])
        y, dy, _, _ = family_jet_many(spec, theta, np.array([0.7]))
        assert y[0] == 0.5
        assert dy[0] == 0.0

    def test_mlp_zero_weights(self):
        spec = parse_structure("MLP-[[1,sigmoid]]")
        theta = np.zeros(param_count(spec))
        assert family_jet_many(spec, theta, np.array([3.0]))[0][0] == 0.0
        theta[-1] = 0.25
        assert family_jet_many(spec, theta, np.array([3.0]))[0][0] == 0.25

    def test_legendre_p2_at_zero(self):
        spec = parse_structure("Leg-2")
        y, _, _, _ = family_jet_many(spec, np.array([0.0, 1.0, 0.0]), np.array([0.0]))
        assert y[0] == pytest.approx(-0.5, abs=1e-15)

    def test_pade_pole(self):
        spec = parse_structure("Pade-[3/1]")
        theta = np.array([0.1, 0.2, 0.3, 0.0, -1.0, 1.0])
        with pytest.raises(PoleError) as exc:
            family_jet_many(spec, theta, np.array([1.0]))
        assert exc.value.x == 1.0

    def test_pade_degenerates_to_poly(self, rng):
        m = 4
        pade = parse_structure(f"Pade-[{m}/3]")
        poly = parse_structure(f"Poly-{m}")
        coeffs = rng.normal(0, 1, m + 1)
        theta_pade = np.concatenate([coeffs, np.zeros(3), [1.0]])
        xs = rng.uniform(-2, 2, 50)
        yp, dyp, _, _ = family_jet_many(pade, theta_pade, xs)
        yq, dyq, _, _ = family_jet_many(poly, coeffs, xs)
        assert np.allclose(yp, yq, rtol=1e-14, atol=1e-300)
        assert np.allclose(dyp, dyq, rtol=1e-14, atol=1e-14)

    def test_legendre_recurrence_vs_explicit(self):
        xs = np.linspace(-1.0, 1.0, 100)
        p, dp = legendre_table(5, xs)
        explicit = [
            np.ones_like(xs),
            xs,
            (3 * xs ** 2 - 1) / 2,
            (5 * xs ** 3 - 3 * xs) / 2,
            (35 * xs ** 4 - 30 * xs ** 2 + 3) / 8,
            (63 * xs ** 5 - 70 * xs ** 3 + 15 * xs) / 8,
        ]
        for k in range(6):
            err = np.abs(p[k] - explicit[k]) / np.maximum(np.abs(explicit[k]), 1e-8)
            assert err.max() < 1e-13


ALL_FAMILIES = ["Pade-[3/2]", "MLP-[[4,sigmoid]]", "MLP-[[3,tanh],[3,tanh]]", "RBF-[4]", "Leg-4", "Poly-4"]


@pytest.mark.parametrize("structure", ALL_FAMILIES)
def test_jet_matches_finite_differences(structure, rng):
    spec = parse_structure(structure)
    pf = param_count(spec)
    h = 1e-6
    for _ in range(200):
        theta = init_params(spec, int(rng.integers(1 << 30))) + rng.normal(0, 0.3, pf)
        xs = np.array([float(rng.uniform(-0.95, 0.95))])
        y, dy, gy, gdy = family_jet_many(spec, theta, xs)
        # combined tolerance: central differences lose ~1e-16*|f|/h to cancellation
        scale = 1.0 + abs(y[0]) + abs(dy[0])
        tol = lambda fd: 1e-5 * abs(fd) + 1e-6 * scale
        y_right = family_jet_many(spec, theta, xs + h)[0]
        y_left = family_jet_many(spec, theta, xs - h)[0]
        fd_dx = (y_right[0] - y_left[0]) / (2 * h)
        assert abs(dy[0] - fd_dx) <= tol(fd_dx)
        for k in range(pf):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            yp, dyp, _, _ = family_jet_many(spec, tp, xs)
            ym, dym, _, _ = family_jet_many(spec, tm, xs)
            fd_y = (yp[0] - ym[0]) / (2 * h)
            fd_dy = (dyp[0] - dym[0]) / (2 * h)
            assert abs(gy[k, 0] - fd_y) <= tol(fd_y)
            assert abs(gdy[k, 0] - fd_dy) <= tol(fd_dy)


# RBF off the unit interval, with its first kernel narrowed to sigma = 1e-3:
# without centring x, its moment expansion cancels catastrophically here
OFF_UNIT = BoundaryCondition(1000.0, 1001.5, 0.3, -0.2)
NARROW_RHO = np.log(1e-3)

# (interval, range the points are drawn from, rho of the first RBF width or None)
ON_UNIT_DRAW = (BoundaryCondition(-1.0, 1.0, 0.0, 0.0), (-0.95, 0.95), None)
OFF_UNIT_DRAW = (OFF_UNIT, (1000.05, 1001.45), NARROW_RHO)


@pytest.mark.parametrize("structure,draw", [pytest.param(s, ON_UNIT_DRAW, id=s) for s in ALL_FAMILIES]
                         + [pytest.param("RBF-[4]", OFF_UNIT_DRAW, id="RBF-[4]-off-unit")])
def test_pullback_matches_directional_finite_difference(structure, draw, rng):
    # pullback(c1, c2) . d is the derivative of sum(c1 * y + c2 * dy) along d
    bc, (lo, hi), narrow_rho = draw
    spec = parse_structure(structure)
    pf = param_count(spec)
    xs = np.sort(rng.uniform(lo, hi, 40))
    tables = family_tables(spec, xs, (bc.x_a, bc.x_b))
    h = 1e-6
    for _ in range(30):
        theta = init_params(spec, int(rng.integers(1 << 30)), domain=(bc.x_a, bc.x_b))
        theta = theta + rng.normal(0, 0.3, pf)
        if narrow_rho is not None:
            theta[2 * spec.centers] = narrow_rho
        c1, c2 = rng.normal(0, 1, (2, xs.size))
        direction = rng.normal(0, 1, pf)

        def weighted(t):
            y, dy, _ = family_forward(spec, t, tables)
            return float(np.sum(c1 * y + c2 * dy))

        _, _, pullback = family_forward(spec, theta, tables)
        analytic = float(pullback(c1, c2) @ direction)
        fd = (weighted(theta + h * direction) - weighted(theta - h * direction)) / (2 * h)
        scale = np.sum(np.abs(c1)) + np.sum(np.abs(c2))
        assert abs(analytic - fd) <= 1e-6 * abs(fd) + 1e-7 * scale


@pytest.mark.parametrize("structure", ["Pade-[2/2]"] + ALL_FAMILIES)
def test_pullback_matches_jet_contraction(structure, rng):
    spec = parse_structure(structure)
    pf = param_count(spec)
    xs = np.sort(rng.uniform(-0.95, 0.95, 64))
    for _ in range(10):
        theta = init_params(spec, int(rng.integers(1 << 30))) + rng.normal(0, 0.3, pf)
        c1, c2 = rng.normal(0, 1, (2, xs.size))
        y, dy, gy, gdy = family_jet_many(spec, theta, xs)
        fy, fdy, pullback = family_forward(spec, theta, family_tables(spec, xs))
        assert np.array_equal(fy, y) and np.array_equal(fdy, dy)
        expected = gy @ c1 + gdy @ c2
        assert np.max(np.abs(pullback(c1, c2) - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_pade_pullback_keeps_pole_location():
    spec = parse_structure("Pade-[1/1]")
    xs = np.array([-0.5, 0.25, 0.75])
    with pytest.raises(PoleError) as exc:
        family_forward(spec, np.array([1.0, 0.0, 4.0, -1.0]), family_tables(spec, xs))
    assert exc.value.x == 0.25
