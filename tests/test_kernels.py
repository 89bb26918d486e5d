import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigmeasure.errors import AlphaOutOfRange, CoincidentPoints, NotTransient
from bigmeasure.kernels import (
    KernelModel,
    green_constant,
    radial_shell_average,
    shell_average_batch,
    sphere_surface_area,
)

# Frozen oracles, computed independently before the implementation:
#   closed form ((rho+s)^(a-1) - |rho-s|^(a-1)) / (2 rho s (a-1)) at
#   (1, 2, 1.5, 3) is (sqrt(3)-1)/2; a 1e7-sample Monte Carlo average of
#   |x - sZ|^(alpha-3) over the sphere gave 0.366134 +- 5.7e-5.
SHELL_D3_ORACLE = (math.sqrt(3.0) - 1.0) / 2.0
SHELL_D3_MC = (0.366134, 5.8e-5)
# mpmath quadrature of (5 - 4 cos t)^(-1/4) / pi over [0, pi]; MC agreed
# at 0.719378 +- 4.4e-5.
SHELL_D2_ORACLE = 0.719416660018952

# Near-coincidence shell averages at rho = 1 and s = 1 - delta (exact
# doubles): 40-digit mpmath, once from the 2F1 closed form and once by
# quadrature of the defining polar-angle integral; the two agreed to
# better than 1e-38. (dim, alpha, delta, kbar(1, 1 - delta))
NEAR_COINCIDENCE = [
    (2, 1.0001, 1e-06, 5.0562047215845087),
    (2, 1.0001, 1e-09, 7.2510631270117786),
    (2, 1.5, 1e-06, 1.1799595140289594),
    (2, 1.5, 1e-09, 1.1803285390205449),
    (2, 1.999, 1e-06, 1.000000411527241),
    (2, 1.999, 1e-09, 1.0000004115343419),
    (4, 1.0001, 1e-06, 8.8400129156697481),
    (4, 1.0001, 1e-09, 13.230160551329926),
    (4, 1.5, 1e-06, 1.5722639107765237),
    (4, 1.5, 1e-09, 1.5737392261594351),
    (4, 1.999, 1e-06, 1.0005006486426977),
    (4, 1.999, 1e-09, 1.0005006618450323),
    (5, 1.0001, 1e-06, 10.124868683917843),
    (5, 1.0001, 1e-09, 15.296984797376568),
    (5, 1.5, 1e-06, 1.6950592407014806),
    (5, 1.5, 1e-09, 1.696993032265127),
    (5, 1.999, 1e-06, 1.0006409279664032),
    (5, 1.999, 1e-09, 1.000640947343352),
]

# The same, for alpha < 1 where the kernel blows up at coincidence, at 1e-13:
# hyp2f1 at z = (m/M)^2 is off by up to 3.5e-10 here, the 1 - z connection
# form is not. 50-digit mpmath with alpha and s the exact doubles; the 2F1
# and the polar-angle (dim 3) or two-point (dim 1) average agreed to 1e-40.
NEAR_COINCIDENCE_SINGULAR = [
    (1, 0.3, 1e-09, 997631.48502099916418),
    (1, 0.5, 1e-09, 15811.742077820883198),
    (3, 0.3, 1e-09, 1425186.9577806044324),
    (3, 0.5, 1e-09, 31622.069973701108826),
]

# Within 1e-14 of coincidence near alpha = 1, where hyp2f1 returns inf or its
# z = 1 value (about 5000 at alpha = 1.0001); 50-digit mpmath of the 2F1 at
# the exact double s, at 1e-13 as above.
NEAR_COINCIDENCE_ALPHA_ONE = [
    (3, 1.0, 1e-14, 16.465069039953552842),
    (3, 1.0, 1e-09, 10.708206533352350402),
    (2, 1.0, 1e-12, 9.4571410286557579337),
    (3, 1.0001, 1e-14, 16.439128357382748019),
    (5, 0.97, 1e-14, 39.928096795716207559),
    (4, 1.03, 1e-11, 11.45145799682346362),
]


def test_newton_shell_oracle():
    # alpha = 2, dim = 3: potential of a uniform sphere is Newton's 1/max(rho, s)
    rng = np.random.default_rng(42)
    for _ in range(100):
        rho, s = rng.uniform(0.05, 5.0, size=2)
        while abs(rho - s) <= 1e-3:
            rho, s = rng.uniform(0.05, 5.0, size=2)
        val = radial_shell_average(rho, s, 2.0, 3)
        assert abs(val - 1.0 / max(rho, s)) <= 1e-8


def test_shell_average_frozen_values():
    assert radial_shell_average(1.0, 2.0, 1.5, 3) == pytest.approx(SHELL_D3_ORACLE, abs=1e-9)
    mc, se = SHELL_D3_MC
    assert abs(SHELL_D3_ORACLE - mc) <= 3 * se
    assert radial_shell_average(1.0, 2.0, 1.5, 2) == pytest.approx(SHELL_D2_ORACLE, abs=1e-6)


def test_shell_average_dim1_two_point():
    # dim 1: spheres are two points; average of |rho -+ s|^(alpha-1)
    assert radial_shell_average(1.0, 3.0, 0.5, 1) == pytest.approx(
        0.5 * (2.0**-0.5 + 4.0**-0.5)
    )
    assert radial_shell_average(2.0, 2.0, 1.5, 1) == pytest.approx(0.5 * 4.0**0.5)


def test_shell_average_symmetry_and_monotonicity():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rho, s = rng.uniform(0.1, 4.0, size=2)
        alpha = rng.uniform(0.3, 2.0)
        for dim in (2, 3):
            a = radial_shell_average(rho, s, alpha, dim)
            b = radial_shell_average(s, rho, alpha, dim)
            assert a == pytest.approx(b, rel=1e-7)
    # decreasing in rho once outside the sphere
    vals = [radial_shell_average(rho, 1.0, 1.5, 3) for rho in (1.5, 2.0, 3.0, 5.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_shell_average_divergent_on_coincident_radius():
    assert radial_shell_average(1.0, 1.0, 1.0, 3) == math.inf
    assert radial_shell_average(1.0, 1.0, 0.7, 2) == math.inf
    # integrable for alpha > 1
    assert np.isfinite(radial_shell_average(1.0, 1.0, 1.5, 3))
    with pytest.raises(CoincidentPoints):
        radial_shell_average(0.0, 0.0, 1.5, 3)


def test_shell_average_center_is_plain_power():
    assert radial_shell_average(0.0, 2.0, 1.5, 3) == pytest.approx(2.0**-1.5)
    assert radial_shell_average(3.0, 0.0, 1.2, 3) == pytest.approx(3.0**-1.8)


def test_shell_average_batch_matches_quadrature():
    rng = np.random.default_rng(11)
    s = rng.uniform(0.1, 5.0, size=20)
    for dim in (1, 3):
        for alpha in (0.8, 1.0, 1.5, 2.0):
            batch = shell_average_batch(1.3, s, alpha, dim)
            scalar = [radial_shell_average(1.3, float(si), alpha, dim) for si in s]
            assert np.allclose(batch, scalar, rtol=1e-8)


@pytest.mark.parametrize("dim, alpha, delta, want", NEAR_COINCIDENCE)
def test_shell_average_near_coincidence_frozen(dim, alpha, delta, want):
    s = 1.0 - delta
    assert radial_shell_average(1.0, s, alpha, dim) == pytest.approx(want, rel=1e-10)
    assert radial_shell_average(s, 1.0, alpha, dim) == pytest.approx(want, rel=1e-10)
    batch = shell_average_batch(1.0, np.array([s, 1.0 / s]), alpha, dim)
    assert batch[0] == pytest.approx(want, rel=1e-10)



@pytest.mark.parametrize("dim, alpha, delta, want", NEAR_COINCIDENCE_SINGULAR + NEAR_COINCIDENCE_ALPHA_ONE)
def test_shell_average_near_singular_coincidence_frozen(dim, alpha, delta, want):
    s = 1.0 - delta
    assert radial_shell_average(1.0, s, alpha, dim) == pytest.approx(want, rel=1e-13)
    assert radial_shell_average(s, 1.0, alpha, dim) == pytest.approx(want, rel=1e-13)
    assert shell_average_batch(1.0, np.array([s, 2.0]), alpha, dim)[0] == pytest.approx(want, rel=1e-13)


_RADII = st.floats(1e-3, 1e3)
_ALPHAS = st.floats(0.05, 2.0)
_DIMS = st.integers(1, 7)


@settings(max_examples=200, deadline=None)
@given(rho=_RADII, s=_RADII, alpha=_ALPHAS, dim=_DIMS)
def test_shell_average_symmetry_property(rho, s, alpha, dim):
    assert radial_shell_average(rho, s, alpha, dim) == radial_shell_average(s, rho, alpha, dim)


@settings(max_examples=200, deadline=None)
@given(rho=_RADII, s=_RADII, alpha=_ALPHAS, dim=_DIMS)
def test_shell_average_scaling_property(rho, s, alpha, dim):
    # kbar is homogeneous of degree alpha - dim; keep off the diagonal,
    # where rounding rho / s moves 1 - (m/M)^2 by more than the tolerance
    if abs(rho - s) < 1e-3 * max(rho, s):
        return
    got = radial_shell_average(rho, s, alpha, dim)
    want = s ** (alpha - dim) * radial_shell_average(rho / s, 1.0, alpha, dim)
    assert got == pytest.approx(want, rel=1e-9)


def test_shell_average_dim1_is_two_point_identity():
    # 2F1(a, a + 1/2; 1/2; u^2) = ((1 + u)^(-2a) + (1 - u)^(-2a)) / 2
    s = np.linspace(0.01, 0.999, 60)
    for alpha in (0.3, 0.5, 0.9, 1.0, 1.5, 2.0):
        want = 0.5 * (np.abs(1.0 - s) ** (alpha - 1.0) + (1.0 + s) ** (alpha - 1.0))
        np.testing.assert_allclose(shell_average_batch(1.0, s, alpha, 1), want, rtol=1e-12)
        np.testing.assert_allclose(shell_average_batch(1.0, 1.0 / s, alpha, 1), want / s ** (alpha - 1.0), rtol=1e-12)


def test_shell_average_newton_is_exact():
    # alpha = 2: the hypergeometric factor is exactly 1 in every dimension
    rng = np.random.default_rng(3)
    s = rng.uniform(0.05, 5.0, size=50)
    for dim in (3, 4, 5, 7):
        assert np.array_equal(shell_average_batch(1.7, s, 2.0, dim), np.maximum(1.7, s) ** (2.0 - dim))


def test_shell_average_batch_guards():
    s = np.array([0.5, 1.0, 2.0])
    for dim in (1, 2, 3, 5):
        for alpha in (0.5, 1.0):
            if alpha == dim:
                continue
            out = shell_average_batch(1.0, s, alpha, dim)
            assert out[1] == math.inf and np.all(np.isfinite(out[[0, 2]]))
            assert radial_shell_average(1.0, 1.0, alpha, dim) == math.inf
        assert np.isfinite(shell_average_batch(1.0, s, 1.5, dim)).all()
    # the kernel is identically 1 when alpha == dim
    assert radial_shell_average(1.0, 1.0, 1.0, 1) == 1.0
    np.testing.assert_array_equal(shell_average_batch(0.0, s, 1.5, 5), s**-3.5)
    with pytest.raises(ValueError):
        radial_shell_average(-1.0, 1.0, 1.5, 3)
    with pytest.raises(AlphaOutOfRange):
        radial_shell_average(1.0, 2.0, 2.5, 3)


def test_green_constant_values():
    # d = 3, alpha = 2 must reproduce the Newtonian 1/(4 pi)
    assert green_constant(2.0, 3) == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-12)
    # Gamma((3-1.5)/2) = Gamma(0.75) cancels: C = 2^(-1.5) pi^(-1.5)
    assert green_constant(1.5, 3) == pytest.approx(2.0**-1.5 * math.pi**-1.5, rel=1e-12)
    with pytest.raises(NotTransient):
        green_constant(2.0, 2)
    with pytest.raises(AlphaOutOfRange):
        green_constant(2.5, 5)


def test_sphere_surface_area():
    assert sphere_surface_area(3) == pytest.approx(4.0 * math.pi)
    assert sphere_surface_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_surface_area(1) == pytest.approx(2.0)


def test_kernel_model_validation():
    with pytest.raises(AlphaOutOfRange):
        KernelModel(2.3, 3)
    with pytest.raises(ValueError):
        KernelModel(1.5, 0)
    with pytest.raises(NotTransient):
        KernelModel(2.0, 2).require_transient()
    KernelModel(1.5, 3).require_transient()
