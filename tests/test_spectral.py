import numpy as np
import pytest

from dengue_rd import Domain, gradient_energy, heat_apply, kernel_matrix, min_resolvable_time, to_modal

from conftest import random_smooth_field, to_grid


def trapezoid_mean(f, domain):
    return float(domain.trapezoid_weights @ f) / domain.L


def test_constant_field_is_mode_zero(domain):
    a = to_modal(np.full(domain.n, 3.25), domain)
    assert a[0] == pytest.approx(3.25, rel=1e-14)
    assert np.abs(a[1:]).max() < 1e-13


def test_mode_zero_is_trapezoid_mean(domain):
    rng = np.random.default_rng(0)
    f = rng.uniform(0.0, 1.0, domain.n)
    assert to_modal(f, domain)[0] == pytest.approx(trapezoid_mean(f, domain), rel=1e-14)


def test_single_eigenmode_transform(domain):
    f = np.cos(np.pi * domain.grid / domain.L)
    a = to_modal(f, domain)
    assert a[1] == pytest.approx(1.0, rel=1e-13)
    others = np.delete(a, 1)
    assert np.abs(others).max() < 1e-12


def test_round_trip_smooth_field(domain):
    rng = np.random.default_rng(1)
    f = random_smooth_field(domain, rng)
    err = np.abs(to_grid(to_modal(f, domain), domain) - f).max()
    assert err < 1e-10  # measured at roundoff, contract is 1e-10


def test_transform_size_checks(domain):
    with pytest.raises(ValueError):
        to_modal(np.zeros(domain.n + 1), domain)


def test_heat_apply_time_zero_is_identity(domain):
    rng = np.random.default_rng(2)
    f = rng.uniform(0.0, 1.0, domain.n)
    out = heat_apply(f, 1.0, 0.0, domain)
    assert np.array_equal(out, f)
    out[0] = -1.0  # returned field is a copy, not an alias
    assert f[0] != -1.0


def test_heat_apply_eigenmode_decay(domain):
    d, t = 0.7, 0.3
    f = np.cos(np.pi * domain.grid / domain.L)
    out = heat_apply(f, d, t, domain)
    factor = np.exp(-d * t * (np.pi / domain.L) ** 2)
    assert np.abs(out - factor * f).max() < 1e-12


def test_heat_apply_long_time_equilibrates(domain):
    rng = np.random.default_rng(3)
    f = rng.uniform(0.0, 1.0, domain.n)
    out = heat_apply(f, 1.0, 50.0, domain)
    assert np.abs(out - trapezoid_mean(f, domain)).max() < 1e-12


def test_heat_apply_argument_validation(domain):
    f = np.zeros(domain.n)
    with pytest.raises(ValueError):
        heat_apply(f, 1.0, -0.1, domain)
    with pytest.raises(ValueError):
        heat_apply(f, 0.0, 0.1, domain)
    with pytest.raises(ValueError):
        heat_apply(np.zeros(domain.n - 1), 1.0, 0.1, domain)


def test_semigroup_law(domain):
    rng = np.random.default_rng(5)
    f = rng.uniform(0.0, 1.0, domain.n)
    d = 1.3
    once = heat_apply(f, d, 0.7, domain)
    composed = heat_apply(heat_apply(f, d, 0.3, domain), d, 0.4, domain)
    assert np.abs(once - composed).max() < 1e-10


def test_constants_are_fixed_points(domain):
    c = np.full(domain.n, 1.7)
    for t in (0.0, 1e-3, 1.0, 100.0):
        assert np.abs(heat_apply(c, 2.0, t, domain) - 1.7).max() < 1e-13


def test_positivity_and_maximum_principle(domain):
    rng = np.random.default_rng(6)
    f = np.abs(random_smooth_field(domain, rng))
    d = 1.0
    t_floor = min_resolvable_time(d, domain)
    for t in (t_floor, 0.01, 1.0):
        out = heat_apply(f, d, t, domain)
        assert out.min() >= -1e-9 * f.max()
        assert out.max() <= f.max() + 1e-9 * np.abs(f).max()


def test_kernel_matrix_matches_heat_apply(domain):
    rng = np.random.default_rng(7)
    f = rng.uniform(0.0, 1.0, domain.n)
    d, t = 0.9, 0.25
    K = kernel_matrix(d, t, domain)
    assert np.abs(K @ f - heat_apply(f, d, t, domain)).max() < 1e-8


def test_kernel_matrix_rows_sum_to_one(domain):
    K = kernel_matrix(1.0, 0.1, domain)
    assert np.abs(K.sum(axis=1) - 1.0).max() < 1e-10


def test_kernel_matrix_symmetric_without_weights(domain):
    K = kernel_matrix(1.0, 0.2, domain)
    G = K / domain.trapezoid_weights[None, :]
    assert np.abs(G - G.T).max() < 1e-10


def test_kernel_matrix_semigroup_composition(domain):
    d = 1.1
    K1 = kernel_matrix(d, 0.15, domain)
    K2 = kernel_matrix(d, 0.35, domain)
    K12 = kernel_matrix(d, 0.5, domain)
    assert np.abs(K1 @ K2 - K12).max() < 1e-8


def test_kernel_matrix_rejects_unresolvable_time(domain):
    d = 1.0
    floor = min_resolvable_time(d, domain)
    assert floor == pytest.approx(1e-3 * (domain.L / np.pi) ** 2 / d, rel=1e-14)
    with pytest.raises(ValueError, match="resolvable"):
        kernel_matrix(d, 0.5 * floor, domain)
    kernel_matrix(d, floor, domain)  # the floor itself is accepted


def test_gradient_energy_constant_is_zero(domain):
    assert gradient_energy(np.full(domain.n, 4.2), domain) < 1e-25


def test_gradient_energy_matches_dense_quadrature():
    # f = 2 + cos(pi x), L = 1: integral of (pi sin(pi x))^2 / (2 + cos(pi x))^2
    domain = Domain(L=1.0, n=64)
    f = 2.0 + np.cos(np.pi * domain.grid)
    value = gradient_energy(f, domain)
    xs = np.linspace(0.0, 1.0, 200001)
    dense = np.trapezoid(
        (np.pi * np.sin(np.pi * xs)) ** 2 / (2.0 + np.cos(np.pi * xs)) ** 2, xs
    )
    assert value == pytest.approx(dense, abs=1e-8)


def test_gradient_energy_scale_invariant(domain):
    rng = np.random.default_rng(8)
    f = np.abs(random_smooth_field(domain, rng, offset=5.0))
    assert gradient_energy(3.7 * f, domain) == pytest.approx(
        gradient_energy(f, domain), rel=1e-12
    )


def test_gradient_energy_requires_positive(domain):
    f = np.full(domain.n, 1.0)
    f[5] = 0.0
    with pytest.raises(ValueError, match="positive"):
        gradient_energy(f, domain)


def test_low_mode_field_keeps_its_coefficients_and_decays_mode_by_mode():
    # every grid mode is kept: a field in modes 0, 1 and 5 transforms to
    # exactly those coefficients, and the heat flow scales each by its decay
    domain = Domain(L=2.0, n=64)
    a = np.zeros(domain.n)
    a[[0, 1, 5]] = (1.0, 0.3, 0.1)
    f = to_grid(a, domain)
    assert np.abs(to_modal(f, domain) - a).max() < 1e-12
    decay = np.exp(-0.2 * (np.arange(domain.n) * np.pi / domain.L) ** 2)
    assert np.abs(heat_apply(f, 1.0, 0.2, domain) - to_grid(a * decay, domain)).max() < 1e-12
