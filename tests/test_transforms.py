from dataclasses import replace

import numpy as np
import pytest

from oracles import ddy, ddz, divergence, integrate, zero_field
from stripwave.grid import (
    ScalarField,
    VectorField,
    field_from_function,
    make_grid,
)
from stripwave.transforms import (
    TransformError,
    cole_hopf_forward,
    cole_hopf_inverse,
    curl,
    make_initial_perturbation,
    perturbation_y_means,
)
from stripwave.waves import WaveParams, explicit_wave_eps0


@pytest.fixture(scope="module")
def wave_setup():
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0, 1024, 0.5, 16, p.s)
    return p, g, explicit_wave_eps0(p, g)


def test_forward_constant_c_gives_zero_q():
    g = make_grid(10, 64, 0.5, 8, 1.0)
    q = cole_hopf_forward(field_from_function(g, lambda z, y: 2.0 * np.ones_like(z)))
    assert q.max_abs() < 1e-14


def test_forward_rejects_nonpositive_c():
    g = make_grid(10, 64, 0.5, 8, 1.0)
    c = field_from_function(g, lambda z, y: z)  # crosses zero
    with pytest.raises(TransformError, match="positive"):
        cole_hopf_forward(c)


def test_forward_on_wave_recovers_log_gradient(wave_setup):
    p, g, prof = wave_setup
    q = cole_hopf_forward(ScalarField(g, np.repeat(prof.C[:, None], g.n_y, axis=1)))
    assert np.max(np.abs(q.z.values - prof.P_z[:, None])) < 10 * g.dz**2
    assert q.y.max_abs() < 1e-12


def test_forward_on_perturbed_wave(wave_setup):
    p, g, prof = wave_setup
    psi = field_from_function(
        g, lambda z, y: 1e-2 * np.exp(-((z - 1) ** 2)) * np.cos(2 * np.pi * y / g.lam))
    c = ScalarField(g, prof.C[:, None] * np.exp(-psi.values))
    q = cole_hopf_forward(c)
    expect_z = prof.P_z[:, None] + ddz(psi).values
    expect_y = ddy(psi).values
    assert np.max(np.abs(q.z.values - expect_z)) < 10 * g.dz**2
    assert np.max(np.abs(q.y.values - expect_y)) < 10 * g.dz**2


def test_curl_of_discrete_gradient_is_negligible():
    # d/dz and the spectral d/dy act on different tensor axes, so the
    # discrete commutator vanishes identically; the O(dz^2) bound holds
    # with room to spare at every resolution.
    for n_z in (256, 512):
        g = make_grid(8.0, n_z, 0.5, 16, 1.0)
        psi = field_from_function(
            g, lambda z, y: np.exp(-(z**2)) * np.sin(2 * np.pi * y / g.lam))
        q = VectorField(ddz(psi), ddy(psi))
        err = np.max(np.abs(curl(q).values))
        assert err <= 10 * g.dz**2
        assert err < 1e-11


def test_curl_analytic():
    g = make_grid(10, 64, 0.5, 16, 1.0)
    q = VectorField(
        field_from_function(g, lambda z, y: np.sin(2 * np.pi * y / g.lam)),
        zero_field(g))
    expect = field_from_function(
        g, lambda z, y: (2 * np.pi / g.lam) * np.cos(2 * np.pi * y / g.lam))
    assert np.max(np.abs(curl(q).values - expect.values)) < 1e-11


def test_curl_of_planar_wave_is_zero(wave_setup):
    _, g, prof = wave_setup
    q = VectorField(ScalarField(g, np.repeat(prof.P_z[:, None], g.n_y, axis=1)),
                    zero_field(g))
    assert curl(q).max_abs() < 1e-12


def test_inverse_constant():
    g = make_grid(10, 64, 0.5, 8, 1.0)
    q = VectorField(zero_field(g), zero_field(g))
    c = cole_hopf_inverse(q, c_anchor=3.0, anchor_z=0.0)
    assert np.max(np.abs(c.values - 3.0)) < 1e-14


def test_inverse_rejects_rotational_field():
    g = make_grid(10, 64, 0.5, 16, 1.0)
    q = VectorField(
        field_from_function(g, lambda z, y: np.sin(2 * np.pi * y / g.lam)),
        zero_field(g))
    with pytest.raises(TransformError, match="not a gradient"):
        cole_hopf_inverse(q, 1.0, 0.0)


def test_inverse_rejects_a_bad_anchor():
    g = make_grid(10, 64, 0.5, 8, 1.0)
    q = VectorField(zero_field(g), zero_field(g))
    with pytest.raises(TransformError, match="c_anchor must be positive, got 0.0"):
        cole_hopf_inverse(q, c_anchor=0.0, anchor_z=0.0)
    with pytest.raises(TransformError, match=r"anchor_z = 10.5 outside \[-L_z, L_z\]"):
        cole_hopf_inverse(q, c_anchor=1.0, anchor_z=10.5)


def test_inverse_recovers_wave_profile():
    # analytic log-gradient of the explicit wave on a short window where
    # the trapezoid Euler-Maclaurin constant stays below the 1e-6 target
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0)
    g = make_grid(6.0, 2048, 0.5, 8, p.s)
    prof = explicit_wave_eps0(p, g)
    q = VectorField(ScalarField(g, np.repeat(prof.P_z[:, None], g.n_y, axis=1)),
                    zero_field(g))
    c = cole_hopf_inverse(q, c_anchor=p.c_plus / 2.0, anchor_z=0.0)
    rel = np.max(np.abs(c.values - prof.C[:, None]) / prof.C[:, None])
    assert rel < 1e-6


def _smooth_c(g, amp):
    return field_from_function(
        g, lambda z, y: 1.5 * np.exp(amp * np.cos(np.pi * z / g.L_z)
                                     + 0.5 * amp * np.sin(2 * np.pi * y / g.lam)))


def test_roundtrip_forward_inverse_smooth(subtests=None):
    # self-consistency oracle: c -> q -> c with the anchor pinned
    g = make_grid(10.0, 2048, 0.5, 16, 1.0)
    c = _smooth_c(g, 2e-3)
    q = cole_hopf_forward(c)
    ia = g.n_z // 2
    back = cole_hopf_inverse(q, c_anchor=float(c.values[ia, 0]), anchor_z=float(g.z[ia]))
    rel = np.max(np.abs(back.values - c.values) / c.values)
    assert rel < 1e-8


def test_roundtrip_error_slope_two():
    errs = []
    sizes = (512, 1024, 2048)
    for n_z in sizes:
        g = make_grid(10.0, n_z, 0.5, 16, 1.0)
        c = _smooth_c(g, 2e-1)  # larger amplitude so the error is resolvable
        q = cole_hopf_forward(c)
        ia = g.n_z // 2
        back = cole_hopf_inverse(q, float(c.values[ia, 0]), float(g.z[ia]))
        errs.append(np.max(np.abs(back.values - c.values) / c.values))
    slopes = np.diff(np.log(errs)) / np.diff(np.log([1.0 / (n - 1) for n in sizes]))
    assert np.all(np.abs(slopes - 2.0) < 0.3)


def test_roundtrip_q_side(wave_setup):
    # q -> c -> q reproduces q at O(dz^2)
    _, _, prof = wave_setup
    g = make_grid(8.0, 1024, 0.5, 16, 1.0)
    psi = field_from_function(
        g, lambda z, y: 0.3 * np.exp(-(z**2) / 4) * (1 + 0.5 * np.sin(2 * np.pi * y / g.lam)))
    q = VectorField(ddz(psi), ddy(psi))
    c = cole_hopf_inverse(q, 2.0, 0.0)
    q2 = cole_hopf_forward(c)
    err = max(np.max(np.abs(q2.z.values - q.z.values)),
              np.max(np.abs(q2.y.values - q.y.values)))
    assert err < 20 * g.dz**2


def test_initial_perturbation_carries_no_mass(wave_setup):
    # phi vanishes at both ends, so int (n - N) = int div phi is 0
    _, g, _ = wave_setup
    pert = make_initial_perturbation(g, 1e-4, seed=3)
    mass = integrate(divergence(pert.phi))
    assert abs(mass) < 1e-12


def test_initial_perturbation_measured_amplitude():
    from stripwave.energy import ledger_row

    g = make_grid(25.0, 512, 0.5, 16, 1.0)
    for seed in (0, 1, 7):
        pert = make_initial_perturbation(g, 1e-4, seed=seed)
        assert ledger_row(g, pert.y_modes(), 0.0, 0.0).M_inst == pytest.approx(1e-4, rel=1e-10)


def test_initial_perturbation_rejects_a_degenerate_draw(monkeypatch):
    from stripwave import energy

    def empty(*args):
        return replace(real(*args), M_inst=0.0)

    real = energy.ledger_row
    monkeypatch.setattr(energy, "ledger_row", empty)
    g = make_grid(25.0, 256, 0.5, 16, 1.0)
    with pytest.raises(TransformError, match="degenerate random draw"):
        make_initial_perturbation(g, 1e-4, seed=1)


def test_initial_perturbation_mean_zero_projection():
    g = make_grid(25.0, 512, 0.5, 16, 1.0)
    pert = make_initial_perturbation(g, 1e-4, seed=2, mean_zero_y=True)
    assert perturbation_y_means(pert.y_modes()) < 1e-14


@pytest.mark.parametrize("n_z, n_y", [(512, 16), (257, 6)])
@pytest.mark.parametrize("seed", range(5))
def test_perturbation_y_means_match_the_node_means(n_z, n_y, seed):
    # the k = 0 column of the y-modes against the y-nodes' own average, on
    # data that keep their y-means
    g = make_grid(25.0, n_z, 0.5, n_y, 1.0)
    pert = make_initial_perturbation(g, 1e-4, seed=seed, mean_zero_y=False)
    means = max(float(np.max(np.abs(f.values.mean(axis=1))))
                for f in (pert.phi.z, pert.phi.y, pert.psi))
    assert means > 0.0
    assert perturbation_y_means(pert.y_modes()) == pytest.approx(means, rel=1e-14, abs=0.0)


def test_initial_perturbation_deterministic():
    g = make_grid(25.0, 512, 0.5, 16, 1.0)
    a = make_initial_perturbation(g, 1e-4, seed=11)
    b = make_initial_perturbation(g, 1e-4, seed=11)
    assert np.array_equal(a.phi.z.values, b.phi.z.values)
    assert np.array_equal(a.psi.values, b.psi.values)


def test_initial_perturbation_compact_support():
    g = make_grid(25.0, 512, 0.5, 16, 1.0)
    pert = make_initial_perturbation(g, 1e-4, seed=4)
    # bumps live in |z - center| < 4 with centers in [-2, 2]
    far = np.abs(g.z) > 8.0
    assert np.max(np.abs(pert.phi.z.values[far])) == 0.0
    assert np.max(np.abs(pert.psi.values[far])) == 0.0
