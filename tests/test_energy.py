import numpy as np
import pytest

from oracles import ddy, ddz, divergence, integrate, transverse_energy, zero_field
from stripwave.energy import (
    EnergyError,
    EnergyLedger,
    LedgerRow,
    fit_exponential_decay,
    ledger_row,
)
from stripwave.grid import (
    ScalarField,
    VectorField,
    ddz_array,
    field_from_function,
    make_grid,
    y_modes,
)
from stripwave.transforms import ColeHopfState, PerturbationState, make_initial_perturbation
from stripwave.waves import WaveParams


def small_grid():
    return make_grid(10.0, 256, 0.5, 16, 1.0)


def _h3_psi(f):
    """The ledger's ||psi||_{H^3}^2 for psi = f and phi = 0."""
    g = f.grid
    zero = y_modes(zero_field(g).values)
    return ledger_row(g, (zero, zero, y_modes(f.values)), 0.0, 0.0).H3_psi


def test_norm_of_constant_is_area():
    # every derivative of a constant is an exact 0, the boundary stencils' too
    g = small_grid()
    one = field_from_function(g, lambda z, y: np.ones_like(z))
    assert _h3_psi(one) == pytest.approx(2 * g.L_z * g.lam, rel=1e-12)


def test_h3_norm_of_sine_matches_quadrature():
    # only the y-derivatives j = 0..3 are nonzero, each of mean square k^2j / 2
    g = small_grid()
    f = field_from_function(g, lambda z, y: np.sin(2 * np.pi * y / g.lam))
    area = 2 * g.L_z * g.lam
    k2 = (2 * np.pi / g.lam) ** 2
    expected = area * 0.5 * (1 + k2 + k2**2 + k2**3)
    assert _h3_psi(f) == pytest.approx(expected, rel=1e-10)


def _scaled(pert, a):
    g = pert.grid
    phi_z, phi_y, psi = (ScalarField(g, a * f.values) for f in (pert.phi.z, pert.phi.y, pert.psi))
    return PerturbationState(phi=VectorField(phi_z, phi_y), psi=psi)


def test_norm_quadratic_homogeneity():
    g = small_grid()
    pert = make_initial_perturbation(g, 1e-2, seed=5)
    a = 3.7
    assert ledger_row(g, _scaled(pert, a).y_modes(), 0.0, 0.0).M_inst == pytest.approx(
        a**2 * ledger_row(g, pert.y_modes(), 0.0, 0.0).M_inst, rel=1e-12)


def test_ledger_row_zero_state():
    p = WaveParams(eps=0.0, n_minus=1.0, c_plus=1.0)
    g = make_grid(25.0, 256, 0.5, 16, p.s)
    state = PerturbationState(phi=VectorField(zero_field(g), zero_field(g)), psi=zero_field(g))
    row = ledger_row(g, state.y_modes(), 0.0, eps=0.0)
    assert row.M_inst == 0.0
    assert row.mass == 0.0
    assert row.Q == 0.0


def test_ledger_row_scaling():
    g = small_grid()
    pert = make_initial_perturbation(g, 1e-4, seed=1)
    r1 = ledger_row(g, pert.y_modes(), 0.0, eps=0.0)
    r2 = ledger_row(g, _scaled(pert, 2.0).y_modes(), 0.0, eps=0.0)
    assert r2.M_inst == pytest.approx(4.0 * r1.M_inst, rel=1e-12)
    assert r2.Q == pytest.approx(4.0 * r1.Q, rel=1e-12)


def test_ledger_sup_and_integrals():
    led = EnergyLedger()
    # synthetic rows: M rises then falls; brute-force oracle below
    times = np.linspace(0.0, 1.0, 11)
    m_vals = 1.0 + np.sin(np.pi * times)
    for t, m in zip(times, m_vals):
        led.append(LedgerRow(t=t, H3w_phi=m, H3_psi=0, H2w_grad_psi=0.5,
                             M_inst=m, grad_phi_H3w=2.0, psi4_w=0.0, Q=0, mass=0))
    sup = led.column("M_sup")
    assert np.all(np.diff(sup) >= 0)
    expected_sup = np.maximum.accumulate(m_vals)
    assert np.allclose(sup, expected_sup)
    # trapezoid of a constant integrand is exact
    assert led.last()["D_phi"] == pytest.approx(2.0, rel=1e-12)
    assert led.last()["D_psi"] == pytest.approx(0.5, rel=1e-12)
    assert np.all(np.diff(led.column("D_phi")) >= 0)


def test_ledger_rejects_nonincreasing_time():
    led = EnergyLedger()
    row = LedgerRow(t=0.0, H3w_phi=1, H3_psi=0, H2w_grad_psi=0,
                    M_inst=1, grad_phi_H3w=0, psi4_w=0, Q=0, mass=0)
    led.append(row)
    with pytest.raises(EnergyError):
        led.append(row)


def test_transverse_energy_planar_state():
    g = small_grid()
    f = field_from_function(g, lambda z, y: np.exp(-(z**2)))
    st = ColeHopfState(n=f, q=VectorField(f, zero_field(g)))
    assert transverse_energy(st) < 1e-28


def test_transverse_energy_analytic():
    g = small_grid()
    bump = np.exp(-(g.z**2))
    f = field_from_function(g, lambda z, y: np.exp(-(z**2)) * np.sin(2 * np.pi * y / g.lam))
    st = ColeHopfState(n=f, q=VectorField(zero_field(g), zero_field(g)))
    k = 2 * np.pi / g.lam
    # trapezoid of the z-profile is the honest quadrature reference
    wz = np.full(g.n_z, g.dz)
    wz[0] = wz[-1] = g.dz / 2
    expected = k**2 * float(wz @ bump**2) * g.lam / 2
    assert transverse_energy(st) == pytest.approx(expected, rel=1e-10)


def test_transverse_energy_shift_invariant():
    g = small_grid()
    v = np.exp(-(g.z**2))[:, None] * np.sin(2 * np.pi * g.y / g.lam)[None, :]
    st1 = ColeHopfState(n=ScalarField(g, v), q=VectorField(zero_field(g), zero_field(g)))
    st2 = ColeHopfState(n=ScalarField(g, np.roll(v, 3, axis=1)),
                        q=VectorField(zero_field(g), zero_field(g)))
    assert transverse_energy(st1) == pytest.approx(transverse_energy(st2), rel=1e-12)


def test_fit_exact_exponential():
    t = np.linspace(0, 5, 51)
    c, r2 = fit_exponential_decay(t, np.exp(-3.0 * t), (0.0, 5.0))
    assert c == pytest.approx(3.0, abs=1e-8)
    assert r2 == pytest.approx(1.0, abs=1e-8)


def test_fit_constant_series():
    t = np.linspace(0, 5, 51)
    c, r2 = fit_exponential_decay(t, np.ones_like(t), (0.0, 5.0))
    assert c == 0.0
    assert r2 == 0.0


def test_fit_noisy_exponential():
    rng = np.random.default_rng(3)
    t = np.linspace(0, 5, 200)
    vals = np.exp(-2.0 * t) * (1 + 1e-3 * rng.standard_normal(t.size))
    c, r2 = fit_exponential_decay(t, vals, (0.0, 5.0))
    assert abs(c - 2.0) / 2.0 < 0.01
    assert r2 > 0.999


def test_fit_rejects_nonpositive_and_short_windows():
    t = np.linspace(0, 5, 51)
    with pytest.raises(EnergyError):
        fit_exponential_decay(t, np.ones_like(t) - 1.0, (0.0, 5.0))
    with pytest.raises(EnergyError):
        fit_exponential_decay(t, np.exp(-t), (4.9, 5.0))


def test_empirical_c0():
    led = EnergyLedger()
    led.append(LedgerRow(t=0.0, H3w_phi=1.0, H3_psi=0, H2w_grad_psi=0,
                         M_inst=1.0, grad_phi_H3w=2.0, psi4_w=0, Q=0, mass=0))
    led.append(LedgerRow(t=1.0, H3w_phi=0.5, H3_psi=0, H2w_grad_psi=0,
                         M_inst=0.5, grad_phi_H3w=2.0, psi4_w=0, Q=0, mass=0))
    # M never exceeds M0 = 1 and the dissipation totals 2: C0 = 3
    assert led.last()["C0_running"] == pytest.approx(3.0)


def test_m_sup_brute_force_oracle():
    rng = np.random.default_rng(9)
    led = EnergyLedger()
    vals = np.abs(rng.standard_normal(40)) + 0.1
    for i, v in enumerate(vals):
        led.append(LedgerRow(t=float(i), H3w_phi=v, H3_psi=0, H2w_grad_psi=0,
                             M_inst=v, grad_phi_H3w=0, psi4_w=0, Q=0, mass=0))
    assert led.last()["M_sup"] == pytest.approx(max(vals))


def test_mixed_derivative_order_commutes():
    # y-spectral then z-FD equals z-FD then y-spectral at machine precision
    from stripwave.grid import ddy_array, ddz_array

    g = small_grid()
    rng = np.random.default_rng(4)
    v = rng.standard_normal((g.n_z, g.n_y))
    a = ddz_array(ddy_array(v, g), g.dz)
    b = ddy_array(ddz_array(v, g.dz), g)
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))


# ---------------------------------------------------------------------------
# Physical-space oracle: derivative chains from grid's public operators
# ---------------------------------------------------------------------------

def _sq(f):
    return ScalarField(f.grid, f.values * f.values)


def _oracle_terms(f, pairs, weighted):
    total = 0.0
    for i, j in pairs:
        d = f
        for _ in range(j):
            d = ddy(d)
        for _ in range(i):
            d = ddz(d)
        total += integrate(_sq(d), weighted)
    return total


def _oracle_h(f, k, weighted=False):
    return _oracle_terms(f, [(i, j) for i in range(k + 1) for j in range(k + 1 - i)],
                         weighted)


def _oracle_grad_h(f, k, weighted=False):
    return _oracle_h(ddz(f), k, weighted) + _oracle_h(ddy(f), k, weighted)


def _oracle_row(state, eps):
    phi, psi = state.phi, state.psi
    h3w_phi = _oracle_h(phi.z, 3, True) + _oracle_h(phi.y, 3, True)
    h3_psi = _oracle_h(psi, 3)
    h2w_grad_psi = _oracle_grad_h(psi, 2, True)
    div = divergence(phi)
    q = sum(integrate(_sq(ddy(f))) for f in (div, ddz(psi), ddy(psi)))
    return LedgerRow(
        t=0.0, H3w_phi=h3w_phi, H3_psi=h3_psi, H2w_grad_psi=h2w_grad_psi,
        M_inst=h3w_phi + h3_psi + h2w_grad_psi,
        grad_phi_H3w=_oracle_grad_h(phi.z, 3, True) + _oracle_grad_h(phi.y, 3, True),
        psi4_w=eps * _oracle_terms(psi, [(4 - j, j) for j in range(5)], True),
        Q=q, mass=integrate(div))


@pytest.mark.parametrize("mean_zero_y", [False, True])
@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_ledger_row_matches_physical_space_oracle(mean_zero_y, eps):
    g = make_grid(12.0, 256, 0.5, 16, 1.3)
    state = make_initial_perturbation(g, 1e-2, seed=7, mean_zero_y=mean_zero_y, eps=eps)
    row, ref = ledger_row(g, state.y_modes(), 0.0, eps), _oracle_row(state, eps)
    for name in LedgerRow.__dataclass_fields__:
        got, want = getattr(row, name), getattr(ref, name)
        if name == "mass":  # rounding-level: judge against the integrand's scale
            scale = integrate(ScalarField(g, np.abs(divergence(state.phi).values)))
            assert abs(got - want) <= 1e-13 * scale
        else:
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), name
    assert (row.psi4_w > 0.0) == (eps > 0.0)


def test_nyquist_mode_has_no_y_derivative():
    # cos(pi n_y y / lam) alternates on the nodes; its collocation d/dy is zero,
    # so its H^3 norm holds only the z-terms
    g = small_grid()
    prof = np.exp(-(g.z**2)) * (1.0 + 0.3 * g.z)
    f = ScalarField(g, np.outer(prof, np.cos(np.pi * g.n_y * g.y / g.lam)))
    wz = np.full(g.n_z, g.dz)
    wz[0] = wz[-1] = g.dz / 2
    levels = [prof]
    for _ in range(3):
        levels.append(ddz_array(levels[-1], g.dz))
    expected = g.lam * float(wz @ sum(d**2 for d in levels))
    assert _h3_psi(f) == pytest.approx(expected, rel=1e-13)
