import numpy as np
import pytest

from oracles import ddy, ddz, integrate, remove_mean_in_y, zero_field
from stripwave.grid import (
    GridError,
    ScalarField,
    VectorField,
    ddy_array,
    field_from_function,
    make_grid,
    y_fluctuation_values,
    y_modes,
    y_values,
)
from stripwave.transforms import _partial_integral_y


def test_make_grid_node_coordinates():
    g = make_grid(L_z=20, n_z=17, lam=1.0, n_y=4, s=1.0)
    assert np.allclose(g.z, np.linspace(-20, 20, 17))
    assert np.allclose(g.y, [0.25 * j for j in range(4)])
    assert g.dz == pytest.approx(40 / 16)
    assert g.dy == pytest.approx(0.25)


def test_weight_values():
    g = make_grid(L_z=np.log(3.0), n_z=17, lam=1.0, n_y=4, s=1.0)
    mid = 8  # z = 0
    assert g.weight[mid] == pytest.approx(2.0, abs=1e-14)
    assert g.weight[-1] == pytest.approx(4.0, rel=1e-14)  # z = ln 3, w = 1 + 3


def test_make_grid_rejects_bad_args():
    with pytest.raises(GridError):
        make_grid(10, 64, 1.0, 5, 1.0)  # odd n_y
    with pytest.raises(GridError):
        make_grid(10, 8, 1.0, 4, 1.0)  # n_z too small
    with pytest.raises(GridError):
        make_grid(-1, 64, 1.0, 4, 1.0)
    with pytest.raises(GridError):
        make_grid(10, 64, 0.0, 4, 1.0)


def test_ddy_resolved_mode_machine_precision():
    g = make_grid(10, 32, 0.5, 16, 1.0)
    f = field_from_function(g, lambda z, y: np.sin(2 * np.pi * y / g.lam))
    expected = field_from_function(g, lambda z, y: (2 * np.pi / g.lam) * np.cos(2 * np.pi * y / g.lam))
    assert np.max(np.abs(ddy(f).values - expected.values)) < 1e-12 * (2 * np.pi / g.lam)


def test_ddz_exact_for_linear():
    g = make_grid(10, 64, 0.5, 4, 1.0)
    f = field_from_function(g, lambda z, y: z)
    d = ddz(f).values
    assert np.max(np.abs(d - 1.0)) < 1e-12


def test_ddz_exact_for_quadratic_including_boundaries():
    g = make_grid(10, 64, 0.5, 4, 1.0)
    f = field_from_function(g, lambda z, y: 3.0 * z**2 - 2.0 * z + 1.0)
    expected = field_from_function(g, lambda z, y: 6.0 * z - 2.0)
    assert np.max(np.abs(ddz(f).values - expected.values)) < 1e-9


def _ddz_error(n_z):
    g = make_grid(8.0, n_z, 0.5, 4, 1.0)
    f = field_from_function(g, lambda z, y: np.sin(z) * np.exp(-(z / 4) ** 2))
    exact = field_from_function(
        g, lambda z, y: (np.cos(z) - np.sin(z) * z / 8) * np.exp(-(z / 4) ** 2))
    return np.max(np.abs(ddz(f).values - exact.values))


def test_ddz_refinement_slope_two():
    ns = [129, 257, 513]
    errs = [_ddz_error(n) for n in ns]
    slopes = np.diff(np.log(errs)) / np.diff(np.log([16.0 / (n - 1) for n in ns]))
    assert np.all(np.abs(slopes - 2.0) < 0.2)


def test_integrate_constant_area():
    g = make_grid(10, 64, 0.5, 8, 1.0)
    assert integrate(field_from_function(g, lambda z, y: np.ones_like(z))) == pytest.approx(10.0)


def test_integrate_periodic_mean_zero():
    g = make_grid(10, 64, 0.5, 8, 1.0)
    f = field_from_function(g, lambda z, y: np.sin(2 * np.pi * y / g.lam))
    assert abs(integrate(f)) < 1e-13


def test_integrate_weighted_against_antiderivative():
    # w * e^{-s z} = e^{-s z} + 1, whose integral is closed-form.
    s, L = 0.5, 5.0
    g = make_grid(L, 2048, 0.5, 4, s)
    f = field_from_function(g, lambda z, y: np.exp(-s * z))
    exact = g.lam * (2 * L + (np.exp(s * L) - np.exp(-s * L)) / s)
    assert abs(integrate(f, weighted=True) - exact) / exact < 1e-6


def test_integrate_of_ddy_is_zero():
    g = make_grid(10, 64, 0.5, 16, 1.0)
    rng = np.random.default_rng(0)
    f = ScalarField(g, rng.standard_normal((g.n_z, g.n_y)))
    assert abs(integrate(ddy(f))) < 1e-12 * max(1.0, f.max_abs())


def test_mean_in_y_constant():
    g = make_grid(10, 64, 0.5, 8, 1.0)
    f = field_from_function(g, lambda z, y: 3.0 * np.ones_like(z))
    assert np.allclose(y_modes(f.values)[:, 0].real, 3.0)  # the k = 0 column: the y-mean
    assert remove_mean_in_y(f).max_abs() < 1e-14


def test_mean_in_y_kills_resolved_sine():
    g = make_grid(10, 64, 0.5, 8, 1.0)
    f = field_from_function(g, lambda z, y: np.tanh(z) + np.sin(2 * np.pi * y / g.lam))
    assert np.max(np.abs(y_modes(f.values)[:, 0].real - np.tanh(g.z))) < 1e-14


def test_remove_mean_idempotent():
    g = make_grid(10, 32, 0.5, 8, 1.0)
    rng = np.random.default_rng(1)
    f = ScalarField(g, rng.standard_normal((g.n_z, g.n_y)))
    once = remove_mean_in_y(f)
    twice = remove_mean_in_y(once)
    assert np.max(np.abs(once.values - twice.values)) < 1e-15


def test_ddy_commutes_with_mean_removal():
    g = make_grid(10, 32, 0.5, 16, 1.0)
    rng = np.random.default_rng(2)
    f = ScalarField(g, rng.standard_normal((g.n_z, g.n_y)))
    d1 = ddy(f).values
    d2 = ddy(remove_mean_in_y(f)).values
    assert np.max(np.abs(d1 - d2)) < 1e-12 * max(1.0, np.max(np.abs(d1)))


def _random_band_limited_mean_zero(g, rng):
    """Random y-mean-zero field from resolved modes 1..n_y/2-1.

    The Nyquist mode is excluded: its collocation derivative vanishes
    identically, so it carries norm but no spectral y-derivative.
    """
    v = np.zeros((g.n_z, g.n_y))
    for m in range(1, g.n_y // 2):
        amp_c = rng.standard_normal(g.n_z)
        amp_s = rng.standard_normal(g.n_z)
        v += np.outer(amp_c, np.cos(2 * np.pi * m * g.y / g.lam))
        v += np.outer(amp_s, np.sin(2 * np.pi * m * g.y / g.lam))
    return ScalarField(g, v)


def test_discrete_poincare_random_fields():
    g = make_grid(5, 24, 0.5, 16, 1.0)
    rng = np.random.default_rng(7)
    const = g.lam / (2 * np.pi)
    for _ in range(100):
        f = _random_band_limited_mean_zero(g, rng)
        fy = ddy(f)
        # node-wise in z: per-row discrete L2 norms over y
        norm_f = np.sqrt((f.values**2).sum(axis=1) * g.dy)
        norm_fy = np.sqrt((fy.values**2).sum(axis=1) * g.dy)
        assert np.all(norm_f <= const * norm_fy * (1 + 1e-10))


def test_discrete_poincare_equality_first_mode():
    g = make_grid(5, 24, 0.5, 16, 1.0)
    f = field_from_function(g, lambda z, y: np.exp(-(z**2)) * np.sin(2 * np.pi * y / g.lam))
    fy = ddy(f)
    const = g.lam / (2 * np.pi)
    norm_f = np.sqrt((f.values**2).sum(axis=1) * g.dy)
    norm_fy = np.sqrt((fy.values**2).sum(axis=1) * g.dy)
    ratio = norm_f / (const * norm_fy)
    assert np.max(np.abs(ratio - 1.0)) < 1e-10


@pytest.mark.parametrize("n_y", [4, 6, 8, 16, 64, 128])
def test_y_transforms_match_numpy_fft(n_y):
    # numpy.fft is the oracle of the DFT-matrix transforms: rows spanning
    # twelve decades, each compared to 1e-14 of its own norm
    g = make_grid(10, 33, 0.5, n_y, 1.0)
    rng = np.random.default_rng(n_y)
    scale = 10.0 ** rng.uniform(-6, 6, (g.n_z, 1))
    v = rng.standard_normal((g.n_z, n_y)) * scale

    vh = y_modes(v)
    rfft = np.fft.rfft(v, norm="forward")
    assert np.all(np.abs(vh - rfft) <= 1e-14 * np.linalg.norm(rfft, axis=1, keepdims=True))
    assert np.all(vh[:, 0].imag == 0.0) and np.all(vh[:, -1].imag == 0.0)

    # imaginary parts in every bin: those of bin 0 and Nyquist are ignored
    modes = vh + 1j * rng.standard_normal(vh.shape) * scale
    values = y_values(modes, g)
    irfft = np.fft.irfft(modes, n=n_y, norm="forward")
    assert np.all(np.abs(values - irfft) <= 1e-14 * np.linalg.norm(irfft, axis=1, keepdims=True))
    real_ends = modes.copy()
    real_ends[:, [0, -1]] = real_ends[:, [0, -1]].real
    assert np.array_equal(y_values(real_ends, g), values)

    out = np.empty_like(vh)
    assert y_modes(v, out=out) is out and np.array_equal(out, vh)
    out = np.empty_like(v)
    assert y_values(modes, g, out=out) is out and np.array_equal(out, values)

    # the fluctuation-only inverse: y_values with column 0 zeroed, input untouched
    kept = modes.copy()
    zeroed = modes.copy()
    zeroed[:, 0] = 0.0
    want = y_values(zeroed, g)
    for got in (y_fluctuation_values(modes, g),
                y_fluctuation_values(modes, g, out=np.empty_like(v))):
        assert np.all(np.abs(got - want) <= 1e-14 * np.linalg.norm(want, axis=1, keepdims=True))
    assert np.array_equal(modes, kept)


@pytest.mark.parametrize("lam", [0.25, 2.0])
@pytest.mark.parametrize("n_y", [4, 8, 16, 64, 128])
def test_y_calculus_matches_numpy_fft(n_y, lam):
    # d/dy and the y-antiderivative go through the DFT-matrix transforms;
    # numpy.fft, in the formulas they replaced, is the oracle:
    # rows spanning e^-5 .. e^5, each compared to 1e-14 of its own norm
    g = make_grid(10, 33, lam, n_y, 1.0)
    rng = np.random.default_rng(n_y)
    v = rng.standard_normal((g.n_z, n_y)) * np.exp(rng.uniform(-5, 5, (g.n_z, 1)))
    vh = np.fft.rfft(v, axis=1)
    k = g.wavenumbers_y
    factors = np.zeros_like(vh)
    factors[:, 1:] = vh[:, 1:] / (1j * k[1:])
    phases = np.exp(1j * np.outer(k, g.y))
    antiderivative = (((factors * g.rfft_multiplicity) @ (phases - 1.0) / n_y).real
                      + vh[:, :1].real / n_y * g.y)
    cases = ((ddy_array(v, g), np.fft.irfft(vh * 1j * g.ddy_wavenumbers, n=n_y, axis=1)),
             (_partial_integral_y(v, g), antiderivative))
    for got, want in cases:
        assert np.all(np.abs(got - want) <= 1e-14 * np.linalg.norm(want, axis=1, keepdims=True))


def test_fields_are_immutable():
    g = make_grid(10, 32, 0.5, 8, 1.0)
    f = zero_field(g)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


def test_field_snapshot_csv_format(tmp_path):
    from stripwave.grid import field_to_csv

    g = make_grid(10, 16, 0.5, 4, 1.0)
    f = field_from_function(g, lambda z, y: z + 10 * y)
    path = tmp_path / "snap.csv"
    field_to_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z,y,value"
    assert len(lines) == 1 + g.n_z * g.n_y
    # row-major over (z_i, y_j): the second record is (z_0, y_1)
    z0, y1, v = (float(x) for x in lines[2].split(","))
    assert z0 == -10.0 and y1 == g.dy
    assert v == pytest.approx(z0 + 10 * y1, rel=1e-15)


def test_field_rejects_a_shape_off_its_grid():
    g = make_grid(10, 32, 0.5, 8, 1.0)
    with pytest.raises(GridError, match=r"field shape \(8, 32\) does not match grid \(32, 8\)"):
        ScalarField(g, np.zeros((8, 32)))


def test_vector_field_components_share_one_grid():
    g, h = make_grid(10, 32, 0.5, 8, 1.0), make_grid(10, 32, 0.25, 8, 1.0)
    with pytest.raises(GridError, match="vector field components live on different grids"):
        VectorField(zero_field(g), zero_field(h))


def test_y_transforms_read_modes_with_a_strided_last_axis():
    g = make_grid(10, 32, 0.5, 8, 1.0)
    modes = y_modes(np.random.default_rng(4).standard_normal((g.n_z, g.n_y)))
    strided = np.asfortranarray(modes)
    assert strided.strides[-1] != strided.itemsize
    assert np.array_equal(y_values(strided, g), y_values(modes, g))
    assert np.array_equal(y_fluctuation_values(strided, g), y_fluctuation_values(modes, g))
