import dataclasses
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.linalg import eigh_tridiagonal

from mwlattice import bands
from mwlattice.bands import (BandSolverError, cached_bands, solve_bands,
                             wannier, wannier_overlap)
from mwlattice.franck_condon import fcf_exact


def hermite_basis_levels(depth, n_levels, n_basis=160, span=0.5):
    """Independent oracle: diagonalize W sin^2(x) in a harmonic-oscillator
    basis via finite differences on a dense grid (single well, hard walls
    at +- span * pi are adequate for deep lattices)."""
    n = 4001
    x = np.linspace(-span * math.pi, span * math.pi, n)
    h = x[1] - x[0]
    v = depth * np.sin(x) ** 2
    main = 2.0 / h ** 2 / 4.0 + v        # -d2/dx2 in E_R units: p^2, k_L=1
    # kinetic operator: -(d^2/dx^2), E_R = hbar^2 k_L^2 / 2m -> coefficient 1
    main = 2.0 / h ** 2 + v
    off = np.full(n - 1, -1.0 / h ** 2)
    vals = eigh_tridiagonal(main, off, select="i",
                            select_range=(0, n_levels - 1))[0]
    return vals


def test_band_energies_against_single_well_oracle():
    spec = solve_bands(850.0, n_bands=6, k_points=32)
    oracle = hermite_basis_levels(850.0, 6)
    for n in range(6):
        # tunneling splitting is negligible at 850 E_R for low bands
        # oracle is a second-order finite-difference scheme: ~1e-6 accurate
        assert spec.band_energy(n) == pytest.approx(oracle[n], rel=1e-5)


def test_shallow_lattice_free_particle_limit():
    spec = solve_bands(0.0, n_bands=2, k_points=16)
    for j, k in enumerate(spec.k_grid):
        assert spec.energies[j, 0] == pytest.approx(k ** 2, abs=1e-12)


def test_band_gap_at_850():
    spec = cached_bands(850.0, n_bands=2, k_points=32)
    gap = spec.band_energy(1) - spec.band_energy(0)
    assert gap == pytest.approx(57.29, rel=2e-3)


def test_wannier_real_normalized_parity():
    x = np.linspace(-2 * math.pi, 2 * math.pi, 4001)
    for k_points in (32, 31):           # an odd grid holds k = 0
        spec = solve_bands(850.0, n_bands=4, k_points=k_points)
        for n in range(4):
            vals = wannier(spec, n)(x)
            assert np.abs(np.imag(vals)).max() < 1e-10
            norm = trapezoid(np.abs(vals) ** 2, x)
            assert norm == pytest.approx(1.0, abs=1e-6)
            parity = (-1) ** n
            sym = np.abs(vals - parity * vals[::-1]).max()
            assert sym < 1e-8


def test_wannier_orthonormality_matrix():
    spec = solve_bands(850.0, n_bands=6, k_points=32)
    for a in range(6):
        for b in range(6):
            ov = wannier_overlap(wannier(spec, a), wannier(spec, b))
            assert ov == pytest.approx(1.0 if a == b else 0.0, abs=1e-10)


def test_wannier_neighbor_site_orthogonality():
    spec = solve_bands(850.0, n_bands=2, k_points=32)
    ov = wannier_overlap(wannier(spec, 0, site=0), wannier(spec, 0, site=1))
    assert abs(ov) < 1e-10


def test_ground_state_matches_harmonic_gaussian():
    depth = 850.0
    spec = solve_bands(depth, n_bands=1, k_points=32)
    x0 = (4 * depth) ** (-0.25)          # ground-state width, 1/k_L units
    x = np.linspace(-0.2 * math.pi, 0.2 * math.pi, 801)
    gauss = np.exp(-x ** 2 / (4 * x0 ** 2)) / (2 * math.pi * x0 ** 2) ** 0.25
    w = np.real(wannier(spec, 0)(x))
    assert np.abs(w - gauss).max() < 2e-2 * gauss.max()


def test_cached_bands_identity():
    a = cached_bands(850.0, n_bands=4, k_points=16)
    b = cached_bands(850.0, n_bands=4, k_points=16)
    assert a is b


def test_invalid_arguments():
    with pytest.raises(ValueError):
        solve_bands(-1.0)
    for depth in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            solve_bands(depth, q_cutoff=4)
    with pytest.raises(ValueError):
        solve_bands(10.0, n_bands=100, q_cutoff=4)
    with pytest.raises(ValueError, match="k_points must be >= 1, got 0"):
        solve_bands(850.0, k_points=0)
    with pytest.raises(ValueError, match="n_bands must be >= 1, got 0"):
        solve_bands(850.0, n_bands=0)
    spec = cached_bands(850.0, n_bands=4, k_points=16)
    for band in (-1, 4):
        with pytest.raises(ValueError, match=f"band {band} out of range"):
            wannier(spec, band)


def loop_phase_fixed(vecs):
    """The phase convention band by band, as a reference for the array form."""
    n_q = vecs.shape[1]
    q = np.arange(n_q) - (n_q - 1) // 2
    out = np.empty_like(vecs, dtype=complex)
    for n, v in enumerate(vecs):
        s = np.sum(v) if n % 2 == 0 else np.sum(np.sign(q) * v)
        want = -1.0 if (n // 2) % 2 else 1.0
        sign = want if s >= 0 else -want
        out[n] = (sign * v) if n % 2 == 0 else (-1j * sign * v)
    return out


@pytest.mark.parametrize("depth", [0.0, 3.0, 850.0])
def test_phase_convention_matches_band_loop(depth):
    # the solver diagonalizes |k| and takes k < 0 as the q-reversed vectors
    spec = solve_bands(depth, n_bands=8, k_points=8)
    q = spec.q_values
    for j, k in enumerate(spec.k_grid):
        vecs = eigh_tridiagonal((abs(k) + 2.0 * q) ** 2 + depth / 2.0,
                                np.full(q.size - 1, -depth / 4.0),
                                select="i", select_range=(0, 7))[1].T
        if k < 0:
            vecs = vecs[:, ::-1]
        assert np.array_equal(spec.coefficients[j], loop_phase_fixed(vecs))


@pytest.mark.parametrize("depth, k_points", [(850.0, 16), (850.0, 15),
                                             (3.0, 8), (8000.0, 9)])
def test_mirrored_bands_match_per_k_solve(depth, k_points):
    spec = solve_bands(depth, n_bands=12, k_points=k_points)
    assert np.array_equal(spec.k_grid, -spec.k_grid[::-1])
    q = spec.q_values
    for j, k in enumerate(spec.k_grid):
        vals, vecs = eigh_tridiagonal((k + 2.0 * q) ** 2 + depth / 2.0,
                                      np.full(q.size - 1, -depth / 4.0),
                                      select="i", select_range=(0, 11))
        assert np.abs(spec.coefficients[j]
                      - loop_phase_fixed(vecs.T)).max() < 1e-14
        assert np.abs(spec.energies[j] - vals).max() < 1e-14 * max(
            1.0, np.abs(vals).max())


def test_corrupted_eigenvector_raises_naming_band_and_k(monkeypatch):
    calls = []
    lowest = bands._lapack_lowest

    def corrupting(*args, **kwargs):
        vals, vecs = lowest(*args, **kwargs)
        calls.append(1)
        if len(calls) == 4:             # the fourth k solved, k_4 = +1/8
            vecs[2] = np.roll(vecs[2], 1)
        return vals, vecs

    monkeypatch.setattr(bands, "_lapack_lowest", corrupting)
    k = -1.0 + 7.0 / 8.0                # k_3 of the 8-point grid, its mirror
    with pytest.raises(BandSolverError, match=f"band 2, k={k:.4f}"):
        solve_bands(850.0, n_bands=4, k_points=8)


@pytest.mark.parametrize("k_points, bad_k, named", [
    (8, 0.625, "k=-0.6250"),            # the mirrored copy comes first
    (7, 0.0, "k=0.0000"),               # k = 0 is solved once
])
def test_residual_check_covers_mirrored_k(monkeypatch, k_points, bad_k,
                                          named):
    solve = bands._solve_single_k

    def corrupting(k, *args):
        vals, vecs = solve(k, *args)
        if k == bad_k:
            vecs[1] = np.roll(vecs[1], 1)
        return vals, vecs

    monkeypatch.setattr(bands, "_solve_single_k", corrupting)
    with pytest.raises(BandSolverError, match=f"band 1, {named}"):
        solve_bands(850.0, n_bands=4, k_points=k_points)


def direct_sum_wannier(ws, x):
    """w(x) as the plain sum over every plane wave e^{i (k + 2q)(x - r d)}."""
    spec = ws.spectrum
    kappa = spec.plane_wavevectors().ravel()
    coef = spec.coefficients[:, ws.band, :].ravel()
    xr = np.atleast_1d(np.asarray(x, dtype=float)) - ws.site * math.pi
    w = np.exp(1j * np.multiply.outer(xr, kappa)) @ coef
    return w / (spec.k_grid.size * math.sqrt(math.pi))


@pytest.mark.parametrize("depth", [850.0, 8000.0])
def test_wannier_factored_matches_direct_sum(depth):
    spec = solve_bands(depth, n_bands=4, k_points=16)
    x = np.linspace(-3 * math.pi, 4 * math.pi, 401)
    for n in range(4):
        for site in (0, 1):
            w = wannier(spec, n, site=site)
            assert np.abs(w(x) - direct_sum_wannier(w, x)).max() < 1e-13
            grid = x[:12].reshape(3, 4)
            vals = w(grid)
            assert vals.shape == (3, 4)
            assert np.abs(vals - direct_sum_wannier(w, grid)).max() < 1e-13
            scalar = w(0.37)
            assert np.ndim(scalar) == 0
            assert abs(scalar - direct_sum_wannier(w, 0.37)[0]) < 1e-13


@pytest.mark.parametrize("site", [0, 1])
def test_wannier_deep_lattice_on_projection_grid(site):
    """The deep lattice of the projection-heating checks, 8000 E_R, where
    the powers of e^{2ix} run up to q_cutoff = 187; on projection
    heating's 4001-point grid over +-6 d (the cutoff set explicitly: the
    automatic one of two bands is far smaller)."""
    spec = cached_bands(8000.0, n_bands=2, k_points=16, q_cutoff=187)
    assert spec.q_cutoff == 187
    x = np.linspace(-6 * math.pi, 6 * math.pi, 4001)
    for n in range(2):
        w = wannier(spec, n, site=site)
        ref = np.concatenate([direct_sum_wannier(w, part)     # bounded memory
                              for part in np.array_split(x, 8)])
        assert np.abs(w(x) - ref).max() < 1e-13
    assert w(np.empty(0)).shape == (0,)


@pytest.mark.parametrize("depth", [0.0, 3.0, 850.0, 8000.0])
@pytest.mark.parametrize("k_points", [8, 9, 15, 16])
def test_band_coefficients_are_the_full_array_bit_for_bit(depth, k_points):
    spec = solve_bands(depth, n_bands=12, k_points=k_points)
    full = spec.coefficients
    assert full.shape == (k_points, 12, 2 * spec.q_cutoff + 1)
    assert full.flags["C_CONTIGUOUS"]   # einsum sums in layout order
    for n in range(12):
        band = spec.band_coefficients(n)
        assert band.dtype == full.dtype and band.flags["C_CONTIGUOUS"]
        assert band.tobytes() == full[:, n, :].tobytes()


@pytest.mark.parametrize("depth, n_bands, k_points, q_cutoff", [
    (850.0, 14, 16, 67),                # the fit's bands
    (850.0, 16, 32, None),              # the spectrum's default bands
    (850.0, 4, 15, None),
    (850.0, 1, 16, 0),                  # N = 1, which scipy special-cases
])
def test_spectrum_keeps_the_real_k_ge_0_vectors_only(depth, n_bands,
                                                     k_points, q_cutoff):
    spec = solve_bands(depth, n_bands=n_bands, k_points=k_points,
                       q_cutoff=q_cutoff)
    half = -(-k_points // 2)
    n_q = 2 * spec.q_cutoff + 1
    arrays = [getattr(spec, f.name) for f in dataclasses.fields(spec)]
    stored = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert stored <= (half * n_bands * n_q * 8 + spec.energies.nbytes
                      + spec.k_grid.nbytes)
    assert spec.vectors.shape == (half, n_bands, n_q)
    assert spec.vectors.dtype == np.float64
    for j, k in enumerate(spec.k_grid[k_points // 2:]):
        vals, vecs = bands._solve_single_k(k, depth, n_bands, spec.q_cutoff)
        assert np.array_equal(spec.vectors[j], vecs)
        assert np.array_equal(spec.energies[k_points // 2 + j], vals)
        # the LAPACK calls are those of eigh_tridiagonal, bit for bit
        q = spec.q_values
        ref_vals, ref_vecs = eigh_tridiagonal(
            (k + 2.0 * q) ** 2 + depth / 2.0,
            np.full(q.size - 1, -depth / 4.0),
            select="i", select_range=(0, n_bands - 1))
        assert np.array_equal(vecs, ref_vecs.T)
        assert np.array_equal(vals, ref_vals)


def test_threads_solving_different_depths_give_the_serial_bits():
    # the LAPACK calls release the GIL, so the two threads' solves overlap
    depths = (850.0, 612.5)
    serial = [solve_bands(d, n_bands=14, k_points=16, q_cutoff=67)
              for d in depths]
    start = threading.Barrier(2, timeout=10)

    def solve(depth):
        start.wait()
        return [solve_bands(depth, n_bands=14, k_points=16, q_cutoff=67)
                for _ in range(4)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(solve, depths))
    for ref, runs in zip(serial, threaded):
        for spec in runs:
            assert np.array_equal(spec.vectors, ref.vectors)
            assert np.array_equal(spec.energies, ref.energies)


def test_lapack_failure_raises_instead_of_returning_garbage():
    # dstebz returns info 4 on a NaN diagonal; scipy checked finiteness first
    with pytest.raises(BandSolverError, match="dstebz: info 4, 0 of 2"):
        bands._lapack_lowest(np.array([1.0, math.nan, 2.0]), np.zeros(2), 2)
    with pytest.raises(ValueError, match="n_bands <= N"):
        bands._lapack_lowest(np.ones(3), np.zeros(2), 4)
    with pytest.raises(ValueError, match="off \\(N - 1,\\)"):
        bands._lapack_lowest(np.ones(3), np.zeros(3), 1)


def split_bands(depth, k_points, q_cutoff, n_bands=16):
    """How many of the lowest ``n_bands`` bands are split from both
    neighbours by more than 1e-6 E_R at every k, counting from band 0.

    An odd k grid holds k = 0, where bands 2m - 1 and 2m of a shallow
    lattice meet to within rounding: their eigenvectors are then any
    rotation within the pair, on every cutoff, and their Wannier states
    and Franck-Condon factors are not defined to the bits compared here.
    """
    gaps = np.diff(solve_bands(depth, n_bands=n_bands + 1, k_points=k_points,
                               q_cutoff=q_cutoff).energies, axis=1).min(axis=0)
    above = gaps > 1e-6                       # band n from band n + 1
    split = above & np.concatenate(([True], above[:-1]))
    return n_bands if split.all() else int(np.argmin(split))


@pytest.mark.parametrize("depth", [0.0, 1.0, 100.0, 650.0, 850.0, 8000.0])
@pytest.mark.parametrize("k_points", [15, 16])
def test_automatic_cutoff_matches_the_depth_rule(depth, k_points):
    """The cutoff derived from the bands' tails against the depth-only rule
    max(16, ceil(2 sqrt W) + 8) that preceded it: energies within the two
    solves' bisection tolerances (LAPACK's dstebz stops at ulp times the
    Gershgorin norm, at most (2 q + 1)^2 + W, of each truncated matrix),
    Franck-Condon tables within 1e-14 and Wannier values within 1e-13."""
    q_fixed = max(16, math.ceil(2 * math.sqrt(max(depth, 1.0))) + 8)
    auto = solve_bands(depth, n_bands=16, k_points=k_points)
    fixed = solve_bands(depth, n_bands=16, k_points=k_points,
                        q_cutoff=q_fixed)
    assert auto.q_cutoff < q_fixed
    assert auto.tail < bands.TAIL_TOL
    bound = 2 * np.finfo(float).eps * ((2 * q_fixed + 1) ** 2 + depth)
    assert np.abs(auto.energies - fixed.energies).max() <= bound

    m = split_bands(depth, k_points, q_fixed)
    assert m == 16 or (k_points % 2 and depth <= 100.0)
    auto = solve_bands(depth, n_bands=m, k_points=k_points)
    fixed = solve_bands(depth, n_bands=m, k_points=k_points, q_cutoff=q_fixed)
    shift = 0.137
    assert np.abs(fcf_exact(auto, auto, shift).matrix
                  - fcf_exact(fixed, fixed, shift).matrix).max() <= 1e-14
    x = np.linspace(-3 * math.pi, 3 * math.pi, 601)
    for n in range(m):
        for site in (0, 1):
            assert np.abs(wannier(auto, n, site)(x)
                          - wannier(fixed, n, site)(x)).max() <= 1e-13


def test_default_q_cutoff_estimates_the_requested_bands():
    # one argument, as the benchmark calls it, covers 16 bands
    assert bands.default_q_cutoff(850.0) == bands.default_q_cutoff(850.0, 16)
    assert [bands.default_q_cutoff(850.0, n) for n in (1, 14, 16)] == [27, 34,
                                                                       36]
    assert bands.default_q_cutoff(8000.0, 24) == 62
    assert bands.default_q_cutoff(0.0, 16) == 10
    # the least subnormal depth, whose half is 0, estimates as the free
    # lattice (it divided by that half)
    assert bands.default_q_cutoff(5e-324, 16) == 10
    for depth in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and >= 0"):
            bands.default_q_cutoff(depth)


def test_a_short_estimate_is_grown_until_the_tails_pass(monkeypatch):
    monkeypatch.setattr(bands, "default_q_cutoff", lambda depth, n_bands: 20)
    seen = []
    solve = bands._solve_bands

    def recording(depth, n_bands, k_points, q_cutoff):
        seen.append(q_cutoff)
        return solve(depth, n_bands, k_points, q_cutoff)

    monkeypatch.setattr(bands, "_solve_bands", recording)
    spec = solve_bands(850.0, n_bands=4, k_points=8)
    assert seen == [20, 25, 31]
    assert spec.q_cutoff == 31 and spec.tail < bands.TAIL_TOL
    ref = solve_bands(850.0, n_bands=4, k_points=8, q_cutoff=31)
    assert np.array_equal(spec.vectors, ref.vectors)


def test_a_tail_that_growing_cannot_cure_raises(monkeypatch):
    # a tail that stays at 1: the cutoff grows to twice its estimate, then
    # stops
    monkeypatch.setattr(bands.BlochSpectrum, "tail", property(lambda s: 1.0))
    q0 = bands.default_q_cutoff(850.0, 4)
    with pytest.raises(BandSolverError, match=(
            f"tail 1.00e\\+00 not below TAIL_TOL 1e-16 at q_cutoff {2 * q0}")):
        solve_bands(850.0, n_bands=4, k_points=8)
    with pytest.raises(BandSolverError, match="not below TAIL_TOL"):
        bands.cached_bands_on_one_cutoff((850.0, 640.0), n_bands=4,
                                         k_points=8)


def test_an_explicit_cutoff_skips_the_tail_check():
    spec = solve_bands(850.0, n_bands=4, k_points=8, q_cutoff=16)
    assert spec.q_cutoff == 16 and spec.tail > bands.TAIL_TOL
