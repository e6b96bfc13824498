"""Plane-wave band structure of the cos^2 lattice and real Wannier states.

The single-well potential W cos^2(k_L x) is solved in the frame centered on a
well, i.e. as W sin^2(k_L x) = W/2 - (W/4)(e^{2i k_L x} + c.c.), which keeps
the constant offset so absolute level positions feed total-depth bookkeeping.
Units: energies in E_R, wavevectors in k_L (so the lattice spacing is d = pi
and reciprocal vectors are 2).

Bloch functions are expanded as psi_{n,k}(x) = sum_q a_{n,q}(k) e^{i(k+2q)x}.
Eigenvector phases are fixed per (n, k) so that the Wannier states

    w_{n,r}(x) = N_k^{-1/2} sum_k e^{-i k r pi} psi_{n,k}(x)

are real with parity (-1)^n about the well center.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np
from scipy.linalg import cython_lapack


class BandSolverError(RuntimeError):
    """Raised when the plane-wave diagonalization fails to converge."""


# Largest eigen-residual ||H v - eps v|| accepted, relative to max(1, |eps|).
RESIDUAL_TOL = 1e-9
# Largest |coefficient| accepted on the outermost two q of either side of
# any eigenvector when the cutoff is chosen automatically.
TAIL_TOL = 1e-16


def default_q_cutoff(depth: float, n_bands: int = 16) -> int:
    """Plane-wave cutoff estimated for the lowest ``n_bands`` bands.

    Band n = n_bands - 1 is placed at eps = sqrt(W) (2n + 1), its harmonic
    level, when that lies below the barrier W, and else at (n + 1)^2 + W,
    above every band-n energy.  Past the turning point (2q)^2 = eps the
    central equation's coefficients fall by e^{-kappa_q} per q step, with
    cosh kappa_q = 1 + 2 ((2q - 1)^2 - eps) / W (2q - 1 is the least
    |k + 2q| on the grid).  The cutoff is one past the first q at which the
    kappa_q add up to ln(1 / TAIL_TOL); a free lattice (W = 0) takes the
    n_bands lowest plane waves and two more on each side.
    """
    if not 0 <= depth < math.inf:
        raise ValueError(f"depth must be finite and >= 0, got {depth}")
    if depth == 0.0:
        return math.ceil(n_bands / 2) + 2
    eps = math.sqrt(depth) * (2 * n_bands - 1)
    if eps > depth:
        eps = n_bands ** 2 + depth
    target, decay, q = -math.log(TAIL_TOL), 0.0, 0
    while decay < target:
        q += 1
        decay += math.acosh(max(1.0, 1.0 + 2.0 * ((2 * q - 1) ** 2 - eps)
                                / depth))
    return q + 1


@dataclass(frozen=True)
class BlochSpectrum:
    """Eigenvectors and band energies of one lattice depth.

    vectors[j, n, i] is band n's real eigenvector on q_i = i - q_cutoff at
    k_grid[N_k // 2 + j] >= 0; energies[j, n] is eps_n(k_j) in E_R, offset
    retained (potential >= 0).  ``coefficients`` derives a_{n, q_i}(k_j).
    """

    depth: float
    n_bands: int
    k_grid: np.ndarray          # (N_k,), units of k_L, symmetric offset grid
    q_cutoff: int
    vectors: np.ndarray         # (ceil(N_k/2), n_bands, 2*q_cutoff+1), real
    energies: np.ndarray        # (N_k, n_bands), E_R

    @property
    def coefficients(self) -> np.ndarray:
        """a_{n, q_i}(k_j) at [j, n, i], (N_k, n_bands, N_q), complex."""
        return self.band_coefficients(slice(None))

    def band_coefficients(self, n: int | slice) -> np.ndarray:
        """``coefficients[:, n, :]``, building only band(s) n."""
        return _fix_phases(_mirrored(self.vectors[:, n], self.k_grid.size),
                           np.arange(self.n_bands)[n])

    @property
    def q_values(self) -> np.ndarray:
        return np.arange(-self.q_cutoff, self.q_cutoff + 1)

    def plane_wavevectors(self) -> np.ndarray:
        """kappa[j, i] = k_j + 2 q_i, units of k_L."""
        return self.k_grid[:, None] + 2.0 * self.q_values[None, :]

    @property
    def tail(self) -> float:
        """Largest |coefficient| on the outermost two q of either side."""
        edges = self.vectors[..., [0, 1, -2, -1]]
        return float(np.abs(edges).max())

    def band_energy(self, n: int) -> float:
        """BZ-averaged energy of band n (the vibrational level eps_n)."""
        return float(self.energies[:, n].mean())

    def compatible_grid(self, other: "BlochSpectrum") -> bool:
        return (self.q_cutoff == other.q_cutoff
                and self.k_grid.shape == other.k_grid.shape
                and np.allclose(self.k_grid, other.k_grid))


@dataclass(frozen=True)
class WannierState:
    """One band's localized state at a lattice site."""

    spectrum: BlochSpectrum
    band: int
    site: int

    def __call__(self, x):
        """Evaluate w_{n,r}(x) at positions x (units of 1/k_L).

        Normalized so that the integral of |w|^2 dx over the line is 1.
        Evaluated in factored form, e^{i kappa x} = e^{i k x} e^{2i q x}:
        w(x) = sum_k e^{i k x} [sum_q a_{k,q} e^{2i q x}].  Both phase
        tables are powers of one exponential per point: e^{2iqx} = z^q with
        z = e^{2ix}, and e^{i k_j x} = v^{2j + 1 - N_k} with v = e^{ix/N_k}
        on the uniform k grid.  Only the non-negative powers are built, by
        repeated doubling; the negative ones are their conjugates (|z| =
        |v| = 1).  That is two exponentials per point instead of N_k + N_q.
        """
        x = np.asarray(x, dtype=float)
        spec = self.spectrum
        coef = spec.band_coefficients(self.band)             # (N_k, N_q)
        n_k, q_max = spec.k_grid.size, spec.q_cutoff
        half = n_k // 2
        pos = coef[:, q_max:].T                              # q = 0, 1, ...
        neg = np.conj(coef[:, :q_max][:, ::-1]).T            # q = -1, -2, ...
        norm = n_k * math.sqrt(math.pi)
        # w(x) = (N_k sqrt(d))^{-1} sum_{k,q} a e^{i kappa (x - r d)}; the
        # e^{-i k r d} site phase is absorbed since e^{i 2 q r pi} = 1.
        xr = x.ravel() - self.site * math.pi
        w = np.empty(xr.shape, dtype=complex)
        chunk = max(1, 2_000_000 // (n_k + 2 * q_max + 1))
        for i in range(0, xr.size, chunk):
            block = xr[i:i + chunk]
            zq = _powers(np.exp(2j * block), q_max + 1)      # q = 0..q_max
            inner = zq @ pos + np.conj(zq[:, 1:] @ neg)      # (x, N_k)
            # e^{i k_j x} = v^{2j + 1 - N_k}: from j = N_k // 2 on, the
            # exponents are 1, 3, 5, ... (even N_k) or 0, 2, 4, ... (odd
            # N_k); below it they are their negatives in mirror order.
            v = np.exp(1j * block / n_k)
            vk = _powers(v * v, n_k - half)
            if n_k % 2 == 0:
                vk *= v[:, None]
            w[i:i + chunk] = (np.einsum("xk,xk->x", vk, inner[:, half:])
                              + np.einsum("xk,xk->x", np.conj(vk[:, n_k % 2:]),
                                          inner[:, :half][:, ::-1]))
        w = w.reshape(x.shape) / norm
        return np.real_if_close(w, tol=1e6)


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """p[:, j] = z**j for j < n, by repeated doubling (log2 n products)."""
    p = np.empty((z.size, n), dtype=complex)
    p[:, 0] = 1.0
    zm, m = z[:, None], 1                    # zm = z**m
    while m < n:
        c = min(m, n - m)
        np.multiply(p[:, :c], zm, out=p[:, m:m + c])
        zm, m = zm * zm, 2 * m
    return p


def _lapack(name: str):
    """scipy's Cython LAPACK routine ``name`` as a ctypes function.

    Every argument is a pointer.  A ctypes call releases the GIL, so
    threads run the routine at once; an f2py wrapper holds it.
    """
    capsule = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    signature = get_name(capsule)           # "void (char *, int *, ...)"
    n_args = signature.count(b",") + 1
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)(
        get_pointer(capsule, signature))


_DSTEBZ, _DSTEIN = _lapack("dstebz"), _lapack("dstein")


def _lapack_lowest(diag: np.ndarray, off: np.ndarray, n_bands: int):
    """Lowest ``n_bands`` eigenpairs of the symmetric tridiagonal matrix
    with ``diag`` and ``off``: (values, vecs[n, i]).

    LAPACK's dstebz (bisection by index, block order) and dstein (inverse
    iteration), with the arguments ``eigh_tridiagonal(select="i")`` passes
    them, then its sort: the same routines of the same library, so the same
    bits.  A nonzero ``info`` or a count other than ``n_bands`` raises
    ``BandSolverError``.
    """
    diag = np.ascontiguousarray(diag, dtype=float)
    off = np.ascontiguousarray(off, dtype=float)
    n = diag.size
    if diag.ndim != 1 or off.shape != (n - 1,) or not 1 <= n_bands <= n:
        raise ValueError(f"need diag (N,), off (N - 1,) and 1 <= n_bands <= "
                         f"N, got {diag.shape}, {off.shape}, {n_bands}")
    # LAPACK gets the addresses of these arrays: each stays bound to a name
    # until the routine returns.
    w, work = np.empty(n), np.empty(5 * n)
    iblock, isplit = np.empty(n, np.intc), np.empty(n, np.intc)
    iwork, ifail = np.empty(3 * n, np.intc), np.empty(n_bands, np.intc)
    vecs = np.empty((n_bands, n))       # column-major (n, n_bands): z
    size, m, nsplit, info = (ctypes.c_int(n), ctypes.c_int(), ctypes.c_int(),
                             ctypes.c_int())
    lo, hi, tol = ctypes.c_double(0.0), ctypes.c_double(1.0), ctypes.c_double()
    first, last = ctypes.c_int(1), ctypes.c_int(n_bands)
    ref = ctypes.byref
    _DSTEBZ(b"I", b"B", ref(size), ref(lo), ref(hi), ref(first), ref(last),
            ref(tol), diag.ctypes.data, off.ctypes.data, ref(m), ref(nsplit),
            w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data,
            work.ctypes.data, iwork.ctypes.data, ref(info))
    if info.value or m.value != n_bands:
        raise BandSolverError(f"dstebz: info {info.value}, {m.value} of "
                              f"{n_bands} eigenvalues")
    _DSTEIN(ref(size), diag.ctypes.data, off.ctypes.data, ref(m),
            w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data,
            vecs.ctypes.data, ref(size), work.ctypes.data, iwork.ctypes.data,
            ifail.ctypes.data, ref(info))
    if info.value:
        raise BandSolverError(f"dstein: info {info.value}")
    vals = w[:n_bands]
    order = np.argsort(vals)
    return vals[order], vecs[order]


def _solve_single_k(k: float, depth: float, n_bands: int, q_cutoff: int):
    q = np.arange(-q_cutoff, q_cutoff + 1)
    return _lapack_lowest((k + 2.0 * q) ** 2 + depth / 2.0,
                          np.full(2 * q_cutoff, -depth / 4.0), n_bands)


def _mirrored(half: np.ndarray, n_k: int) -> np.ndarray:
    """k >= 0 rows on the whole k grid: -k takes the q-reversed rows of k."""
    return np.concatenate((half[n_k % 2:][::-1, ..., ::-1], half))


def _fix_phases(vecs: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The reality/parity phase convention on real vectors of bands ``n``.

    Even bands: sum_q a_q carries the sign (-1)^(n/2); odd bands: coefficients
    are -i times a real vector whose sum_q sign(q) a_q carries the sign
    (-1)^((n-1)/2).  This makes the Wannier functions real with parity (-1)^n
    about the well center and matches the harmonic-oscillator ladder phases
    (even wavefunctions alternate sign at the center every two levels), so
    Franck-Condon signs agree with displacement-operator matrix elements.
    """
    n_q = vecs.shape[-1]
    odd = (n % 2 == 1)[..., None]
    q = np.arange(n_q) - (n_q - 1) // 2
    s = np.sum(np.where(odd, np.sign(q), 1.0) * vecs, axis=-1)
    want = np.where((n // 2) % 2 == 1, -1.0, 1.0)
    sign = np.where(s >= 0, want, -want)[..., None]
    out = np.multiply(sign, vecs, out=np.empty(vecs.shape, complex))
    return np.multiply(-1j * sign, vecs, out=out, where=odd)


def solve_bands(depth: float, n_bands: int = 16, k_points: int = 64,
                q_cutoff: int | None = None) -> BlochSpectrum:
    """Diagonalize the central equation for a lattice of the given depth.

    The k grid k_j = (2j + 1 - N_k) / N_k is exactly antisymmetric and
    excludes the zone boundary, so every k has a -k partner and the
    phase-fixed Wannier states come out real.  Only k >= 0 is diagonalized:
    the central equation at -k is the one at k with q reversed, so -k takes
    the same energies and the q-reversed eigenvectors (an odd N_k solves
    k = 0 once).  Every eigenpair, mirrored ones included, is checked
    against the full tridiagonal operator; a residual above
    ``RESIDUAL_TOL`` (or NaN) raises ``BandSolverError`` naming the band
    and k, the lowest k first.  ``q_cutoff`` None starts from
    ``default_q_cutoff(depth, n_bands)`` and grows it while the spectrum's
    ``tail`` is not below ``TAIL_TOL`` (``_grow_cutoff``).
    """
    if not 0 <= depth < math.inf:
        raise ValueError(f"depth must be finite and >= 0, got {depth}")
    if k_points < 1:
        raise ValueError(f"k_points must be >= 1, got {k_points}")
    if n_bands < 1:
        raise ValueError(f"n_bands must be >= 1, got {n_bands}")
    if q_cutoff is not None:
        return _solve_bands(depth, n_bands, k_points, q_cutoff)
    return _grow_cutoff(
        lambda q: [_solve_bands(depth, n_bands, k_points, q)],
        default_q_cutoff(depth, n_bands))[0]


def _solve_bands(depth: float, n_bands: int, k_points: int,
                 q_cutoff: int) -> BlochSpectrum:
    if n_bands > 2 * q_cutoff + 1:
        raise ValueError("n_bands exceeds plane-wave basis size")
    k_grid = (2.0 * np.arange(k_points) + 1.0 - k_points) / k_points
    solves = [_solve_single_k(k, depth, n_bands, q_cutoff)     # largest first
              for k in k_grid[k_points // 2:][::-1]][::-1]
    vals, vectors = map(np.array, zip(*solves))
    energies = np.concatenate((vals[k_points % 2:][::-1], vals))
    v = _mirrored(vectors, k_points)
    q = np.arange(-q_cutoff, q_cutoff + 1)
    hv = ((k_grid[:, None] + 2.0 * q) ** 2 + depth / 2.0)[:, None] * v
    hv[..., 1:] += -depth / 4.0 * v[..., :-1]
    hv[..., :-1] += -depth / 4.0 * v[..., 1:]
    res = np.linalg.norm(hv - energies[..., None] * v, axis=-1)
    bad = np.argwhere(~(res <= RESIDUAL_TOL * np.maximum(1.0, abs(energies))))
    if bad.size:
        i, n = bad[0]
        raise BandSolverError(f"eigen-residual {res[i, n]:.2e} above "
                              f"tolerance at band {n}, k={k_grid[i]:.4f}")
    return BlochSpectrum(depth=float(depth), n_bands=n_bands, k_grid=k_grid,
                         q_cutoff=q_cutoff, vectors=vectors, energies=energies)


def _grow_cutoff(solve, q_cutoff: int) -> list[BlochSpectrum]:
    """``solve(q)``, a list of spectra on cutoff q, from q = ``q_cutoff`` up
    until every spectrum's ``tail`` is below ``TAIL_TOL``.

    Each retry grows q by a quarter (at least 2), up to twice its start; a
    tail that is still not below ``TAIL_TOL`` there raises
    ``BandSolverError``.
    """
    limit = 2 * q_cutoff
    while True:
        spectra = solve(q_cutoff)
        tail = max(s.tail for s in spectra)
        if tail < TAIL_TOL:
            return spectra
        if q_cutoff >= limit:
            raise BandSolverError(f"plane-wave tail {tail:.2e} not below "
                                  f"TAIL_TOL {TAIL_TOL:g} at q_cutoff "
                                  f"{q_cutoff}")
        q_cutoff = min(limit, q_cutoff + max(2, q_cutoff // 4))


def wannier(spectrum: BlochSpectrum, band: int, site: int = 0) -> WannierState:
    if not 0 <= band < spectrum.n_bands:
        raise ValueError(f"band {band} out of range 0..{spectrum.n_bands - 1}")
    return WannierState(spectrum=spectrum, band=band, site=site)


def wannier_overlap(a: WannierState, b: WannierState) -> float:
    """<a|b> from the plane-wave coefficients (same spectrum grid required)."""
    if not a.spectrum.compatible_grid(b.spectrum):
        raise ValueError("mismatched spectra grids")
    ka = a.spectrum.k_grid
    phase = np.exp(1j * ka * (a.site - b.site) * math.pi)
    inner = np.einsum("ki,ki->k", np.conj(a.spectrum.band_coefficients(a.band)),
                      b.spectrum.band_coefficients(b.band))
    val = np.sum(phase * inner) / ka.size
    return float(np.real(val))


@lru_cache(maxsize=64)
def _cached_bands(depth: float, n_bands: int, k_points: int,
                  q_cutoff: int | None) -> BlochSpectrum:
    return solve_bands(depth, n_bands=n_bands, k_points=k_points,
                       q_cutoff=q_cutoff)


def cached_bands(depth: float, n_bands: int = 16, k_points: int = 64,
                 q_cutoff: int | None = None) -> BlochSpectrum:
    """Memoized solve_bands for sweep workloads (spectra are immutable)."""
    return _cached_bands(round(float(depth), 12), n_bands, k_points, q_cutoff)


def cached_bands_on_one_cutoff(depths, n_bands: int = 16, k_points: int = 64,
                               q_cutoff: int | None = None
                               ) -> list[BlochSpectrum]:
    """``cached_bands`` of every depth on one plane-wave cutoff, as
    ``fcf_exact`` needs.  ``q_cutoff`` None starts all of them from
    ``default_q_cutoff`` of the deepest and grows them together while any
    spectrum's ``tail`` is not below ``TAIL_TOL``."""
    def solve(q):
        return [cached_bands(d, n_bands, k_points, q) for d in depths]
    if q_cutoff is not None:
        return solve(q_cutoff)
    return _grow_cutoff(solve, default_q_cutoff(max(depths), n_bands))
