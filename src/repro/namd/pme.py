"""Smooth Particle Mesh Ewald (reciprocal space) — real math (§IV-B2).

Implements the Essmann et al. smooth PME used by NAMD for long-range
electrostatics in an orthorhombic periodic box:

1. spread point charges onto a regular grid with cardinal B-splines;
2. 3D FFT of the charge grid;
3. multiply by the Ewald Green's function (with B-spline Euler factors);
4. energy from the reciprocal sum; inverse FFT gives the potential
   grid;
5. interpolate per-atom forces with B-spline derivatives.

Units are Gaussian electrostatic (charges in e, lengths in Angstrom,
energies in e^2/A; multiply by 332.0636 for kcal/mol).  The test suite
validates the implementation against a direct Ewald reciprocal sum and
against numerical gradients.

The distributed version of steps 2-4 runs over the Charm++ runtime via
the pencil FFT (see :mod:`repro.namd.charm_app`); this module holds the
kernels both versions share.

Steps 1 and 5 are whole-array passes over all ``order**3`` support
points of all particles at once.  They are bit-identical to looping
over the support offsets ``(j, k, l)`` with one scatter-add (step 1) or
one in-place subtraction (step 5) per offset, because they keep that
loop's operation order: each term is multiplied in the same order, and
each grid cell or force component takes its addends one at a time, in
``(j, k, l)`` order, from 0.0 (``np.bincount`` in step 1, a sequential
``np.subtract.reduce`` in step 5 — never a pairwise ``np.sum``).  The
simulation's recorded checksums depend on those bits;
``tests/namd/test_kernel_exact.py`` checks them against a copy of the
loop kernels.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy.special import erfc

__all__ = [
    "bspline_weights",
    "spread_charges",
    "greens_function",
    "pme_reciprocal",
    "interpolate_forces",
    "direct_ewald_reciprocal",
    "ewald_self_energy",
    "ewald_real_space",
]


def bspline_weights(frac: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cardinal B-spline values and derivatives for charge spreading.

    ``frac`` — fractional offsets in [0, 1) of each particle from its
    base grid point, of any shape (``(n,)`` for one dimension,
    ``(n, 3)`` for all three at once).  Returns ``(w, dw)`` of shape
    ``frac.shape + (order,)``: the spline weight and its derivative at
    each of the ``order`` grid points the particle touches (offsets
    0..order-1 *below* the particle: grid point
    ``floor(u) - order + 1 + j``).  Every value is an elementwise
    function of its own ``frac`` entry, so the shape of the call does
    not change the bits.
    """
    if order < 2:
        raise ValueError("B-spline order must be >= 2")
    frac = np.asarray(frac, dtype=np.float64)
    shape = frac.shape + (order,)
    # M_2 on the two nearest points.
    w = np.zeros(shape)
    w[..., 0] = 1.0 - frac
    w[..., 1] = frac
    prev = w
    for k in range(3, order + 1):
        # Recursion M_k(u) = u/(k-1) M_{k-1}(u) + (k-u)/(k-1) M_{k-1}(u-1)
        # at all k offsets at once: offset j has u = frac + (k-1-j),
        # left neighbour M_{k-1}[j-1] (0 at j = 0) and right neighbour
        # M_{k-1}[j] (0 at j = k-1, where M_{k-1} is still zero).
        prev = w
        u = frac[..., None] + np.arange(k - 1, -1, -1)
        left = np.zeros(u.shape)
        left[..., 1:] = prev[..., : k - 1]
        w = np.zeros(shape)
        w[..., :k] = (u * left + (k - u) * prev[..., :k]) / (k - 1)
    # Derivative: M_n'(u) = M_{n-1}(u) - M_{n-1}(u-1), mapped to offsets
    # (``prev`` is M_{n-1}; M_2 itself stands in when n is 2).
    m = np.zeros(frac.shape + (order + 1,))
    m[..., 1:order] = prev[..., : order - 1]
    dw = m[..., :order] - m[..., 1:]
    # Note: offsets run from low to high grid index; with the recursion
    # above, w[..., j] multiplies grid point floor(u) - (order - 1) + j.
    return w, dw


def _support(
    positions: np.ndarray,
    box: np.ndarray,
    K: Tuple[int, int, int],
    order: int,
    window: Optional[Tuple[Tuple[int, int], Tuple[int, int]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Tuple[int, int, int]]:
    """Spline weights and flat grid indices of every particle's support.

    Returns ``(w, dw, flat, shape)``: ``w``/``dw`` of shape
    ``(3, order, n)`` (dimension, grid offset, particle), ``flat`` of
    shape ``(order, order, order, n)`` indexing the raveled target grid
    of ``shape`` — the full grid ``K`` (periodic wrap in every
    dimension), or with ``window=((x0, x1), (y0, y1))`` the dense local
    slab ``(x1-x0, y1-y0, K[2])`` in unwrapped x/y, which must cover the
    support of every particle.
    """
    u = positions / box * np.asarray(K)  # scaled fractional coords in [0, K)
    base = np.floor(u).astype(np.int64)
    w, dw = bspline_weights(u - base, order)
    w = w.transpose(1, 2, 0)
    dw = dw.transpose(1, 2, 0)
    # idx[d, j, a]: grid index along d of particle a's j-th support point.
    idx = (base - (order - 1)).T[:, None, :] + np.arange(order)[None, :, None]
    Kx, Ky, Kz = K
    if window is None:
        ix, iy = idx[0] % Kx, idx[1] % Ky
        nx, ny = Kx, Ky
    else:
        (x0, x1), (y0, y1) = window
        nx, ny = x1 - x0, y1 - y0
        ix, iy = idx[0] - x0, idx[1] - y0
        if ix.size and (ix.min() < 0 or ix.max() >= nx):
            raise ValueError("window does not cover x spline support")
        if iy.size and (iy.min() < 0 or iy.max() >= ny):
            raise ValueError("window does not cover y spline support")
    iz = idx[2] % Kz
    flat = (ix[:, None, None, :] * ny + iy[None, :, None, :]) * Kz + iz[None, None, :, :]
    return w, dw, flat, (nx, ny, Kz)


def spread_charges(
    positions: np.ndarray,
    charges: np.ndarray,
    K: Tuple[int, int, int],
    box: np.ndarray,
    order: int = 4,
    window: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None,
) -> np.ndarray:
    """Spread charges onto the grid (periodic wrap).

    With ``window=((x0, x1), (y0, y1))`` (unwrapped grid coordinates),
    spreading targets a dense local array of shape
    ``(x1-x0, y1-y0, K[2])`` instead of the full grid — the shape a
    patch sends to the PME pencils.  The window must cover the spline
    support of every particle in x and y.

    Exactness: the addend for support point ``(j, k, l)`` of particle
    ``a`` is ``((q[a] * wx[j]) * wy[k]) * wz[l]``, and one
    ``np.bincount`` adds them into each cell in ``(j, k, l, a)`` order,
    one at a time from 0.0.  The grid is therefore bit-identical to one
    sequential scatter-add per support offset.
    """
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    (wx, wy, wz), _, flat, shape = _support(positions, box, K, order, window)
    wxy = (charges * wx)[:, None, :] * wy[None, :, :]
    addends = wxy[:, :, None, :] * wz[None, None, :, :]
    grid = np.bincount(
        flat.ravel(), weights=addends.ravel(), minlength=shape[0] * shape[1] * shape[2]
    )
    return grid.reshape(shape)


def _bspline_euler_factor(K: int, order: int) -> np.ndarray:
    """|b(m)|^2 for one dimension (Essmann eq. 4.4)."""
    m = np.arange(K)
    mn = _bspline_at_integers(order)  # M_n(1..n-1)
    phase = np.exp(2j * np.pi * np.outer(m, np.arange(order - 1)) / K)
    denom = phase @ mn
    mag2 = np.abs(denom) ** 2
    # Avoid division blowups where the denominator vanishes (odd orders
    # at the Nyquist frequency); those modes get zero weight.
    out = np.zeros(K)
    ok = mag2 > 1e-12
    out[ok] = 1.0 / mag2[ok]
    return out


def _bspline_at_integers(order: int) -> np.ndarray:
    """M_order evaluated at integer points 1..order-1."""
    # M_2(x) = 1 - |x-1| on [0,2]
    vals = {1: 1.0}  # M_2(1) = 1
    cur = {1: 1.0}
    for n in range(3, order + 1):
        nxt = {}
        for x in range(1, n):
            a = cur.get(x, 0.0)  # M_{n-1}(x)
            b = cur.get(x - 1, 0.0)  # M_{n-1}(x-1)
            nxt[x] = (x * a + (n - x) * b) / (n - 1)
        cur = nxt
    return np.array([cur.get(x, 0.0) for x in range(1, order)])


def greens_function(
    K: Tuple[int, int, int], box: np.ndarray, beta: float, order: int = 4
) -> np.ndarray:
    """The PME reciprocal-space kernel C(m) (zero at m = 0).

    ``E = 1/2 * sum_m C(m) |FFT(Q)(m)|^2`` and the potential grid is
    ``phi = Ntot * IFFT(C * FFT(Q))``.
    """
    box = np.asarray(box, dtype=np.float64)
    V = float(np.prod(box))
    mx = np.fft.fftfreq(K[0]) * K[0] / box[0]
    my = np.fft.fftfreq(K[1]) * K[1] / box[1]
    mz = np.fft.fftfreq(K[2]) * K[2] / box[2]
    m2 = (
        mx[:, None, None] ** 2 + my[None, :, None] ** 2 + mz[None, None, :] ** 2
    )
    bx = _bspline_euler_factor(K[0], order)
    by = _bspline_euler_factor(K[1], order)
    bz = _bspline_euler_factor(K[2], order)
    b2 = bx[:, None, None] * by[None, :, None] * bz[None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        C = np.exp(-(np.pi**2) * m2 / beta**2) / m2
    C[0, 0, 0] = 0.0
    return C * b2 / (np.pi * V)


def pme_reciprocal(
    positions: np.ndarray,
    charges: np.ndarray,
    box: np.ndarray,
    K: Tuple[int, int, int],
    beta: float,
    order: int = 4,
) -> Tuple[float, np.ndarray]:
    """Full single-node reciprocal PME: returns (energy, forces)."""
    Q = spread_charges(positions, charges, K, box, order)
    C = greens_function(K, box, beta, order)
    F = np.fft.fftn(Q)
    energy = 0.5 * float(np.sum(C * np.abs(F) ** 2))
    Ntot = int(np.prod(K))
    phi = np.real(np.fft.ifftn(C * F)) * Ntot
    forces = interpolate_forces(positions, charges, phi, box, K, order)
    return energy, forces


def interpolate_forces(
    positions: np.ndarray,
    charges: np.ndarray,
    phi: np.ndarray,
    box: np.ndarray,
    K: Tuple[int, int, int],
    order: int = 4,
    window: Optional[Tuple[Tuple[int, int], Tuple[int, int]]] = None,
) -> np.ndarray:
    """Forces from the potential grid via B-spline derivative weights.

    ``phi`` is the full grid, or — with ``window`` — the dense local
    slab ``(x1-x0, y1-y0, K[2])`` in unwrapped coordinates (the shape a
    patch receives back from the PME pencils); the window must cover
    the spline support of every particle in x and y.

    Exactness: the x-force term of support point ``(j, k, l)`` is
    ``charges * dwx[j] * wy[k] * wz[l] * p * sx`` multiplied left to
    right (y and z alike, with the derivative in their own factor), and
    one sequential ``np.subtract.reduce`` from 0.0 subtracts the
    ``order**3`` terms in ``(j, k, l)`` order — the bits of one in-place
    ``forces -= term`` update per support offset.
    """
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    phi = np.asarray(phi)
    w, dw, flat, shape = _support(positions, box, K, order, window)
    if phi.shape != shape:
        raise ValueError(f"phi has shape {phi.shape}, expected {shape}")
    # f[c, d]: the weights of dimension d in force component c (the
    # derivative where d == c), shape (order, n).
    f = np.where(np.eye(3, dtype=bool)[:, :, None, None], dw, w)
    terms = (charges * f[:, 0])[:, :, None, None] * f[:, 1, None, :, None]
    terms = terms * f[:, 2, None, None, :]
    terms = terms * np.take(phi, flat) * (np.asarray(K) / box)[:, None, None, None, None]
    terms = terms.reshape(3, order**3, len(charges))
    return np.subtract.reduce(terms, axis=1, initial=0.0).T.copy()


# ---------- references for validation -----------------------------------------

def direct_ewald_reciprocal(
    positions: np.ndarray,
    charges: np.ndarray,
    box: np.ndarray,
    beta: float,
    mmax: int = 8,
) -> Tuple[float, np.ndarray]:
    """Direct (exact) Ewald reciprocal sum — O(N * mmax^3) reference."""
    positions = np.asarray(positions, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    V = float(np.prod(box))
    n = positions.shape[0]
    energy = 0.0
    forces = np.zeros((n, 3))
    for m1 in range(-mmax, mmax + 1):
        for m2 in range(-mmax, mmax + 1):
            for m3 in range(-mmax, mmax + 1):
                if m1 == 0 and m2 == 0 and m3 == 0:
                    continue
                m = np.array([m1 / box[0], m2 / box[1], m3 / box[2]])
                msq = float(m @ m)
                factor = math.exp(-(math.pi**2) * msq / beta**2) / msq
                phase = 2 * np.pi * positions @ m
                S = np.sum(charges * np.exp(1j * phase))
                energy += factor * abs(S) ** 2
                coef = (1.0 / (np.pi * V)) * factor
                # F_i = -dE/dr_i = (2/V) f(m) q_i m Im[conj(S) e^{i phase_i}]
                forces += (
                    coef
                    * charges[:, None]
                    * np.imag(np.conj(S) * np.exp(1j * phase))[:, None]
                    * (2 * np.pi * m)[None, :]
                )
    energy *= 1.0 / (2 * np.pi * V)
    return energy, forces


def ewald_self_energy(charges: np.ndarray, beta: float) -> float:
    """Self-interaction correction: -beta/sqrt(pi) * sum q^2."""
    return -beta / math.sqrt(math.pi) * float(np.sum(np.asarray(charges) ** 2))


def ewald_real_space(
    positions: np.ndarray,
    charges: np.ndarray,
    box: np.ndarray,
    beta: float,
    cutoff: float,
) -> Tuple[float, np.ndarray]:
    """Real-space Ewald (erfc-screened Coulomb) with minimum image.

    O(N^2) vectorized pair sum — reference/sequential path; the cell
    list in :mod:`repro.namd.patches` bounds the cost for larger N.
    """
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    box = np.asarray(box, dtype=np.float64)
    n = positions.shape[0]
    delta = positions[:, None, :] - positions[None, :, :]
    delta -= np.round(delta / box) * box
    r2 = np.sum(delta**2, axis=-1)
    np.fill_diagonal(r2, np.inf)
    mask = r2 < cutoff**2
    r = np.sqrt(np.where(mask, r2, 1.0))
    qq = charges[:, None] * charges[None, :]
    e_pair = np.where(mask, qq * erfc(beta * r) / r, 0.0)
    energy = 0.5 * float(np.sum(e_pair))
    # dE/dr for the screened Coulomb pair term.
    dedr = np.where(
        mask,
        -qq
        * (
            erfc(beta * r) / r2
            + 2 * beta / math.sqrt(math.pi) * np.exp(-(beta**2) * r2) / r
        ),
        0.0,
    )
    fmag = -dedr / r  # force magnitude along delta
    forces = np.sum(np.where(mask[..., None], fmag[..., None] * delta, 0.0), axis=1)
    return energy, forces
