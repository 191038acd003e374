"""Short-range force kernels: LJ + screened Coulomb + bonds (§IV-B1).

The *QPX* path is the vectorized numpy kernel (standing in for the XL
compiler-intrinsic QPX SIMD inner loop the paper tuned); the *scalar*
path produces identical numbers but is charged at the scalar cost in
the simulated-cost model.  The paper measured +15.8% serial speedup
from the QPX/L1P work; the cost model in :mod:`repro.perfmodel` carries
that ratio.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
from scipy.special import erfc

__all__ = [
    "pair_forces",
    "bonded_forces",
    "angle_forces",
    "exclusion_corrections",
    "nonbonded_instructions",
    "PAIR_FLOPS",
    "QPX_SPEEDUP",
]

#: Floating-point work per non-bonded pair inside cutoff (distance,
#: erfc interpolation-table lookup, LJ, accumulation) [calibrated to
#: NAMD kernels].
PAIR_FLOPS = 45.0
#: Measured serial gain of the QPX + load-to-use-distance tuning
#: [paper §IV-B1: "improved the serial performance ... by about 15.8%"].
QPX_SPEEDUP = 1.158

#: LJ parameters of the synthetic atom type, scaled to the synthetic
#: lattice spacing (~2.15 A at ApoA1 density) so the initial
#: configuration starts near the LJ minimum (model units).
LJ_EPSILON = 0.02
LJ_SIGMA = 1.8


def pair_forces(
    pos_i: np.ndarray,
    pos_j: np.ndarray,
    q_i: np.ndarray,
    q_j: np.ndarray,
    box: np.ndarray,
    cutoff: float,
    beta: float,
    same_block: bool = False,
) -> Tuple[float, np.ndarray, np.ndarray, int]:
    """Non-bonded interactions between two atom blocks.

    Returns ``(energy, forces_on_i, forces_on_j, n_pairs)`` with
    minimum-image periodic distances, an erfc-screened Coulomb term
    (the Ewald real-space part) and Lennard-Jones.  With
    ``same_block=True`` the blocks are the same array and each pair is
    counted once.

    Exactness: the results are bit-identical to the dense formulation
    (every pair term over the whole (n, m, 3) block, masked with
    ``np.where``, reduced with ``np.sum``) that the simulation's
    checksums were recorded with:

    * the pair terms are the same expressions in the same operation
      order, evaluated only on the pairs inside the cutoff; numpy's
      elementwise results do not depend on the other elements of a call;
    * ``r2`` adds the squared components as ``(x^2 + z^2) + y^2``, the
      order ``einsum("ijk,ijk->ij")`` takes over a 3-vector;
    * the energy is ``np.sum`` over the dense (n, m) array, zero outside
      the cutoff: numpy sums a contiguous array pairwise in blocks, and
      the zeros fix where the block boundaries fall, so they stay;
    * the per-atom force sums reduce an outer axis, which numpy does
      one addend at a time from +0.0.  A sum that starts at +0.0 can
      never become -0.0, so adding the +0.0 entries outside the cutoff
      changes nothing, and ``np.bincount`` over the pairs in (i, j)
      order gives the same bits without the dense array.

    ``tests/namd/test_kernel_exact.py`` checks all of this against a
    copy of the dense kernel.
    """
    pos_i = np.asarray(pos_i)
    pos_j = np.asarray(pos_j)
    n, m = len(pos_i), len(pos_j)
    # Component-major (3, n, m) separations: the same per-element
    # arithmetic as the (n, m, 3) layout, with long inner loops.
    xi = np.ascontiguousarray(pos_i.T)
    xj = np.ascontiguousarray(pos_j.T)
    delta = xi[:, :, None] - xj[:, None, :]
    period = np.asarray(box)[:, None, None]
    delta -= np.round(delta / period) * period
    sq = delta * delta
    r2 = (sq[0] + sq[2]) + sq[1]
    mask = r2 < cutoff**2
    if same_block:
        mask &= np.arange(n)[:, None] < np.arange(m)
    flat = np.flatnonzero(mask)
    n_pairs = len(flat)
    if n_pairs == 0:
        return 0.0, np.zeros_like(pos_i), np.zeros_like(pos_j), 0
    # Pair terms, only for the pairs inside the cutoff, in (i, j) order.
    ii = flat // m
    jj = flat - ii * m
    r2 = r2.ravel()[flat]
    r = np.sqrt(r2)
    qq = q_i[ii] * q_j[jj]
    # Screened Coulomb (real-space Ewald term).
    erfc_br = erfc(beta * r)
    e_coul = qq * erfc_br / r
    dedr_coul = -qq * (
        erfc_br / r2
        + 2 * beta / math.sqrt(math.pi) * np.exp(-(beta**2) * r2) / r
    )
    # Lennard-Jones.
    s6 = (LJ_SIGMA**2 / r2) ** 3
    e_lj = 4 * LJ_EPSILON * (s6**2 - s6)
    dedr_lj = 4 * LJ_EPSILON * (-12 * s6**2 + 6 * s6) / r
    e_pair = np.zeros(n * m)
    e_pair[flat] = e_coul + e_lj
    energy = float(np.sum(e_pair))
    fmag = -(dedr_coul + dedr_lj) / r
    fvec = fmag * np.take(delta.reshape(3, -1), flat, axis=1)
    f_i = np.empty((n, 3))
    f_j = np.empty((m, 3))
    for k in range(3):
        f_i[:, k] = np.bincount(ii, fvec[k], n)
        f_j[:, k] = np.bincount(jj, fvec[k], m)
    f_j = -f_j
    if same_block:
        # Upper-triangle masking puts the action on the row atom and the
        # reaction on the column atom of the same array: combine.
        f_i = f_i + f_j
        f_j = f_i
    return energy, f_i, f_j, n_pairs


def bonded_forces(
    positions: np.ndarray,
    bonds: List[Tuple[int, int, float, float]],
    box: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Harmonic bond energy/forces: E = k (r - r0)^2 (vectorized)."""
    forces = np.zeros_like(positions)
    if not bonds:
        return 0.0, forces
    arr = np.asarray([(i, j, r0, k) for (i, j, r0, k) in bonds])
    i = arr[:, 0].astype(int)
    j = arr[:, 1].astype(int)
    r0 = arr[:, 2]
    k = arr[:, 3]
    d = positions[i] - positions[j]
    d -= np.round(d / box) * box
    r = np.linalg.norm(d, axis=1)
    energy = float(np.sum(k * (r - r0) ** 2))
    fmag = -2 * k * (r - r0) / np.where(r > 0, r, 1.0)
    fvec = fmag[:, None] * d
    np.add.at(forces, i, fvec)
    np.add.at(forces, j, -fvec)
    return energy, forces


def angle_forces(
    positions: np.ndarray,
    angles: List[Tuple[int, int, int, float, float]],
    box: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Harmonic angle energy/forces: E = k (theta - theta0)^2.

    ``angles`` — (i, j, k, theta0, kang) with j the vertex atom.
    Vectorized over all angles with minimum-image bond vectors.
    """
    forces = np.zeros_like(positions)
    if not angles:
        return 0.0, forces
    arr = np.asarray(angles, dtype=np.float64)
    ai = arr[:, 0].astype(int)
    aj = arr[:, 1].astype(int)
    ak = arr[:, 2].astype(int)
    theta0 = arr[:, 3]
    kang = arr[:, 4]
    rij = positions[ai] - positions[aj]
    rkj = positions[ak] - positions[aj]
    rij -= np.round(rij / box) * box
    rkj -= np.round(rkj / box) * box
    nij = np.linalg.norm(rij, axis=1)
    nkj = np.linalg.norm(rkj, axis=1)
    cos_t = np.einsum("ij,ij->i", rij, rkj) / (nij * nkj)
    cos_t = np.clip(cos_t, -1.0, 1.0)
    theta = np.arccos(cos_t)
    energy = float(np.sum(kang * (theta - theta0) ** 2))
    # dE/dtheta, with the standard angle-gradient geometry.
    dedt = 2 * kang * (theta - theta0)
    sin_t = np.sqrt(np.maximum(1.0 - cos_t**2, 1e-12))
    # Unit vectors perpendicular to each arm, in the angle plane.
    fi = (rij * (cos_t / nij)[:, None] - rkj / nkj[:, None]) / (nij * sin_t)[:, None]
    fk = (rkj * (cos_t / nkj)[:, None] - rij / nij[:, None]) / (nkj * sin_t)[:, None]
    fi *= dedt[:, None]
    fk *= dedt[:, None]
    np.add.at(forces, ai, -fi)
    np.add.at(forces, ak, -fk)
    np.add.at(forces, aj, fi + fk)
    return energy, forces


def exclusion_corrections(
    positions: np.ndarray,
    pairs: List[Tuple[int, int]],
    charges: np.ndarray,
    box: np.ndarray,
    beta: float,
) -> Tuple[float, np.ndarray]:
    """Remove non-bonded interactions between excluded (bonded) pairs.

    Bonded (1-2) pairs must not interact through LJ or Coulomb.  With
    Ewald electrostatics the exclusion has two parts: subtract the
    real-space screened term ``qq erfc(beta r)/r`` *and* cancel the
    reciprocal-space contribution ``qq erf(beta r)/r`` that PME
    unavoidably includes for every pair — together the full ``qq/r``
    plus LJ.  Returns (energy_correction, force_correction) to *add* to
    the totals.
    """
    forces = np.zeros_like(positions)
    if not pairs:
        return 0.0, forces
    arr = np.asarray(pairs, dtype=np.int64)
    i, j = arr[:, 0], arr[:, 1]
    d = positions[i] - positions[j]
    d -= np.round(d / box) * box
    r2 = np.einsum("ij,ij->i", d, d)
    r = np.sqrt(r2)
    qq = charges[i] * charges[j]
    # Full Coulomb (erfc + erf parts reassemble 1/r).
    e_coul = qq / r
    dedr_coul = -qq / r2
    s6 = (LJ_SIGMA**2 / r2) ** 3
    e_lj = 4 * LJ_EPSILON * (s6**2 - s6)
    dedr_lj = 4 * LJ_EPSILON * (-12 * s6**2 + 6 * s6) / r
    energy = -float(np.sum(e_coul + e_lj))
    fmag = (dedr_coul + dedr_lj) / r  # minus the pair force
    fvec = fmag[:, None] * d
    np.add.at(forces, i, fvec)
    np.add.at(forces, j, -fvec)
    return energy, forces


def nonbonded_instructions(n_pairs: int, qpx: bool = True) -> float:
    """Simulated instruction count for a non-bonded kernel invocation.

    The QPX path retires PAIR_FLOPS/pair on the 4-wide unit with the
    additional 15.8% from the L1P load-to-use-distance tuning; the
    scalar path retires one flop per instruction.
    """
    if n_pairs < 0:
        raise ValueError("pair count must be >= 0")
    if qpx:
        return n_pairs * PAIR_FLOPS / (4.0 * QPX_SPEEDUP)
    return n_pairs * PAIR_FLOPS


def nonbonded_instructions_tuned(n_pairs: int, tuned: bool = True) -> float:
    """QPX instruction count with / without the L1P tuning (+15.8%)."""
    base = n_pairs * PAIR_FLOPS / 4.0
    return base / QPX_SPEEDUP if tuned else base
