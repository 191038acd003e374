"""Bit-exactness of the whole-array NAMD/PME kernels.

``pair_forces``, ``spread_charges``, ``interpolate_forces`` and
``bspline_weights`` compute in a few whole-array passes what the
simulation's recorded checksums were produced with: a dense (n, m, 3)
pair kernel masked with ``np.where`` and reduced with ``np.sum``, and
per-offset loops over the (j, k, l) spline support.  Those kernels are
kept below as the reference (the role ``all_heap_reference`` plays for
the engine in ``tests/sim/test_determinism.py``), and hypothesis checks
that both give the same bits: equal values, equal signs of zero, equal
energy ``repr`` and equal pair counts.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from repro.namd.forces import LJ_EPSILON, LJ_SIGMA, pair_forces
from repro.namd.pme import bspline_weights, interpolate_forces, spread_charges

# ---------- reference kernels ---------------------------------------------------


def ref_pair_forces(pos_i, pos_j, q_i, q_j, box, cutoff, beta, same_block=False):
    delta = pos_i[:, None, :] - pos_j[None, :, :]
    delta -= np.round(delta / box) * box
    r2 = np.einsum("ijk,ijk->ij", delta, delta)
    if same_block:
        iu = np.triu_indices(r2.shape[0], k=1)
        mask = np.zeros_like(r2, dtype=bool)
        mask[iu] = True
        mask &= r2 < cutoff**2
    else:
        mask = r2 < cutoff**2
    n_pairs = int(np.count_nonzero(mask))
    if n_pairs == 0:
        return 0.0, np.zeros_like(pos_i), np.zeros_like(pos_j), 0
    r2s = np.where(mask, r2, 1.0)
    r = np.sqrt(r2s)
    qq = q_i[:, None] * q_j[None, :]
    e_coul = qq * erfc(beta * r) / r
    dedr_coul = -qq * (
        erfc(beta * r) / r2s
        + 2 * beta / math.sqrt(math.pi) * np.exp(-(beta**2) * r2s) / r
    )
    s6 = (LJ_SIGMA**2 / r2s) ** 3
    e_lj = 4 * LJ_EPSILON * (s6**2 - s6)
    dedr_lj = 4 * LJ_EPSILON * (-12 * s6**2 + 6 * s6) / r
    e_pair = np.where(mask, e_coul + e_lj, 0.0)
    dedr = np.where(mask, dedr_coul + dedr_lj, 0.0)
    energy = float(np.sum(e_pair))
    fmag = -dedr / r
    fvec = np.where(mask[..., None], fmag[..., None] * delta, 0.0)
    f_i = np.sum(fvec, axis=1)
    f_j = -np.sum(fvec, axis=0)
    if same_block:
        f_i = f_i + f_j
        f_j = f_i
    return energy, f_i, f_j, n_pairs


def ref_bspline_weights(frac, order):
    n = frac.shape[0]
    w = np.zeros((n, order))
    w[:, 0] = 1.0 - frac
    w[:, 1] = frac
    for k in range(3, order + 1):
        prev = w.copy()
        w[:, :] = 0.0
        for j in range(k):
            u = frac + (k - 1 - j)
            left = prev[:, j - 1] if j >= 1 else 0.0
            right = prev[:, j] if j < k - 1 else 0.0
            w[:, j] = (u * left + (k - u) * right) / (k - 1)
    prev = np.zeros((n, order))
    prev[:, 0] = 1.0 - frac
    prev[:, 1] = frac
    for k in range(3, order):
        nxt = np.zeros((n, order))
        for j in range(k):
            u = frac + (k - 1 - j)
            left = prev[:, j - 1] if j >= 1 else 0.0
            right = prev[:, j] if j < k - 1 else 0.0
            nxt[:, j] = (u * left + (k - u) * right) / (k - 1)
        prev = nxt
    dw = np.zeros((n, order))
    for j in range(order):
        m_here = prev[:, j] if j < order - 1 else 0.0
        m_left = prev[:, j - 1] if j >= 1 else 0.0
        dw[:, j] = m_left - m_here
    return w, dw


def _ref_weights(positions, box, K, order):
    u = positions / box * np.asarray(K)
    base = np.floor(u).astype(np.int64)
    frac = u - base
    return base, [ref_bspline_weights(frac[:, d], order) for d in range(3)]


def ref_spread_charges(positions, charges, K, box, order, window=None):
    Kx, Ky, Kz = K
    base, ((wx, _), (wy, _), (wz, _)) = _ref_weights(positions, box, K, order)
    if window is None:
        grid = np.zeros(K)
        for j in range(order):
            ix = (base[:, 0] - (order - 1) + j) % Kx
            for k in range(order):
                iy = (base[:, 1] - (order - 1) + k) % Ky
                wxy = charges * wx[:, j] * wy[:, k]
                for l in range(order):
                    iz = (base[:, 2] - (order - 1) + l) % Kz
                    np.add.at(grid, (ix, iy, iz), wxy * wz[:, l])
        return grid
    (x0, x1), (y0, y1) = window
    grid = np.zeros((x1 - x0, y1 - y0, Kz))
    for j in range(order):
        ix = base[:, 0] - (order - 1) + j - x0
        for k in range(order):
            iy = base[:, 1] - (order - 1) + k - y0
            wxy = charges * wx[:, j] * wy[:, k]
            for l in range(order):
                iz = (base[:, 2] - (order - 1) + l) % Kz
                np.add.at(grid, (ix, iy, iz), wxy * wz[:, l])
    return grid


def ref_interpolate_forces(positions, charges, phi, box, K, order, window=None):
    Kx, Ky, Kz = K
    base, ((wx, dwx), (wy, dwy), (wz, dwz)) = _ref_weights(positions, box, K, order)
    forces = np.zeros((positions.shape[0], 3))
    sx, sy, sz = Kx / box[0], Ky / box[1], Kz / box[2]
    if window is not None:
        (x0, _x1), (y0, _y1) = window
    for j in range(order):
        for k in range(order):
            for l in range(order):
                if window is None:
                    ix = (base[:, 0] - (order - 1) + j) % Kx
                    iy = (base[:, 1] - (order - 1) + k) % Ky
                else:
                    ix = base[:, 0] - (order - 1) + j - x0
                    iy = base[:, 1] - (order - 1) + k - y0
                iz = (base[:, 2] - (order - 1) + l) % Kz
                p = phi[ix, iy, iz]
                forces[:, 0] -= charges * dwx[:, j] * wy[:, k] * wz[:, l] * p * sx
                forces[:, 1] -= charges * wx[:, j] * dwy[:, k] * wz[:, l] * p * sy
                forces[:, 2] -= charges * wx[:, j] * wy[:, k] * dwz[:, l] * p * sz
    return forces


# ---------- comparison ----------------------------------------------------------


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _box(rng, cubic):
    return np.full(3, 24.0) if cubic else rng.uniform(8.0, 30.0, 3)


def _charges(rng, count):
    """Random charges, about a fifth of them neutral (signed-zero terms)."""
    q = rng.standard_normal(count)
    q[rng.random(count) < 0.2] = 0.0
    return q


def _lattice_positions(rng, count, box):
    """``count`` distinct points of an 8^3 lattice, some in periodic images.

    Lattice points share coordinates (exact zero separations) and sit
    exactly half a box apart (``np.round`` ties).
    """
    cells = rng.choice(512, size=count, replace=False)
    pos = np.stack([cells // 64, cells // 8 % 8, cells % 8], axis=1) * (box / 8)
    return pos + box * rng.integers(-1, 2, size=(count, 3))


# ---------- pair_forces ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 70),
    m=st.integers(0, 70),
    same_block=st.booleans(),
    layout=st.sampled_from(["uniform", "lattice"]),
    reach=st.sampled_from(["empty", "full", "partial"]),
    cubic=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_forces_bit_identical(n, m, same_block, layout, reach, cubic, seed):
    rng = np.random.default_rng(seed)
    box = _box(rng, cubic)
    count = n if same_block else n + m
    if layout == "lattice":
        pos = _lattice_positions(rng, count, box)
    else:
        pos = rng.uniform(-0.5, 1.5, size=(count, 3)) * box
    q = _charges(rng, count)
    if same_block:
        pos_i = pos_j = pos
        q_i = q_j = q
    else:
        pos_i, pos_j, q_i, q_j = pos[:n], pos[n:], q[:n], q[n:]
    # Every minimum-image distance is at most |box| / 2 < |box|.
    cutoff = {
        "empty": 0.0,
        "full": float(np.linalg.norm(box)),
        "partial": float(rng.uniform(0.1, 0.6) * box.min()),
    }[reach]
    beta = float(rng.uniform(0.2, 0.6))
    args = (pos_i, pos_j, q_i, q_j, box, cutoff, beta)
    e, f_i, f_j, pairs = pair_forces(*args, same_block=same_block)
    e_ref, f_i_ref, f_j_ref, pairs_ref = ref_pair_forces(*args, same_block=same_block)
    assert pairs == pairs_ref
    if reach == "empty":
        assert pairs == 0
    if reach == "full":
        assert pairs == (n * (n - 1) // 2 if same_block else n * m)
    assert repr(e) == repr(e_ref)
    assert_same_bits(f_i, f_i_ref)
    assert_same_bits(f_j, f_j_ref)


# ---------- PME -----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    frac=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=30),
    order=st.integers(2, 8),
)
def test_bspline_weights_bit_identical(frac, order):
    frac = np.asarray(frac, dtype=np.float64)
    w_ref, dw_ref = ref_bspline_weights(frac, order)
    w, dw = bspline_weights(frac, order)
    assert_same_bits(w, w_ref)
    assert_same_bits(dw, dw_ref)
    # One call for all three dimensions is the same as one per dimension.
    w3, dw3 = bspline_weights(np.stack([frac, frac[::-1], 1.0 - frac], axis=1), order)
    assert_same_bits(w3[:, 0], w_ref)
    assert_same_bits(dw3[:, 0], dw_ref)


pme_cases = st.fixed_dictionaries(
    {
        "n": st.integers(0, 70),
        "order": st.integers(2, 6),
        "K": st.tuples(st.integers(6, 20), st.integers(6, 20), st.integers(6, 20)),
        "windowed": st.booleans(),
        "margin": st.tuples(st.integers(0, 3), st.integers(0, 3)),
        "cubic": st.booleans(),
        "seed": st.integers(0, 2**32 - 1),
    }
)


def _pme_inputs(case):
    """Positions, charges, box and window for one case.

    Windowed cases use unwrapped coordinates from half a box below the
    origin, so windows start at negative grid offsets.
    """
    rng = np.random.default_rng(case["seed"])
    box = _box(rng, case["cubic"])
    n, order, K = case["n"], case["order"], case["K"]
    if case["windowed"]:
        pos = rng.uniform(-0.5, 0.5, size=(n, 3)) * box
    else:
        pos = rng.uniform(-1.0, 2.0, size=(n, 3)) * box
    q = _charges(rng, n)
    window = None
    if case["windowed"]:
        lo, hi = case["margin"]
        if n:
            base = np.floor(pos / box * np.asarray(K)).astype(np.int64)
            first, last = base.min(axis=0) - (order - 1), base.max(axis=0) + 1
        else:
            first, last = np.array([-3, -2, 0]), np.array([2, 4, 0])
        window = tuple((int(first[d]) - lo, int(last[d]) + hi) for d in range(2))
    return pos, q, box, window


@settings(max_examples=100, deadline=None)
@given(case=pme_cases)
def test_spread_charges_bit_identical(case):
    pos, q, box, window = _pme_inputs(case)
    K, order = case["K"], case["order"]
    got = spread_charges(pos, q, K, box, order, window=window)
    assert_same_bits(got, ref_spread_charges(pos, q, K, box, order, window))


@settings(max_examples=100, deadline=None)
@given(case=pme_cases)
def test_interpolate_forces_bit_identical(case):
    pos, q, box, window = _pme_inputs(case)
    K, order = case["K"], case["order"]
    if window is None:
        shape = K
    else:
        (x0, x1), (y0, y1) = window
        shape = (x1 - x0, y1 - y0, K[2])
    phi = np.random.default_rng(case["seed"] + 1).standard_normal(shape)
    got = interpolate_forces(pos, q, phi, box, K, order, window=window)
    assert_same_bits(got, ref_interpolate_forces(pos, q, phi, box, K, order, window))
