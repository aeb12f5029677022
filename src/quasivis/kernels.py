"""Float-path lattice-point counting: one pure-numpy kernel that scans the
integer preimage box in chunks.

The kernel is deterministic and order-independent (integer accumulators).
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 18


def _np_int_grid(lo: np.ndarray, hi: np.ndarray):
    """Iterate the integer box [lo, hi] in lexicographic chunks (N x n)."""
    sizes = (hi - lo + 1).astype(np.int64)
    total = int(np.prod(sizes))
    n = len(lo)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        U = np.empty((len(idx), n), dtype=np.int64)
        rem = idx
        for j in range(n - 1, -1, -1):
            U[:, j] = lo[j] + rem % sizes[j]
            rem = rem // sizes[j]
        yield U


def _normalize(basis, lo_u, hi_u, lo_x, hi_x, tol, translation):
    """Coerce the kernel arguments to contiguous float64/int64 arrays."""
    basis = np.ascontiguousarray(basis, dtype=np.float64)
    trans = np.zeros(basis.shape[0]) if translation is None \
        else np.asarray(translation, dtype=np.float64)
    return (basis, trans,
            np.asarray(lo_u, dtype=np.int64), np.asarray(hi_u, dtype=np.int64),
            np.asarray(lo_x, dtype=np.float64),
            np.asarray(hi_x, dtype=np.float64), float(tol))


def _scan_box(basis, trans, lo_u, hi_u, lo_x, hi_x, tol):
    """Yield (U, X, inside, near) per chunk of the integer box: preimages,
    their images basis @ u + t, membership in the tol-widened box and
    closeness to its boundary.  An empty integer box yields nothing."""
    if np.any(hi_u < lo_u):
        return
    for U in _np_int_grid(lo_u, hi_u):
        X = U @ basis.T + trans
        inside = np.all((X >= lo_x - tol) & (X <= hi_x + tol), axis=1)
        near = np.any((np.abs(X - lo_x) <= tol) | (np.abs(X - hi_x) <= tol),
                      axis=1)
        yield U, X, inside, near


def count_lattice_points_in_box(basis, lo_u, hi_u, lo_x, hi_x,
                                tol: float = 1e-9, translation=None,
                                primitive: bool = False):
    """Count integer vectors u in [lo_u, hi_u] with basis @ u + t inside the
    box [lo_x, hi_x]; returns (count, boundary_ambiguous_count).

    With primitive=True only gcd-1 integer vectors are counted (and the
    all-zero vector is excluded).
    """
    count = 0
    boundary = 0
    for U, _, inside, near in _scan_box(*_normalize(
            basis, lo_u, hi_u, lo_x, hi_x, tol, translation)):
        if primitive:
            inside &= np.gcd.reduce(np.abs(U), axis=1) == 1
        count += int(np.count_nonzero(inside))
        boundary += int(np.count_nonzero(inside & near))
    return count, boundary


def collect_lattice_points_in_box(basis, lo_u, hi_u, lo_x, hi_x,
                                  tol: float = 1e-9, translation=None):
    """As count_lattice_points_in_box but materializes (preimages, points,
    boundary flags) in canonical lexicographic preimage order."""
    args = _normalize(basis, lo_u, hi_u, lo_x, hi_x, tol, translation)
    us, xs, bnd = [], [], []
    for U, X, inside, near in _scan_box(*args):
        us.append(U[inside])
        xs.append(X[inside])
        bnd.append(near[inside])
    if not us:
        rows, cols = args[0].shape
        return (np.empty((0, cols), dtype=np.int64), np.empty((0, rows)),
                np.empty(0, dtype=bool))
    return np.concatenate(us), np.concatenate(xs), np.concatenate(bnd)


def integer_preimage_box(basis_inv: np.ndarray,
                         bbox: list[tuple[float, float]],
                         translation=None, pad: int = 1):
    """Integer bounds covering the preimage of a bounding box: map all box
    corners through the inverse basis and pad against float rounding."""
    n = basis_inv.shape[0]
    corners = []
    for mask in range(1 << n):
        c = [bbox[j][1] if mask >> j & 1 else bbox[j][0] for j in range(n)]
        corners.append(c)
    corners = np.array(corners, dtype=np.float64)
    if translation is not None:
        corners = corners - np.asarray(translation, dtype=np.float64)
    pre = corners @ basis_inv.T
    lo = np.floor(pre.min(axis=0)).astype(np.int64) - pad
    hi = np.ceil(pre.max(axis=0)).astype(np.int64) + pad
    return lo, hi


def backend_name() -> str:
    """Name of the counting kernel, recorded in artifact headers."""
    return "numpy"
