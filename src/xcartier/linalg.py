"""Exact dense linear algebra over F_p (nullspace via reduced row echelon).

The elimination runs on int64 numpy arrays with masked row updates.  All
arithmetic stays exact (entries < p**2 fit comfortably in int64).  The gauge
search is the only caller.
"""

from __future__ import annotations

import numpy as np


def rref_mod_p(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (rref, pivot_columns)."""
    a = np.array(matrix, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def nullspace_mod_p(matrix: np.ndarray, p: int) -> list[np.ndarray]:
    """Deterministic nullspace basis mod p, one vector per free column."""
    a = np.asarray(matrix, dtype=np.int64)
    if a.size == 0:
        cols = a.shape[1] if a.ndim == 2 else 0
        return [np.eye(cols, dtype=np.int64)[i] for i in range(cols)]
    rref, pivots = rref_mod_p(a, p)
    cols = a.shape[1]
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for row, c in enumerate(pivots):
            v[c] = (-rref[row, f]) % p
        basis.append(v)
    return basis

