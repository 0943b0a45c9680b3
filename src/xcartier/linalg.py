"""Exact sparse linear algebra over F_p (nullspace via reduced row echelon).

Rows are `{column: coefficient}` dicts, eliminated in pure Python, so only
nonzero entries are stored and touched.  The reduced row echelon form of a
row space is unique, so the basis does not depend on the order of the rows.
The gauge search is the only caller.
"""

from __future__ import annotations


def _subtract(row: dict[int, int], f: int, other: dict[int, int], p: int) -> None:
    """row -= f * other in place, dropping the entries that become zero."""
    for k, v in other.items():
        x = (row.get(k, 0) - f * v) % p
        if x:
            row[k] = x
        else:
            del row[k]


def nullspace_mod_p(rows: list[dict[int, int]], ncols: int, p: int) -> list[dict[int, int]]:
    """Deterministic nullspace basis mod p, one sparse vector per free column.

    The vector of free column f has 1 at f and minus the reduced row echelon
    entries of column f at the pivot columns; the vectors come in increasing f.
    """
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> row: 1 there, 0 at other pivots
    for given in rows:
        row = {c: v % p for c, v in given.items() if v % p}
        for c in [c for c in row if c in pivots]:  # subtracting one leaves the others
            _subtract(row, row[c], pivots[c], p)
        if not row:
            continue
        c = min(row)  # the leading column, so the rows stay in reduced echelon form
        inv = pow(row[c], p - 2, p)
        row = {k: v * inv % p for k, v in row.items()}
        for other in pivots.values():
            if c in other:
                _subtract(other, other[c], row, p)
        pivots[c] = row
    basis = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for c, row in pivots.items():
        for f, v in row.items():
            if f != c:
                basis[f][c] = -v % p
    return [basis[f] for f in sorted(basis)]
