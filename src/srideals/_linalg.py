"""Exact rank of sparse integer matrices given by their columns.

A matrix is a list of columns, each a mapping ``{row: entry}`` of its
nonzero entries; a boundary matrix has at most |face| entries per column,
all of them +-1.  :func:`rank` reduces each column against the pivot
columns stored so far, keyed by their lowest nonzero row (the largest row
index), and the rank is the number of columns left nonzero.  Over GF(2) a
column is packed into an int bitset and reduced by XOR.  Over the
rationals and odd GF(p) a column is a dict reduced by
``col <- a*col - c*pivot``, with a the pivot's entry in that row: a pivot
with a = +-1 (over GF(p) every pivot, once scaled by the inverse of a)
makes this an in-place integer update; any other pivot over the rationals
multiplies the column by a and then divides out the gcd of its entries.
All arithmetic is on integers, so no floating point ever enters the
homology engine.

The rows where the pivot columns end are the pivot rows.  A caller that
passes a set as ``pivots`` receives them: each is the last row of a
combination of the columns, which is what the homology engine's clearing
needs (``homological._reduced_ranks``).
"""

from __future__ import annotations

from math import gcd


def rank(columns: list, p: int = 0, pivots: set | None = None) -> int:
    """Rank over Q (p = 0) or over GF(p), p prime, of the integer matrix
    whose columns are the mappings ``{row: entry}`` in `columns`.

    Rows are non-negative ints; entries that vanish (mod p) are ignored.
    If `pivots` is a set, the pivot rows are added to it, one per unit of
    rank: row r is added when some combination of the columns has its
    last nonzero entry in row r.
    """
    if p == 2:
        bit_pivots: dict[int, int] = {}
        for column in columns:
            bits = 0
            for row, entry in column.items():
                if entry & 1:
                    bits |= 1 << row
            while bits:
                last = bits.bit_length()
                pivot = bit_pivots.get(last)
                if pivot is None:
                    bit_pivots[last] = bits
                    break
                bits ^= pivot
        if pivots is not None:
            pivots.update(last - 1 for last in bit_pivots)
        return len(bit_pivots)

    reduced: dict[int, dict[int, int]] = {}
    for column in columns:
        if p:
            col = {row: entry % p for row, entry in column.items() if entry % p}
        else:
            col = {row: entry for row, entry in column.items() if entry}
        while col:
            last = max(col)
            pivot = reduced.get(last)
            if pivot is None:
                a = col[last]
                if p and a != 1:
                    inv = pow(a, -1, p)
                    col = {row: entry * inv % p for row, entry in col.items()}
                elif a == -1:
                    col = {row: -entry for row, entry in col.items()}
                reduced[last] = col
                break
            c = col[last]
            a = pivot[last]
            if a == 1:
                for row, entry in pivot.items():
                    value = col.get(row, 0) - c * entry
                    if p:
                        value %= p
                    if value:
                        col[row] = value
                    else:
                        del col[row]
            else:
                # Over Q only: clear the row, then keep the column primitive.
                rows = col.keys() | pivot.keys()
                col = {row: a * col.get(row, 0) - c * pivot.get(row, 0) for row in rows}
                col = {row: entry for row, entry in col.items() if entry}
                g = gcd(*col.values())
                if g > 1:
                    col = {row: entry // g for row, entry in col.items()}
    if pivots is not None:
        pivots.update(reduced)
    return len(reduced)
