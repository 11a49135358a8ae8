"""Product constructions and intersection spectra.

The two products both build an order n*m square from order-n and order-m
ingredients, with rows and columns indexed by pairs (i, j) -> i*m + j:

* ``kronecker(l, m)``: entry ((i1, j1), (i2, j2)) = l(i1, i2)*m + m(j1, j2).
* ``triangle_product(l, members)``: like kronecker, but the inner square
  may depend on the row bundle i1 and on the symbol k = l(i1, i2); the
  family member ``members[i1][k]`` fills that block, offset by k*m.

``sudoku_reorder`` permutes the rows of such a product so that the result
is a Sudoku square of box type (n, m).  Products are built by one gather
kernel: a cached table gives each cell its family slot, its position in
that slot's member and its shift k*m (optionally with the reorder folded
in), so any stack of products over one outer square is a single ``take``.

Spectra: ``latin_spectrum(n)`` is the set of achievable intersection sizes
of two order-n latin squares, ``sudoku_spectrum(h, w)`` the analogue for
box type (h, w), and ``upsilon(n)`` the near-full-free set
{0..n^2-6} + {n^2-4, n^2} they both eventually equal.

``decompose_target`` splits a Sudoku target t into h*h latin targets for
the block product, or returns None for n^2-6 and n^2-9 at box width 4,
which cannot be split; the realizer takes those from seed fixtures.
"""
from __future__ import annotations

from functools import cache, lru_cache
from typing import Sequence

import numpy as np

from .core import BoxType, LatinSquare, MalformedInputError, SudokuSquare


def kronecker(l: LatinSquare, m: LatinSquare) -> LatinSquare:
    """Kronecker-style product of latin squares, order l.order * m.order."""
    return triangle_product(l, [[m] * l.order] * l.order)


def triangle_product(l: LatinSquare, members: Sequence[Sequence[LatinSquare]]) -> LatinSquare:
    """Block product of an order-n outer square with an n-by-n family of
    order-m latin squares (squares of box type (1, m)).

    ``members[i][k]`` fills the blocks of row bundle i where the outer
    square has symbol k, over symbols k*m..k*m+m-1.  The result is checked
    once, as a latin square.
    """
    n = l.order
    if len(members) != n or any(len(row) != n for row in members):
        raise MalformedInputError(f"family must be {n}-by-{n}, the order of the outer square")
    orders = {sq.order if isinstance(sq, SudokuSquare) and sq.box_type.h == 1 else None
              for row in members for sq in row}
    if len(orders) != 1 or None in orders:
        raise MalformedInputError(f"family members must be LatinSquares of one order, got {orders}")
    cells = np.array([[sq.cells] for row in members for sq in row])  # (n*n, 1, m, m)
    return LatinSquare(_block_products(l, cells, range(n * n))[0])


@lru_cache(maxsize=32)  # 8*(g + 2)*(n*m)^2 bytes a table: 21 MB for 32 at g = 2, order 144
def _product_table(outer: LatinSquare, m: int, g: int, reorder: bool):
    """Slot i1*n + k, flat position f*m*m + j1*m + j2 in a (g, m, m) member
    stack and shift k*m of cell (i1*m + j1, i2*m + j2) of block product f of
    ``outer`` with order-m members, k = outer[i1, i2], in Sudoku order if ``reorder``."""
    n = outer.order
    ci, cj = np.divmod(np.arange(n * m), m)
    ri, rj = np.divmod(reorder_permutation(n, m), m) if reorder else (ci, cj)
    k = outer.cells[ri[:, None], ci]
    pos = np.arange(0, g * m * m, m * m)[:, None, None] + rj[:, None] * m + cj
    return ri[:, None] * n + k, pos, k * m


def _block_products(outer: LatinSquare, members: np.ndarray, slots, reorder=False) -> np.ndarray:
    """The g block products of ``outer`` as one unchecked (g, n*m, n*m) gather,
    slot s of product f being ``members[slots[s], f]`` of a (d, g, m, m) stack."""
    _, g, m, _ = members.shape
    slot, pos, shift = _product_table(outer, m, g, reorder)
    return members.take((np.asarray(slots) * (g * m * m))[slot] + pos) + shift


def reorder_permutation(n: int, m: int) -> np.ndarray:
    """Row permutation sending product row i*m + j to position j*n + i."""
    return np.arange(n * m).reshape(n, m).T.ravel()


def sudoku_reorder(s: LatinSquare, n: int, m: int) -> SudokuSquare:
    """Reorder the rows of an order n*m product square into a Sudoku square
    of box type (n, m)."""
    if s.order != n * m:
        raise MalformedInputError(f"square order {s.order} is not {n}*{m}")
    return SudokuSquare(s.cells[reorder_permutation(n, m)], BoxType(n, m))


MAX_ORDER = 144  # the largest order whose spectrum, about n^2 values, is built


FORBIDDEN_OFFSETS = (1, 2, 3, 5)


def forbidden_values(n: int) -> frozenset[int]:
    """Intersection sizes no pair of order-n squares can have (n >= 3)."""
    return frozenset(n * n - d for d in FORBIDDEN_OFFSETS)


@cache
def upsilon(n: int) -> frozenset[int]:
    """{0..n^2-6} + {n^2-4, n^2}: every value except the impossible
    near-full ones n^2-1, n^2-2, n^2-3, n^2-5.  Defined for 3 <= n <= MAX_ORDER."""
    if n < 3:
        raise ValueError(f"upsilon(n) needs n >= 3, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds the limit {MAX_ORDER}")
    return frozenset(range(n * n + 1)) - forbidden_values(n)


@cache
def latin_spectrum(n: int) -> frozenset[int]:
    """Achievable |L ∩ L'| over pairs of order-n latin squares."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return frozenset({1})
    if n == 2:
        return frozenset({0, 4})
    if n == 3:
        return frozenset({0, 3, 9})
    if n == 4:
        return frozenset({0, 1, 2, 3, 4, 6, 8, 9, 12, 16})
    return upsilon(n)


@cache
def sudoku_spectrum(h: int, w: int) -> frozenset[int]:
    """Achievable |A ∩ B| over pairs of Sudoku squares of box type (h, w);
    box type (1, n) is the order-n latin square."""
    if h < 1 or w < 1:
        raise ValueError(f"box type must be positive, got {(h, w)}")
    if 1 in (h, w) or (h, w) == (2, 2):
        return latin_spectrum(h * w)
    return upsilon(h * w)


def decompose_target(t: int, h: int, w: int) -> tuple[int, ...] | None:
    """Split a box-type (h, w) target t into h*h order-w latin targets, one
    per family slot (i, k), row-major; None if t has no split.

    Writes t = q*w^2 + r and fills q full slots.  The residue r goes into
    one slot when achievable at order w, else into two, as evenly as the
    order-w spectrum allows: k from ceil(r/2) upward until k and r - k are
    both achievable.  With no empty slot left, the last full slot joins
    the split, which then sums to w^2 + r.  Only n^2-6 and n^2-9 at box
    width 4 have no split.  Requires t in the (h, w) spectrum and w >= 4.
    """
    if w < 4:
        raise ValueError(f"decomposition needs w >= 4, got {w}")
    if h < 2:
        raise ValueError(f"decomposition needs h >= 2, got {h}")
    if t not in sudoku_spectrum(h, w):
        raise ValueError(f"target {t} is not achievable for box type {(h, w)}")
    slots = h * h
    spectrum = latin_spectrum(w)
    q, r = divmod(t, w * w)
    if q == slots:  # t = n^2, every slot full
        return (w * w,) * slots
    if r in spectrum:
        return (w * w,) * q + (r,) + (0,) * (slots - q - 1)
    if q == slots - 1:  # no empty slot left: the last full slot joins
        q, r = q - 1, r + w * w
    for k in range((r + 1) // 2, r + 1):
        if k in spectrum and r - k in spectrum:
            return (w * w,) * q + (k, r - k) + (0,) * (slots - q - 2)
    return None
