"""Build squares, validate them, and measure where two squares agree.

Run: python3 demos/01_squares_and_intersections.py
"""

import numpy as np

from sudoku_spectra import (
    BoxType,
    LatinSquare,
    SudokuSquare,
    cyclic_square,
    intersection_size,
    serialize,
    validate_sudoku,
)


def main():
    # an order-6 latin square from the cyclic construction
    l = cyclic_square(6)
    print("cyclic order-6 square, rows reordered to respect (2, 3) boxes:")
    print(serialize(SudokuSquare(l.cells[[0, 3, 1, 4, 2, 5]], BoxType(2, 3)), "grid"))
    print()

    # swapping two symbols changes exactly the cells holding them
    swapped = LatinSquare(np.array([1, 0, 2, 3, 4, 5])[l.cells])
    print("cells agreeing after swapping symbols 0 and 1:",
          intersection_size(l, swapped), "of 36")

    kept = (l.cells == swapped.cells).sum(axis=1)
    print("cells kept per row:", kept.tolist())
    print()

    # the same grid can respect one box shape and break another
    grid = np.array(
        [[0, 1, 2, 3, 4, 5],
         [3, 4, 5, 0, 1, 2],
         [1, 2, 0, 4, 5, 3],
         [4, 5, 3, 1, 2, 0],
         [2, 0, 1, 5, 3, 4],
         [5, 3, 4, 2, 0, 1]]
    )
    for h, w in [(2, 3), (3, 2)]:
        report = validate_sudoku(grid, BoxType(h, w))
        verdict = "valid" if report.ok else f"breaks {report.violation}"
        print(f"as a ({h}, {w}) Sudoku square: {verdict}")


if __name__ == "__main__":
    main()
