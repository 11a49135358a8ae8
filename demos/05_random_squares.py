"""Random squares: sample Sudoku squares and tally where pairs agree.

Run: python3 demos/05_random_squares.py
"""

from collections import Counter

import numpy as np

from sudoku_spectra import intersection_size, sample_sudoku, serialize, sudoku_spectrum


def main():
    rng = np.random.default_rng(7)

    square = sample_sudoku(3, 3, rng)
    print("random (3, 3) Sudoku square:", serialize(square))
    print()

    # every pair of 200 random (2, 2) squares: the sizes they meet in
    squares = [sample_sudoku(2, 2, rng) for _ in range(200)]
    sizes = Counter(
        intersection_size(a, b) for i, a in enumerate(squares) for b in squares[i + 1:]
    )
    print(f"{sum(sizes.values())} pairs of random (2, 2) squares, by intersection size:")
    for size in sorted(sizes):
        print(f"  {size:2d}: {sizes[size]}")

    spectrum = sudoku_spectrum(2, 2)
    assert set(sizes) <= spectrum
    print("every size lies in the spectrum; never seen:",
          sorted(set(range(17)) - spectrum), "(impossible)")


if __name__ == "__main__":
    main()
