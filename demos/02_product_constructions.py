"""The two product constructions and what they do to intersections.

The plain product multiplies intersections; the block product adds them
slot by slot, which is what makes prescribed intersection values easy to
assemble at large orders.

Run: python3 demos/02_product_constructions.py
"""

import numpy as np

from sudoku_spectra import (
    cyclic_square,
    intersection_size,
    kronecker,
    random_latin_square,
    serialize,
    sudoku_reorder,
    triangle_product,
)


def main():
    rng = np.random.default_rng(1)

    prod = kronecker(cyclic_square(2), cyclic_square(3))
    print("order 2 x order 3 product, rows reordered into a (2, 3) Sudoku square:")
    print(serialize(sudoku_reorder(prod, 2, 3), "grid"))
    print()

    # multiplicativity: |A1 x B1 meet A2 x B2| = |A1 meet A2| * |B1 meet B2|
    a1, a2 = random_latin_square(3, rng), random_latin_square(3, rng)
    b1, b2 = random_latin_square(4, rng), random_latin_square(4, rng)
    lhs = intersection_size(kronecker(a1, b1), kronecker(a2, b2))
    print(f"product intersection {lhs} = "
          f"{intersection_size(a1, a2)} * {intersection_size(b1, b2)}")
    print()

    # block product: same outer square, per-slot inner pairs
    outer = cyclic_square(2)
    fam_a = [[random_latin_square(4, rng) for _ in range(2)] for _ in range(2)]
    fam_b = [[random_latin_square(4, rng) for _ in range(2)] for _ in range(2)]
    parts = [
        intersection_size(fam_a[i][k], fam_b[i][k])
        for i in range(2)
        for k in range(2)
    ]
    total = intersection_size(triangle_product(outer, fam_a), triangle_product(outer, fam_b))
    print(f"block product intersection {total} = {' + '.join(map(str, parts))}")
    print("so any sum of four order-4 intersection values is reachable at order 8")


if __name__ == "__main__":
    main()
