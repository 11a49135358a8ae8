"""Census of 5x5 pentomino-cage latin squares.

A cage tiling cuts the 5x5 grid into five distinct pentominoes; a
solution is a latin square whose every cage also holds all five
symbols.  The census classifies all 107 tilings (up to grid symmetry)
by how much intersection freedom their solutions have.

Run: python3 demos/06_pentomino_cages.py
"""

from sudoku_spectra import (
    CATEGORIES,
    RIGID_SOLUTION,
    RIGID_TILING,
    canonical_cage_key,
    classify_all,
    solve_cage_latin,
)


def main():
    report = classify_all()
    print(f"{len(report.classes)} tilings:",
          ", ".join(f"{report.count(c)} {c}" for c in CATEGORIES))
    print()

    rigid = report.by_category("rigid")[0]
    assert canonical_cage_key(rigid.tiling.grid) == canonical_cage_key(RIGID_TILING.grid)
    print("the unique rigid tiling (cage ids):")
    for row in RIGID_TILING.grid:
        print("  ", "".join(str(v) for v in row))
    print("pieces:", " ".join(RIGID_TILING.shapes))
    sols = solve_cage_latin(RIGID_TILING)
    print("solutions up to relabelling:", len(sols),
          "(so 120 in total), spectrum", sorted(rigid.spectrum))
    print("its single solution:")
    for row in sols[0].cells.tolist():
        print("  ", " ".join(map(str, row)))
    assert sols == (RIGID_SOLUTION,)
    print()

    partial = report.by_category("partial")
    missing = sorted({v for cls in partial for v in cls.missing})
    print(f"partial tilings miss only values from {missing};")
    print("every solvable tiling realizes 0, both extremes of rigidity included")


if __name__ == "__main__":
    main()
