"""Concatenate a sqrt(5) tiling through the public API, as a user script would.

    python3 perfbench/concat.py --kind plus-right|plus-left|brick --L 125 \
        --levels 3 --out FILE

No `blockspin` subcommand exposes `concatenate_tiling`.  The artifact lists
every site's address ``[x, y, top_tile, path...]`` so that a checker can
confirm that each site is addressed exactly once.
"""

from __future__ import annotations

import argparse
import json
import sys

from blockspin.tiling import brick_tiling, concatenate_tiling, plus_tiling


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="concat")
    parser.add_argument("--kind", required=True, choices=["plus-right", "plus-left", "brick"])
    parser.add_argument("--L", type=int, required=True)
    parser.add_argument("--levels", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.kind == "brick":
        tiling = brick_tiling(args.L)
    else:
        tiling = plus_tiling(args.L, +1 if args.kind == "plus-right" else -1)
    ct = concatenate_tiling(tiling, args.levels)
    doc = {
        "tiling": tiling.name,
        "L": args.L,
        "levels": args.levels,
        "top_tile_count": ct.top_tile_count,
        "addresses": sorted([x, y, top, *path] for (x, y), (top, path) in ct.addresses.items()),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
