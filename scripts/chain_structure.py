#!/usr/bin/env python3
"""Map the numerical structure of the chain lattice at one parameter point.

For each energy row up to --row-max this prints the Gram condition number
of the chains meeting there, and for each chain state in the row the
squared-norm gain of its last raising step and the residual of re-expanding
its lowered image over the row below.  Rows whose Gram systems exceed the
solver's conditioning limit are reported as refused rather than solved;
pushing |alpha|/|beta| down makes that happen in shallower rows.
"""

from __future__ import annotations

import argparse
import csv
import sys

from aladders.chains import (
    gram_condition,
    ladder_factor,
    lowering,
    row_labels,
)
from aladders.errors import IllConditionedError
from aladders.operators import ModeParams


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=complex, default=2.5 + 0j)
    ap.add_argument("--beta", type=complex, default=1.0 + 0j)
    ap.add_argument("--row-max", type=int, default=14)
    ap.add_argument("--out", default="chain_structure.csv")
    args = ap.parse_args(argv)
    p = ModeParams(args.alpha, args.beta)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "gram_condition", "chain", "level",
                         "ladder_factor", "lowering_residual"])
        for row in range(1, args.row_max + 1):
            cond = gram_condition(row, p)
            print(f"row {row:2d}: gram condition {cond:.3e}")
            for label in row_labels(row + 1):
                if label.level < 1:
                    continue
                factor = ladder_factor(label, p)
                try:
                    res = lowering(label, p)[1]
                    res_txt = f"{res:.3e}"
                except IllConditionedError as exc:
                    res_txt = f"refused (condition {exc.condition:.2e})"
                writer.writerow([row, repr(cond), label.chain, label.level,
                                 repr(factor), res_txt])
                print(f"    ({label.chain:2d},{label.level:2d}) "
                      f"step norm^2 {factor:10.4f} residual {res_txt}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
