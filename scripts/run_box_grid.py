#!/usr/bin/env python3
"""Dyadic box-sum grid: S(Q, r) over Q in {20, 40, 80}, r in {3, 5, 8},
with the comparison bound r^2/Q + r^4/Q^2 + r^5/Q^(5/2) and the singular
family sub-sums.  Emits a plot-ready TSV table on stdout."""

import sys
import time

from quartics.experiments import box_sum


def main() -> int:
    print("Q\tr\tS_exact\tS_float\tbound\tratio\tin_family")
    for Q in (20, 40, 80):
        for r in (3, 5, 8):
            t0 = time.time()
            res = box_sum(Q, r)
            print(
                f"{Q}\t{r}\t{res.exact.numerator}/{res.exact.denominator}"
                f"\t{res.value:.6f}\t{res.bound:.6f}\t{res.ratio:.3f}"
                f"\t{float(res.in_x_exact):.6f}",
                flush=True,
            )
            print(f"# Q={Q} r={r} took {time.time()-t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
