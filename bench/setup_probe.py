"""Set-up cost of one fqdist cell, in a fresh interpreter.

    python bench/setup_probe.py P ELL D KERNELS [P ELL D KERNELS ...]

Times ``import fqdist`` followed by, for each cell, ``make_field``,
``norm_table``, ``pair_tables`` when ELL > 1, and ``kernels_for`` when
KERNELS is 1: the work every CLI run pays before its first set.  Prints
the seconds as one JSON number.
"""

import json
import sys
import time


def main(argv):
    cells = [tuple(int(v) for v in argv[i:i + 4])
             for i in range(0, len(argv), 4)]
    start = time.perf_counter()
    import fqdist
    from fqdist.geometry import norm_table
    for p, ell, d, kernels in cells:
        ctx = fqdist.make_field(p, ell)
        norm_table(ctx, d)
        if ell > 1:
            ctx.pair_tables
        if kernels:
            fqdist.kernels_for(ctx, d)
    print(json.dumps(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
