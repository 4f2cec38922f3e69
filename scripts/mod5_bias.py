"""Residue bias of sextic twin discriminants mod 5.

Among complex fields unramified at 2 and 3, discriminants divisible by 5
(the 5-ramified class) appear more often than any single invertible class,
while the invertible classes split evenly.  This script tabulates the
histogram up to a checkpoint and compares against the predicted quintuples
at 10^20 and 3*10^23.

The published row sits at X = 10^16 (--exponent 16, about 6 s of
enumeration on a 2-core machine); smaller exponents show the same bias
instantly.
"""

import argparse
import sys
import time

from s3census.census import CensusFilter, ap_histogram
from s3census.predictor import mod5_prediction, nearest_count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--exponent", type=int, default=13,
        help="checkpoint 10^e for the enumerated histogram (default 13)",
    )
    args = parser.parse_args(argv)
    if args.exponent < 11:
        parser.error("--exponent must be at least 11")

    x = 10**args.exponent
    filt = CensusFilter(sign=-1, unramified=(2, 3), modulus=5)
    t0 = time.time()
    row = ap_histogram([x], filt)[0]
    print("X = 10^%d, sign -, unramified at 2 and 3 (%.1fs)" %
          (args.exponent, time.time() - t0))
    print("  residues 0..4: %s  (total %d)" % (list(row), sum(row)))
    if sum(row):
        print("  share of 5-ramified class: %.4f (even split would be 0.2)"
              % (row[0] / sum(row)))

    print("predicted quintuples (two-term model, conditioned on 2,3):")
    for bound in (10**20, 3 * 10**23):
        values = mod5_prediction(bound)
        print("  X = %g: %s" % (bound, [nearest_count(v) for v in values]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
