"""Regenerate the desk-scale comparison tables for both signs.

Counts fields with |disc(Kt)| below 10^12, 10^13, 10^14 by direct
enumeration, pairs them with the two-term and tail-corrected predictions,
and prints the error column.  Runs in about a second on a
2-core machine.
"""

import argparse
import sys
import time

from s3census.census import CensusFilter, build_report, format_error


def render(report):
    lines = ["      X          actual  strong  stronger  error"]
    for i, x in enumerate(report.checkpoints):
        lines.append(
            "%15d  %6d  %6d  %8d  %s"
            % (
                x,
                report.actual[i],
                report.strong[i],
                report.stronger[i],
                format_error(report.errors[i]),
            )
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--max-exponent", type=int, default=14,
        help="largest checkpoint 10^e (default 14; 15 takes about 3 s on a 2-core machine)",
    )
    args = parser.parse_args(argv)
    if args.max_exponent < 12:
        parser.error("--max-exponent must be at least 12")
    checkpoints = [10**e for e in range(12, args.max_exponent + 1)]
    for sign, label in ((1, "totally real"), (-1, "complex")):
        t0 = time.time()
        report = build_report(checkpoints, CensusFilter(sign))
        print("%s cubic fields (sign %+d), %.1fs" % (label, sign, time.time() - t0))
        print(render(report))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
