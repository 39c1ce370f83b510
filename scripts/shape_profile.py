#!/usr/bin/env python3
"""Scaled diagram profiles of sampled partitions against the limit curve.

Emits CSV (t, s_limit, profile_1, ..., profile_k) on a log grid: each
profile column is X(t sqrt(n))/sqrt(n) for one sampled partition.  Feed it
to any plotting tool to see the concentration around the curve.

Example:
    python scripts/shape_profile.py --n 10000 --draws 3 --seed 1 > profiles.csv
"""

import argparse
import sys

from hooklaw.asymptotics import limit_shape
from hooklaw.limitlaw import shape_grid
from hooklaw.partitions import profile
from hooklaw.sampling import SamplerConfig, sample_partition, stream


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10000)
    ap.add_argument("--draws", type=int, default=3)
    ap.add_argument("--seed", type=int, default=20250810)
    ap.add_argument("--points", type=int, default=200)
    args = ap.parse_args()

    cfg = SamplerConfig(n=args.n, seed=args.seed)
    samples = [sample_partition(cfg, stream(cfg.seed, trial)) for trial in range(args.draws)]
    root = args.n**0.5
    grid = shape_grid(points=args.points)

    header = ["t", "s_limit"] + [f"profile_{i}" for i in range(1, args.draws + 1)]
    print(",".join(header))
    for t in grid:
        row = [f"{t:.8g}", f"{limit_shape(float(t)):.8g}"]
        row += [f"{profile(p, t * root) / root:.8g}" for p in samples]
        print(",".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
