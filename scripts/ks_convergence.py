#!/usr/bin/env python3
"""KS distance to the limit law as a function of n.

Emits CSV (n, count, ks_distance, ks_reference, mean_scaled, exact_ks) to
stdout.  The exact_ks column is limitlaw.exact_sup_distance, the sup
distance of the *exact* finite-n law (from the counting table, no sampling
noise), which shows how much of the empirical distance is lattice bias
rather than Monte Carlo noise.

Example:
    python scripts/ks_convergence.py --sizes 100 1000 10000 --count 20000 --seed 7
"""

import argparse
import sys

from hooklaw.limitlaw import exact_sup_distance, ks_statistic
from hooklaw.sampling import SamplerConfig, sample_hooks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[100, 316, 1000, 3162, 10000])
    ap.add_argument("--count", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=20250810)
    ap.add_argument("--threads", type=int)
    args = ap.parse_args()

    print("n,count,ks_distance,ks_reference,mean_scaled,exact_ks")
    for n in args.sizes:
        cfg = SamplerConfig(n=n, seed=args.seed)
        obs = sample_hooks(cfg, args.count, threads=args.threads)
        report = ks_statistic([o.scaled for o in obs], n=n)
        exact = exact_sup_distance(n) if n <= 200000 else float("nan")
        print(
            f"{n},{args.count},{report.ks_distance:.6f},{report.ks_reference:.6f},"
            f"{report.mean_scaled:.6f},{exact:.6f}"
        )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
