"""The benchmark's workloads: what one job computes, and at which size.

A run of the benchmark is a series of jobs, each a fresh Python process
(see worker.py), so the package's module-level caches start cold, as they
do for a user of the `hooklaw` command.  The load is a closed loop: one
client, one process, calls issued back to back with threads=1.  A job's
work is fixed; the run's length decides how many jobs it makes (run.py).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MonteCarlo:
    """The `hooklaw ks --algo ALGO --threads 1` call sequence at size n,
    drawing `count` observations."""

    name: str
    n: int
    algorithm: str
    count: int
    kind: str = "mc"


@dataclass(frozen=True)
class Oracles:
    """Exact and asymptotic layers that Monte Carlo never touches.

    `table_n` is the largest p(0..n) table any oracle reads; building it is
    the workload's set-up.  `round_trips` seeded quantile/CDF round trips
    run in each direction.
    """

    name: str
    enum_n: int = 45
    moment_n: int = 40
    table_n: int = 30_000
    series_degree: int = 2000
    saddle_ns: tuple[int, ...] = tuple(10**k for k in range(2, 8))
    round_trips: int = 10
    kind: str = "oracles"


# Job sizes.  The machine the benchmark was tuned on (2 shared vCPUs)
# drifts in speed by about 25 % over tens of seconds to minutes, so a run
# spans as many seconds as the evaluation's time limit allows and pools
# its jobs.  A Fristedt draw costs a geometric number of rejection trials
# (~2900 on average), so the spread of a run's rate is about 1/sqrt(draws):
# that workload's jobs are long, so that little of the run goes to imports.
WORKLOADS = {
    w.name: w
    for w in (
        # a job spends ~10 s building p(0..1e5) and ~6 s drawing
        MonteCarlo("mc-exact-n1e5", n=100_000, algorithm="exact-recursive", count=160),
        # a job spends ~1 s importing and 5-12 s drawing
        MonteCarlo("mc-fristedt-n1e4", n=10_000, algorithm="fristedt-rejection", count=50),
        # a job takes ~6 s
        Oracles("exact-oracles"),
    )
}


def from_json(data: dict):
    data = dict(data)
    kind = data.pop("kind")
    if kind == "mc":
        return MonteCarlo(**data)
    data["saddle_ns"] = tuple(data["saddle_ns"])
    return Oracles(**data)
