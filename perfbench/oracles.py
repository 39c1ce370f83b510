"""The exact-oracles workload: a fixed list of hooklaw calls, each one an
operation with its own gate.

Exact layers are gated by integer or Fraction equality against an
independent route; floating-point layers by a stated tolerance.  Gates run
after the timed region.  A call that raises counts as a failed operation
and does not stop the run.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Any, Callable

from workloads import Oracles


@dataclass(frozen=True)
class Op:
    id: str
    span: str  # "<module>.<function>" of the hooklaw call, the trace span name
    call: Callable[[dict], Any]  # computes the value from earlier results
    check: Callable[[dict], bool]  # the gate, given every result


def _divisor_sum(k: int) -> int:
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    return sum(small) + sum(k // d for d in small if k // d != d)


def _size_biased_law_ok(weights: dict[int, int], n: int, table: list[int]) -> bool:
    """The hook law at n is the size-biased part law: its total mass is
    n p(n), and a part k > n/2 occurs at most once, so weight(k) = k p(n-k)."""
    return (
        set(weights) == set(range(1, n + 1))
        and sum(weights.values()) == n * table[n]
        and all(weights[k] == k * table[n - k] for k in range(n // 2 + 1, n + 1))
    )


def build_ops(spec: Oracles, seed: int, table: list[int]) -> list[Op]:
    from hooklaw import asymptotics, exact, limitlaw, series

    ops: list[Op] = []

    def op(op_id, span, call, check):
        ops.append(Op(op_id, span, call, check))

    e, m, big, deg = spec.enum_n, spec.moment_n, spec.table_n, spec.series_degree

    # enumeration
    op("enum.hook_law", "exact.exact_hook_distribution",
       lambda r: exact.exact_hook_distribution(e),
       lambda r: sum(r["enum.hook_law"].weights.values()) == e * table[e])
    op("enum.moment_Z", "exact.moment_Z",
       lambda r: exact.moment_Z(m, 2),
       lambda r: r["enum.moment_Z"] == r["enum.moment_Y"] / m)
    op("enum.moment_Y", "exact.moment_Y",
       lambda r: exact.moment_Y(m, 3),
       lambda r: r["enum.moment_Y"] == Fraction(series.moment_coefficient(3, m), table[m]))

    # the hook law from the counting table alone
    op("hook_law.table_n", "exact.hook_distribution_via_part_counts",
       lambda r: exact.hook_distribution_via_part_counts(big),
       lambda r: _size_biased_law_ok(r["hook_law.table_n"].weights, big, table))
    op("hook_law.enum_n", "exact.hook_distribution_via_part_counts",
       lambda r: exact.hook_distribution_via_part_counts(e),
       lambda r: r["hook_law.enum_n"].weights == r["enum.hook_law"].weights)
    op("hook_law.degree", "exact.hook_distribution_via_part_counts",
       lambda r: exact.hook_distribution_via_part_counts(deg),
       lambda r: _size_biased_law_ok(r["hook_law.degree"].weights, deg, table))

    # generating-function series
    op("series.euler", "series.euler_series",
       lambda r: series.euler_series(deg),
       lambda r: list(r["series.euler"].coeffs) == table[: deg + 1])
    op("series.f_1", "series.f_m_series",
       lambda r: series.f_m_series(1, deg),
       lambda r: list(r["series.f_1"].coeffs) == [0] + [_divisor_sum(k) for k in range(1, deg + 1)])
    op("series.product", "series.product",
       lambda r: r["series.euler"] * r["series.f_1"],
       lambda r: all(c == k * table[k] for k, c in enumerate(r["series.product"].coeffs)))
    # E[Z] = E[sum of squared parts] / n, so sum_h h weight(h) = [x^n] euler * f_2
    op("series.moment_coefficient", "series.moment_coefficient",
       lambda r: series.moment_coefficient(2, deg),
       lambda r: r["series.moment_coefficient"]
       == sum(h * w for h, w in r["hook_law.degree"].weights.items()))

    # saddle point: every n of the sweep, including those where the tail
    # certificate is known to fail
    for n in spec.saddle_ns:
        op(f"saddle[{n}]", "asymptotics.solve_saddle",
           lambda r, n=n: asymptotics.solve_saddle(n),
           lambda r, n=n: _saddle_ok(asymptotics, r[f"saddle[{n}]"], n))
        op(f"hayman[{n}]", "asymptotics.log_hayman_pn_estimate",
           lambda r, n=n: asymptotics.log_hayman_pn_estimate(n),
           lambda r, n=n: _hayman_ok(asymptotics, r[f"hayman[{n}]"], n, table))

    # limit law round trips at seeded points
    rng = random.Random(seed)
    for i in range(spec.round_trips):
        p = rng.uniform(0.001, 0.999)
        u = rng.uniform(0.1, 6.0)
        fwd = lambda r, i=i, p=p: abs(r[f"cdf_of_q[{i}]"] - p) <= 1e-9  # noqa: E731
        op(f"q[{i}]", "limitlaw.quantile", lambda r, p=p: limitlaw.quantile(p), fwd)
        op(f"cdf_of_q[{i}]", "limitlaw.cdf", lambda r, i=i: limitlaw.cdf(r[f"q[{i}]"]), fwd)
        back = lambda r, i=i, u=u: abs(r[f"q_of_cdf[{i}]"] - u) <= 1e-8 * max(1.0, u)  # noqa: E731
        op(f"cdf[{i}]", "limitlaw.cdf", lambda r, u=u: limitlaw.cdf(u), back)
        op(f"q_of_cdf[{i}]", "limitlaw.quantile", lambda r, i=i: limitlaw.quantile(r[f"cdf[{i}]"]), back)
    return ops


def _saddle_ok(asymptotics, sol, n: int) -> bool:
    # d_n = pi/sqrt(6n) - 1/(4n) + O(n^-3/2): relative gap to the two-term
    # expansion is O(1/n) (about 0.04/n in measurement)
    return (
        abs(asymptotics.saddle_a(sol.d_n) - n) <= 1e-9 * n
        and abs(sol.d_n / asymptotics.d_n_expansion(n) - 1.0) <= 1.0 / n
    )


def _hayman_ok(asymptotics, log_est: float, n: int, table: list[int]) -> bool:
    # the saddle-point estimate is within O(n^-1/2) of log p(n) (0.15/sqrt(n)
    # measured); beyond the table, of the Hardy-Ramanujan estimate
    ref = math.log(table[n]) if n < len(table) else asymptotics.log_hardy_ramanujan(n)
    return abs(log_est - ref) <= 1.0 / math.sqrt(n)


def run_ops(ops: list[Op], tracer=None) -> tuple[dict, dict]:
    """Run every op in order; (results by op id, error text by op id)."""
    results: dict[str, Any] = {}
    errors: dict[str, str] = {}
    for op in ops:
        if tracer is not None:
            tracer.begin(op.span)
        try:
            results[op.id] = op.call(results)
        except Exception as exc:  # a failing call is one failed operation
            errors[op.id] = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.end()
    return results, errors


def failed_checks(ops: list[Op], results: dict, errors: dict) -> list[str]:
    """Ids of ops whose value fails its gate.  A gate that needs the value
    of an op that raised is skipped: that failure is already counted."""
    bad = []
    for op in ops:
        if op.id not in results:
            continue
        try:
            ok = op.check(results)
        except KeyError as exc:
            if exc.args[0] in errors:
                continue
            raise
        if not ok:
            bad.append(op.id)
    return bad


def digest(ops: list[Op], results: dict) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.id}={results.get(op.id)!r};".encode())
    return h.hexdigest()
