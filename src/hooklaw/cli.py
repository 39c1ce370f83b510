"""Command-line interface.

One process, one subcommand per invocation, machine-readable output:
JSON payloads embed a manifest (subcommand, flags, seed, version); CSV
payloads get the manifest on stderr, and `--out FILE` adds a sidecar
`FILE.manifest.json`.  Stdout is byte-identical for identical
(subcommand, flags, seed) regardless of `--threads`.

Exit codes: 0 success, 2 usage error, 3 tolerance/resource error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__, asymptotics, exact, limitlaw, sampling, series
from .errors import ResourceError, ToleranceError

EXACT_PN_CAP = 50_000  # beyond this the exact count is omitted from `asym`


def _float_repr(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "null"  # JSON has no infinity
    return f"{x:.12g}"


def _json(obj) -> str:
    """Tiny JSON writer: floats at 12 significant digits, insertion order
    preserved.  Exact integers must already be strings by construction."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _float_repr(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(obj, dict):
        inner = ", ".join(f"{_json(str(k))}: {_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def _manifest(args: argparse.Namespace, flags: dict) -> dict:
    return {
        "subcommand": args.command,
        "flags": {k: str(v) for k, v in flags.items()},
        "seed": str(flags.get("seed", "")),
        "version": __version__,
    }


class _Output:
    """Route the payload to stdout or --out, with the manifest embedded
    (JSON) or alongside (CSV/stderr + sidecar)."""

    def __init__(self, args: argparse.Namespace, flags: dict):
        self.out_path = getattr(args, "out", None)
        self.manifest = _manifest(args, flags)
        self.started = time.perf_counter()

    def write_json(self, payload: dict) -> None:
        self._write([_json({"manifest": self.manifest, **payload}) + "\n"])

    def write_lines(self, lines) -> None:
        self._write(line + "\n" for line in lines)
        print(_json(self.manifest), file=sys.stderr)

    def _write(self, chunks) -> None:
        if not self.out_path:
            sys.stdout.writelines(chunks)
            return
        with open(self.out_path, "w") as fh:
            fh.writelines(chunks)
        payload = {**self.manifest, "wall_time_s": time.perf_counter() - self.started}
        with open(self.out_path + ".manifest.json", "w") as fh:
            fh.write(_json(payload) + "\n")

    def done(self) -> None:
        wall = time.perf_counter() - self.started
        print(f"wall_time_s: {wall:.3f}", file=sys.stderr)


def cmd_pn(args) -> int:
    print(exact.partition_count(args.n))
    return 0


def cmd_exact(args) -> int:
    flags = {"n": args.n, "m": args.m}
    out = _Output(args, flags)
    n, m = args.n, args.m
    dist = exact.exact_hook_distribution(n)
    e_y = [str(exact.moment_Y(n, k)) for k in range(m + 1)]
    e_z = [str(exact.moment_Z(n, k)) for k in range(m + 1)]
    payload = {
        "n": str(n),
        "p_n": str(exact.partition_count(n)),
        "E_Y": e_y,
        "E_Z": e_z,
        "hook_hist": {str(h): str(dist.weights[h]) for h in sorted(dist.weights)},
    }
    out.write_json(payload)
    out.done()
    return 0


GF_ENUM_CAP = 22  # enumeration oracle column only up to here


def cmd_gf_check(args) -> int:
    flags = {"n": args.n, "m": args.m}
    out = _Output(args, flags)
    deg = args.n
    product = series.euler_series(deg) * series.f_m_series(args.m, deg)
    lines = ["n,p_n,coefficient,check"]
    mismatch = False
    for n in range(1, deg + 1):
        pn = exact.partition_count(n)
        coeff = product.coeffs[n]
        checks = []
        if args.m == 1:
            checks.append(coeff == n * pn)
        if n <= GF_ENUM_CAP:
            checks.append(Fraction(coeff, pn) == exact.moment_Y(n, args.m))
        ok = all(checks) if checks else True
        if not ok:
            mismatch = True
        lines.append(f"{n},{pn},{coeff},{'exact-match' if ok else 'MISMATCH'}")
    out.write_lines(lines)
    out.done()
    if mismatch:
        print("error: series and enumeration disagree", file=sys.stderr)
        return 3
    return 0


def cmd_asym(args) -> int:
    flags = {"n": args.n}
    out = _Output(args, flags)
    n = args.n
    sol = asymptotics.solve_saddle(n)
    log_hr = asymptotics.log_hardy_ramanujan(n)
    log_hay = asymptotics.log_hayman_pn_estimate(n)
    payload = {
        "n": str(n),
        "d_n": sol.d_n,
        "d_n_expansion": asymptotics.d_n_expansion(n),
        "a_residual": sol.residual,
        "b_val": sol.b_val,
        "b_over_n32": sol.b_val / n**1.5,
        "log_hr": log_hr,
        "log_hayman": log_hay,
        "hayman_over_hr": math.exp(log_hay - log_hr),
    }
    if n <= EXACT_PN_CAP:
        pn = exact.partition_count(n)
        log_pn = math.log(pn)
        payload["p_exact"] = str(pn)
        payload["hr_over_exact"] = math.exp(log_hr - log_pn)
        payload["hayman_over_exact"] = math.exp(log_hay - log_pn)
    out.write_json(payload)
    out.done()
    return 0


def cmd_shape(args) -> int:
    flags = {"points": args.points}
    out = _Output(args, flags)
    grid = limitlaw.shape_grid(points=args.points)
    lines = ["t,s"]
    for t in grid:
        s = asymptotics.limit_shape(float(t))
        lines.append(f"{t:.12g},{s:.12g}")
    out.write_lines(lines)
    out.done()
    return 0


# --algo names; auto leaves the choice to SamplerConfig, which picks by n
_ALGORITHMS = {
    "auto": None,
    "exact": sampling.EXACT_RECURSIVE,
    "fristedt": sampling.FRISTEDT_REJECTION,
}


def _resolved_config(args) -> sampling.SamplerConfig:
    return sampling.SamplerConfig(n=args.n, algorithm=_ALGORITHMS[args.algo], seed=args.seed)


def cmd_sample(args) -> int:
    cfg = _resolved_config(args)
    flags = {
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
        "algo": cfg.algorithm,
        "hist": args.hist,
    }
    out = _Output(args, flags)
    threads = sampling.resolve_threads(args.threads)
    observations = sampling.sample_hooks(cfg, args.count, threads=threads)
    if args.hist:
        scaled = np.array([o.scaled for o in observations])
        counts, edges = np.histogram(scaled, bins=args.hist, range=(0.0, float(scaled.max())))
        payload = {
            "n": str(cfg.n),
            "count": str(args.count),
            "algo": cfg.algorithm,
            "bins": str(args.hist),
            "edges": [float(e) for e in edges],
            "counts": [str(int(c)) for c in counts],
        }
        out.write_json(payload)
    else:
        lines = ["trial,hook,scaled"]
        for trial, o in enumerate(observations):
            lines.append(f"{trial},{o.hook},{o.scaled:.12g}")
        out.write_lines(lines)
    out.done()
    return 0


def cmd_ks(args) -> int:
    cfg = _resolved_config(args)
    flags = {"n": args.n, "count": args.count, "seed": args.seed, "algo": cfg.algorithm}
    out = _Output(args, flags)
    threads = sampling.resolve_threads(args.threads)
    observations = sampling.sample_hooks(cfg, args.count, threads=threads)
    report = limitlaw.ks_statistic([o.scaled for o in observations], n=cfg.n)
    payload = {
        "n": str(cfg.n),
        "sample_count": str(report.sample_count),
        "ks_distance": report.ks_distance,
        "ks_location": report.ks_location,
        "ks_reference": 1.95 / math.sqrt(report.sample_count),
        "mean_scaled": report.mean_scaled,
        "limit_mean": limitlaw.LIMIT_MEAN,
        "moment_ratios": list(report.moment_ratios),
    }
    out.write_json(payload)
    out.done()
    return 0


def cmd_limit(args) -> int:
    flags = {"grid": args.grid}
    out = _Output(args, flags)
    k = args.grid
    lines = ["u,density,cdf"]
    for i in range(1, k + 1):
        u = 8.0 * i / k
        lines.append(f"{u:.12g},{limitlaw.density(u):.12g},{limitlaw.cdf(u):.12g}")
    out.write_lines(lines)
    out.done()
    return 0


def cmd_verify(args) -> int:
    from . import verify  # loads scipy, which no other subcommand needs

    threads = sampling.resolve_threads(args.threads)
    return verify.verify_all(args.level, threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hooklaw",
        description=(
            "Exact and asymptotic statistics of the hook length of a uniform "
            "random cell in a uniform random integer partition."
        ),
    )
    parser.add_argument("--version", action="version", version=f"hooklaw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        return p

    p = add("pn", cmd_pn, "exact partition count p(n)")
    p.add_argument("--n", type=int, required=True)

    p = add("exact", cmd_exact, "exact moments and hook histogram by enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--out")

    p = add("gf-check", cmd_gf_check, "series coefficients against the enumeration oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--out")

    p = add("asym", cmd_asym, "saddle-point quantities and count estimates at n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")

    p = add("shape", cmd_shape, "the limit-shape curve as CSV")
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--out")

    p = add("sample", cmd_sample, "stream scaled hook observations as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algo", choices=("auto", "exact", "fristedt"), default="auto")
    p.add_argument("--hist", type=int, default=0, help="emit a histogram JSON instead")
    p.add_argument("--threads", type=int)
    p.add_argument("--out")

    p = add("ks", cmd_ks, "goodness-of-fit report against the limit law")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algo", choices=("auto", "exact", "fristedt"), default="auto")
    p.add_argument("--threads", type=int)
    p.add_argument("--out")

    p = add("limit", cmd_limit, "density and CDF of the limit law as CSV")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--out")

    p = add("verify", cmd_verify, "run the verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--threads", type=int)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToleranceError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
