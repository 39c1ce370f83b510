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
    if isinstance(obj, float):
        return _float_repr(obj)
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
    """Route a command's payload to stdout or --out: a dict as JSON with the
    manifest embedded, a list of lines as CSV with the manifest on stderr
    (and in the sidecar with --out); then the wall time on stderr."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.started = time.perf_counter()

    def write(self, flags: dict, payload) -> None:
        manifest = _manifest(self.args, flags)
        if isinstance(payload, dict):
            chunks = [_json({"manifest": manifest, **payload}) + "\n"]
        else:
            chunks = [line + "\n" for line in payload]
        out_path = getattr(self.args, "out", None)
        if out_path:
            with open(out_path, "w") as fh:
                fh.writelines(chunks)
            sidecar = {**manifest, "wall_time_s": time.perf_counter() - self.started}
            with open(out_path + ".manifest.json", "w") as fh:
                fh.write(_json(sidecar) + "\n")
        else:
            sys.stdout.writelines(chunks)
        if not isinstance(payload, dict):
            print(_json(manifest), file=sys.stderr)
        wall = time.perf_counter() - self.started
        print(f"wall_time_s: {wall:.3f}", file=sys.stderr)


def cmd_pn(args, out: _Output) -> int:
    out.write({"n": args.n}, [str(exact.partition_count(args.n))])
    return 0


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def cmd_exact(args, out: _Output) -> int:
    n, m = args.n, args.m
    _at_least("--m", m, 0)
    dist = exact.exact_hook_distribution(n)
    payload = {
        "n": str(n),
        "p_n": str(exact.partition_count(n)),
        "E_Y": [str(exact.moment_Y(n, k)) for k in range(m + 1)],
        "E_Z": [str(dist.moment(k)) for k in range(m + 1)],
        "hook_hist": {str(h): str(dist.weights[h]) for h in sorted(dist.weights)},
    }
    out.write({"n": n, "m": m}, payload)
    return 0


GF_ENUM_CAP = 22  # enumeration oracle column only up to here


def cmd_gf_check(args, out: _Output) -> int:
    deg = args.n
    _at_least("--n", deg, 1)
    product = series.euler_series(deg) * series.f_m_series(args.m, deg)
    lines = ["n,p_n,coefficient,check"]
    mismatch = False
    counts = exact.partition_counts(deg)
    for n in range(1, deg + 1):
        pn = counts[n]
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
    out.write({"n": args.n, "m": args.m}, lines)
    if mismatch:
        print("error: series and enumeration disagree", file=sys.stderr)
        return 3
    return 0


def cmd_asym(args, out: _Output) -> int:
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
    out.write({"n": n}, payload)
    return 0


def cmd_shape(args, out: _Output) -> int:
    _at_least("--points", args.points, 1)
    lines = ["t,s"]
    for t in limitlaw.shape_grid(points=args.points):
        s = asymptotics.limit_shape(float(t))
        lines.append(f"{t:.12g},{s:.12g}")
    out.write({"points": args.points}, lines)
    return 0


# --algo names; auto leaves the choice to SamplerConfig, which picks by n
_ALGORITHMS = {
    "auto": None,
    "exact": sampling.EXACT_RECURSIVE,
    "fristedt": sampling.FRISTEDT_REJECTION,
}


def _observations(args) -> tuple[sampling.SamplerConfig, list]:
    """The sampler config the --n/--seed/--algo flags name, and --count
    hook observations drawn with it."""
    cfg = sampling.SamplerConfig(n=args.n, algorithm=_ALGORITHMS[args.algo], seed=args.seed)
    return cfg, sampling.sample_hooks(cfg, args.count, threads=args.threads)


def cmd_sample(args, out: _Output) -> int:
    _at_least("--hist", args.hist, 0)
    cfg, observations = _observations(args)
    flags = {
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
        "algo": cfg.algorithm,
        "hist": args.hist,
    }
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
        out.write(flags, payload)
    else:
        lines = ["trial,hook,scaled"]
        for trial, o in enumerate(observations):
            lines.append(f"{trial},{o.hook},{o.scaled:.12g}")
        out.write(flags, lines)
    return 0


def cmd_ks(args, out: _Output) -> int:
    cfg, observations = _observations(args)
    report = limitlaw.ks_statistic([o.scaled for o in observations], n=cfg.n)
    payload = {
        "n": str(cfg.n),
        "sample_count": str(report.sample_count),
        "ks_distance": report.ks_distance,
        "ks_location": report.ks_location,
        "ks_reference": report.ks_reference,
        "mean_scaled": report.mean_scaled,
        "limit_mean": limitlaw.LIMIT_MEAN,
        "moment_ratios": list(report.moment_ratios),
    }
    out.write({"n": args.n, "count": args.count, "seed": args.seed, "algo": cfg.algorithm}, payload)
    return 0


def cmd_limit(args, out: _Output) -> int:
    k = args.grid
    _at_least("--grid", k, 1)
    lines = ["u,density,cdf"]
    for i in range(1, k + 1):
        u = 8.0 * i / k
        lines.append(f"{u:.12g},{limitlaw.density(u):.12g},{limitlaw.cdf(u):.12g}")
    out.write({"grid": args.grid}, lines)
    return 0


def cmd_verify(args, out: _Output) -> int:
    from . import verify  # loads subprocess, which no other subcommand needs

    return verify.verify_all(args.level, args.threads)


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

    def add(name, fn, help_, parents=()):
        p = sub.add_parser(name, help=help_, parents=parents)
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

    # the flags `sample` and `ks` share
    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--count", type=int, required=True)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--algo", choices=tuple(_ALGORITHMS), default="auto")
    mc.add_argument("--threads", type=int)
    mc.add_argument("--out")

    p = add("sample", cmd_sample, "stream scaled hook observations as CSV", [mc])
    p.add_argument("--hist", type=int, default=0, help="emit a histogram JSON instead")

    add("ks", cmd_ks, "goodness-of-fit report against the limit law", [mc])

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
        return args.func(args, _Output(args))
    except (ToleranceError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
