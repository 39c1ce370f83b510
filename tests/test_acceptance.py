"""Acceptance criteria, one test per criterion, each at its contractual
scale and tolerance.  The checks themselves live in hooklaw.verify so the
`hooklaw verify --level full` command runs the identical suite.

Run order matters for wall time only; every test is independent.
"""

from hooklaw import verify

THREADS = None  # one sampling worker per CPU


def _run(name: str) -> None:
    fn = dict(verify.CHECKS)[name]
    passed, detail = fn(THREADS, False)
    status = "PASS" if passed else "FAIL"
    print(f"{status} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_01_hook_powersum_identity_exact():
    """Exact integer identity between hook moments and shifted power sums,
    n <= 12, m in 1..4."""
    _run("hook-powersum-identity")


def test_criterion_02_series_oracle_equivalence():
    """Series coefficient equals p(n) * enumeration moment for n <= 12,
    m <= 4, and n p(n) for all n <= 2000."""
    _run("series-moment-oracle")


def test_criterion_03_worked_example():
    """conjugate(5,4,3,3,2,2,2,1) = (8,7,4,2,1); hook of (3,2) = 6."""
    _run("conjugate-hook-worked-example")


def test_criterion_04_partition_count_routes():
    """Recurrence equals enumeration to n = 40; p(100) pinned; first-order
    estimate ratio in (1.00, 1.10) at n = 100 and decreasing toward 1."""
    _run("partition-count-routes")


def test_criterion_05_saddle_machinery():
    """Saddle residuals below 1e-8 n; expansion gap o(1/n); curvature
    scaling within 5%; coefficient estimate within 2% at n = 100 and
    improving at n = 1000."""
    _run("saddle-point-machinery")


def test_criterion_06_moment_asymptotic():
    """Exact scaled mean at n = 2000 via generating functions within 10%
    of the limit mean."""
    _run("moment-asymptotic-gf")


def test_criterion_07_limit_law_monte_carlo():
    """KS distance strictly decreasing over n in {1e2, 1e3, 1e4} with 1e5
    observations each; scaled mean at n = 1e5 within 3% with its 3-sigma
    band."""
    _run("scaled-hook-limit-monte-carlo")


def test_criterion_08_sampler_exactness():
    """Chi-square of 1e5 sampled partitions against uniform on the
    partitions of 5 passes at p > 0.001 for both algorithms; accepted
    rejection draws always sum to n."""
    _run("sampler-uniformity")


def test_criterion_09_limit_law_internals():
    """CDF series vs quadrature to 1e-9; density mass to 1e-10; closed
    second moment to 1e-8; shape identity residual below 1e-12."""
    _run("limit-law-internals")


def test_criterion_10_cli_determinism():
    """Byte-identical `hooklaw sample --n 1000 --count 1000 --seed 42`
    across repeats and thread counts."""
    _run("cli-determinism")
