"""`hooklaw verify`: its runner, its Monte Carlo check, and its two
numerical helpers against scipy."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chi2

from hooklaw import cli, limitlaw, sampling, verify
from hooklaw.verify import _chi2_tail, _integral


@pytest.mark.parametrize("dof", [2, 4, 6, 8, 12])
def test_chi2_tail_matches_scipy(dof):
    for x in np.linspace(0.01, 60.0, 600):
        want = chi2.sf(x, dof)
        assert abs(_chi2_tail(float(x), dof) - want) <= 1e-13 * want, (dof, x)


@pytest.mark.parametrize("dof", [0, 1, 5, -2])
def test_chi2_tail_needs_an_even_positive_dof(dof):
    with pytest.raises(ValueError):
        _chi2_tail(3.0, dof)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 5.0, 60.0])
def test_integral_matches_quad(b):
    want, _ = quad(limitlaw.density, 0.0, b, limit=400)
    assert abs(_integral(limitlaw.density, 0.0, b) - want) <= 1e-13
    want, _ = quad(math.cos, 0.0, b, limit=400)
    assert abs(_integral(math.cos, 0.0, b) - want) <= 1e-13


def _passes(threads, quick):
    return True, f"threads={threads} quick={quick}"


def _fails(threads, quick):
    return False, "off by one"


def _raises(threads, quick):
    raise RuntimeError("boom")


def test_runner_reports_a_raising_check_and_goes_on(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS", (("passes", _passes), ("raises", _raises), ("fails", _fails)))
    outcomes = verify.run_checks("full", 2)
    assert [(o.name, o.passed, o.detail) for o in outcomes] == [
        ("passes", True, "threads=2 quick=False"),
        ("raises", False, "raised RuntimeError: boom"),
        ("fails", False, "off by one"),
    ]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["PASS", "passes"], ["FAIL", "raises"], ["FAIL", "fails"]]
    assert lines[1].endswith("raised RuntimeError: boom")
    assert verify.verify_all("quick", 1) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("threads=1 quick=True")
    assert lines[-1] == "FAILED: raises, fails"
    assert len(lines) == 4
    assert cli.dispatch(["verify", "--level", "quick"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "FAILED: raises, fails"


def test_runner_passes_when_every_check_passes(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS", (("first", _passes), ("second", _passes)))
    assert verify.verify_all("full", None) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 2 checks passed (full)"
    assert cli.dispatch(["verify", "--level", "quick"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 2 checks passed (quick)"


def test_runner_rejects_an_unknown_level(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", (("passes", _passes),))
    for run in (verify.run_checks, verify.verify_all):
        with pytest.raises(ValueError, match="level"):
            run("medium", 1)


def test_quick_monte_carlo_check_draws_each_sample_once(monkeypatch):
    # the KS distances and the mean read one sample per distinct n
    calls = []
    real = sampling.sample_hooks

    def counting(cfg, count, threads=1):
        calls.append((cfg.n, count))
        return real(cfg, count, threads=threads)

    monkeypatch.setattr(sampling, "sample_hooks", counting)
    passed, detail = verify.check_limit_monte_carlo(1, True)
    assert passed
    assert detail == "KS(n=100)=0.0755, KS(n=1000)=0.0252; mean(n=1000) = 1.44604 +- 0.02735 vs 1.46153"
    assert calls == [(100, 20000), (1000, 20000)]
