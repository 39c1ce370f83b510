import hashlib
import json
import subprocess
import sys

import pytest

from hooklaw import cli, exact

CMD = [sys.executable, "-m", "hooklaw"]


def run(*args, timeout=300):
    return subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=timeout)


def test_pn():
    proc = run("pn", "--n", "100")
    assert proc.returncode == 0
    assert proc.stdout == "190569292\n"
    # the bare count on stdout, the manifest and wall time on stderr
    manifest_line, wall_line = proc.stderr.splitlines()
    manifest = json.loads(manifest_line)
    assert manifest["subcommand"] == "pn"
    assert manifest["flags"] == {"n": "100"}
    assert wall_line.startswith("wall_time_s: ")


def test_help_exits_zero():
    proc = run("--help")
    assert proc.returncode == 0
    assert "hooklaw" in proc.stdout


def test_unknown_flag_exits_two():
    proc = run("pn", "--bogus", "1")
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_missing_subcommand_exits_two():
    proc = run()
    assert proc.returncode == 2


def test_bad_argument_value_exits_two():
    proc = run("sample", "--n", "0", "--count", "5")
    assert proc.returncode == 2
    assert "usage error" in proc.stderr
    proc = run("pn", "--n", "-3")
    assert proc.returncode == 2
    for args in (
        ("exact", "--n", "5", "--m", "-1"),
        ("limit", "--grid", "-3"),
        ("shape", "--points", "0"),
        ("sample", "--n", "10", "--count", "5", "--hist", "-3"),
        ("gf-check", "--n", "0"),
        ("gf-check", "--n", "-3"),
    ):
        proc = run(*args)
        assert proc.returncode == 2, args
        assert "usage error" in proc.stderr, args
    # the last case's message names the flag, and nothing reaches stdout
    assert "--n must be >= 1, got -3" in proc.stderr
    assert proc.stdout == ""


def test_seed_outside_64_bits_exits_two():
    # 2^64 would alias seed 0 and -1 would alias 2^64 - 1
    for seed in (str(1 << 64), "-1"):
        for sub in ("sample", "ks"):
            proc = run(sub, "--n", "50", "--count", "5", "--seed", seed, "--threads", "1")
            assert proc.returncode == 2, (sub, seed)
            assert "seed must be in [0, 2^64)" in proc.stderr
            assert proc.stdout == ""
    proc = run("sample", "--n", "50", "--count", "5", "--seed", str((1 << 64) - 1), "--threads", "1")
    assert proc.returncode == 0
    assert proc.stdout != run("sample", "--n", "50", "--count", "5", "--seed", "0", "--threads", "1").stdout


def test_exact_json_payload():
    proc = run("exact", "--n", "3", "--m", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["E_Y"][2] == "17/3"
    assert payload["E_Y"][1] == "3"
    assert payload["E_Z"][0] == "1"
    assert payload["p_n"] == "3"
    assert payload["hook_hist"] == {"1": "4", "2": "2", "3": "3"}
    assert payload["manifest"]["subcommand"] == "exact"
    assert payload["manifest"]["version"]


def test_exact_moments_of_hook_law():
    proc = run("exact", "--n", "7", "--m", "4")
    assert proc.returncode == 0, proc.stderr
    e_z = json.loads(proc.stdout)["E_Z"]
    assert e_z == ["1"] + [str(exact.moment_Y(7, k + 1) / 7) for k in range(1, 5)]


def test_exact_over_cap_exits_three():
    proc = run("exact", "--n", "100")
    assert proc.returncode == 3
    assert "cap" in proc.stderr


def test_gf_check_exact_match():
    proc = run("gf-check", "--n", "12", "--m", "2")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "n,p_n,coefficient,check"
    assert len(lines) == 13
    assert all(line.endswith("exact-match") for line in lines[1:])
    assert lines[3].startswith("3,3,17,")


def test_asym_json():
    proc = run("asym", "--n", "100")
    payload = json.loads(proc.stdout)
    assert payload["p_exact"] == "190569292"
    assert 1.00 < payload["hr_over_exact"] < 1.10
    assert abs(payload["hayman_over_exact"] - 1.0) < 0.02
    assert abs(payload["d_n"] - 0.12580504750128083) < 1e-12


def test_asym_out_file_and_sidecar(tmp_path):
    out = tmp_path / "asym.json"
    proc = run("asym", "--n", "100", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    payload = json.loads(out.read_text())
    assert payload["manifest"]["subcommand"] == "asym"
    assert payload["p_exact"] == "190569292"
    sidecar = json.loads((tmp_path / "asym.json.manifest.json").read_text())
    assert sidecar["flags"] == {"n": "100"}
    assert "wall_time_s" in sidecar


def test_asym_large_n_has_no_null():
    # the saddle is certified up to n = 1e8 and every estimate is log-scale
    proc = run("asym", "--n", "1000000")
    assert proc.returncode == 0, proc.stderr
    assert "null" not in proc.stdout
    payload = json.loads(proc.stdout)
    assert abs(payload["hayman_over_hr"] - 1.0) < 1e-3


def test_import_loads_no_scipy():
    # the package runs on numpy alone, `verify` included; `cli` imports
    # `verify` only inside that subcommand
    code = (
        "import sys, hooklaw.cli; print('hooklaw.verify' in sys.modules); import hooklaw.verify; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "[]"]


def test_import_loads_no_process_pool():
    # only `sample_hooks` with more than one worker starts a pool, so no
    # command pays the import of its modules up front
    code = (
        "import sys, hooklaw.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_shape_csv():
    proc = run("shape", "--points", "10")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "t,s"
    assert len(lines) == 11
    assert "\r" not in proc.stdout


def test_limit_csv():
    proc = run("limit", "--grid", "5")
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "u,density,cdf"
    assert len(lines) == 6
    last = lines[-1].split(",")
    assert float(last[0]) == 8.0
    assert 0.99 < float(last[2]) < 1.0


def test_sample_csv_and_determinism():
    args = ("sample", "--n", "300", "--count", "120", "--seed", "42")
    one = run(*args, "--threads", "1")
    two = run(*args, "--threads", "2")
    rep = run(*args, "--threads", "1")
    assert one.returncode == 0
    assert one.stdout == two.stdout == rep.stdout
    lines = one.stdout.strip().split("\n")
    assert lines[0] == "trial,hook,scaled"
    assert len(lines) == 121
    first = lines[1].split(",")
    assert first[0] == "0"
    assert 1 <= int(first[1]) <= 300


def test_sample_seed_changes_output():
    a = run("sample", "--n", "300", "--count", "50", "--seed", "1", "--threads", "1")
    b = run("sample", "--n", "300", "--count", "50", "--seed", "2", "--threads", "1")
    assert a.stdout != b.stdout


def test_sample_histogram_json():
    proc = run("sample", "--n", "100", "--count", "500", "--seed", "9", "--hist", "8", "--threads", "1")
    payload = json.loads(proc.stdout)
    assert payload["bins"] == "8"
    assert len(payload["counts"]) == 8
    assert len(payload["edges"]) == 9
    assert sum(int(c) for c in payload["counts"]) == 500


def test_sample_out_file_and_sidecar(tmp_path):
    out = tmp_path / "obs.csv"
    proc = run(
        "sample", "--n", "100", "--count", "20", "--seed", "3",
        "--threads", "1", "--out", str(out),
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("trial,hook,scaled\n")
    sidecar = json.loads((tmp_path / "obs.csv.manifest.json").read_text())
    assert sidecar["subcommand"] == "sample"
    assert sidecar["flags"]["seed"] == "3"
    assert "wall_time_s" in sidecar


def test_ks_json():
    proc = run("ks", "--n", "100", "--count", "3000", "--seed", "7", "--threads", "1")
    payload = json.loads(proc.stdout)
    assert payload["n"] == "100"
    assert payload["sample_count"] == "3000"
    assert 0.0 <= payload["ks_distance"] <= 1.0
    assert payload["ks_distance"] > payload["ks_reference"]  # lattice bias at n=100
    assert abs(payload["mean_scaled"] - payload["limit_mean"]) < 0.1
    assert len(payload["moment_ratios"]) == 2


def test_fristedt_algo_flag():
    a = run("sample", "--n", "30", "--count", "40", "--seed", "5", "--algo", "fristedt", "--threads", "1")
    b = run("sample", "--n", "30", "--count", "40", "--seed", "5", "--algo", "exact", "--threads", "1")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout != b.stdout  # different consumption, same law
    for line in a.stdout.strip().split("\n")[1:]:
        assert 1 <= int(line.split(",")[1]) <= 30


def test_version_flag():
    proc = run("--version")
    assert proc.returncode == 0
    assert "hooklaw" in proc.stdout


# The byte contract: the full stdout sha256 of outputs that do not depend on
# the last bits of a float library.  They print integers, fractions and
# values of correctly rounded arithmetic and sqrt, and the exact sampler
# decides in floats only outside a stated margin, so a last-bit change in
# its tables flips a draw only with chance near 2^-52 per step.  `asym`,
# `ks`, `limit` and `--algo fristedt` print or decide on raw values of exp,
# log or expm1, which another libm or numpy build may round differently,
# so they stay manual checks.  The JSON outputs embed the manifest, whose
# version field a release changes.
BYTE_CONTRACT = [
    (("exact", "--n", "20", "--m", "4"),
     "1ba3fed5babecaf791b706b61d368cdf12fbad1c46be8994fcb33b190dbd5c96"),
    (("gf-check", "--n", "2000", "--m", "1"),
     "2cf0d0973284f830644ef02d78a51f8521d2fa9965b85b7be5dc1307915d3bf3"),
    (("sample", "--n", "3000", "--count", "300", "--seed", "42", "--threads", "1"),
     "185f52256fb6e09ba0d533245cf17fc90ddb9cb643408c40bb9a1c6ab076348b"),
    (("sample", "--n", "3000", "--count", "300", "--seed", "42", "--threads", "2"),
     "185f52256fb6e09ba0d533245cf17fc90ddb9cb643408c40bb9a1c6ab076348b"),
    (("sample", "--n", "100000", "--count", "20", "--seed", "7", "--threads", "1"),
     "3695b8bffc50d6bf5d36cf7ea802429aeb8230aab7495d8f814d2acc1d941a18"),
    (("sample", "--n", "500", "--count", "200", "--seed", "3", "--hist", "10", "--threads", "2"),
     "0391cf091f0c18b4e30a36e1a8a5cc66c4b50e4c1a45f15e49a9104e1d0629b2"),
]


@pytest.mark.parametrize("argv, digest", BYTE_CONTRACT, ids=[" ".join(a) for a, _ in BYTE_CONTRACT])
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    assert cli.dispatch(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
