"""The benchmark tracer wraps package functions by name; every name it
patches must keep resolving, or ``bench/run.py --trace 1`` breaks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))


def test_tracer_install_resolves_every_patched_name():
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Recorder())"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_verify_reaches_every_patched_check(tmp_path):
    # a check the suite stops calling would read 0 in verify.check_s.<name>
    from singwald import verify

    checks = json.loads(subprocess.run(
        [sys.executable, "-c", "import json, tracer; print(json.dumps(tracer.VERIFY_CHECKS))"],
        env=ENV, capture_output=True, text=True, timeout=120, check=True,
    ).stdout)
    assert len(checks) == 12
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans), "--seed", "7",
         "--threads", "2", "verify", "--suite", "all", "--n", "20000"],
        env=ENV, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    # each span is [sid, parent, name, tid, t0, t1, count, key]
    names = [span[2] for span in json.loads(spans.read_text())]
    for check in checks:
        assert f"verify.check.{check}" in names, check
    assert names.count("verify.entry") == len(verify._REGISTRY) == 16


def test_traced_tetrad_scan_records_the_tetrad_test(tmp_path):
    # tetrad.test_s and tetrad.tests read the span of the CLI's one call
    # into wald_tetrad_test; a scan that bypassed it would read 0
    rng = np.random.default_rng(2)
    csv = tmp_path / "d.csv"
    csv.write_text("".join(",".join(f"{v:.8f}" for v in row) + "\n"
                           for row in rng.standard_normal((40, 6))))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans),
         "tetrad-test", "--data", str(csv), "--all", "--out", str(tmp_path / "t.tsv")],
        env=ENV, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    names = [span[2] for span in json.loads(spans.read_text())]
    assert names.count("tetrad.test") == 1
    assert names.count("tetrad.cov") == 1


def test_probe_library_calls_run(tmp_path):
    # bench/probe.py times setup_s and the thread speedup through
    # sampler.factor, WaldSampleConfig(n, seed, threads) and sample_wald
    poly = tmp_path / "xy.poly"
    poly.write_text("1 1 1\n")
    sigma = tmp_path / "s.mat"
    sigma.write_text("2\n1 0.5\n0.5 1\n")
    csv = tmp_path / "d.csv"
    csv.write_text("a,b,c,d\n" + "".join(f"{i},{i * i % 7},{i % 3},{i % 5}\n" for i in range(20)))
    probe = str(ROOT / "bench" / "probe.py")
    runs = [
        [probe, "setup", f"poly={poly}", f"sigma={sigma}", f"csv={csv}"],
        [probe, "speedup", str(poly), str(sigma), "2000", "2", "1"],
    ]
    outs = []
    for argv in runs:
        proc = subprocess.run([sys.executable, *argv], env=ENV, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert set(json.loads(outs[1])) == {"t1", "tn"}


def test_every_law_keeps_the_traced_quantile():
    # the tracer times LimitLaw.quantile; a law that overrode it would take
    # its quantiles out of laws.quantile_s and laws.quantile_calls, so laws
    # specialise sf, mean and _log_pdf instead
    from singwald import laws

    concrete = [
        obj for obj in vars(laws).values()
        if isinstance(obj, type) and issubclass(obj, laws.LimitLaw) and obj is not laws.LimitLaw
    ]
    assert len(concrete) >= 4
    for cls in concrete:
        assert cls.quantile is laws.LimitLaw.quantile, cls.__name__
