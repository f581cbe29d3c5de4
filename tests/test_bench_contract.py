"""The benchmark tracer wraps package functions by name; every name it
patches must keep resolving, or ``bench/run.py --trace 1`` breaks."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_install_resolves_every_patched_name():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Recorder())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


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
