"""Child processes of the benchmark that time library calls directly.

    python3 bench/probe.py setup [poly=PATH] [sigma=PATH] [csv=PATH]...
        Import singwald.cli and load and validate each input the way the
        CLI does.  The parent times the process from spawn to exit.

    python3 bench/probe.py speedup POLY SIGMA N THREADS SEED
        Time sample_wald on the inputs at 1 thread and at THREADS threads
        and print {"t1": s, "tn": s} as JSON.
"""

from __future__ import annotations

import sys


def setup(items: list[str]) -> None:
    import singwald.cli as cli
    from singwald import sampler

    for item in items:
        kind, _, value = item.partition("=")
        if kind == "poly":
            cli.load_polynomial(value)
        elif kind == "sigma":
            sampler.factor(cli.validate_covariance(cli.load_matrix(value)))
        elif kind == "csv":
            cli.load_data_csv(value)
        else:
            raise SystemExit(f"unknown setup item {item!r}")


def speedup(poly: str, sigma: str, n: str, threads: str, seed: str) -> None:
    import json
    import time

    import numpy as np
    from singwald.cli import load_matrix, load_polynomial, validate_covariance
    from singwald.sampler import WaldSampleConfig, sample_wald

    f = load_polynomial(poly)
    cov = validate_covariance(load_matrix(sigma))
    times, values = {}, []
    for label, t in (("t1", 1), ("tn", int(threads))):
        cfg = WaldSampleConfig(n=int(n), seed=int(seed), threads=t)
        start = time.perf_counter()
        values.append(sample_wald(f, cov, cfg).values)
        times[label] = time.perf_counter() - start
    if not np.array_equal(values[0], values[1]):
        raise SystemExit("sample_wald output depends on the thread count")
    print(json.dumps(times))


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest)
    elif mode == "speedup":
        speedup(*rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
