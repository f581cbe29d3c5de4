"""Command-line frontend.

Subcommands: sample, cdf, quantile, classify, tetrad-test, verify, moments.
All output is plain TSV/CSV text so results feed scripts and plotting tools
directly; the seed and version are logged to stderr so the data channel
stays byte-stable.  Exit codes: 0 success, 1 failed theorem-tier
verification, 2 usage or input error, or a request that cannot be
allocated or does not converge.  argparse reports its own usage errors;
every later error reaches :func:`run` as an exception and is printed there
as one ``error:`` line.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .classify import classify
from .gaussian import load_matrix, validate_covariance
from .laws import parse_law
from .poly import load_polynomial
from .sampler import WaldSampleConfig, sample_wald
from .tetrad import (
    TetradIndex,
    load_data_csv,
    tetrad_index_array,
    wald_tetrad_test,
    zero_variance_columns,
)
from .verify import format_report, moment_invariance_check, run_suite


def _default_seed() -> int:
    env = os.environ.get("WALD_SEED")
    if env is None:
        return 42
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"WALD_SEED must be an integer, got {env!r}") from None


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}") from None
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not np.isfinite(value):
            raise ValueError(f"grid {name} must be finite, got {spec!r}")
    if step <= 0 or stop < start or not np.isfinite((stop - start) / step):
        raise ValueError(f"bad grid {spec!r}")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _join_grid_values(argv: list[str]) -> list[str]:
    """Rewrite ``--grid START:STOP:STEP`` as ``--grid=START:STOP:STEP``.

    argparse reads a separate value that starts with '-' and is not a plain
    number (``-1:1:0.5``, ``-inf:0:1``) as an option and stops with
    "expected one argument"; the joined form is never ambiguous.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--grid" and tok.startswith("-") and ":" in tok:
            out[-1] = f"--grid={tok}"
        else:
            out.append(tok)
    return out


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # Global options are registered on the main parser and again on every
    # subparser (with SUPPRESS defaults), so they parse in either position.
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--seed", type=int, default=d,
        help="RNG seed (default: WALD_SEED env var or 42)",
    )
    parser.add_argument(
        "--threads", type=_thread_count, default=d,
        help="worker threads (default: available parallelism); "
        "--threads 1 guarantees bitwise-reproducible output",
    )
    parser.add_argument(
        "--out", default=argparse.SUPPRESS if suppress else "-",
        help="output file (default: stdout)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wald",
        description=(
            "Limit distributions of Wald statistics at singular hypothesis "
            "points: Monte Carlo sampling, closed-form laws, quadratic-form "
            "classification, tetrad testing, and a numerical verification "
            "suite."
        ),
    )
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sub(name: str, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        _add_global_options(p, suppress=True)
        return p

    p = add_sub("sample", help="draw Wald-ratio samples by Monte Carlo")
    p.add_argument("--poly", required=True, help="polynomial file (one term per line)")
    p.add_argument("--sigma", required=True, help="covariance matrix file")
    p.add_argument("--n", type=int, required=True, help="number of draws")

    p = add_sub("cdf", help="tabulate a limit-law CDF on a grid")
    p.add_argument("law", help="law spec, e.g. scaled-chisq:0.25:1, mix2:0.25:0.2, beta-fold:2:2, tetrad")
    p.add_argument("--grid", required=True, help="start:stop:step over t")

    p = add_sub("quantile", help="tabulate limit-law quantiles")
    p.add_argument("law", help="law spec string")
    p.add_argument("--grid", help="start:stop:step over probabilities")
    p.add_argument("--probs", help="comma-separated probabilities")

    p = add_sub("classify", help="limit law of a quadratic form under a covariance")
    p.add_argument("--quad", required=True, help="degree-2 polynomial file")
    p.add_argument("--sigma", required=True, help="covariance matrix file")

    p = add_sub("tetrad-test", help="Wald tetrad test on CSV data")
    p.add_argument("--data", required=True, help="CSV file, optional header row")
    p.add_argument("--indices", help="i,j,k,l zero-based column indices")
    p.add_argument("--all", action="store_true", help="test every tetrad")

    p = add_sub("verify", help="run the numerical verification suite")
    p.add_argument(
        "--suite", choices=("all", "theorems", "conjectures"), default="all"
    )
    p.add_argument("--n", type=int, default=10**6, help="draws per check")

    p = add_sub("moments", help="angular moment table of the bivariate ratio")
    p.add_argument("--sigma", type=float, required=True, help="exponent ratio parameter")
    p.add_argument("--phi", default="0,0.3,0.7,1.2,1.5", help="comma-separated angles in [0, pi/2)")
    p.add_argument("--m", default="1,2,3,4", help="comma-separated moment orders")
    return parser


_WRITE_CHUNK = 1 << 16

_TETRAD_HEADER = "i\tj\tk\tl\tgamma\tt\tp_regular\tp_singular\tregime\n"


def _tetrad_row(idx, gamma, t_stat, p_regular, p_singular, regime) -> str:
    i, j, k, l = idx
    return (
        f"{i}\t{j}\t{k}\t{l}\t{gamma:.10g}\t{t_stat:.10g}\t"
        f"{p_regular:.10g}\t{p_singular:.10g}\t{regime}\n"
    )


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_grid_values(sys.argv[1:] if argv is None else argv))
    out, close = sys.stdout, False
    try:
        seed = args.seed if args.seed is not None else _default_seed()
        threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
        print(f"# wald {__version__} command={args.command} seed={seed} threads={threads}",
              file=sys.stderr)
        out, close = _open_out(args.out)
        return _dispatch(args, seed, threads, out)
    except (ValueError, RuntimeError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if close:
            out.close()


def _dispatch(args, seed: int, threads: int, out) -> int:
    if args.command == "sample":
        poly = load_polynomial(args.poly)
        sigma = validate_covariance(load_matrix(args.sigma))
        cfg = WaldSampleConfig(n=args.n, seed=seed, threads=threads)
        emp = sample_wald(poly, sigma, cfg)
        # One write per chunk: joining all n lines at once would hold a
        # second copy of the whole output in memory.
        for start in range(0, emp.values.size, _WRITE_CHUNK):
            chunk = emp.values[start : start + _WRITE_CHUNK].tolist()
            out.write("%.17g\n" * len(chunk) % tuple(chunk))
        return 0

    if args.command == "cdf":
        law = parse_law(args.law)
        grid = _parse_grid(args.grid)
        vals = np.asarray(law.cdf(grid))
        out.write("t\tF\n")
        for t, v in zip(grid, vals):
            out.write(f"{t:.12g}\t{v:.12g}\n")
        return 0

    if args.command == "quantile":
        law = parse_law(args.law)
        if args.probs:
            probs = [float(tok) for tok in args.probs.split(",")]
        elif args.grid:
            probs = list(_parse_grid(args.grid))
        else:
            raise ValueError("provide --probs or --grid")
        # every quantile before the first write: a bad p leaves no half table
        rows = [f"{p:.12g}\t{law.quantile(p):.12g}\n" for p in probs]
        out.write("p\tQ\n" + "".join(rows))
        return 0

    if args.command == "classify":
        poly = load_polynomial(args.quad)
        sigma = validate_covariance(load_matrix(args.sigma))
        result = classify(poly.to_quadratic_form(), sigma)
        out.write(f"form: {poly}\n")
        out.write(result.describe() + "\n")
        out.write(result.machine_line() + "\n")
        return 0

    if args.command == "tetrad-test":
        data = load_data_csv(args.data)
        if args.all:
            idx = tetrad_index_array(data.p)
        elif args.indices:
            try:
                i, j, k, l = (int(tok) for tok in args.indices.split(","))
            except ValueError:
                raise ValueError("--indices must be i,j,k,l") from None
            idx = [TetradIndex(i, j, k, l)]
        else:
            raise ValueError("provide --indices or --all")
        res = wald_tetrad_test(data, idx)
        bad = res.degenerate
        constant = zero_variance_columns(data) if bad.any() else []
        if bad.any() and not args.all:
            touched = [c for c in constant if c in idx[0]]
            raise ValueError("estimated asymptotic variance is not positive; " + (
                f"the tetrad touches zero-variance columns: {', '.join(map(str, touched))}"
                if touched else "the empirical covariance is degenerate, collect more data"
            ))
        # A degenerate tetrad of a scan keeps its gamma; its statistic and
        # p-values are undefined and print as nan.
        undefined = lambda a: np.where(bad, np.nan, a).tolist()
        out.write(_TETRAD_HEADER + "".join(
            _tetrad_row(*row) for row in zip(
                res.idx.tolist(), res.gamma_hat.tolist(), undefined(res.t_stat),
                undefined(res.p_regular), undefined(res.p_singular),
                np.where(bad, "degenerate", res.regime_hint).tolist(),
            )
        ))
        if bad.any():
            print(f"# {int(bad.sum())} of {bad.size} tetrads are degenerate "
                  "(estimated variance not positive); zero-variance columns: "
                  f"{', '.join(map(str, constant)) or 'none'}", file=sys.stderr)
        return 0

    if args.command == "verify":
        results = run_suite(args.suite, n=args.n, seed=seed, threads=threads)
        out.write(format_report(results))
        failed = [r for r in results if r.tier == "theorem" and not r.passed]
        for r in failed:
            print(f"FAILED theorem-tier check: {r.name}", file=sys.stderr)
        return 1 if failed else 0

    if args.command == "moments":
        phis = [float(tok) for tok in args.phi.split(",")]
        ms = [int(tok) for tok in args.m.split(",")]
        table = moment_invariance_check(args.sigma, phis, ms)
        out.write("m\\phi\t" + "\t".join(f"{p:.12g}" for p in phis) + "\n")
        for r, m in enumerate(ms):
            out.write(
                f"{m}\t" + "\t".join(f"{v:.12g}" for v in table[r]) + "\n"
            )
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
