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

from . import SUITES, __version__, _importer

# module -> the callees of the commands.  Each is imported on first use, so
# a command loads only the modules it runs.
__getattr__ = _importer(globals(), {
    "classify": ("classify",),
    "errors": ("ParseError",),
    "gaussian": ("load_matrix", "validate_covariance"),
    "laws": ("parse_law",),
    "poly": ("load_polynomial",),
    "sampler": ("WaldSampleConfig", "sample_wald"),
    "tetrad": (
        "TetradIndex",
        "load_data_csv",
        "tetrad_index_array",
        "wald_tetrad_test",
        "zero_variance_columns",
    ),
    "textout": ("_lines",),
    "verify": ("format_report", "moment_invariance_check", "run_suite"),
})
# This module, read by attribute: a callee is imported when first read, and
# one replaced here (a tracer's wrapper, a test's stub) is the one called.
_cli = sys.modules[__name__]


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


def _parse_list(option: str, text: str, kind=float) -> list:
    """The comma-separated values of ``option``; a bad value names both."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValueError(f"{option} must be comma-separated {noun}, got {text!r}") from None


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


def _available_cpus() -> int:
    """The CPUs this process may run on, where the platform says so."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        help="worker threads (default: the CPUs this process may use); "
        "the output does not depend on the thread count",
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
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--grid", help="start:stop:step over probabilities")
    given.add_argument("--probs", help="comma-separated probabilities")

    p = add_sub("classify", help="limit law of a quadratic form under a covariance")
    p.add_argument("--quad", required=True, help="degree-2 polynomial file")
    p.add_argument("--sigma", required=True, help="covariance matrix file")

    p = add_sub("tetrad-test", help="Wald tetrad test on CSV data")
    p.add_argument("--data", required=True, help="CSV file, optional header row")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--indices", help="i,j,k,l zero-based column indices")
    given.add_argument("--all", action="store_true", help="test every tetrad")

    p = add_sub("verify", help="run the numerical verification suite")
    p.add_argument("--suite", choices=tuple(SUITES), default="all")
    p.add_argument("--n", type=int, default=10**6, help="draws per check")

    p = add_sub("moments", help="angular moment table of the bivariate ratio")
    p.add_argument("--sigma", type=float, required=True, help="exponent ratio parameter")
    p.add_argument("--phi", default="0,0.3,0.7,1.2,1.5", help="comma-separated angles in [0, pi/2)")
    p.add_argument("--m", default="1,2,3,4", help="comma-separated moment orders")
    return parser


_TETRAD_HEADER = "i\tj\tk\tl\tgamma\tt\tp_regular\tp_singular\tregime\n"


def _tetrad_columns(res) -> list:
    """The table columns of the tetrads of ``res``: its indices, gamma, the
    statistic, both p-values and its regime.  A degenerate tetrad keeps its
    gamma; its statistic and p-values are undefined and print as nan."""
    idx = np.reshape(res.idx, (-1, 4))
    names = range(int(idx.max(initial=0)) + 1)
    bad = np.atleast_1d(res.degenerate)
    undefined = lambda a: np.where(bad, np.nan, a)
    regime = np.where(bad, 2, res.regime_hint == "near_singular")
    return [
        *((i, names) for i in idx.T), np.atleast_1d(res.gamma_hat),
        undefined(res.t_stat), undefined(res.p_regular), undefined(res.p_singular),
        (regime, ("regular", "near_singular", "degenerate")),
    ]


def _write_table(out, header: str, columns, digits: int) -> None:
    """``header``, then the rows of ``columns`` with floats at ``digits``
    significant digits, one write per block of lines."""
    out.write(header)
    for block in _cli._lines(columns, digits):
        out.write(block)


def _covariance(path: str):
    """The validated covariance of the matrix file ``path``; a matrix that
    validation rejects is named like a file that does not parse."""
    matrix = _cli.load_matrix(path)
    try:
        return _cli.validate_covariance(matrix)
    except ValueError as exc:
        raise _cli.ParseError(str(exc), path) from exc


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
        threads = args.threads if args.threads is not None else _available_cpus()
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
        poly = _cli.load_polynomial(args.poly)
        sigma = _covariance(args.sigma)
        cfg = _cli.WaldSampleConfig(n=args.n, seed=seed, threads=threads)
        _write_table(out, "", [_cli.sample_wald(poly, sigma, cfg).values], 17)
        return 0

    if args.command == "cdf":
        law = _cli.parse_law(args.law)
        grid = _parse_grid(args.grid)
        _write_table(out, "t\tF\n", [grid, law.cdf(grid)], 12)
        return 0

    if args.command == "quantile":
        law = _cli.parse_law(args.law)
        if args.probs is not None:
            probs = _parse_list("--probs", args.probs)
        else:
            probs = list(_parse_grid(args.grid))
        # every quantile before the first write: a bad p leaves no half table
        quantiles = [law.quantile(p) for p in probs]
        _write_table(out, "p\tQ\n", [probs, quantiles], 12)
        return 0

    if args.command == "classify":
        poly = _cli.load_polynomial(args.quad)
        sigma = _covariance(args.sigma)
        result = _cli.classify(poly.to_quadratic_form(), sigma)
        out.write(f"form: {poly}\n")
        out.write(result.describe() + "\n")
        out.write(result.machine_line() + "\n")
        return 0

    if args.command == "tetrad-test":
        data = _cli.load_data_csv(args.data)
        if args.all:
            idx = _cli.tetrad_index_array(data.p)
        else:
            try:
                i, j, k, l = (int(tok) for tok in args.indices.split(","))
            except ValueError:
                raise ValueError("--indices must be i,j,k,l") from None
            idx = [_cli.TetradIndex(i, j, k, l)]
        res = _cli.wald_tetrad_test(data, idx)
        bad = res.degenerate
        constant = _cli.zero_variance_columns(data) if bad.any() else []
        if bad.any() and not args.all:
            touched = [c for c in constant if c in idx[0]]
            raise ValueError("estimated asymptotic variance is not positive; " + (
                f"the tetrad touches zero-variance columns: {', '.join(map(str, touched))}"
                if touched else "the empirical covariance is degenerate, collect more data"
            ))
        _write_table(out, _TETRAD_HEADER, _tetrad_columns(res), 10)
        if bad.any():
            print(f"# {int(bad.sum())} of {bad.size} tetrads are degenerate "
                  "(estimated variance not positive); zero-variance columns: "
                  f"{', '.join(map(str, constant)) or 'none'}", file=sys.stderr)
        return 0

    if args.command == "verify":
        results = _cli.run_suite(args.suite, n=args.n, seed=seed, threads=threads)
        out.write(_cli.format_report(results))
        failed = [r for r in results if r.tier == "theorem" and not r.passed]
        for r in failed:
            print(f"FAILED theorem-tier check: {r.name}", file=sys.stderr)
        return 1 if failed else 0

    if args.command == "moments":
        phis = _parse_list("--phi", args.phi)
        ms = _parse_list("--m", args.m, int)
        table = _cli.moment_invariance_check(args.sigma, phis, ms)
        header = "m\\phi\t" + "\t".join(f"{p:.12g}" for p in phis) + "\n"
        _write_table(out, header, [(range(len(ms)), ms), *table.T], 12)
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    """Run the command, flush stdout and stderr, and end the process at
    once with :func:`run`'s exit code.

    ``os._exit`` skips the teardown of numpy and of every loaded module,
    which costs a fresh process about 10 ms after its last byte.  Nothing is
    left for the teardown to close: :func:`run` closes the ``--out`` file
    and both thread pools are context-managed.  A record that must outlive
    the command, such as a trace, has to be written before this exit.  An
    exception from :func:`run` (argparse's ``SystemExit`` included) leaves
    through the normal path.  A flush that fails (a closed pipe) is an
    output fault: one ``error:`` line and exit 2.  :func:`run` returns 2
    only after printing its own ``error:`` line, so a failure it already
    reported adds none.
    """
    code = run()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code != 2:
            print(f"error: {exc}", file=sys.stderr)
        code = 2
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    main()
