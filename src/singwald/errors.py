"""Exception types shared across the package, and the input text format.

Every input file (a polynomial, a covariance matrix, a CSV data matrix) is
UTF-8 text with an optional byte-order mark, in which ``#`` starts a
comment and lines with nothing else are skipped.  :func:`read_input` and
:func:`content_lines` are that format's one reader; each parser keeps only
its own grammar and reports faults at the physical line.
"""


class WaldError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(WaldError, ValueError):
    """Malformed input file.  Carries the path and 1-based line number."""

    def __init__(self, message: str, path: str = "<input>", line: int | None = None):
        loc = f"{path}:{line}" if line is not None else path
        super().__init__(f"{loc}: {message}")
        self.path = path
        self.line = line


class DegenerateSamplingError(WaldError, RuntimeError):
    """Rejection rate of the Monte Carlo engine exceeded its cap.

    Raised when more than 1% of proposed draws hit the denominator guard,
    which signals a degenerate pairing of polynomial and covariance matrix
    rather than ordinary floating-point underflow.
    """


def read_input(path) -> str:
    """The text of the input file ``path``, decoded as UTF-8 without a
    leading byte-order mark."""
    with open(path, encoding="utf-8-sig") as fh:
        return fh.read()


def content_lines(text: str):
    """``(line number, content)`` for each line of ``text`` that holds more
    than a comment or whitespace; the content is stripped of both."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line
