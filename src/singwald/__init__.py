"""Limit distributions of Wald statistics at singular hypothesis points.

When the gradient of a tested constraint vanishes at the true parameter,
the Wald statistic no longer converges to chi-square-1 but to a rational
function of a normal vector, determined by a homogeneous polynomial and a
covariance matrix.  This package computes, samples, classifies, and
empirically verifies those limit laws, and applies them as a
singularity-aware tetrad test for covariance matrices.

The public names below are loaded on first use (PEP 562), so importing the
package, or one command of ``wald``, compiles only the modules it runs.
"""

import importlib
import sys
import threading
import types
from collections import deque

__version__ = "0.1.0"

# Rows, points or values per block of every blocked loop: the polynomial
# kernel and the row quadratic form of ``poly``, the distribution functions
# of ``special``, the tetrad kernel, the text of ``textout`` and the row
# chunks of ``gaussian._chunks``.  Declared here, which every command
# loads, so that ``special`` and ``textout`` load without ``poly``.
# 2^14 keeps a block's temporaries in a 2 MB cache and amortises numpy's
# per-call cost well enough that two sampler threads still scale: at 2^12
# rows the threads serialised on the interpreter lock, and 2^16 rows saved
# about a tenth at two threads for four times the temporaries, which are
# then mapped and faulted in anew.  On 2^18 rows at one BLAS thread
# (medians of 15 interleaved runs, 2-core Xeon) the row quadratic form
# took 1.9 / 4.9 / 8.7 / 18.1 ms for k = 2 / 3 / 4 / 6 in blocks of 2^14,
# against 2.3 / 5.0 / 8.7 / 17.8 ms at 2^13, 2.1 / 6.3 / 11.1 / 24.7 ms at
# 2^16, and 13.4 / 20.0 / 27.1 / 46.5 ms for the einsum it replaces.  On a
# sorted sample, text took 1.2 times the time per value of 2^14 in blocks
# of 2^13 and 1.25 times in blocks of 2^15.
_BLOCK = 1 << 14


class _Record:
    """Base of the package's immutable records, which behave as frozen
    dataclasses without a class factory: ``dataclasses`` compiles each
    record's methods by ``exec`` when its class is created, which every
    fresh process paid again.

    A record declares its fields as annotations, after those of a record
    it derives from; a class attribute of a field's name is its default.
    Fields named in ``_HIDDEN`` are left out of the repr.  The constructor
    binds the fields by position and keyword and then calls
    ``__post_init__``, which may set attributes through
    ``object.__setattr__``; nothing else can.  Records are equal when their
    types and fields are, and hash as the tuple of their fields.
    """

    _FIELDS: tuple = ()
    _DEFAULTS: dict = {}
    _HIDDEN: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__annotations__ if name not in cls._FIELDS]
        cls._FIELDS = cls._FIELDS + tuple(own)
        cls._DEFAULTS = {**cls._DEFAULTS, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields, defaults = cls._FIELDS, cls._DEFAULTS
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes at most {len(fields)} fields {fields}")
        state = self.__dict__
        state.update(zip(fields, args))
        for name in fields[len(args) :]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__} is missing the field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unknown or repeated fields {tuple(kwargs)}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = (f"{n}={getattr(self, n)!r}" for n in self._FIELDS if n not in self._HIDDEN)
        return f"{type(self).__qualname__}({', '.join(shown)})"


class _ThreadPool:
    """An ordered ``map`` over worker threads, in the call shape of
    ``concurrent.futures.ThreadPoolExecutor``, whose import would load
    ``logging`` and ``queue`` into every command that maps its work.

    ``map`` hands the items out in order to ``max_workers`` threads, at
    most one per item, and returns the results in item order.  After a
    task raises, no further item starts; once the running ones finish, the
    exception of the earliest failed item is raised in the caller.  One
    worker or one item runs on the calling thread: a pool thread takes its
    own malloc arena, which costs peak memory for no speed-up.

    ``sampler`` and ``verify`` import it as ``ThreadPoolExecutor`` and call
    ``with ThreadPoolExecutor(max_workers=n) as pool: pool.map(...)``,
    because ``bench/tracer.py`` swaps its traced pool in under that name.
    """

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        self._workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items) -> list:
        tasks = deque(enumerate(items))
        if self._workers == 1 or len(tasks) <= 1:
            return [fn(item) for _, item in tasks]
        results = [None] * len(tasks)
        failures = []

        def work():
            # deque.popleft is atomic, so each item runs once
            while True:
                try:
                    i, item = tasks.popleft()
                except IndexError:
                    return
                try:
                    results[i] = fn(item)
                except BaseException as exc:
                    failures.append((i, exc))
                    tasks.clear()

        threads = [threading.Thread(target=work) for _ in range(min(self._workers, len(tasks)))]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        finally:
            tasks.clear()  # an interrupted caller starts no further item
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        return results


# suite name -> the verification tiers it runs.  Declared here, not in
# ``verify``, so that the ``wald`` parser lists the suites without loading
# the checks.
SUITES = {
    "all": ("theorem", "conjecture"),
    "theorems": ("theorem",),
    "conjectures": ("conjecture",),
}

# module -> the public names it defines
_PUBLIC = {
    "classify": ("QuadraticClassification", "classify", "k_alpha", "sample_canonical"),
    "empirical": ("EmpiricalDistribution",),
    "errors": ("DegenerateSamplingError", "ParseError", "WaldError"),
    "gaussian": (
        "CovarianceMatrix",
        "eigenvalues_of_product",
        "factor",
        "make_generator",
        "validate_covariance",
    ),
    "laws": (
        "FoldedBetaProduct",
        "LimitLaw",
        "ScaledChiSquare",
        "TetradSingular",
        "TwoChiSquareMix",
        "monomial_law",
        "parse_law",
        "stable_cdf",
    ),
    "poly": (
        "HomogeneousPolynomial",
        "MonomialForm",
        "QuadraticForm",
        "load_polynomial",
        "parse_polynomial",
    ),
    "sampler": (
        "WaldSampleConfig",
        "dominance_check",
        "ks_distance",
        "sample_wald",
        "two_sample_ks",
    ),
    "special": ("tetrad_singular_cdf",),
    "tetrad": (
        "DataMatrix",
        "TetradIndex",
        "TetradWald",
        "asymptotic_v_normal",
        "empirical_covariance",
        "tetrad_wald",
        "wald_tetrad_test",
    ),
    "verify": ("VerificationResult", "run_suite"),
}

__all__ = ["__version__", *(name for names in _PUBLIC.values() for name in names)]


def _importer(namespace: dict, public: dict):
    """A module ``__getattr__`` (PEP 562) that imports each name of
    ``public`` (module -> names) from its module of this package on first
    use and keeps it in ``namespace``, the calling module's globals."""
    module_of = {name: module for module, names in public.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        return value

    return __getattr__


__getattr__ = _importer(globals(), _PUBLIC)


class _Package(types.ModuleType):
    """The import system binds every loaded submodule as an attribute of
    its package.  A submodule named like a public name (``classify``) is
    not bound, so that name stays the function, whatever loaded first."""

    def __setattr__(self, name, value):
        if not (name in __all__ and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
