"""The sorted Monte Carlo sample and its step CDF.

Its own module so that ``singwald.sampler``, which returns one, loads
without the limit laws, and ``singwald.laws``, whose samplers return one,
loads without the sampler.
"""

from __future__ import annotations

import numpy as np

from . import _Record

__all__ = ["EmpiricalDistribution"]


class EmpiricalDistribution(_Record):
    """Sorted Monte Carlo sample with step-CDF utilities."""

    values: np.ndarray
    _HIDDEN = ("values",)

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDistribution":
        """The sorted samples, read-only.  A float64 array is sorted in
        place and kept, so the caller hands its buffer over; a list or an
        array of another dtype is copied first."""
        values = np.asarray(samples, dtype=float)
        values.sort()
        if values.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(values)):
            raise ValueError("samples contain non-finite values")
        values.flags.writeable = False
        return cls(values=values)

    @property
    def n(self) -> int:
        return self.values.size

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.searchsorted(self.values, t, side="right") / self.n
        return float(out) if out.ndim == 0 else out

    def mean(self) -> float:
        return float(self.values.mean())
