"""Finite fading-gain alphabets for the relay links.

Both hops are modeled by a finite set of channel power gains together with
a probability mass function. The stock alphabet is an equiprobable
quantization of the power gain of unit-mean Rayleigh fading, i.e. of the
unit-mean exponential distribution.
"""

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FiniteChannel",
    "quantize_equiprobable_exponential",
]

# Construction accepts only pmfs that are normalized to machine accuracy.
_PMF_SUM_EXACT = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteChannel:
    """Finite alphabet of channel power gains with its pmf.

    Gains are finite, strictly ascending and non-negative; pmf entries are
    all positive and sum to one. Instances are immutable (the arrays are
    made read-only), so they can be shared freely across concurrent
    workers. Equality and hashing are by identity.
    """

    gains: np.ndarray
    pmf: np.ndarray

    def __post_init__(self) -> None:
        gains = np.array(self.gains, dtype=float)
        pmf = np.array(self.pmf, dtype=float)
        if gains.ndim != 1 or gains.size == 0:
            raise ValueError("gains must be a non-empty 1-d sequence")
        if pmf.shape != gains.shape:
            raise ValueError(
                f"gains and pmf lengths differ: {gains.size} vs {pmf.size}"
            )
        # each check is written so that a NaN fails it
        ascending = np.all(np.diff(gains) > 0.0)
        if not (ascending and gains[0] >= 0.0 and np.isfinite(gains[-1])):
            raise ValueError(
                "gains must be finite, non-negative and strictly ascending"
            )
        if not np.all(pmf > 0.0):
            raise ValueError("every pmf entry must be positive")
        total = float(pmf.sum())
        if not abs(total - 1.0) <= _PMF_SUM_EXACT:
            raise ValueError(
                f"pmf sums to {total!r}; expected 1 within {_PMF_SUM_EXACT}; "
                "divide the pmf by its sum"
            )
        gains.flags.writeable = False
        pmf.flags.writeable = False
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "pmf", pmf)

    def __reduce__(self):  # unpickled copies, too, get read-only arrays
        return FiniteChannel, (self.gains, self.pmf)

    @property
    def count(self) -> int:
        """Number of channel states."""
        return int(self.gains.size)

    @property
    def max_gain(self) -> float:
        """Largest gain in the alphabet (the last element)."""
        return float(self.gains[-1])

    @functools.cached_property
    def tail(self) -> np.ndarray:
        """Read-only tail[k]: mass of gains k, k+1, ... (0 at k = count),
        summed as numpy sums the selection pmf[gains * u >= threshold] of
        the gains that a transmit energy u delivers through. Each entry is
        numpy's sum of its own suffix, which keeps the closed form, the model
        and the Monte Carlo's scores bit-identical to the scalar reference;
        whichever of them reads it first pays its O(C^2) cost: 0.14 s at
        C = 2e4, 0.56 s at 5e4, 2.3 s at 1e5 (2-vCPU Xeon)."""
        tail = np.append([self.pmf[k:].sum() for k in range(self.count)], 0.0)
        tail.flags.writeable = False
        return tail


def quantize_equiprobable_exponential(n_states: int) -> FiniteChannel:
    """Equiprobable n-bin quantization of the unit-mean exponential gain.

    Bin edges sit at the i/n quantiles, -ln(1 - i/n) for i = 0..n (the
    last edge is infinite), so each bin carries probability exactly 1/n.
    Each bin is represented by its conditional mean,

        ((a+1) e^-a - (b+1) e^-b) / (e^-a - e^-b)   for a bin [a, b),
        a + 1                                        for the last bin [a, inf),

    which preserves the unit mean of the distribution exactly.
    """
    if not (n_states >= 1 and float(n_states).is_integer()):
        raise ValueError(f"n_states must be a positive integer, got {n_states}")
    n = int(n_states)
    # Lower edges t_0..t_{n-1}; log1p keeps the small quantiles accurate.
    edges = -np.log1p(-np.arange(n) / n)
    gains = np.empty(n)
    if n > 1:
        a = edges[:-1]
        w = np.diff(edges)
        # Conditional mean on [a, a+w) rewritten as (a+1) - w e^-w / (1 - e^-w)
        # so that narrow bins do not lose precision to cancellation.
        gains[:-1] = (a + 1.0) - w * np.exp(-w) / (-np.expm1(-w))
    gains[-1] = edges[-1] + 1.0
    pmf = np.full(n, 1.0 / n)
    return FiniteChannel(gains, pmf)
