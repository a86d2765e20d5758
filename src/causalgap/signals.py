"""Signal containers and delay parameters shared by the analog and digital sides."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._frozen import Frozen

if TYPE_CHECKING:
    import numpy as np

__all__ = ["AnalogDelay", "DigitalDelay", "SampledSignal", "DigitalSequence"]


class AnalogDelay(Frozen):
    """Allowed look-ahead T >= 0 seconds: kernels may extend down to t = -T."""

    __slots__ = ("T",)

    def __init__(self, T: float) -> None:
        if not (math.isfinite(T) and T >= 0.0):
            raise ValueError("delay T must be finite and nonnegative")
        object.__setattr__(self, "T", T)


class DigitalDelay(Frozen):
    """Allowed look-ahead N samples: kernels may extend down to n = -N.

    N is an integer in [0, 2**53 - 1]: the tail sums behind a report start
    at index N + 1, which must stay exact in double precision.
    """

    __slots__ = ("N",)

    def __init__(self, N: int) -> None:
        if not isinstance(N, int) or isinstance(N, bool) or not 0 <= N < 2**53:
            raise ValueError("delay N must be a nonnegative integer below 2**53")
        object.__setattr__(self, "N", N)


def _as_complex_array(values) -> np.ndarray:
    import numpy as np

    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    return _read_only(_finite(arr).copy())


def _finite(arr: np.ndarray) -> np.ndarray:
    """arr itself; ValueError unless every value in it is finite."""
    import numpy as np

    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _sum_of_squares(v: np.ndarray) -> float:
    """sum |v_i|^2 over a contiguous complex vector's floats, by np.einsum: a
    BLAS dot product's sum varies with its thread count."""
    import numpy as np

    w = v.view(np.float64)
    return float(np.einsum("i,i->", w, w))


class SampledSignal(Frozen):
    """Uniform samples values[i] taken at t0 + i*dt."""

    __slots__ = ("t0", "dt", "values")
    _hidden = ("values",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, t0: float, dt: float, values: np.ndarray) -> None:
        self._hold(t0, dt, values, _as_complex_array)

    @classmethod
    def _own(cls, t0: float, dt: float, arr: np.ndarray) -> "SampledSignal":
        """SampledSignal(t0, dt, arr) over arr itself, which it makes read-only.

        There is no copy and no finiteness scan, so arr must be a finite
        complex vector that nothing else will write: one the library has
        just made.
        """
        sig = object.__new__(cls)
        sig._hold(t0, dt, arr, _read_only)
        return sig

    def _hold(self, t0: float, dt: float, values, take) -> None:
        if not (math.isfinite(t0) and math.isfinite(dt)) or dt <= 0:
            raise ValueError("need finite t0 and dt > 0")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "values", take(values))

    def __len__(self) -> int:
        return len(self.values)

    def energy(self) -> float:
        """dt-weighted squared l2 norm, the Riemann proxy for the L2 energy."""
        return self.dt * _sum_of_squares(self.values)


class DigitalSequence(Frozen):
    """Finitely supported sequence: values[i] sits at index offset + i."""

    __slots__ = ("offset", "values")
    _hidden = ("values",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, offset: int, values: np.ndarray) -> None:
        self._hold(offset, values, _as_complex_array)

    @classmethod
    def _own(cls, offset: int, arr: np.ndarray) -> "DigitalSequence":
        """DigitalSequence(offset, arr) over arr itself; see SampledSignal._own."""
        seq = object.__new__(cls)
        seq._hold(offset, arr, _read_only)
        return seq

    def _hold(self, offset: int, values, take) -> None:
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ValueError("offset must be an integer")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "values", take(values))

    def __len__(self) -> int:
        return len(self.values)

    def norm(self) -> float:
        return math.sqrt(_sum_of_squares(self.values))
