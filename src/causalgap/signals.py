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
    """Allowed look-ahead N >= 0 samples: kernels may extend down to n = -N."""

    __slots__ = ("N",)

    def __init__(self, N: int) -> None:
        if not isinstance(N, int) or isinstance(N, bool) or N < 0:
            raise ValueError("delay N must be a nonnegative integer")
        object.__setattr__(self, "N", N)


def _as_complex_array(values) -> np.ndarray:
    import numpy as np

    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class SampledSignal(Frozen):
    """Uniform samples values[i] taken at t0 + i*dt."""

    __slots__ = ("t0", "dt", "values")
    _hidden = ("values",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, t0: float, dt: float, values: np.ndarray) -> None:
        if not (math.isfinite(t0) and math.isfinite(dt)) or dt <= 0:
            raise ValueError("need finite t0 and dt > 0")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "values", _as_complex_array(values))

    def __len__(self) -> int:
        return len(self.values)

    def times(self) -> np.ndarray:
        import numpy as np

        return self.t0 + self.dt * np.arange(len(self.values))

    def energy(self) -> float:
        """dt-weighted squared l2 norm, the Riemann proxy for the L2 energy."""
        import numpy as np

        return self.dt * float(np.sum(np.abs(self.values) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.energy())


class DigitalSequence(Frozen):
    """Finitely supported sequence: values[i] sits at index offset + i."""

    __slots__ = ("offset", "values")
    _hidden = ("values",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, offset: int, values: np.ndarray) -> None:
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise ValueError("offset must be an integer")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "values", _as_complex_array(values))

    def __len__(self) -> int:
        return len(self.values)

    def indices(self) -> np.ndarray:
        import numpy as np

        return self.offset + np.arange(len(self.values))

    def norm(self) -> float:
        import numpy as np

        return float(np.linalg.norm(self.values))

    def shifted(self, m: int) -> "DigitalSequence":
        return DigitalSequence(self.offset + m, self.values)
