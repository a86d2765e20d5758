"""Signal containers and delay parameters shared by the analog and digital sides."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["AnalogDelay", "DigitalDelay", "SampledSignal", "DigitalSequence"]


@dataclass(frozen=True)
class AnalogDelay:
    """Allowed look-ahead T >= 0 seconds: kernels may extend down to t = -T."""

    T: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T >= 0.0):
            raise ValueError("delay T must be finite and nonnegative")


@dataclass(frozen=True)
class DigitalDelay:
    """Allowed look-ahead N >= 0 samples: kernels may extend down to n = -N."""

    N: int

    def __post_init__(self) -> None:
        if not isinstance(self.N, int) or isinstance(self.N, bool) or self.N < 0:
            raise ValueError("delay N must be a nonnegative integer")


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


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniform samples values[i] taken at t0 + i*dt."""

    t0: float
    dt: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and math.isfinite(self.dt)) or self.dt <= 0:
            raise ValueError("need finite t0 and dt > 0")
        object.__setattr__(self, "values", _as_complex_array(self.values))

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


@dataclass(frozen=True, eq=False)
class DigitalSequence:
    """Finitely supported sequence: values[i] sits at index offset + i."""

    offset: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.offset, int) or isinstance(self.offset, bool):
            raise ValueError("offset must be an integer")
        object.__setattr__(self, "values", _as_complex_array(self.values))

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
