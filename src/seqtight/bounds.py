"""Per-step bound families on the EOS probability, which a caller asserts and
:mod:`seqtight.tightness` checks against a model's walk and certifies with."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import OutOfRange

CONSTANT = "constant"
HARMONIC = "harmonic"
LOG_HARMONIC = "log-harmonic"
GEOMETRIC = "geometric"
TABLE = "table"


@dataclass(frozen=True)
class EosBoundFamily:
    """A per-step bound ``f(t)`` on the EOS probability, with a divergence
    classification.

    Shapes: ``constant`` is ``eps``; ``harmonic`` is ``c / (t + d)``;
    ``log-harmonic`` is ``c / ((t + d) * log(t + d))``; ``geometric`` is
    ``c * r^t`` with ``0 < r < 1``; ``table`` lists finitely many values
    and claims nothing about the tail.  The first three have divergent
    series (so they can certify tightness when used as lower bounds); a
    geometric family converges; a table has no classification.
    """

    kind: str
    scale: float = 0.0   # eps for constant, c otherwise
    shift: float = 0.0   # d for harmonic / log-harmonic
    ratio: float = 0.0   # r for geometric
    entries: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == TABLE:
            for i, v in enumerate(self.entries):
                if not (0.0 <= v <= 1.0):
                    raise OutOfRange(f"table entry {i} is {v!r}, outside [0, 1]")
            return
        for name in ("scale", "shift", "ratio"):
            if not math.isfinite(getattr(self, name)):
                raise OutOfRange(f"bound {name} must be finite, got {getattr(self, name)!r}")
        if self.kind == HARMONIC:
            if self.scale < 0 or self.shift < 0:
                raise OutOfRange("harmonic bound needs c >= 0 and d >= 0")
        elif self.kind == LOG_HARMONIC:
            if self.scale < 0 or self.shift <= 0 or math.log(1.0 + self.shift) == 0.0:
                raise OutOfRange("log-harmonic bound needs c >= 0 and d > 0 with log(1 + d) > 0")
        elif self.kind == GEOMETRIC:
            if not (0.0 < self.ratio < 1.0):
                raise OutOfRange(f"geometric ratio must be in (0, 1), got {self.ratio!r}")
            if self.scale < 0:
                raise OutOfRange("geometric bound needs c >= 0")
        elif self.kind != CONSTANT:
            raise ValueError(f"unknown bound family kind: {self.kind!r}")
        peak = self.value(1)  # every non-table family is nonincreasing in t
        if not (0.0 <= peak <= 1.0):
            raise OutOfRange(f"bound values leave [0, 1] (peak {peak!r})")

    # constructors ----------------------------------------------------

    @classmethod
    def constant(cls, eps: float) -> "EosBoundFamily":
        return cls(kind=CONSTANT, scale=eps)

    @classmethod
    def harmonic(cls, c: float = 1.0, d: float = 1.0) -> "EosBoundFamily":
        return cls(kind=HARMONIC, scale=c, shift=d)

    @classmethod
    def log_harmonic(cls, c: float = 1.0, d: float = 1.0) -> "EosBoundFamily":
        return cls(kind=LOG_HARMONIC, scale=c, shift=d)

    @classmethod
    def geometric(cls, c: float, r: float) -> "EosBoundFamily":
        return cls(kind=GEOMETRIC, scale=c, ratio=r)

    @classmethod
    def table(cls, values: Sequence[float]) -> "EosBoundFamily":
        return cls(kind=TABLE, entries=tuple(float(v) for v in values))

    @classmethod
    def parse(cls, text: str) -> "EosBoundFamily":
        """The family spelled ``kind:p1,p2,...``, built by that kind's
        constructor, whose signature decides how many parameters it takes:
        ``harmonic`` alone is ``1/(t+1)``, and a table needs at least one
        value.  An unknown kind, or an empty, extra, missing or non-numeric
        field, raises :class:`OutOfRange`, as does a value the constructor
        rejects."""
        kind, colon, rest = text.partition(":")
        make = {CONSTANT: cls.constant, HARMONIC: cls.harmonic, LOG_HARMONIC: cls.log_harmonic,
                GEOMETRIC: cls.geometric,
                TABLE: lambda value, *values: cls.table((value, *values))}.get(kind)
        if make is None:
            raise OutOfRange(f"unknown bound family {kind!r} (choose {CONSTANT}, {HARMONIC}, "
                             f"{LOG_HARMONIC}, {GEOMETRIC}, {TABLE})")
        try:
            params = [float(field) for field in rest.split(",")] if colon else []
            inspect.signature(make).bind(*params)
            return make(*params)
        except (TypeError, ValueError) as exc:  # OutOfRange is a ValueError
            raise OutOfRange(f"invalid bound {text!r}: {exc}") from None

    # behaviour --------------------------------------------------------

    def value(self, t: int) -> float:
        return float(self.values([t])[0])

    def values(self, ts) -> np.ndarray:
        """``f(t)`` for each step in ``ts``, 1-based int64 (past ``2**63 - 1``,
        :class:`OverflowError`).  numpy's log and power are not correctly rounded,
        so log-harmonic and geometric steps take ``math.log`` and ``float.__pow__``."""
        t = np.asarray(ts, dtype=np.int64)
        if (t < 1).any():
            raise ValueError("steps are 1-based")
        if self.kind == CONSTANT:
            return np.full(len(t), self.scale, dtype=float)
        if self.kind == HARMONIC:
            return self.scale / (t + self.shift)
        if self.kind == LOG_HARMONIC:
            x = t + self.shift
            return self.scale / (x * np.fromiter(map(math.log, x.tolist()), float, len(t)))
        if self.kind == GEOMETRIC:
            return self.scale * np.fromiter(map(self.ratio.__pow__, t.tolist()), float, len(t))
        return np.append(self.entries, 0.0)[np.minimum(t, len(self.entries) + 1) - 1]

    @property
    def claimed_steps(self) -> int | None:
        """Number of steps the family covers; None means all of them."""
        return len(self.entries) if self.kind == TABLE else None

    @property
    def diverges(self) -> bool | None:
        """Whether ``sum f(t)`` is infinite; ``None`` when the family makes
        no tail claim (tables)."""
        if self.kind == TABLE:
            return None
        if self.kind == GEOMETRIC:
            return False
        return self.scale > 0.0

    def geometric_tail(self, after: int) -> float:
        """``sum_{t > after} f(t)`` for geometric families."""
        if self.kind != GEOMETRIC:
            raise ValueError("tail sums are only defined for geometric families")
        return self.value(after + 1) / (1.0 - self.ratio)

    def describe(self) -> str:
        if self.kind == CONSTANT:
            return f"constant {self.scale:g}"
        if self.kind == HARMONIC:
            return f"{self.scale:g}/(t+{self.shift:g})"
        if self.kind == LOG_HARMONIC:
            return f"{self.scale:g}/((t+{self.shift:g})*log(t+{self.shift:g}))"
        if self.kind == GEOMETRIC:
            return f"{self.scale:g}*{self.ratio:g}^t"
        return f"table of {len(self.entries)} steps"
