"""Tightness verdicts and the certificates that back them.

A model is *tight* when the probability of generating an endless sequence
is zero, i.e. all probability mass lands on finite strings.  A verdict is
never just a boolean: a ``tight`` verdict names the machine-checkable
certificate that justifies it, a ``non-tight`` verdict carries a witness
state and/or a positive amount of leaked mass, and anything short of a
proof is reported as ``inconclusive`` together with the numeric evidence
gathered.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Certificate(Enum):
    """Why a model is known to be tight."""

    # Every reachable state of a finite-state model can reach termination.
    CO_ACCESSIBILITY = "co-accessibility"
    # EOS probability is bounded below by a constant at every prefix.
    UNIFORM_EOS_BOUND = "uniform-eos-bound"
    # EOS probability is bounded below by a length-indexed family whose
    # series diverges.
    DIVERGENT_BOUND_FAMILY = "divergent-bound-family"
    # The EOS hazard reaches 1 at some finite step: generation surely stops.
    EOS_HITS_ONE = "eos-hits-one"


TIGHT = "tight"
NON_TIGHT = "non-tight"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TightnessVerdict:
    kind: str
    certificate: Certificate | None = None
    detail: str | None = None
    witness_state: int | None = None
    witness_name: str | None = None
    leaked_mass: float | None = None
    evidence: str | None = None

    def __post_init__(self):
        if self.kind not in (TIGHT, NON_TIGHT, INCONCLUSIVE):
            raise ValueError(f"unknown verdict kind: {self.kind!r}")
        if self.kind == NON_TIGHT:
            has_witness = self.witness_state is not None
            has_leak = self.leaked_mass is not None and self.leaked_mass > 0.0
            if not (has_witness or has_leak):
                raise ValueError("non-tight verdict needs a witness state or leaked mass > 0")

    @property
    def is_tight(self) -> bool:
        return self.kind == TIGHT

    @property
    def is_non_tight(self) -> bool:
        return self.kind == NON_TIGHT

    @property
    def is_inconclusive(self) -> bool:
        return self.kind == INCONCLUSIVE

    @classmethod
    def tight(cls, certificate: Certificate, detail: str | None = None) -> "TightnessVerdict":
        return cls(kind=TIGHT, certificate=certificate, detail=detail)

    @classmethod
    def non_tight(cls, *, witness_state: int | None = None, witness_name: str | None = None,
                  leaked_mass: float | None = None, detail: str | None = None) -> "TightnessVerdict":
        return cls(kind=NON_TIGHT, witness_state=witness_state, witness_name=witness_name,
                   leaked_mass=leaked_mass, detail=detail)

    @classmethod
    def inconclusive(cls, evidence: str) -> "TightnessVerdict":
        return cls(kind=INCONCLUSIVE, evidence=evidence)

    def to_dict(self) -> dict:
        """JSON-friendly representation for machine-readable reports."""
        out: dict = {"kind": self.kind}
        if self.certificate is not None:
            out["certificate"] = self.certificate.value
        for key in ("detail", "witness_state", "witness_name", "leaked_mass", "evidence"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def describe(self) -> str:
        if self.kind == TIGHT:
            text = f"tight ({self.certificate.value})"
        elif self.kind == NON_TIGHT:
            parts = []
            if self.witness_name is not None:
                parts.append(f"witness state {self.witness_name}")
            elif self.witness_state is not None:
                parts.append(f"witness state #{self.witness_state}")
            if self.leaked_mass is not None:
                parts.append(f"leaked mass {self.leaked_mass:.9g}")
            text = "non-tight (" + ", ".join(parts) + ")"
        else:
            text = f"inconclusive ({self.evidence})"
        if self.detail:
            text += f" [{self.detail}]"
        return text
