"""Tightness analysis for general autoregressive sequence models.

The central object is the *EOS hazard* series: ``hazard(t)`` is the
probability that generation stops exactly at step ``t`` given that it has
not stopped earlier.  A model terminates with probability one exactly
when the hazard reaches 1 at some step or the hazard series diverges;
equivalently, the survival product ``prod(1 - hazard(t))`` falls to zero
iff the hazard sum grows without bound (the Borel–Cantelli product/sum
duality for sequences in [0, 1)).

Because only finitely many terms can ever be computed, a numeric series
by itself never proves tightness.  Verdicts here are therefore issued
only against analytic certificates — a divergent lower-bound family on
the EOS probability, a hazard that hits 1, a sub-logarithmic bound on RNN
hidden norms, or (for the non-tight direction) a geometric upper-bound
family whose tail leaves the survival product bounded away from zero.
Everything short of that is reported as inconclusive, with the numbers
attached as evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import Asm, OutOfRange, Str, as_prob
from .sfssm import Sfssm
from .verdicts import Certificate, TightnessVerdict

HIT_ONE_THRESHOLD = 1.0 - 1e-12
DEFAULT_ENUM_BUDGET = 1_000_000
SAMPLE_CHUNK = 65536
_UNSTEPPED = object()  # successor key of a symbol an entry has not stepped along


class BudgetExceeded(RuntimeError):
    """Exhaustive enumeration would exceed the live-state budget."""

    def __init__(self, step: int, frontier: int, budget: int):
        self.step = step
        self.frontier = frontier
        self.budget = budget
        super().__init__(
            f"enumeration needs {frontier} live states at step {step}, budget is {budget}; "
            f"lower the horizon, raise the budget, or use the finite-state engine")


class BoundViolated(ValueError):
    """An asserted bound on the EOS probability failed an empirical check."""

    def __init__(self, step: int, prefix: Str | None, observed: float, bound: float):
        self.step = step
        self.prefix = prefix
        self.observed = observed
        self.bound = bound
        super().__init__(
            f"bound violated at step {step} (prefix {prefix!r}): eos probability {observed!r} vs bound {bound!r}")


class InvalidWeight(ValueError):
    """A model's conditional gave a NaN or negative weight, or a hazard outside [0, 1]."""


class EmptyEvidence(ValueError):
    """The norm-bound test was given no usable evidence."""


@dataclass(frozen=True)
class EosHazardSeries:
    """Per-step stopping hazard plus its running sum and survival product.

    ``values[i]`` is the hazard at step ``i + 1``.  ``hit_one_at`` is the
    first step whose hazard reached 1 (within 1e-12), if any;
    ``support_exhausted_at`` is the step at which no prefix mass remained,
    in which case the series ends just before it.  Either condition means
    generation stops surely, so ``1 - survival[-1]`` is the exact
    termination probability restricted to the computed horizon.
    ``min_eos[i]``, recorded by :func:`eos_hazard_enumerate` only, is the
    smallest EOS probability over the states live at step ``i + 1``.
    """

    values: tuple[float, ...]
    partial_sums: tuple[float, ...]
    survival: tuple[float, ...]
    hit_one_at: int | None = None
    support_exhausted_at: int | None = None
    min_eos: tuple[float, ...] | None = None

    @property
    def horizon(self) -> int:
        return len(self.values)

    @property
    def sure_termination(self) -> bool:
        """True when the computed horizon already proves sure stopping."""
        return self.hit_one_at is not None or self.support_exhausted_at is not None


def _series_from_values(values: list[float], support_exhausted_at: int | None) -> EosHazardSeries:
    sums, survival = [], []
    running_sum, running_prod = 0.0, 1.0
    hit = None
    for i, v in enumerate(values):
        if not 0.0 <= v <= 1.0:
            raise InvalidWeight(f"eos hazard {v!r} at step {i + 1} is outside [0, 1]")
        running_sum += v
        running_prod *= max(0.0, 1.0 - v)
        sums.append(running_sum)
        survival.append(running_prod)
        if hit is None and v >= HIT_ONE_THRESHOLD:
            hit = i + 1
    return EosHazardSeries(values=tuple(values), partial_sums=tuple(sums),
                           survival=tuple(survival), hit_one_at=hit,
                           support_exhausted_at=support_exhausted_at)


class _Entry:
    """A state key's entry in a walk: its state, conditional (computed once),
    successor state key by symbol, and its weight and parent pointer."""

    __slots__ = ("key", "state", "cond", "succ", "weight", "node")

    def __init__(self, asm: Asm, state):
        self.key, self.state, self.cond, self.succ = asm.state_key(state), state, None, None

    def conditional(self, asm: Asm, sampling: bool = False) -> np.ndarray:
        """The conditional as floats, computed once; for ``sampling``, clipped and normalized."""
        if self.cond is None:
            cond = np.asarray(asm.state_conditional(self.state), dtype=float)
            if sampling:
                cond = np.clip(cond, 0.0, None)
                cond = cond / cond.sum()
            self.cond = cond
        return self.cond


def _root(asm: Asm, weight) -> dict:
    """A walk's first frontier; see :func:`_pooled_step`."""
    entry = _Entry(asm, asm.initial_state())
    entry.weight, entry.node = weight, None
    return {entry.key: entry}


def _pooled_step(asm: Asm, groups: dict, splits: list, t: int, budget: int,
                 witness: bool = False) -> dict:
    """Advance the frontier ``groups`` (state key -> entry) by one symbol;
    ``splits[i][j]`` is the weight its ``i``-th entry sends along symbol
    ``j`` (an EOS slot is ignored).  Successors with equal state keys share
    all future conditionals, so they pool exactly.  Only the frontier holds
    entries, one per key; an entry keeps the successor key of each symbol it
    stepped along, so while those stay live it costs only lookups.  With
    ``witness`` an entry keeps its first arrival's ``(node, symbol)`` parent
    pointer; otherwise ``node`` is ``None``, so no ancestor chains are held.
    Raises :class:`InvalidWeight` on a NaN or negative split entry, and
    :class:`BudgetExceeded` past ``budget`` live entries at step ``t``."""
    grown: dict = {}
    nodes = [entry.node for entry in groups.values()]  # before a revisited entry is re-pointed
    for entry, node, split in zip(groups.values(), nodes, splits):
        succ = entry.succ = entry.succ or {}
        for a, w in zip(asm.alphabet.symbols, split):
            if w > 0:
                key = succ.get(a, _UNSTEPPED)
                nxt = grown.get(key) or groups.get(key)
                if nxt is None:
                    nxt = _Entry(asm, asm.step(entry.state, a))
                    nxt = grown.get(nxt.key) or groups.get(nxt.key) or nxt
                    succ[a] = nxt.key
                live = grown.get(nxt.key)
                if live is None:
                    grown[nxt.key] = nxt
                    nxt.weight, nxt.node = w, (node, a) if witness else None
                else:
                    live.weight += w
            elif w != 0:
                raise InvalidWeight(f"symbol {a!r} got weight {w!r} at step {t - 1}; "
                                    f"the model's conditional is not a distribution")
    if len(grown) > budget:
        raise BudgetExceeded(t, len(grown), budget)
    return grown


def _prefix(node) -> Str:
    """The prefix spelled by following ``(parent, symbol)`` pointers to the root."""
    symbols = []
    while node is not None:
        node, a = node
        symbols.append(a)
    return tuple(reversed(symbols))


def eos_hazard_enumerate(asm: Asm, horizon: int,
                         budget: int = DEFAULT_ENUM_BUDGET) -> EosHazardSeries:
    """Hazard series by exhaustive enumeration of reachable states.

    Step ``t`` weighs the EOS probability of every live prefix of length
    ``t - 1`` by the prefix's own probability.  Prefixes whose states share
    a :meth:`Asm.state_key` are pooled and zero-mass ones pruned; if more
    than ``budget`` pooled states are ever live, :class:`BudgetExceeded`
    is raised.  When all prefix mass disappears (the model surely stopped
    earlier) the series ends there and records the step in
    ``support_exhausted_at``.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    eos_idx = asm.alphabet.eos_index
    groups = _root(asm, 1.0)
    values: list[float] = []
    min_eos: list[float] = []
    exhausted = None
    for t in range(1, horizon + 1):
        if not groups:
            exhausted = t
            break
        conds = [entry.conditional(asm) for entry in groups.values()]
        eos = [float(cond[eos_idx]) for cond in conds]
        den = math.fsum(entry.weight for entry in groups.values())
        num = math.fsum(entry.weight * e for entry, e in zip(groups.values(), eos))
        values.append(min(max(num / den, 0.0), 1.0))
        min_eos.append(min(eos))
        if t == horizon:
            break
        splits = [(entry.weight * cond).tolist() for entry, cond in zip(groups.values(), conds)]
        groups = _pooled_step(asm, groups, splits, t + 1, budget)
    return replace(_series_from_values(values, exhausted), min_eos=tuple(min_eos))


def eos_hazard_fsa(m: Sfssm, horizon: int) -> EosHazardSeries:
    """Hazard series for a finite-state model in polynomial time.

    Maintains the unnormalized forward state distribution: the hazard at
    step ``t`` is the termination mass of the distribution divided by its
    total mass, after which the distribution advances through the
    transition-sum matrix.  Agrees with :func:`eos_hazard_enumerate` on
    the adapter ASM.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    p = m.transition_sum
    term = np.asarray(m.term, dtype=float)
    alpha = np.asarray(m.init, dtype=float).copy()
    values: list[float] = []
    exhausted = None
    for t in range(1, horizon + 1):
        den = float(alpha.sum())
        if den <= 0.0:
            exhausted = t
            break
        values.append(min(max(float(alpha @ term) / den, 0.0), 1.0))
        alpha = alpha @ p
    return _series_from_values(values, exhausted)


def termination_cdf(series: EosHazardSeries) -> tuple[float, ...]:
    """Cumulative stopping probability by step: ``1 - survival``.

    Nondecreasing and bounded by 1; converges to the model's termination
    probability as the horizon grows.
    """
    return tuple(as_prob(1.0 - s) for s in series.survival)


# -- bound families ------------------------------------------------------

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
        if self.kind == HARMONIC:
            if self.scale < 0 or self.shift < 0:
                raise OutOfRange("harmonic bound needs c >= 0 and d >= 0")
        elif self.kind == LOG_HARMONIC:
            if self.scale < 0 or self.shift <= 0:
                raise OutOfRange("log-harmonic bound needs c >= 0 and d > 0")
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

    # behaviour --------------------------------------------------------

    def value(self, t: int) -> float:
        if t < 1:
            raise ValueError("steps are 1-based")
        if self.kind == CONSTANT:
            return self.scale
        if self.kind == HARMONIC:
            return self.scale / (t + self.shift)
        if self.kind == LOG_HARMONIC:
            return self.scale / ((t + self.shift) * math.log(t + self.shift))
        if self.kind == GEOMETRIC:
            return self.scale * self.ratio ** t
        return self.entries[t - 1] if t <= len(self.entries) else 0.0

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
        return self.scale * self.ratio ** (after + 1) / (1.0 - self.ratio)

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


def _bound_walk(asm: Asm, bound: EosBoundFamily, steps: int, budget: int, tol: float,
                witness: bool) -> bool:
    """Whether every reachable state's EOS probability is at least ``f(t) - tol`` for
    ``steps`` steps; with ``witness`` a failure raises :class:`BoundViolated` naming the prefix."""
    eos_idx = asm.alphabet.eos_index
    groups = _root(asm, 1.0)
    for t in range(1, steps + 1):
        want = bound.value(t)
        splits = []
        for entry in groups.values():
            cond = entry.conditional(asm)
            observed = float(cond[eos_idx])
            if not observed >= want - tol:  # NaN fails too
                if witness:
                    raise BoundViolated(t, _prefix(entry.node), observed, want)
                return False
            splits.append((entry.weight * cond).tolist())
        if t < steps:
            groups = _pooled_step(asm, groups, splits, t + 1, budget, witness)
    return True


def certify_tight_lower_bound(bound: EosBoundFamily, asm: Asm | None = None,
                              horizon: int = 32, budget: int = 100_000,
                              tol: float = 1e-12,
                              series: EosHazardSeries | None = None) -> TightnessVerdict:
    """Verdict from an asserted per-step lower bound on the EOS probability.

    The caller asserts that every prefix of length ``t - 1`` has EOS
    probability at least ``bound.value(t)``; when ``asm`` is supplied the
    assertion is checked empirically up to ``horizon`` steps (raising
    :class:`BoundViolated` on failure), but the tail remains the caller's
    claim.  Given ``series = eos_hazard_enumerate(asm, horizon, budget)``,
    the check reads its ``min_eos`` instead of walking the same states
    again.  A divergent family certifies tightness; geometric and
    table families cannot — no finite partial sum certifies divergence —
    so they come back inconclusive.
    """
    if asm is not None:
        steps = horizon if bound.claimed_steps is None else min(horizon, bound.claimed_steps)
        lows = None if series is None else series.min_eos
        if lows is not None and (len(lows) >= steps or series.support_exhausted_at is not None):
            holds = all(low >= bound.value(t) - tol for t, low in enumerate(lows[:steps], 1))
        else:
            holds = _bound_walk(asm, bound, steps, budget, tol, witness=False)
        if not holds:  # walk again with parent pointers to name the prefix
            _bound_walk(asm, bound, steps, budget, tol, witness=True)
    if bound.diverges:
        if bound.kind == CONSTANT:
            return TightnessVerdict.tight(
                Certificate.UNIFORM_EOS_BOUND,
                detail=f"eos probability >= {bound.scale:g} at every step")
        return TightnessVerdict.tight(
            Certificate.DIVERGENT_BOUND_FAMILY,
            detail=f"eos probability >= {bound.describe()}, whose series diverges")
    return TightnessVerdict.inconclusive(
        f"lower bound {bound.describe()} has a convergent or unclassified series; "
        f"it cannot certify tightness")


def certify_nontight_upper_bound(series: EosHazardSeries, bound: EosBoundFamily,
                                 tol: float = 1e-12) -> TightnessVerdict:
    """Verdict from an asserted geometric upper bound on the hazard series.

    If ``hazard(t) <= c * r^t`` for all ``t`` (checked against the computed
    series, asserted by the caller beyond it), the survival product after
    the horizon ``T`` shrinks by at most the geometric tail sum, so::

        survival(infinity) >= survival(T) * (1 - sum_{t > T} c * r^t)

    When that lower bound is positive the model provably leaks mass and
    the verdict is non-tight.  Families other than geometric have no
    usable tail sum and come back inconclusive.
    """
    if bound.kind != GEOMETRIC:
        return TightnessVerdict.inconclusive(
            f"upper bound {bound.describe()} does not have a summable tail; "
            f"only geometric upper bounds certify non-tightness")
    for i, observed in enumerate(series.values):
        want = bound.value(i + 1)
        if observed > want + tol:
            raise BoundViolated(i + 1, None, observed, want)
    horizon = series.horizon
    survival = series.survival[-1] if series.values else 1.0
    tail = bound.geometric_tail(horizon)
    leaked = survival * (1.0 - tail)
    if leaked > 0.0:
        return TightnessVerdict.non_tight(
            leaked_mass=leaked,
            detail=(f"hazard <= {bound.describe()}; survival({horizon}) = {survival:.9g} "
                    f"and the tail sum {tail:.3g} cannot recover it"))
    return TightnessVerdict.inconclusive(
        f"geometric tail after step {horizon} is too large to keep the survival "
        f"product away from zero")


def rnn_log_norm_test(k: float, hidden_norms: Sequence[float],
                      threshold_index: int = 1, tol: float = 1e-9) -> TightnessVerdict:
    """Tightness from the sub-logarithmic hidden-norm criterion.

    ``hidden_norms[i]`` must be (an upper bound on) the largest hidden-state
    norm over all prefixes of length ``i``, i.e. the state from which step
    ``i + 1``'s conditional is computed, and ``k`` the largest distance
    between any symbol's output embedding and the EOS output embedding
    (see :meth:`RnnAsm.output_gap`).  If ``k * norm <= log t`` for every
    provided step ``t >= threshold_index``, the EOS probability is bounded
    below by a divergent harmonic-like family and the model is tight.
    Finite evidence cannot refute tightness, so violations yield an
    inconclusive verdict rather than a non-tight one.
    """
    checked = 0
    for i, norm in enumerate(hidden_norms):
        t = i + 1
        if t < threshold_index:
            continue
        checked += 1
        if k * norm > math.log(t) + tol:
            return TightnessVerdict.inconclusive(
                f"k*norm = {k * norm:.6g} exceeds log({t}) = {math.log(t):.6g} at step {t}; "
                f"the norm-growth criterion does not apply")
    if checked == 0:
        raise EmptyEvidence("no hidden norms at or past the threshold index")
    return TightnessVerdict.tight(
        Certificate.LOG_NORM_BOUND,
        detail=f"k*norm <= log t for all {checked} provided steps >= {threshold_index}")


# -- Monte Carlo ---------------------------------------------------------

@dataclass(frozen=True)
class TerminationEstimate:
    """Ancestral-sampling summary.

    Runs that never emit EOS within ``max_len`` draws are *truncated* and
    never counted as terminated, so ``terminated_fraction`` is a lower
    bound on the true termination probability (it estimates the stopping
    CDF at ``max_len``).  ``length_counts`` maps string length to the
    number of sampled strings of that length.
    """

    samples: int
    max_len: int
    seed: int
    terminated: int
    truncated: int
    length_counts: tuple[tuple[int, int], ...]

    @property
    def terminated_fraction(self) -> float:
        return self.terminated / self.samples

    @property
    def truncated_fraction(self) -> float:
        return self.truncated / self.samples

    @property
    def mean_length_of_terminated(self) -> float:
        if self.terminated == 0:
            return math.nan
        return sum(length * count for length, count in self.length_counts) / self.terminated

    @property
    def confidence_halfwidth(self) -> float:
        """95% normal-approximation halfwidth for ``terminated_fraction``."""
        p = self.terminated_fraction
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / self.samples)

    def length_quantile(self, q: float) -> int | None:
        """Quantile of terminated string lengths (None if nothing terminated)."""
        if self.terminated == 0:
            return None
        target = q * self.terminated
        seen = 0
        for length, count in self.length_counts:
            seen += count
            if seen >= target:
                return length
        return self.length_counts[-1][0]


def monte_carlo_termination(asm: Asm, samples: int, max_len: int = 10_000,
                            seed: int = 0) -> TerminationEstimate:
    """Estimate termination behaviour by seeded ancestral sampling.

    Samples are processed in fixed-size chunks of ``SAMPLE_CHUNK``, each
    driven by its own generator substream derived from ``(seed, chunk)``;
    chunks are independent and merged in index order, so a parallel run
    distributing chunks over workers reproduces the serial result exactly.
    Within a chunk, runs sharing the same model state are pooled and
    advanced with one multinomial draw per state, which keeps sampling
    cheap even for huge sample counts; a recurring state's sampling
    distribution and successors are reused, not recomputed at each step.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    eos_idx = asm.alphabet.eos_index
    terminated = 0
    truncated = 0
    lengths: dict[int, int] = {}
    for chunk_index, start in enumerate(range(0, samples, SAMPLE_CHUNK)):
        chunk = min(SAMPLE_CHUNK, samples - start)
        rng = np.random.default_rng([seed, chunk_index])
        groups = _root(asm, chunk)
        for t in range(1, max_len + 1):
            if not groups:
                break
            splits = []
            for entry in groups.values():
                draws = rng.multinomial(entry.weight, entry.conditional(asm, sampling=True)).tolist()
                stopped = draws[eos_idx]
                if stopped:
                    terminated += stopped
                    lengths[t - 1] = lengths.get(t - 1, 0) + stopped
                splits.append(draws)
            groups = _pooled_step(asm, groups, splits, t + 1, chunk)
        truncated += sum(entry.weight for entry in groups.values())
    return TerminationEstimate(
        samples=samples, max_len=max_len, seed=seed,
        terminated=terminated, truncated=truncated,
        length_counts=tuple(sorted(lengths.items())))


# -- product/sum duality -------------------------------------------------

@dataclass(frozen=True)
class DualityReport:
    """Truncated ``prod(1 - p_n)`` and ``sum p_n`` for a sequence in [0, 1).

    The qualitative correspondence — the product falls to zero exactly
    when the sum diverges — is what connects hazard series to termination
    probabilities.
    """

    terms: int
    partial_product: float
    partial_sum: float


def product_sum_duality_check(p_seq: Sequence[float], horizon: int | None = None) -> DualityReport:
    """Compute the truncated survival product and hazard sum of ``p_seq``.

    Entries must lie in ``[0, 1)``; anything else raises
    :class:`OutOfRange`.
    """
    values = list(p_seq)
    if horizon is not None:
        values = values[:horizon]
    product = 1.0
    for i, p in enumerate(values):
        if not (0.0 <= p < 1.0):
            raise OutOfRange(f"entry {i} is {p!r}, outside [0, 1)")
        product *= 1.0 - p
    return DualityReport(terms=len(values),
                         partial_product=product,
                         partial_sum=math.fsum(values))


# -- numeric heuristics (evidence, never certificates) --------------------

def suggests_tight(series: EosHazardSeries, sum_threshold: float = 20.0,
                   survival_threshold: float = 1e-6) -> bool:
    """Numeric-only indication that the hazard series is diverging.

    True when the series already proves sure stopping, or when the partial
    sums exceed ``sum_threshold`` while survival has fallen below
    ``survival_threshold``.  This is evidence for a report, not a
    certificate: no finite prefix of a series proves divergence.
    """
    if series.sure_termination:
        return True
    if not series.values:
        return False
    return (series.partial_sums[-1] > sum_threshold
            and series.survival[-1] < survival_threshold)


def fit_geometric_tail(series: EosHazardSeries, max_ratio: float = 0.999,
                       max_wobble: float = 1.01) -> EosBoundFamily | None:
    """Conservative geometric family dominating the computed hazard values.

    Looks at the step-to-step ratios over the trailing half of the series;
    if they stay below ``max_ratio`` and are stable (largest over smallest
    within ``max_wobble`` — the signature of geometric decay, which
    polynomially decaying series fail because their ratios drift toward
    1), returns ``c * r^t`` with ``r`` the largest observed ratio and
    ``c`` scaled so the family dominates every computed value.  Returns
    None when the series does not look geometric.  The fit only
    summarizes the computed horizon — using it to certify non-tightness
    is the caller's assertion about the tail.
    """
    vals = series.values
    if len(vals) < 4 or series.sure_termination:
        return None
    if any(v <= 0.0 for v in vals):
        return None
    half = len(vals) // 2
    ratios = [vals[i + 1] / vals[i] for i in range(half, len(vals) - 1)]
    if not ratios or max(ratios) >= max_ratio:
        return None
    if max(ratios) > min(ratios) * max_wobble:
        return None
    r = max(ratios)
    c = max(v / r ** (i + 1) for i, v in enumerate(vals))
    if c * r > 1.0:
        return None
    return EosBoundFamily.geometric(c, r)
