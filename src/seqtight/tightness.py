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
the EOS probability, a hazard that hits 1, or (for the non-tight
direction) a geometric upper-bound family whose tail leaves the
survival product bounded away from zero.
Everything short of that is reported as inconclusive, with the numbers
attached as evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .bounds import CONSTANT, GEOMETRIC, EosBoundFamily
from .core import PROB_SLACK, Alphabet, Asm, OutOfRange, Str, _distributions, as_prob
from .modelfile import as_asm
from .sfssm import Sfssm, solve_tightness
from .verdicts import Certificate, TightnessVerdict

HIT_ONE_THRESHOLD = 1.0 - 1e-12
DEFAULT_ENUM_BUDGET = 1_000_000
_TOL = 1e-12                # relative slack when checking a computed series against an asserted bound
_SUM_THRESHOLD = 20.0       # suggests_tight: hazard sum above this
_SURVIVAL_THRESHOLD = 1e-6  # and survival below this
_MAX_RATIO = 0.999          # fit_geometric_tail: trailing step-to-step ratios below this
_MAX_WOBBLE = 1.01          # and largest over smallest ratio at most this
_CHAIN_CAP = 1024           # _Chains: most rows asked of one Asm.unroll call


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
    """A walk reached a conditional that is no distribution, or a hazard outside [0, 1]."""


def _invalid(step: int, row: np.ndarray, alphabet: Alphabet) -> InvalidWeight:
    """The error for ``row`` at ``step``: its first negative or non-finite entry, else its sum."""
    bad = np.flatnonzero(~(np.isfinite(row) & (row >= 0)))
    fault = (f"symbol {(*alphabet.symbols, alphabet.eos)[bad[0]]!r} has {float(row[bad[0]])!r}"
             if bad.size else f"it sums to {float(row.sum())!r}")
    return InvalidWeight(f"the conditional at step {step} is not a distribution: {fault}")


@dataclass(frozen=True, eq=False)
class EosHazardSeries:
    """Per-step stopping hazard plus its running sum and survival product,
    each a read-only float64 array (8 bytes a step).

    ``values[i]`` is the hazard at step ``i + 1``.  ``hit_one_at`` is the
    first step whose hazard reached 1 (within 1e-12), if any;
    ``support_exhausted_at`` is the step at which no prefix mass remained,
    in which case the series ends just before it.  Either condition means
    generation stops surely, so ``1 - survival[-1]`` is the exact
    termination probability restricted to the computed horizon.
    ``min_eos[i]``, recorded by :func:`eos_hazard_enumerate` only, is the
    smallest EOS probability over the states live at step ``i + 1``.
    """

    values: np.ndarray
    partial_sums: np.ndarray
    survival: np.ndarray
    hit_one_at: int | None = None
    support_exhausted_at: int | None = None
    min_eos: np.ndarray | None = None

    def __post_init__(self):
        for name in ("values", "partial_sums", "survival", "min_eos"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def horizon(self) -> int:
        return len(self.values)

    @property
    def sure_termination(self) -> bool:
        """True when the computed horizon already proves sure stopping."""
        return self.hit_one_at is not None or self.support_exhausted_at is not None


def _frozen(a) -> np.ndarray:
    """A read-only float64 view of ``a``, which is copied only if it is no such array."""
    a = np.asarray(a, dtype=float).view()
    a.flags.writeable = False
    return a


def _series_from_values(values, support_exhausted_at: int | None) -> EosHazardSeries:
    v = np.asarray(values, dtype=float)
    inside = (v >= 0.0) & (v <= 1.0)  # False for NaN
    if not inside.all():
        i = int(np.argmin(inside))
        raise InvalidWeight(f"eos hazard {float(v[i])!r} at step {i + 1} is outside [0, 1]")
    hits = np.flatnonzero(v >= HIT_ONE_THRESHOLD)
    return EosHazardSeries(values=v, partial_sums=np.cumsum(v), survival=np.cumprod(1.0 - v),
                           hit_one_at=int(hits[0]) + 1 if hits.size else None,
                           support_exhausted_at=support_exhausted_at)


class _Chains:
    """Chains of states that :meth:`Asm.unroll` built along one symbol, with
    their conditionals (for ``sampling``, a list of :func:`_sampling` rows)."""

    def __init__(self, asm: Asm, sampling: bool = False):
        self.asm, self.sampling, self.last, self.symbol, self.states = asm, sampling, None, None, []

    def take(self, state, symbol: int, n: int, left: int | None = None) -> tuple[list, Sequence]:
        """The next ``1..n`` states along symbol index ``symbol`` from ``state``
        and their conditionals, going on from the last state handed out.  A new
        chain has one row, or twice the last if that ran out along ``symbol``,
        but never more than the ``left`` (default ``n``) states the walk can use."""
        grow = state is self.last and symbol == self.symbol
        if not grow or self.used == len(self.states):
            rows = min(2 * len(self.states), _CHAIN_CAP, n if left is None else left) if grow else 1
            batch = self.asm.unroll(state, symbol, rows)
            conds = self.asm.state_conditionals(batch)
            if self.sampling:
                conds = _sampling(conds, self.asm.alphabet)
            self.states, self.conds, self.symbol, self.used = list(batch), conds, symbol, 0
        start, self.used = self.used, min(self.used + n, len(self.states))
        self.last = self.states[self.used - 1]
        return self.states[start:self.used], self.conds[start:self.used]


def _sampling(conds, alphabet: Alphabet, step: int | None = None) -> list:
    """Conditional rows normalized to draw from.  A row that is no distribution
    raises :class:`InvalidWeight` naming ``step``, or with no ``step`` comes
    back as None, to be asked for again if a walk reaches it."""
    conds = np.asarray(conds, dtype=float)
    bad = ~_distributions(conds)
    if step is not None and bad.any():
        raise _invalid(step, conds[int(np.argmax(bad))], alphabet)
    with np.errstate(invalid="ignore"):  # a bad row's unused sum may be inf - inf
        sums = np.where(bad, 1.0, conds.sum(axis=1))[:, None]  # no 0/0 on the rows that come back as None
    return [None if b else row for row, b in zip(conds / sums, bad.tolist())]


def _prefix(asm: Asm, parents: list, row: int, length: int) -> Str:
    """The first ``length`` symbols that first reached row ``row`` of the last block,
    read back through the ``(parent rows, symbol indices, steps)`` blocks ``parents``."""
    symbols = []
    for rows, cols, steps in reversed(parents):
        symbols += [asm.alphabet.symbols[cols[row]]] * steps
        row = rows[row]
    return tuple(reversed(symbols))[:length]


def _frontiers(asm: Asm, steps: int, budget: int, witness: bool = False):
    """Yield ``(span, weights, conds, parents)`` blocks for steps ``1..steps``
    while any state is live.  A one-step block (``span`` is ``range(t, t +
    1)``) holds the frontier: its states' pooled prefix probabilities and
    their conditionals (one :meth:`Asm.state_conditionals` call).  A step
    splits the weights over the symbols as ``weights * conds``; the (row,
    symbol) pairs it sends positive weight are stepped in one
    :meth:`Asm.successors` call, row-major, and pooled by state key: a key
    keeps its first arrival and the sum of its arrivals' weights, added in
    that order.  A single pair starts a stretch read from :class:`_Chains`
    instead: one row per step of ``span``, up to the first row that branches,
    switches symbol or sends no weight on.  With ``witness``, ``parents`` gains
    each block's ``(parent rows, symbol indices, steps)`` of first arrivals, for
    :func:`_prefix`.  Raises :class:`InvalidWeight` at the first row to yield
    that is no distribution, :class:`BudgetExceeded` past ``budget`` rows."""
    states, weights, parents = [asm.initial_state()], np.ones(1), []
    conds = asm.state_conditionals(states)
    chains, span, symbols = _Chains(asm), range(1, 2), asm.alphabet.symbols
    while True:
        bad = ~_distributions(conds)
        if bad.any():  # a block holds one step's rows, or one row a step
            i = int(np.argmax(bad))
            raise _invalid(span[i * len(span) // len(conds)], conds[i], asm.alphabet)
        yield span, weights, conds, parents
        t = span[-1]
        if t == steps:
            return
        if len(span) > 1:  # a stretch, whose last row is the frontier
            states, weights, conds = states[-1:], weights[-1:], conds[-1:]
        moved = weights[:, None] * conds[:, :len(symbols)]
        rows, cols = np.nonzero(moved)
        if not rows.size:
            return
        sent = moved[rows, cols]
        if rows.size == 1 and budget >= 1:
            states, conds = chains.take(states[rows[0]], j := int(cols[0]), steps - t)
            weights = np.multiply.accumulate(np.append(sent, conds[:-1, j]))
            moved = weights[:-1, None] * conds[:-1, :len(symbols)]
            go_on = (moved[:, j] > 0) & ((moved == 0).sum(axis=1) == len(symbols) - 1)
            k = int(np.argmin(np.append(go_on, False))) + 1  # up to the first row that stops
            states, weights, conds, span = states[:k], weights[:k], conds[:k], range(t + 1, t + 1 + k)
        else:
            batch, keys = asm.successors(states, rows, cols)
            first, pooled = _pool(keys)
            if len(first) > budget:
                raise BudgetExceeded(t + 1, len(first), budget)
            states, weights, span = batch, sent, range(t + 1, t + 2)
            if len(first) < len(keys):  # some successors share a state key
                weights = np.bincount(pooled, weights=sent)  # adds in arrival order
                states, rows, cols = batch[first], rows[first], cols[first]
            conds = asm.state_conditionals(states)
        if witness:  # a stretch's later steps each come from row 0, along the same symbol
            parents.append((rows, cols, len(span)))


def _pool(keys) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct state keys in ``keys`` in order of first arrival:
    each key's first index, and each arrival's number.  A 2-D array's keys are
    its rows' bytes, pooled by one sort; any other keys go through a dict."""
    if isinstance(keys, np.ndarray):
        rows = np.ascontiguousarray(keys).reshape(len(keys), -1)
        rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, pooled = np.unique(rows, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")  # the sorted keys' numbers, by first arrival
        return first[order], np.argsort(order, kind="stable")[pooled]
    index: dict = {}
    pooled = np.fromiter((index.setdefault(key, len(index)) for key in keys), np.intp, len(keys))
    return np.unique(pooled, return_index=True)[1], pooled


def eos_hazard_enumerate(asm: Asm, horizon: int,
                         budget: int = DEFAULT_ENUM_BUDGET) -> EosHazardSeries:
    """Hazard series by exhaustive enumeration of reachable states.

    Step ``t`` weighs the EOS probability of every live prefix of length
    ``t - 1`` by the prefix's own probability.  Prefixes whose states share
    a :meth:`Asm.state_key` are pooled and zero-mass ones pruned; if more
    than ``budget`` pooled states are ever live, :class:`BudgetExceeded`
    is raised.  When all prefix mass disappears (the model surely stopped
    earlier) the series ends there and records the step in
    ``support_exhausted_at``.  Each step makes one batch call for the live
    states' conditionals and one for their successors; a stretch of one-row
    steps is read from chains and weighed as one array (see :func:`_frontiers`).
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    eos_idx = asm.alphabet.eos_index
    values, min_eos = bytearray(), bytearray()  # float64s, 8 bytes a step
    for span, weights, conds, _ in _frontiers(asm, horizon, budget):
        eos = conds[:, eos_idx]
        if len(span) == 1:
            num = math.fsum((weights * eos).tolist())
            values += np.float64(min(max(num / math.fsum(weights.tolist()), 0.0), 1.0)).tobytes()
        else:  # one row per step, whose one-term sums are exact
            values += np.minimum(np.maximum(weights * eos / weights, 0.0), 1.0).tobytes()
        min_eos += eos.reshape(len(span), -1).min(axis=1).tobytes()
    exhausted = len(values) // 8 + 1 if len(values) < 8 * horizon else None
    return replace(_series_from_values(np.frombuffer(values), exhausted),
                   min_eos=np.frombuffer(min_eos))


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


def termination_cdf(series: EosHazardSeries) -> np.ndarray:
    """Cumulative stopping probability by step: ``1 - survival``, as a
    read-only float64 array.

    Nondecreasing and bounded by 1; converges to the model's termination
    probability as the horizon grows.
    """
    cdf = 1.0 - np.asarray(series.survival, dtype=float)
    outside = ~((cdf >= -PROB_SLACK) & (cdf <= 1.0 + PROB_SLACK))  # NaN is outside
    if outside.any():
        as_prob(float(cdf[outside.argmax()]))  # raises OutOfRange, naming the first
    return _frozen(np.clip(cdf, 0.0, 1.0, out=cdf))


def certify_tight_lower_bound(bound: EosBoundFamily, asm: Asm | None = None,
                              horizon: int = 32, budget: int = DEFAULT_ENUM_BUDGET,
                              series: EosHazardSeries | None = None) -> TightnessVerdict:
    """Verdict from an asserted per-step lower bound on the EOS probability.

    The caller asserts that every prefix of length ``t - 1`` has EOS
    probability at least ``bound.value(t)``.  Given ``asm``, the first
    ``horizon >= 1`` steps (or a shorter table's) are checked: by reading
    ``series.min_eos`` when ``series = eos_hazard_enumerate(asm, horizon,
    budget)`` covers them, else, or when a minimum fails, by one walk that
    raises :class:`BoundViolated` naming the first failing prefix.  A table of
    no steps makes no model call.  The tail remains the caller's claim.  A
    divergent family certifies tightness; geometric and table families
    cannot — no finite partial sum certifies divergence — so they come back
    inconclusive.
    """
    if asm is not None:
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        steps = horizon if bound.claimed_steps is None else min(horizon, bound.claimed_steps)
        lows = None if series is None else series.min_eos
        held = (lows is not None and (len(lows) >= steps or series.support_exhausted_at is not None)
                and (lows[:steps] >= bound.values(range(1, min(len(lows), steps) + 1))
                     * (1.0 - _TOL)).all())
        if steps and not held:  # one walk, with parent pointers to name the first failing prefix
            eos_idx = asm.alphabet.eos_index
            for span, _, conds, parents in _frontiers(asm, steps, budget, witness=True):
                failed = np.flatnonzero(conds[:, eos_idx] < bound.values(span) * (1.0 - _TOL))
                if failed.size:
                    i, row = divmod(int(failed[0]), len(conds) // len(span))
                    raise BoundViolated(span[i], _prefix(asm, parents, row, span[i] - 1),
                                        float(conds[failed[0], eos_idx]), bound.value(span[i]))
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


def certify_nontight_upper_bound(series: EosHazardSeries, bound: EosBoundFamily) -> TightnessVerdict:
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
    horizon = series.horizon
    want = bound.values(np.arange(1, horizon + 1))
    # a hazard within the smallest normal float of its bound holds: subnormals round coarsely
    above = np.flatnonzero(series.values > want * (1.0 + _TOL) + np.finfo(float).tiny)
    if above.size:
        i = int(above[0])
        raise BoundViolated(i + 1, None, float(series.values[i]), float(want[i]))
    survival = float(series.survival[-1]) if horizon else 1.0
    tail = bound.geometric_tail(horizon)
    leaked = survival * (1.0 - tail)
    if leaked > 0.0:
        return TightnessVerdict.non_tight(
            leaked_mass=leaked,
            detail=(f"hazard <= {bound.describe()}; survival({horizon}) = {survival:.9g} "
                    f"and the tail sum {tail:.3g} cannot recover it"))
    return TightnessVerdict.inconclusive(
        f"upper bound {bound.describe()} leaves a geometric tail after step {horizon} "
        f"too large to keep the survival product away from zero")


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
        """Quantile ``q`` in [0, 1] (else :class:`OutOfRange`) of terminated
        string lengths (None if nothing terminated)."""
        as_prob(q, slack=0.0)
        if self.terminated == 0:
            return None
        seen = np.cumsum([count for _, count in self.length_counts])
        first = int(np.searchsorted(seen, q * self.terminated))  # where seen first reaches it
        return self.length_counts[min(first, len(seen) - 1)][0]


def monte_carlo_termination(asm: Asm, samples: int, max_len: int = 10_000,
                            seed: int = 0) -> TerminationEstimate:
    """Estimate termination behaviour by seeded ancestral sampling.

    One walk draws all ``samples`` runs, 1 to ``2**63 - 1`` (else :class:`OutOfRange`),
    from ``default_rng([seed, 0])``; its cost does not grow with ``samples``.  Runs in
    states with equal :meth:`Asm.state_key` share every future conditional:
    a step draws each live key's runs with one multinomial, in first-arrival
    order, from a table that holds each key of the last two frontiers with
    its state, sampling distribution and successor keys by symbol index.  A
    step's new keys get their conditionals in one :meth:`Asm.state_conditionals`
    call; an uncached successor comes from :meth:`Asm.step`, or, when a lone
    key sends every unstopped run along one symbol, from the chains
    :func:`_frontiers` reads.  A live row that is no distribution raises
    :class:`InvalidWeight` (see :func:`_sampling`).

    The walk stops once no live run's state can stop (:meth:`Asm.can_stop` is
    False for each): those runs count as truncated, as at ``max_len``, a step
    that only draws which runs stop.
    """
    if not 1 <= samples <= np.iinfo(np.int64).max:  # the most runs one rng.multinomial takes
        raise OutOfRange(f"samples is {samples}; one walk draws 1 to 2**63 - 1 runs")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    eos_idx, symbols = asm.alphabet.eos_index, asm.alphabet.symbols
    chains = _Chains(asm, sampling=True)
    lengths: dict[int, int] = {}
    rng = np.random.default_rng([seed, 0])  # not default_rng(seed), which changes every seeded output
    state = asm.initial_state()
    key = asm.state_key(state)
    # state key -> [key, state, sampling distribution, successor key by symbol index]
    table = {key: [key, state, None, {}]}
    frontier = {key: samples}  # key -> runs
    for t in range(1, max_len + 1):
        if fresh := [table[key] for key in frontier if table[key][2] is None]:
            conds = _sampling(asm.state_conditionals([r[1] for r in fresh]), asm.alphabet, t)
            for row, cond in zip(fresh, conds):
                row[2] = cond
        grown: dict = {}
        for key, runs in frontier.items():
            _, state, cond, succ = table[key]
            draw = rng.multinomial(runs, cond)
            draws = draw.tolist()
            stopped = draws[eos_idx]
            if stopped:
                lengths[t - 1] = lengths.get(t - 1, 0) + stopped
            if t == max_len:  # no run goes on: nothing to step
                continue
            for j in draw[:eos_idx].nonzero()[0].tolist():
                if j not in succ or succ[j] not in table:
                    if len(frontier) == 1 and draws[j] == runs - stopped:  # all along j
                        (nxt,), (nxt_cond,) = chains.take(state, j, 1, max_len - t)
                    else:
                        nxt, nxt_cond = asm.step(state, symbols[j]), None
                    k = asm.state_key(nxt)
                    succ[j] = table.setdefault(k, [k, nxt, nxt_cond, {}])[0]
                grown[succ[j]] = grown.get(succ[j], 0) + draws[j]
        if not any(asm.can_stop(table[key][1]) for key in grown):  # also when no run is live
            break
        table = {key: table[key] for key in (*frontier, *grown)}  # a cache of the last two frontiers
        frontier = grown
    terminated = sum(lengths.values())   # every other run is truncated
    return TerminationEstimate(
        samples=samples, max_len=max_len, seed=seed,
        terminated=terminated, truncated=samples - terminated,
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


def product_sum_duality_check(p_seq: Sequence[float]) -> DualityReport:
    """Compute the truncated survival product and hazard sum of ``p_seq``.

    Entries must lie in ``[0, 1)``; anything else raises
    :class:`OutOfRange`.
    """
    values = list(p_seq)
    for i, p in enumerate(values):
        if not (0.0 <= p < 1.0):
            raise OutOfRange(f"entry {i} is {p!r}, outside [0, 1)")
    return DualityReport(terms=len(values), partial_sum=math.fsum(values),
                         partial_product=math.prod((1.0 - p for p in values), start=1.0))


# -- numeric heuristics (evidence, never certificates) --------------------

def suggests_tight(series: EosHazardSeries) -> bool:
    """Numeric-only indication that the hazard series is diverging.

    True when the series already proves sure stopping, or when the partial
    sums exceed 20 while survival has fallen below 1e-6.  This is evidence for a report, not a
    certificate: no finite prefix of a series proves divergence.
    """
    if series.sure_termination:
        return True
    if not series.horizon:
        return False
    return bool(series.partial_sums[-1] > _SUM_THRESHOLD
                and series.survival[-1] < _SURVIVAL_THRESHOLD)


def fit_geometric_tail(series: EosHazardSeries) -> EosBoundFamily | None:
    """Conservative geometric family dominating the computed hazard values.

    Looks at the step-to-step ratios over the trailing half of the series;
    if they stay below 0.999 and are stable (largest over smallest within
    1% — the signature of geometric decay, which polynomially decaying
    series fail because their ratios drift toward 1), returns ``c * r^t``
    with ``r`` the largest observed ratio and ``c`` the largest computed value
    over ``geometric(1, r).values(t)``.  Returns None when the series does
    not look geometric.  The fit only summarizes the computed horizon —
    using it to certify non-tightness is the caller's assertion about the tail.
    """
    vals = series.values
    if len(vals) < 4 or series.sure_termination:
        return None
    if (vals <= 0.0).any():
        return None
    half = len(vals) // 2
    ratios = vals[half + 1:] / vals[half:-1]  # division rounds as in Python
    r = float(ratios.max())
    if r >= _MAX_RATIO or r > float(ratios.min()) * _MAX_WOBBLE:
        return None
    with np.errstate(divide="ignore"):  # a power of r can underflow to 0, giving c = inf
        c = float((vals / EosBoundFamily.geometric(1.0, r).values(range(1, len(vals) + 1))).max())
    if c * r > 1.0:
        return None
    return EosBoundFamily.geometric(c, r)


# -- the analysis pipeline ------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Analysis:
    """What :func:`analyze` found, ``cdf`` being :func:`termination_cdf` of
    ``series``.  ``termination`` is the exact termination
    probability when one is known (the finite-state solve, or 1 once the hazard
    proves sure stopping), else None; ``notes`` say why the bounds and the
    numbers gave no certificate."""

    verdict: TightnessVerdict
    series: EosHazardSeries
    cdf: np.ndarray
    termination: float | None
    estimate: TerminationEstimate | None
    notes: tuple[str, ...]

    @property
    def leaked_mass(self) -> float | None:
        return None if self.termination is None else 1.0 - self.termination


def analyze(model: Sfssm | Asm, *, horizon: int, budget: int = DEFAULT_ENUM_BUDGET,
            bound: EosBoundFamily | None = None, upper: EosBoundFamily | None = None,
            samples: int, max_len: int, seed: int) -> Analysis:
    """Decide or bracket whether ``model`` stops with probability one.

    A finite-state model gets the exact decision and termination probability
    and its hazard series; bounds are ignored and nothing is sampled.  Any
    other model is enumerated for ``horizon`` steps within ``budget`` live
    states (else :class:`BudgetExceeded`) and takes the first certificate
    that holds: a hazard reaching 1 (noting that it leaves any bound
    unchecked), ``bound``, then ``upper``; else it is inconclusive.  Then
    ``samples`` seeded runs of at most ``max_len`` steps estimate its
    termination probability.
    """
    notes: list[str] = []
    if isinstance(model, Sfssm):
        verdict, termination = solve_tightness(model)
        if termination == 0.0:
            notes.append("no useful states: every string has probability 0")
        series = eos_hazard_fsa(model, horizon)
        if bound is not None or upper is not None:
            notes.append("bounds are ignored for finite-state models; the "
                         "co-accessibility decision is exact")
        return Analysis(verdict, series, termination_cdf(series), termination, None, tuple(notes))
    verdict = termination = None
    asm = as_asm(model)
    series = eos_hazard_enumerate(asm, horizon, budget=budget)
    if series.sure_termination:
        step = series.hit_one_at or series.support_exhausted_at
        verdict = TightnessVerdict.tight(Certificate.EOS_HITS_ONE,
                                         detail=f"generation surely stops by step {step}")
        termination = 1.0
        if bound is not None or upper is not None:
            notes.append("bounds are not checked once the hazard series proves sure "
                         "stopping; the eos-hits-one certificate is exact")
    # the first bound that certifies decides; each one that does not leaves a note
    for side, family, certify in (
            ("lower", bound, lambda: certify_tight_lower_bound(bound, asm, horizon, budget,
                                                               series=series)),
            ("upper", upper, lambda: certify_nontight_upper_bound(series, upper))):
        if verdict is not None or family is None:
            continue
        try:
            found = certify()
        except BoundViolated as exc:
            notes.append(f"supplied {side} bound does not hold: {exc}")
            continue
        if found.is_inconclusive:
            notes.append(found.evidence)
        else:
            verdict = found
    if verdict is None:
        if suggests_tight(series):
            notes.append("numeric evidence is consistent with termination probability 1 "
                         "(hazard sums diverging, survival vanishing); supply a divergent "
                         "--bound to certify tightness")
        fit = fit_geometric_tail(series)
        would_leak = None if fit is None else certify_nontight_upper_bound(series, fit).leaked_mass
        if would_leak is not None:
            # full float precision so the suggested flag parses back to the
            # exact validated family (rounded values can fall out of range)
            notes.append(
                f"hazard decays geometrically over the computed horizon "
                f"(<= {fit.describe()}); a geometric upper bound certifies non-tightness "
                f"— rerun with --upper-bound geometric:{fit.scale!r},{fit.ratio!r} "
                f"to certify leaked mass >= {would_leak:.6g}")
        verdict = TightnessVerdict.inconclusive(
            f"no certificate at horizon {series.horizon}: partial hazard sum "
            f"{series.partial_sums[-1]:.6g}, survival {series.survival[-1]:.6g}")
    estimate = (monte_carlo_termination(asm, samples, max_len=max_len, seed=seed)
                if samples > 0 else None)
    return Analysis(verdict, series, termination_cdf(series), termination, estimate, tuple(notes))
