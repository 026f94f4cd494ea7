"""Stochastic finite-state sequence models (SFSSMs).

An SFSSM over an alphabet has ``Q`` states, one nonnegative ``Q x Q``
transition matrix per symbol, an initial-state vector ``s`` summing to 1,
and a termination vector ``t``.  Local normalization requires, for every
state ``q``::

    t[q] + sum over symbols a and states q' of trans[a][q, q'] = 1

The probability of a string is the usual path sum: ``s @ trans[x1] @ ...
@ trans[xn] @ t``.  Tightness — whether those probabilities sum to 1 over
all finite strings — is decidable exactly for this class: the model is
tight iff every state reachable from the start can also reach
termination, and the exact termination mass of a trimmed model is the
solution of a small linear system.

Bigram/n-gram tables are encoded with an explicit start state ("BOS"):
the initial vector is the indicator on that state and the first symbol is
emitted by its outgoing transition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Alphabet, Str, Token, as_prob
from .linalg import solve_linear, spectral_radius_estimate
from .verdicts import Certificate, TightnessVerdict

ROW_TOL = 1e-9


class BadInit(ValueError):
    def __init__(self, total: float):
        self.total = total
        super().__init__(f"initial vector sums to {total!r}, expected 1")


class BadRow(ValueError):
    def __init__(self, state: int, name: str, total: float):
        self.state = state
        self.name = name
        self.total = total
        super().__init__(f"state {name}: outgoing mass plus termination is {total!r}, expected 1")


class NegativeEntry(ValueError):
    def __init__(self, location: tuple):
        self.location = location
        super().__init__(f"negative entry at {location!r}")


class NoUsefulStates(ValueError):
    """Trimming removed everything: no state is both accessible and co-accessible."""


class EmptyCorpus(ValueError):
    """n-gram estimation needs at least one corpus string."""


def _default_names(q: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(q))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Sfssm:
    """A validated stochastic finite-state sequence model.

    Build instances through :func:`build_sfssm`; the constructor only
    checks shapes.  Arrays are stored read-only, so models are safe to
    share across threads.
    """

    alphabet: Alphabet
    trans: Mapping[Token, np.ndarray]
    init: np.ndarray
    term: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        q = len(self.init)
        object.__setattr__(self, "init", _freeze(self.init))
        object.__setattr__(self, "term", _freeze(self.term))
        frozen = {}
        for a in self.alphabet.symbols:
            mat = _freeze(self.trans[a])
            if mat.shape != (q, q):
                raise ValueError(f"transition matrix for {a!r} has shape {mat.shape}, expected {(q, q)}")
            frozen[a] = mat
        object.__setattr__(self, "trans", frozen)
        if self.term.shape != (q,):
            raise ValueError("termination vector length differs from state count")
        if len(self.names) != q:
            raise ValueError("state-name count differs from state count")

    @property
    def num_states(self) -> int:
        return len(self.init)

    @property
    def transition_sum(self) -> np.ndarray:
        """Sum of the per-symbol transition matrices."""
        total = np.zeros((self.num_states, self.num_states))
        for mat in self.trans.values():
            total = total + mat
        return total


@dataclass(frozen=True)
class SubstochasticFssm:
    """A trimmed model: only useful states retained, rows may sum below 1.

    ``state_map[i]`` is the index the ``i``-th retained state had in the
    original model.  The initial vector keeps its original entries (no
    renormalization), so mass placed on removed states is counted as lost
    at step zero — exactly what the termination probability should see.
    """

    alphabet: Alphabet
    trans: Mapping[Token, np.ndarray]
    init: np.ndarray
    term: np.ndarray
    names: tuple[str, ...]
    state_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "init", _freeze(self.init))
        object.__setattr__(self, "term", _freeze(self.term))
        object.__setattr__(self, "trans", {a: _freeze(m) for a, m in self.trans.items()})

    @property
    def num_states(self) -> int:
        return len(self.init)

    @property
    def transition_sum(self) -> np.ndarray:
        total = np.zeros((self.num_states, self.num_states))
        for mat in self.trans.values():
            total = total + mat
        return total


def build_sfssm(alphabet: Alphabet,
                trans: Mapping[Token, np.ndarray],
                init: Sequence[float],
                term: Sequence[float],
                names: Sequence[str] | None = None,
                tol: float = ROW_TOL) -> Sfssm:
    """Validate and construct an SFSSM.

    Raises :class:`NegativeEntry` for negative parameters,
    :class:`BadInit` when the initial vector does not sum to 1 within
    ``tol``, and :class:`BadRow` when a state's outgoing mass plus its
    termination probability is not 1 within ``tol`` (a NaN sum never is).
    """
    init = np.asarray(init, dtype=float)
    term = np.asarray(term, dtype=float)
    q = len(init)
    state_names = tuple(names) if names is not None else _default_names(q)

    for idx in np.flatnonzero(init < 0):
        raise NegativeEntry(("init", int(idx)))
    for idx in np.flatnonzero(term < 0):
        raise NegativeEntry(("term", int(idx)))
    matrices = {}
    for a in alphabet.symbols:
        if a not in trans:
            matrices[a] = np.zeros((q, q))
            continue
        mat = np.asarray(trans[a], dtype=float)
        bad = np.argwhere(mat < 0)
        if len(bad):
            i, j = bad[0]
            raise NegativeEntry(("trans", a, int(i), int(j)))
        matrices[a] = mat
    unknown = set(trans) - set(alphabet.symbols)
    if unknown:
        raise ValueError(f"transition matrices for symbols outside the alphabet: {sorted(unknown)!r}")

    total_init = float(init.sum())
    if not abs(total_init - 1.0) <= tol:
        raise BadInit(total_init)
    row_sums = term.copy()
    for mat in matrices.values():
        row_sums = row_sums + mat.sum(axis=1)
    for idx in range(q):
        if not abs(row_sums[idx] - 1.0) <= tol:
            raise BadRow(idx, state_names[idx], float(row_sums[idx]))

    return Sfssm(alphabet=alphabet, trans=matrices, init=init, term=term, names=state_names)


def string_probability_fsa(m: Sfssm | SubstochasticFssm, x: Iterable[Token]) -> float:
    """Path-sum probability of the string ``x``: ``s @ prod trans[x_t] @ t``."""
    x = m.alphabet.check_string(x)
    alpha = m.init
    for token in x:
        alpha = alpha @ m.trans[token]
    return as_prob(float(alpha @ m.term))


def prefix_probability_fsa(m: Sfssm | SubstochasticFssm, x: Iterable[Token]) -> float:
    """Probability that generation starts with ``x``: ``s @ prod trans[x_t] @ 1``."""
    x = m.alphabet.check_string(x)
    alpha = m.init
    for token in x:
        alpha = alpha @ m.trans[token]
    return as_prob(float(alpha.sum()))


def accessible(m: Sfssm | SubstochasticFssm) -> frozenset[int]:
    """States reachable from positive-initial states along positive edges.

    Edge presence is exact (entry > 0, no tolerance): reachability is a
    combinatorial property of the stored parameters.
    """
    adjacency = m.transition_sum > 0
    frontier = [int(i) for i in np.flatnonzero(m.init > 0)]
    seen = set(frontier)
    while frontier:
        q = frontier.pop()
        for nxt in np.flatnonzero(adjacency[q]):
            if int(nxt) not in seen:
                seen.add(int(nxt))
                frontier.append(int(nxt))
    return frozenset(seen)


def coaccessible(m: Sfssm | SubstochasticFssm) -> frozenset[int]:
    """States from which some positive-termination state is reachable."""
    adjacency = m.transition_sum > 0
    frontier = [int(i) for i in np.flatnonzero(m.term > 0)]
    seen = set(frontier)
    while frontier:
        q = frontier.pop()
        for prev in np.flatnonzero(adjacency[:, q]):
            if int(prev) not in seen:
                seen.add(int(prev))
                frontier.append(int(prev))
    return frozenset(seen)


def useful_states(m: Sfssm | SubstochasticFssm) -> frozenset[int]:
    return accessible(m) & coaccessible(m)


def trim(m: Sfssm) -> SubstochasticFssm:
    """Drop every non-useful state, preserving all string probabilities.

    Raises :class:`NoUsefulStates` when nothing survives (the model
    assigns probability 0 to every string).
    """
    keep = sorted(useful_states(m))
    if not keep:
        raise NoUsefulStates("no state is both accessible and co-accessible")
    idx = np.asarray(keep, dtype=int)
    return SubstochasticFssm(
        alphabet=m.alphabet,
        trans={a: mat[np.ix_(idx, idx)] for a, mat in m.trans.items()},
        init=m.init[idx],
        term=m.term[idx],
        names=tuple(m.names[i] for i in keep),
        state_map=tuple(keep),
    )


def termination_probability(m: SubstochasticFssm) -> float:
    """Total probability of generating a finite string, computed exactly.

    Solves ``(I - P) y = t`` for the trimmed transition-sum matrix ``P``
    and returns ``s @ y``.  Trimming guarantees the system is nonsingular.
    """
    p = m.transition_sum
    y = solve_linear(np.eye(m.num_states) - p, np.asarray(m.term))
    return as_prob(float(m.init @ y), slack=1e-9)


def check_spectral_radius(m: SubstochasticFssm) -> float:
    """Power-iteration estimate of the trimmed transition matrix's spectral
    radius.  Must come out below 1 for any genuinely trimmed model; that is
    asserted here so test runs catch violations."""
    estimate, bound = spectral_radius_estimate(m.transition_sum)
    assert estimate < 1.0, f"trimmed model has spectral radius estimate {estimate} (bound {bound})"
    return estimate


def decide_tight(m: Sfssm) -> TightnessVerdict:
    """Exact tightness decision: tight iff accessible implies co-accessible.

    A non-tight verdict reports the lowest-index accessible state that
    cannot reach termination plus the exact leaked mass (one minus the
    termination probability).
    """
    acc = accessible(m)
    coacc = coaccessible(m)
    bad = sorted(acc - coacc)
    if not bad:
        return TightnessVerdict.tight(Certificate.CO_ACCESSIBILITY,
                                      detail="every accessible state is co-accessible")
    try:
        reached = termination_probability(trim(m))
    except NoUsefulStates:
        reached = 0.0
    witness = bad[0]
    return TightnessVerdict.non_tight(
        witness_state=witness,
        witness_name=m.names[witness],
        leaked_mass=1.0 - reached,
        detail=f"state {m.names[witness]} is accessible but cannot reach termination",
    )


_BOS = "\x00BOS"  # internal history placeholder; never a corpus token


def _shift(history: tuple, token: Token, width: int) -> tuple:
    return (history + (token,))[-width:] if width else ()


def mle_ngram(corpus: Sequence[Sequence[Token]], order: int,
              eos: Token = "EOS") -> Sfssm:
    """Maximum-likelihood n-gram model of the given ``order`` (n >= 1).

    States are the length ``order - 1`` histories actually observed in the
    corpus, padded on the left with a start placeholder; transition and
    termination probabilities are relative event counts per history.  The
    start history gets all initial mass.  Every state observed in a corpus
    string can, by construction, finish generating that string, so the
    resulting model is always tight.
    """
    corpus = [tuple(x) for x in corpus]
    if not corpus:
        raise EmptyCorpus("corpus contains no strings")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    symbols = sorted({tok for x in corpus for tok in x})
    if eos in symbols:
        raise ValueError(f"corpus uses the reserved end-of-sequence token {eos!r}")
    if _BOS in symbols:
        raise ValueError("corpus uses the reserved start placeholder token")
    alphabet = Alphabet(tuple(symbols), eos=eos)

    width = order - 1
    start = (_BOS,) * width
    counts: dict[tuple, Counter] = {}
    history_order: list[tuple] = []

    def bump(history: tuple, event) -> None:
        if history not in counts:
            counts[history] = Counter()
            history_order.append(history)
        counts[history][event] += 1

    for x in corpus:
        history = start
        for token in x:
            bump(history, token)
            history = _shift(history, token, width)
        bump(history, None)  # end-of-string event

    q = len(history_order)
    index = {h: i for i, h in enumerate(history_order)}
    trans = {a: np.zeros((q, q)) for a in alphabet.symbols}
    term = np.zeros(q)
    for h, events in counts.items():
        total = sum(events.values())
        for event, c in events.items():
            if event is None:
                term[index[h]] = c / total
            else:
                trans[event][index[h], index[_shift(h, event, width)]] = c / total
    init = np.zeros(q)
    init[index[start]] = 1.0

    # Histories become display names ("BOS", "a", "BOS,a", ...); fall back
    # to generic indices if corpus tokens make the joined names collide.
    names = tuple(",".join("BOS" if part == _BOS else part for part in h) if h else "BOS"
                  for h in history_order)
    if len(set(names)) != q:
        names = _default_names(q)
    return build_sfssm(alphabet, trans, init, term, names=names)
