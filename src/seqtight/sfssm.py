"""Stochastic finite-state sequence models (SFSSMs).

An SFSSM over an alphabet has ``Q`` states, nonnegative per-symbol
transition weights, an initial-state vector ``s`` summing to 1, and a
termination vector ``t``.  Local normalization requires, for every state
``q``::

    t[q] + (total weight of the edges leaving q, over all symbols) = 1

The probability of a string is the usual path sum: ``s @ T[x1] @ ... @
T[xn] @ t`` where ``T[a]`` is the ``Q x Q`` matrix of symbol ``a``'s
edges.  Tightness — whether those probabilities sum to 1 over all finite
strings — is decidable exactly for this class: the model is tight iff
every state reachable from the start can also reach termination, and the
exact termination mass of a trimmed model is the solution of one linear
system.

Transitions are stored as ``E`` nonzero edges, never as dense per-symbol
matrices: flat arrays ``src``, ``dst`` and ``prob`` in canonical order
(alphabet order of the symbol, then row-major by ``src`` and ``dst``),
with ``offsets[k]:offsets[k + 1]`` the edges of the ``k``-th symbol, the
layout of a compressed sparse row index.  Each model caches the dense
``Q x Q`` transition-sum matrix and a ``Q x (V + 1)`` row-mass matrix on
first use, so memory is O(E + Q^2 + QV) for ``V`` symbols.

Bigram/n-gram tables are encoded with an explicit start state ("BOS"):
the initial vector is the indicator on that state and the first symbol is
emitted by its outgoing transition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Alphabet, Token, as_prob
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


class SpectralRadiusTooLarge(ValueError):
    """A model that should be trimmed has transition spectral radius 1."""


class TerminationShortfall(ArithmeticError):
    """A tight verdict met a termination probability further below 1 than
    the model's row rounding allows: the decision and the solve disagree."""


def _default_names(q: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(q))


def _freeze(arr, dtype=float) -> np.ndarray:
    arr = np.array(arr, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Sfssm:
    """A stochastic finite-state sequence model.

    Build instances through :func:`build_sfssm`; the constructor only
    checks shapes and index ranges.  Edge ``e`` moves from state
    ``src[e]`` to ``dst[e]`` with probability ``prob[e]``; the edges of
    the ``k``-th alphabet symbol are ``offsets[k]:offsets[k + 1]``, in
    row-major order, and no stored edge is zero.  Arrays are stored
    read-only, so models are safe to share across threads.

    ``state_map`` is ``None`` for a validated model.  :func:`trim` sets it:
    ``state_map[i]`` is the index the ``i``-th retained state had in the
    model it was trimmed from, and rows may then sum below 1.
    """

    alphabet: Alphabet
    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray
    offsets: np.ndarray
    init: np.ndarray
    term: np.ndarray
    names: tuple[str, ...]
    state_map: tuple[int, ...] | None = None

    def __post_init__(self):
        for name, dtype in (("src", np.intp), ("dst", np.intp), ("prob", float),
                            ("offsets", np.intp), ("init", float), ("term", float)):
            object.__setattr__(self, name, _freeze(getattr(self, name), dtype))
        q, e = len(self.init), len(self.prob)
        if self.src.shape != (e,) or self.dst.shape != (e,) or not (
                (0 <= self.src) & (self.src < q) & (0 <= self.dst) & (self.dst < q)).all():
            raise ValueError(f"src and dst need one state index below {q} per edge")
        if (self.offsets.shape != (self.alphabet.size + 1,) or self.offsets[0] != 0
                or self.offsets[-1] != e or (np.diff(self.offsets) < 0).any()):
            raise ValueError("offsets must rise from 0 to the edge count, one step per symbol")
        if self.term.shape != (q,):
            raise ValueError("termination vector length differs from state count")
        if len(self.names) != q:
            raise ValueError("state-name count differs from state count")

    @property
    def num_states(self) -> int:
        return len(self.init)

    @cached_property
    def _by_symbol(self) -> dict[Token, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        # cut once: slicing by ``offsets`` on every call makes ``forward``,
        # which runs once per token, about 1.5x slower
        bounds = self.offsets.tolist()
        return {a: (self.src[lo:hi], self.dst[lo:hi], self.prob[lo:hi])
                for a, lo, hi in zip(self.alphabet.symbols, bounds, bounds[1:])}

    def forward(self, alpha: np.ndarray, symbol: Token) -> np.ndarray:
        """``alpha @ T[symbol]``: push a state-weight vector along one symbol."""
        src, dst, prob = self._by_symbol[symbol]
        return np.bincount(dst, weights=alpha[src] * prob, minlength=len(alpha))

    @cached_property
    def transition_sum(self) -> np.ndarray:
        """``Q x Q`` sum of the per-symbol transition matrices, accumulated in
        alphabet order."""
        total = np.zeros((self.num_states, self.num_states))
        np.add.at(total, (self.src, self.dst), self.prob)
        total.setflags(write=False)
        return total

    @cached_property
    def row_mass(self) -> np.ndarray:
        """``Q x (V + 1)``: each state's outgoing mass per symbol, then ``term``;
        ``alpha @ row_mass`` is the next-symbol mass of a state distribution."""
        mass = np.zeros((self.num_states, self.alphabet.full_size))
        symbol = np.repeat(np.arange(self.alphabet.size), np.diff(self.offsets))
        np.add.at(mass, (self.src, symbol), self.prob)
        mass[:, -1] = self.term
        mass.setflags(write=False)
        return mass


def _from_edges(alphabet: Alphabet, edges: Sequence[tuple[int, int, int, float]],
                init: Sequence[float], term: Sequence[float],
                names: Sequence[str] | None = None, tol: float = ROW_TOL) -> Sfssm:
    """:func:`build_sfssm` from distinct ``(symbol index, src, dst, prob)``
    edges in any order; zero entries are dropped."""
    init = np.asarray(init, dtype=float)
    term = np.asarray(term, dtype=float)
    state_names = tuple(names) if names is not None else _default_names(len(init))
    for idx in np.flatnonzero(init < 0):
        raise NegativeEntry(("init", int(idx)))
    for idx in np.flatnonzero(term < 0):
        raise NegativeEntry(("term", int(idx)))
    table = np.asarray(edges, dtype=float).reshape(-1, 4)
    table = table[np.lexsort((table[:, 2], table[:, 1], table[:, 0]))]
    symbol, src, dst = table[:, :3].T.astype(np.intp)
    prob = table[:, 3]
    for e in np.flatnonzero(prob < 0)[:1]:
        raise NegativeEntry(("trans", alphabet.symbols[symbol[e]], int(src[e]), int(dst[e])))
    kept = prob != 0
    offsets = np.searchsorted(symbol[kept], np.arange(alphabet.size + 1))
    model = Sfssm(alphabet=alphabet, src=src[kept], dst=dst[kept], prob=prob[kept],
                  offsets=offsets, init=init, term=term, names=state_names)

    total_init = float(init.sum())
    if not abs(total_init - 1.0) <= tol:
        raise BadInit(total_init)
    row_sums = model.row_mass.sum(axis=1)
    for idx in np.flatnonzero(~(np.abs(row_sums - 1.0) <= tol))[:1]:
        raise BadRow(int(idx), state_names[idx], float(row_sums[idx]))
    return model


def build_sfssm(alphabet: Alphabet,
                trans: Mapping[Token, np.ndarray],
                init: Sequence[float],
                term: Sequence[float],
                names: Sequence[str] | None = None,
                tol: float = ROW_TOL) -> Sfssm:
    """Validate and construct an SFSSM from dense ``{symbol: Q x Q}`` matrices.

    Symbols missing from ``trans`` have no edges; only nonzero entries are
    kept.  Raises :class:`NegativeEntry` for negative parameters,
    :class:`BadInit` when the initial vector does not sum to 1 within
    ``tol``, and :class:`BadRow` when a state's outgoing mass plus its
    termination probability is not 1 within ``tol`` (a NaN sum never is).
    """
    unknown = set(trans) - set(alphabet.symbols)
    if unknown:
        raise ValueError(f"transition matrices for symbols outside the alphabet: {sorted(unknown)!r}")
    q = len(init)
    edges = [np.zeros((0, 4))]
    for k, a in enumerate(alphabet.symbols):
        if a not in trans:
            continue
        mat = np.asarray(trans[a], dtype=float)
        if mat.shape != (q, q):
            raise ValueError(f"transition matrix for {a!r} has shape {mat.shape}, expected {(q, q)}")
        i, j = np.nonzero(mat)
        edges.append(np.column_stack([np.full(len(i), k), i, j, mat[i, j]]))
    return _from_edges(alphabet, np.concatenate(edges), init, term, names, tol)


def _forward_string(m: Sfssm, x: Iterable[Token]) -> np.ndarray:
    alpha = m.init
    for token in m.alphabet.check_string(x):
        alpha = m.forward(alpha, token)
    return alpha


def string_probability_fsa(m: Sfssm, x: Iterable[Token]) -> float:
    """Path-sum probability of the string ``x``: ``s @ prod T[x_t] @ t``."""
    return as_prob(float(_forward_string(m, x) @ m.term))


def prefix_probability_fsa(m: Sfssm, x: Iterable[Token]) -> float:
    """Probability that generation starts with ``x``: ``s @ prod T[x_t] @ 1``."""
    return as_prob(float(_forward_string(m, x).sum()))


def _reach(starts: np.ndarray, frm: np.ndarray, to: np.ndarray, q: int) -> frozenset[int]:
    """States reachable from ``starts`` along edges ``frm[e] -> to[e]``, by a
    depth-first search over a compressed adjacency index: O(Q + E)."""
    to = to[np.argsort(frm, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(frm, minlength=q)))).tolist()
    seen = np.zeros(q, dtype=bool)
    seen[starts] = True
    stack = starts.tolist()
    while stack:
        s = stack.pop()
        nbrs = to[bounds[s]:bounds[s + 1]]
        new = np.unique(nbrs[~seen[nbrs]])
        seen[new] = True
        stack.extend(new.tolist())
    return frozenset(np.flatnonzero(seen).tolist())


def accessible(m: Sfssm) -> frozenset[int]:
    """States reachable from positive-initial states along stored edges.

    Edge presence is exact (entry > 0, no tolerance): reachability is a
    combinatorial property of the stored parameters.
    """
    return _reach(np.flatnonzero(m.init > 0), m.src, m.dst, m.num_states)


def coaccessible(m: Sfssm) -> frozenset[int]:
    """States from which some positive-termination state is reachable."""
    return _reach(np.flatnonzero(m.term > 0), m.dst, m.src, m.num_states)


def useful_states(m: Sfssm) -> frozenset[int]:
    return accessible(m) & coaccessible(m)


def trim(m: Sfssm) -> Sfssm:
    """Drop every non-useful state, preserving all string probabilities.

    The result's ``state_map`` gives each kept state's index in ``m``.  The
    initial vector keeps its original entries (no renormalization), so mass
    placed on removed states is counted as lost at step zero — exactly what
    the termination probability should see.  Raises
    :class:`NoUsefulStates` when nothing survives (the model assigns
    probability 0 to every string).
    """
    return _trim(m, useful_states(m))


def _trim(m: Sfssm, useful: frozenset[int]) -> Sfssm:
    keep = sorted(useful)
    if not keep:
        raise NoUsefulStates("no state is both accessible and co-accessible")
    idx = np.asarray(keep, dtype=np.intp)
    renumber = np.full(m.num_states, -1, dtype=np.intp)
    renumber[idx] = np.arange(len(idx))
    live = (renumber[m.src] >= 0) & (renumber[m.dst] >= 0)
    return Sfssm(alphabet=m.alphabet, src=renumber[m.src[live]], dst=renumber[m.dst[live]],
                 prob=m.prob[live], offsets=np.concatenate(([0], np.cumsum(live)))[m.offsets],
                 init=m.init[idx], term=m.term[idx], names=tuple(m.names[i] for i in keep),
                 state_map=tuple(keep))


def termination_probability(m: Sfssm) -> float:
    """Total probability of generating a finite string, computed exactly.

    Solves ``(I - P) y = t`` for the transition-sum matrix ``P`` of a
    trimmed model (``trim(m)``) and returns ``s @ y``.  Trimming guarantees
    the system is nonsingular.
    """
    y = solve_linear(np.eye(m.num_states) - m.transition_sum, m.term)
    return as_prob(float(m.init @ y), slack=1e-9)


def check_spectral_radius(m: Sfssm) -> float:
    """Power-iteration estimate of a trimmed model's transition-sum spectral
    radius.  Raises :class:`SpectralRadiusTooLarge` unless it is below 1,
    as it is for every genuinely trimmed model."""
    estimate, bound = spectral_radius_estimate(m.transition_sum)
    if not estimate < 1.0:
        raise SpectralRadiusTooLarge(f"transition-sum spectral radius estimate is {estimate} "
                                     f"(row-sum bound {bound}); a trimmed model's is below 1")
    return estimate


_TIGHT = TightnessVerdict.tight(Certificate.CO_ACCESSIBILITY,
                                detail="every accessible state is co-accessible")


def _non_tight(m: Sfssm, witness: int, termination: float) -> TightnessVerdict:
    return TightnessVerdict.non_tight(
        witness_state=witness, witness_name=m.names[witness], leaked_mass=1.0 - termination,
        detail=f"state {m.names[witness]} is accessible but cannot reach termination")


def _trimmed_termination(m: Sfssm, useful: frozenset[int]) -> tuple[float, Sfssm | None]:
    try:
        sub = _trim(m, useful)
    except NoUsefulStates:
        return 0.0, None
    return termination_probability(sub), sub


def decide_tight(m: Sfssm) -> TightnessVerdict:
    """Exact tightness decision: tight iff accessible implies co-accessible.

    A tight verdict needs reachability only.  A non-tight verdict reports
    the lowest-index accessible state that cannot reach termination plus
    the exact leaked mass (one minus the termination probability).
    """
    acc, co = accessible(m), coaccessible(m)
    bad = sorted(acc - co)
    return _non_tight(m, bad[0], _trimmed_termination(m, acc & co)[0]) if bad else _TIGHT


def solve_tightness(m: Sfssm) -> tuple[TightnessVerdict, float]:
    """``decide_tight(m)`` and the exact termination probability (0 when no
    state is useful), from one trim and one linear solve.

    A tight verdict is checked against the solve.  Validated rows may sum
    to ``1 - ROW_TOL``, so the termination probability may fall short of 1
    by ``ROW_TOL`` times (1 + the expected number of visited states); that
    count takes a second solve, run only when the shortfall exceeds
    ``ROW_TOL``.  A shortfall above twice the bound, which covers rounding
    in the solves, raises :class:`TerminationShortfall`.
    """
    acc, co = accessible(m), coaccessible(m)
    bad = sorted(acc - co)
    termination, sub = _trimmed_termination(m, acc & co)
    if bad:
        return _non_tight(m, bad[0], termination), termination
    if termination < 1.0 - ROW_TOL:
        scaled = solve_linear(np.eye(sub.num_states) - sub.transition_sum,
                              np.full(sub.num_states, ROW_TOL))
        allowed = 2.0 * (ROW_TOL + float(sub.init @ scaled))
        if not 1.0 - termination <= allowed:
            raise TerminationShortfall(f"verdict is tight but the termination probability "
                                       f"is {termination!r}; row rounding allows a "
                                       f"shortfall of at most {allowed!r}")
    return _TIGHT, termination


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
    symbol_index = {a: k for k, a in enumerate(alphabet.symbols)}
    edges: list[tuple[int, int, int, float]] = []
    term = np.zeros(q)
    for h, events in counts.items():
        total = sum(events.values())
        for event, c in events.items():
            if event is None:
                term[index[h]] = c / total
            else:
                edges.append((symbol_index[event], index[h], index[_shift(h, event, width)],
                              c / total))
    init = np.zeros(q)
    init[index[start]] = 1.0

    # Histories become display names ("BOS", "a", "BOS,a", ...); fall back
    # to generic indices if corpus tokens make the joined names collide.
    names = tuple(",".join("BOS" if part == _BOS else part for part in h) if h else "BOS"
                  for h in history_order)
    if len(set(names)) != q:
        names = _default_names(q)
    return _from_edges(alphabet, edges, init, term, names)
