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
layout of a compressed sparse row index.  A model caches its dense ``Q x Q``
transition sum on first use, and its ``Q x (V + 1)`` row mass only on the belief
path (nondeterministic models), so memory is O(E + Q^2 + QV) for ``V`` symbols.

Bigram/n-gram tables are encoded with an explicit start state ("BOS"):
the initial vector is the indicator on that state and the first symbol is
emitted by its outgoing transition.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import chain, compress, count, islice, repeat, tee
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Alphabet, Token, as_prob
from .linalg import solve_linear
from .verdicts import Certificate, TightnessVerdict

ROW_TOL = 1e-9


class BadInit(ValueError):
    def __init__(self, total: float):
        self.total = total
        super().__init__(f"initial vector sums to {total!r}, expected 1")


class BadRow(ValueError):
    def __init__(self, state: int, name: str, total: float):
        self.state, self.name, self.total = state, name, total
        super().__init__(f"state {name}: outgoing mass plus termination is {total!r}, expected 1")


class NegativeEntry(ValueError):
    def __init__(self, location: tuple):
        self.location = location
        super().__init__(f"negative entry at {location!r}")


class NoUsefulStates(ValueError):
    """Trimming removed everything: no state is both accessible and co-accessible."""


class EmptyCorpus(ValueError):
    """n-gram estimation needs at least one corpus string."""


class TerminationShortfall(ArithmeticError):
    """A tight verdict met a termination probability further below 1 than
    the model's row rounding allows: the decision and the solve disagree."""


def _default_names(q: int) -> tuple[str, ...]:
    return tuple(f"q{i}" for i in range(q))


@dataclass(frozen=True, eq=False)
class Sfssm:
    """A stochastic finite-state sequence model.

    Every way of making one (:func:`build_sfssm`, the parser, :func:`mle_ngram`, :func:`trim`, a direct
    call, ``dataclasses.replace``) runs the same checks.  Edge ``e`` moves from ``src[e]`` to ``dst[e]``
    with probability ``prob[e]``; symbol ``k``'s edges are ``offsets[k]:offsets[k + 1]``, distinct,
    nonzero and row-major, and :meth:`forward` slices them there, caching no per-symbol index.  Arrays
    are read-only, copies of any a caller passes in, so models are safe to share across threads.

    ``state_map`` is ``None`` for a locally normalized model.  :func:`trim` sets it:
    ``state_map[i]`` is the index the ``i``-th retained state had in the model it was
    trimmed from, and the start and rows may then sum below 1, never above ``1 + ROW_TOL``.
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
    _made: InitVar[bool] = False   # the arrays were made for this model alone, in canonical order: keep

    def __post_init__(self, _made):
        for name, dtype in (("src", np.intp), ("dst", np.intp), ("prob", float),
                            ("offsets", np.intp), ("init", float), ("term", float)):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=dtype,
                                                    copy=None if _made else True))
        for where, vec in (("init", self.init), ("term", self.term)):
            for idx in np.flatnonzero(vec < 0)[:1]:
                raise NegativeEntry((where, int(idx)))
        if self.init.ndim != 1:
            raise ValueError("initial vector must be one-dimensional")
        q, e = len(self.init), len(self.prob)
        if {self.src.shape, self.dst.shape, self.prob.shape} != {(e,)} or not (
                (0 <= self.src) & (self.src < q) & (0 <= self.dst) & (self.dst < q)).all():
            raise ValueError(f"src and dst need one state index below {q} per edge")
        if (self.offsets.shape != (self.alphabet.size + 1,) or self.offsets[0] != 0
                or self.offsets[-1] != e or (np.diff(self.offsets) < 0).any()):
            raise ValueError("offsets must rise from 0 to the edge count, one step per symbol")
        if self.term.shape != (q,):
            raise ValueError("termination vector length differs from state count")
        if len(self.names) != q:
            raise ValueError("state-name count differs from state count")
        if len(set(self.names)) != q:
            raise ValueError("state names must be distinct")
        for k in np.flatnonzero(self.prob < 0)[:1]:
            symbol = self.alphabet.symbols[np.searchsorted(self.offsets, k, side="right") - 1]
            raise NegativeEntry(("trans", symbol, int(self.src[k]), int(self.dst[k])))
        if not _made and not (self.prob.all() and np.isin(   # (src, dst) rises within each symbol
                np.flatnonzero(np.diff(self.src * q + self.dst) <= 0) + 1, self.offsets).all()):
            raise ValueError("edges must be nonzero, distinct and in canonical order")
        # the start, then each row; taken before freezing, since np.bincount copies read-only input
        sums = np.append(self.init.sum(), np.bincount(self.src, self.prob, q) + self.term)
        off = sums - 1.0   # a trimmed model may lose mass, never gain it; NaN never passes
        for idx in np.flatnonzero(~((np.abs(off) if self.state_map is None else off) <= ROW_TOL))[:1]:
            raise BadRow(int(idx) - 1, self.names[idx - 1], float(sums[idx])) if idx else BadInit(float(sums[0]))
        for name in ("src", "dst", "prob", "offsets", "init", "term"):
            getattr(self, name).setflags(write=False)

    @property
    def num_states(self) -> int:
        return len(self.init)

    def forward(self, alpha: np.ndarray, symbol: Token) -> np.ndarray:
        """``alpha @ T[symbol]`` along the symbol's edges; :class:`UnknownSymbol` off the alphabet."""
        k = self.alphabet.index(symbol)
        e = slice(*self.offsets[k:k + 2].tolist())
        return np.bincount(self.dst[e], weights=alpha[self.src[e]] * self.prob[e], minlength=len(alpha))

    @cached_property
    def deterministic(self) -> bool:
        """One state holds all initial mass and no two edges share a state and a symbol
        (canonical order puts two such edges side by side)."""
        pairs = np.repeat(np.arange(self.alphabet.size), np.diff(self.offsets)) * self.num_states + self.src
        return int(np.count_nonzero(self.init > 0)) == 1 and bool(np.diff(pairs).all())

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


def _from_edges(alphabet: Alphabet, edges: Sequence[Sequence],
                init: Sequence[float], term: Sequence[float],
                names: Sequence[str] | None = None) -> Sfssm:
    """The :class:`Sfssm` of the columns (symbol index, src, dst, prob) of distinct edges
    in any order, which it only reads: it drops zero entries, sorts the rest into
    canonical order and cuts ``offsets``; the model checks everything else."""
    init, term = np.array(init, dtype=float), np.array(term, dtype=float)
    symbol, src, dst = (np.asarray(column, dtype=np.intp) for column in edges[:3])
    prob = np.asarray(edges[3], dtype=float)
    key = ((symbol * len(init) + src) * len(init) + dst)[prob != 0]   # rises in canonical order
    order = np.flatnonzero(prob)[np.argsort(key, kind="stable")]   # the nonzero edges, sorted
    del key
    symbol, src, dst, prob = symbol[order], src[order], dst[order], prob[order]
    return Sfssm(alphabet=alphabet, src=src, dst=dst, prob=prob, init=init, term=term, _made=True,
                 offsets=np.searchsorted(symbol, np.arange(alphabet.size + 1)),
                 names=tuple(names) if names is not None else _default_names(len(init)))


def build_sfssm(alphabet: Alphabet,
                trans: Mapping[Token, np.ndarray],
                init: Sequence[float],
                term: Sequence[float],
                names: Sequence[str] | None = None) -> Sfssm:
    """Validate and construct an SFSSM from dense ``{symbol: Q x Q}`` matrices.

    Symbols missing from ``trans`` have no edges; only nonzero entries are
    kept.  The model's own checks raise :class:`NegativeEntry` for negative parameters,
    :class:`BadInit` when the initial vector does not sum to 1 within
    ``ROW_TOL``, :class:`BadRow` when a state's outgoing mass plus its termination
    probability is not 1 within ``ROW_TOL`` (a NaN sum never is), and ``ValueError``
    for a vector that is not 1-D or state names that repeat or miscount.
    """
    unknown = set(trans) - set(alphabet.symbols)
    if unknown:
        raise ValueError(f"transition matrices for symbols outside the alphabet: {sorted(unknown)!r}")
    q = len(init)
    edges = [np.zeros((0, 4))]
    for a, mat in trans.items():   # in any order: _from_edges sorts the edges
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (q, q):
            raise ValueError(f"transition matrix for {a!r} has shape {mat.shape}, expected {(q, q)}")
        i, j = np.nonzero(mat)
        edges.append(np.column_stack([np.full(len(i), alphabet.index(a)), i, j, mat[i, j]]))
    return _from_edges(alphabet, np.concatenate(edges).T, init, term, names)


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
        new = nbrs[~seen[nbrs]]  # a repeat is popped twice, the second time finding nothing
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
                 state_map=tuple(keep), _made=True)


def _identity_minus_sum(m: Sfssm) -> np.ndarray:
    """``np.eye(Q) - m.transition_sum`` bit for bit, in one array: edges are
    subtracted from zeros in edge order, and ``1 + (-p)`` rounds as ``1 - p``."""
    a = np.zeros((m.num_states, m.num_states))
    np.subtract.at(a, (m.src, m.dst), m.prob)
    a[np.diag_indices(m.num_states)] += 1.0
    return a


def termination_probability(m: Sfssm) -> float:
    """Total probability of generating a finite string, computed exactly.

    Solves ``(I - P) y = t`` for the transition-sum matrix ``P`` of a
    trimmed model (``trim(m)``) and returns ``s @ y``.  Trimming guarantees
    the system is nonsingular.
    """
    y = solve_linear(_identity_minus_sum(m), m.term)
    return as_prob(float(m.init @ y), slack=1e-9)


_TIGHT = TightnessVerdict.tight(Certificate.CO_ACCESSIBILITY,
                                detail="every accessible state is co-accessible")


def decide_tight(m: Sfssm) -> TightnessVerdict:
    """Exact tightness decision: tight iff accessible implies co-accessible.

    A tight verdict needs reachability only.  A non-tight verdict, or the ``ValueError``
    of a trimmed model, is :func:`solve_tightness`'s, which searches again before its solve.
    """
    return _TIGHT if m.state_map is None and accessible(m) <= coaccessible(m) else solve_tightness(m)[0]


def solve_tightness(m: Sfssm) -> tuple[TightnessVerdict, float]:
    """The exact verdict and termination probability, from one reachability
    search, one trim and one linear solve (none when no state is useful:
    the termination probability is then 0).  A non-tight verdict names the
    lowest-index accessible state that cannot reach termination and leaks
    one minus the termination probability.  A trimmed model (``state_map`` set) raises
    ``ValueError``: its rows may sum below 1, so reachability does not decide it.

    A tight verdict is checked against the solve.  Validated rows may sum
    to ``1 - ROW_TOL``, so the termination probability may fall short of 1
    by ``ROW_TOL`` times (1 + the expected number of visited states); that
    count takes a second solve, run only when the shortfall exceeds
    ``ROW_TOL``.  A shortfall above twice the bound, which covers rounding
    in the solves, raises :class:`TerminationShortfall`.
    """
    if m.state_map is not None:
        raise ValueError("a trimmed model may lose mass at every state: decide the model it was trimmed from")
    acc, co = accessible(m), coaccessible(m)
    sub = _trim(m, acc & co) if acc & co else None
    termination = 0.0 if sub is None else termination_probability(sub)
    if acc - co:
        witness = min(acc - co)
        name = m.names[witness]
        return TightnessVerdict.non_tight(
            witness_state=witness, witness_name=name, leaked_mass=1.0 - termination,
            detail=f"state {name} is accessible but cannot reach termination"), termination
    if termination < 1.0 - ROW_TOL:
        scaled = solve_linear(_identity_minus_sum(sub), np.full(sub.num_states, ROW_TOL))
        allowed = 2.0 * (ROW_TOL + float(sub.init @ scaled))
        if not 1.0 - termination <= allowed:
            raise TerminationShortfall(f"verdict is tight but the termination probability "
                                       f"is {termination!r}; row rounding allows a "
                                       f"shortfall of at most {allowed!r}")
    return _TIGHT, termination


_BOS = "\x00BOS"  # internal history placeholder; never a corpus token


def mle_ngram(corpus: Iterable[Sequence[Token]], order: int) -> Sfssm:
    """Maximum-likelihood n-gram model of the given ``order`` (n >= 1).

    ``corpus`` is any iterable of token sequences, read once.  States are the
    ``order - 1`` token histories observed, padded on the left with a start
    placeholder; probabilities are relative event counts per history, and the
    start history (state 0) gets all initial mass.  Each observed state can
    finish the string it was seen in, so the model is always tight.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    # Tokens and histories (tuples of order - 1 token ids, at 2**32 times their number) are
    # numbered by first use: an int codes each event of one stream of every padded string's ids.
    tokens, histories = defaultdict(count().__next__), defaultdict(count(0, 1 << 32).__next__)
    end, bos = tokens[None], tokens[_BOS]
    ids = [islice(it, i, None) for i, it in enumerate(tee(map(tokens.__getitem__, chain.from_iterable(
        chain.from_iterable(zip(repeat((_BOS,) * (order - 1)), corpus, repeat((None,)))))), order))]
    keys = zip(*ids[:-1]) if order > 1 else repeat(())
    counts = Counter(map(add, ids[-1], map(histories.__getitem__, keys)))
    if not counts:
        raise EmptyCorpus("corpus contains no strings")
    if "EOS" in tokens:
        raise ValueError("corpus uses the reserved end-of-sequence token 'EOS'")
    src, event = np.divmod(np.fromiter(counts, np.intp, len(counts)), 1 << 32)
    weight = np.fromiter(counts.values(), float, len(counts))
    del counts
    # a window across two strings holds an end in its history: drop its event
    real = np.fromiter((end not in key for key in histories), bool, len(histories))
    state, kept = np.cumsum(real) - 1, real[src]
    src, event, weight = state[src[kept]], event[kept], weight[kept]
    if (event == bos).any():
        raise ValueError("corpus uses the reserved start placeholder token")
    label = list(tokens)
    by_name = sorted(range(2, len(label)), key=label.__getitem__)   # token id per symbol index
    prob = weight / np.bincount(src, weights=weight)[src]
    moves = event != end
    keys = list(compress(histories, real))   # a move from h by e goes to (*h, e)[1:]
    dst = state[np.fromiter(map(histories.__getitem__, ((*keys[h], e)[1:] for h, e in zip(
        src[moves].tolist(), event[moves].tolist()))), np.intp, int(moves.sum())) >> 32]
    term = np.bincount(src[~moves], weights=prob[~moves], minlength=len(keys))
    init = np.eye(1, len(keys))[0]   # the start history is the first used

    # display names ("BOS", "a", "BOS,a", ...), or generic ones if corpus tokens make them collide
    label[bos] = "BOS"
    names = tuple(",".join(map(label.__getitem__, h)) if h else "BOS" for h in keys)
    if len(set(names)) != len(keys):
        names = _default_names(len(keys))
    edges = (np.argsort(by_name, kind="stable")[event[moves] - 2], src[moves], dst, prob[moves])
    del src, event, weight, prob, moves, histories, keys   # full-length columns: free them before the sort
    return _from_edges(Alphabet(tuple(map(label.__getitem__, by_name))), edges, init, term, names)
