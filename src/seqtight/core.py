"""Alphabets, token strings, and the autoregressive sequence model interface.

An autoregressive sequence model (ASM) assigns, to every finite prefix of
symbols, a probability vector over "next symbol": one entry per alphabet
symbol plus one for the end-of-sequence marker.  Everything else in this
package (finite-state engines, tightness analysis, sampling) is built on
top of this interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

Token = str
Str = tuple[Token, ...]

DEFAULT_TOL = 1e-8  # a conditional may sum this far from 1; covers build_sfssm's ROW_TOL
PROB_SLACK = 1e-12


class OutOfRange(ValueError):
    """A numeric argument fell outside its documented range."""


class UnknownSymbol(ValueError):
    """A token does not belong to the model's alphabet."""

    def __init__(self, token: Token):
        self.token = token
        super().__init__(f"unknown symbol: {token!r}")


class NotADistribution(ValueError):
    """A conditional vector failed validation (negative or NaN entries, or a bad total)."""

    def __init__(self, prefix: Str, total: float, offending: list[tuple[int, float]]):
        self.prefix = prefix
        self.total = total
        self.offending = offending
        parts = [f"conditional at prefix {prefix!r} sums to {total!r}"]
        if offending:
            parts.append(f"negative or NaN entries at {offending!r}")
        super().__init__("; ".join(parts))


def as_prob(value: float, slack: float = PROB_SLACK) -> float:
    """Clamp ``value`` into [0, 1], tolerating ``slack`` of rounding past
    either end.  Raises :class:`OutOfRange` beyond that."""
    if not (-slack <= value <= 1.0 + slack):
        raise OutOfRange(f"probability {value!r} outside [0, 1] (slack {slack})")
    return min(max(value, 0.0), 1.0)


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of symbols plus a distinguished end-of-sequence marker.

    ``symbols`` never contains ``eos``; strings are sequences over
    ``symbols`` only.  The marker exists purely so conditional vectors have
    a slot for "stop here".  Probability vectors over the extended alphabet
    are laid out as ``symbols`` in order followed by the EOS slot.

    The degenerate empty alphabet is allowed: it models processes that can
    only generate the empty string (e.g. an n-gram model estimated from a
    corpus containing only empty lines).
    """

    symbols: tuple[Token, ...]
    eos: Token = "EOS"

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet: {self.symbols!r}")
        if self.eos in self.symbols:
            raise ValueError(f"eos marker {self.eos!r} must not be an alphabet symbol")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @property
    def size(self) -> int:
        """Number of ordinary symbols (excluding EOS)."""
        return len(self.symbols)

    @property
    def full_size(self) -> int:
        """Length of a conditional vector: symbols plus the EOS slot."""
        return len(self.symbols) + 1

    @property
    def eos_index(self) -> int:
        return len(self.symbols)

    def index(self, token: Token) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise UnknownSymbol(token) from None

    def check_string(self, x: Iterable[Token]) -> Str:
        """Return ``x`` as a tuple after verifying every token is a symbol."""
        x = tuple(x)
        for token in x:
            if token not in self._index:
                raise UnknownSymbol(token)
        return x


class Asm:
    """Autoregressive sequence model: a total map from prefixes to
    conditional next-symbol distributions.

    Subclasses set ``alphabet`` and override either :meth:`conditional` or
    the carried-state hooks (:meth:`initial_state` / :meth:`step` /
    :meth:`state_conditional`); the base class derives the other.  The
    engines walk only the hooks, and the derived :meth:`conditional` walks
    them along the prefix.  By default the carried state is the prefix
    itself, so a prefix-only model works unchanged.

    Instances are immutable; per-call state is caller-owned, so models can
    be shared freely across threads.
    """

    alphabet: Alphabet

    def conditional(self, prefix: Str) -> np.ndarray:
        """Probability vector over the extended alphabet (EOS last)."""
        state = self.initial_state()
        for token in self.alphabet.check_string(prefix):
            state = self.step(state, token)
        return self.state_conditional(state)

    # -- incremental interface -------------------------------------------

    def initial_state(self):
        return ()

    def step(self, state, symbol: Token):
        """Advance the carried state by one generated symbol."""
        return state + (symbol,)

    def state_conditional(self, state) -> np.ndarray:
        if type(self).conditional is Asm.conditional:
            raise NotImplementedError("override conditional() or the carried-state hooks")
        return self.conditional(state)

    def state_key(self, state):
        """Hashable key identifying ``state``; equal keys must imply equal
        conditional behaviour from here on.  Used to pool identical states
        during hazard enumeration, bound checking and sampling, where a
        recurring key's conditional and successors are reused, not recomputed."""
        return state

    # -- batch interface, for engines that step a whole frontier ----------
    # optional: an override must match the scalar hooks bit for bit

    def state_conditionals(self, states) -> np.ndarray:
        """The conditionals of a batch of carried states, one row each."""
        return np.array([np.asarray(self.state_conditional(s), dtype=float) for s in states])

    def successors(self, states, rows, symbols) -> tuple[np.ndarray, list]:
        """The successors of ``states[rows[i]]`` along symbol index
        ``symbols[i]`` (lists of ints), as a batch that a list of indices
        selects from, and their :meth:`state_key`."""
        batch = np.empty(len(rows), dtype=object)
        for i, (r, j) in enumerate(zip(rows, symbols)):
            batch[i] = self.step(states[r], self.alphabet.symbols[j])
        return batch, [self.state_key(s) for s in batch]

    def unroll(self, state, symbol: int, n: int):
        """The states after ``1..k`` steps from ``state`` along symbol index
        ``symbol``, as a batch of ``k`` rows with ``1 <= k <= n``; row ``i``
        must be bit-identical to ``state`` stepped ``i + 1`` times.  A walk
        may be handed states past its end (its horizon, or where its weight
        died or its runs stopped), so override this only where :meth:`step`
        accepts every symbol from every state.  By default one step, through :meth:`successors`."""
        return self.successors([state], [0], [symbol])[0]


class FunctionAsm(Asm):
    """ASM defined directly by a prefix -> probability-vector function."""

    def __init__(self, alphabet: Alphabet, fn: Callable[[Str], np.ndarray]):
        self.alphabet = alphabet
        self._fn = fn

    def conditional(self, prefix: Str) -> np.ndarray:
        return np.asarray(self._fn(tuple(prefix)), dtype=float)


def _distributions(rows) -> np.ndarray:
    """Which conditional rows are distributions, the one rule of every walk: no entry
    negative or NaN, the sum within ``DEFAULT_TOL`` of 1 (not inf, 0 or unnormalized)."""
    rows = np.asarray(rows, dtype=float)
    return (rows >= 0).all(axis=-1) & (np.abs(rows.sum(axis=-1) - 1.0) <= DEFAULT_TOL)


def validate_conditional(asm: Asm, prefix: Str) -> None:
    """Raise :class:`NotADistribution` unless the conditional at ``prefix`` has one
    entry per symbol plus EOS and passes the walks' rule, :func:`_distributions`."""
    vec = np.asarray(asm.conditional(prefix), dtype=float)
    if vec.shape != (asm.alphabet.full_size,) or not _distributions(vec):
        raise NotADistribution(prefix, float(vec.sum()),
                               [(i, v) for i, v in enumerate(vec.tolist()) if not v >= 0])


def _prefix_walk(asm: Asm, x: Iterable[Token]) -> tuple[float, object]:
    """Probability of the prefix ``x`` and the state after it (None if 0)."""
    state = asm.initial_state()
    p = 1.0
    for token in asm.alphabet.check_string(x):
        p *= float(asm.state_conditional(state)[asm.alphabet.index(token)])
        if p == 0.0:
            return 0.0, None
        state = asm.step(state, token)
    return p, state


def string_probability(asm: Asm, x: Iterable[Token]) -> float:
    """Probability that the model generates exactly the string ``x``:
    the product of each symbol's conditional followed by EOS."""
    p, state = _prefix_walk(asm, x)
    return as_prob(p * float(asm.state_conditional(state)[asm.alphabet.eos_index])) if p else 0.0


def prefix_probability(asm: Asm, x: Iterable[Token]) -> float:
    """Probability that generation begins with ``x`` (no EOS factor).

    Monotone nonincreasing under extension, and equals the string
    probability plus the prefix probabilities of all one-symbol
    extensions.
    """
    return as_prob(_prefix_walk(asm, x)[0])
