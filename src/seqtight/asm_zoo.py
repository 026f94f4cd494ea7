"""Concrete sequence-model instances.

Ships two one-dimensional softmax RNNs that bracket the interesting
behaviour — one whose end-of-sequence probability decays geometrically
(and therefore leaks mass to endless runs) and one whose EOS probability
decays harmonically (and terminates with probability one) — plus a parity
model whose EOS probability vanishes on odd steps yet still terminates,
and an adapter exposing any stochastic finite-state model through the
generic ASM interface.

Step convention used throughout: the conditional for generation step
``t`` (1-based) is computed from the hidden state reached after the
``t - 1`` symbols generated so far.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Alphabet, Asm, OutOfRange, Str, Token
from .sfssm import Sfssm


class DeadPrefix(ValueError):
    """Conditional requested at a prefix the model generates with probability 0."""

    def __init__(self, prefix: Str | None):
        self.prefix = prefix
        where = repr(prefix) if prefix is not None else "the walked prefix"
        super().__init__(f"prefix has probability zero: {where}")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; max-subtraction keeps it from overflowing."""
    z = np.asarray(logits, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "softplus": lambda x: np.logaddexp(x, 0.0),
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


@dataclass(frozen=True)
class RnnAsm(Asm):
    """Simple recurrent sequence model with a softmax output layer.

    The hidden state evolves as ``h' = act(W_in @ v[x] + W_rec @ h + bias)``
    where ``v[x]`` is the input embedding of the consumed symbol, and the
    conditional distribution is ``softmax(U @ h)`` over the output
    embeddings ``U`` (one row per symbol, EOS last).  Parameters must be
    finite; while ``h`` is too, softmax outputs are positive and every prefix live.
    """

    alphabet: Alphabet
    input_embedding: np.ndarray      # (|symbols|+1, d), EOS row last
    output_embedding: np.ndarray     # (|symbols|+1, d), EOS row last
    input_weights: np.ndarray        # (d, d)
    recurrent_weights: np.ndarray    # (d, d)
    bias: np.ndarray                 # (d,)
    activation: str
    initial_hidden: np.ndarray       # (d,)

    def __post_init__(self):
        d = len(self.initial_hidden)
        full = self.alphabet.full_size
        for name in ("input_embedding", "output_embedding", "input_weights",
                     "recurrent_weights", "bias", "initial_hidden"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; "
                             f"choose from {sorted(_ACTIVATIONS)}")
        shapes = {
            "input_embedding": (full, d),
            "output_embedding": (full, d),
            "input_weights": (d, d),
            "recurrent_weights": (d, d),
            "bias": (d,),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")
        for name in (*shapes, "initial_hidden"):
            bad = getattr(self, name)[~np.isfinite(getattr(self, name))]
            if bad.size:
                raise ValueError(f"{name} has a non-finite entry: {float(bad[0])!r}")
        # input drive W_in @ v[x] of each symbol, computed once
        object.__setattr__(self, "_drive", np.matvec(self.input_weights, self.input_embedding))

    @property
    def hidden_dim(self) -> int:
        return len(self.initial_hidden)

    def initial_state(self):
        return self.initial_hidden

    def _advance(self, recurrent: np.ndarray, symbols) -> np.ndarray:
        return _ACTIVATIONS[self.activation](self._drive.take(symbols, 0) + recurrent + self.bias)

    # np.matvec makes one gemv call per row, so a row does not depend on the
    # batch (a gemm's rows do) and the scalar hooks match the batch hooks
    def step(self, state, symbol: Token):
        """One recurrence update of the hidden state, consuming ``symbol``."""
        alphabet = self.alphabet
        idx = alphabet.eos_index if symbol == alphabet.eos else alphabet.index(symbol)
        return self._advance(np.matvec(self.recurrent_weights, np.asarray(state, dtype=float)), idx)

    def state_key(self, state):
        # + 0.0 turns -0.0 into 0.0, so the two pool
        return (np.asarray(state, dtype=float) + 0.0).tobytes()

    def state_conditionals(self, states) -> np.ndarray:
        """Softmax over output-embedding logits; one row in gives one row out."""
        return softmax(np.matvec(self.output_embedding, np.asarray(states, dtype=float)))

    state_conditional = state_conditionals

    def successors(self, states, rows, symbols):
        recurrent = np.matvec(self.recurrent_weights, np.asarray(states, dtype=float))
        h = self._advance(recurrent.take(rows, 0), symbols)
        return h, [row.tobytes() for row in h + 0.0]

    def unroll(self, state, symbol, n):
        chain, h = np.empty((n, self.hidden_dim)), np.asarray(state, dtype=float)
        drive, act = self._drive[symbol], _ACTIVATIONS[self.activation]
        for i in range(n):  # the recurrence only; one state_conditionals call covers the chain
            h = chain[i] = act(drive + np.matvec(self.recurrent_weights, h) + self.bias)
        return chain


def _one_symbol_rnn(input_weight: float, activation: str) -> RnnAsm:
    """Scalar RNN over ``a``: embeddings 1 (``a``) and 0 (EOS), recurrent
    weight 1, zero bias and initial state."""
    emb = np.array([[1.0], [0.0]])  # a, EOS
    return RnnAsm(alphabet=Alphabet(("a",)), input_embedding=emb, output_embedding=emb,
                  input_weights=np.array([[input_weight]]), recurrent_weights=np.array([[1.0]]),
                  bias=np.array([0.0]), activation=activation, initial_hidden=np.array([0.0]))


def make_nontight_relu_rnn() -> RnnAsm:
    """One-symbol ReLU RNN whose hidden scalar counts the symbols consumed.

    With unit input embedding and weights (zero bias), consuming ``a``
    maps ``h`` to ``relu(h + 1)``, so the hidden value after ``k`` symbols
    is exactly ``k`` and the EOS probability at step ``t`` is
    ``1 / (e^(t-1) + 1)``.  That decays geometrically, fast enough that
    generation runs forever with probability about 0.298: the model is
    non-tight even though EOS is possible at every step.
    """
    return _one_symbol_rnn(1.0, "relu")


def make_tight_softplus_rnn() -> RnnAsm:
    """One-symbol softplus RNN whose hidden scalar grows like log(k + 1).

    The recurrence ignores the input (zero input weights) and applies
    softplus to the hidden value, so ``h`` after ``k`` symbols is
    ``log(k + 1)`` and the EOS probability at step ``t`` is
    ``1 / (t + 1)``.  The EOS series diverges harmonically, so the model
    terminates with probability one despite EOS probability tending to 0.
    """
    return _one_symbol_rnn(0.0, "softplus")


class ParityAsm(Asm):
    """EOS is possible only at even generation steps.

    Demonstrates that a positive EOS floor at *every* step is not needed
    for termination: the even-step hazard alone already sums to infinity.
    Non-EOS mass is spread uniformly over the alphabet; only the EOS
    schedule matters for termination behaviour.
    """

    def __init__(self, eos_prob_even: float = 0.1, alphabet: Alphabet | None = None):
        if not (0.0 < eos_prob_even < 1.0):
            raise OutOfRange(f"eos_prob_even must be strictly inside (0, 1), got {eos_prob_even!r}")
        self.eos_prob_even = eos_prob_even
        self.alphabet = alphabet if alphabet is not None else Alphabet(("a", "b"))

    def initial_state(self):
        return 0

    def step(self, state, symbol: Token):
        return state + 1

    def state_conditional(self, consumed: int) -> np.ndarray:
        step_number = consumed + 1
        eos = self.eos_prob_even if step_number % 2 == 0 else 0.0
        vec = np.full(self.alphabet.full_size, (1.0 - eos) / self.alphabet.size)
        vec[-1] = eos
        return vec


def _normalized(alpha: np.ndarray) -> np.ndarray:
    """A forward state distribution scaled to sum 1; :class:`DeadPrefix` if it is 0."""
    mass = float(alpha.sum())
    if mass <= 0.0:
        raise DeadPrefix(None)
    return alpha / mass


class SfssmAsm(Asm):
    """Any stochastic finite-state model viewed through the ASM interface.

    The carried state is the normalized forward state distribution; the
    conditional is its product with the model's row-mass matrix (per-symbol
    outgoing mass, then termination).  Prefixes the model cannot generate
    have no conditional and raise :class:`DeadPrefix`.
    """

    def __init__(self, model: Sfssm):
        self.model = model
        self.alphabet = model.alphabet

    def initial_state(self):
        return np.asarray(self.model.init, dtype=float)

    def step(self, state, symbol: Token):
        return _normalized(self.model.forward(np.asarray(state, dtype=float), symbol))

    def state_conditional(self, state) -> np.ndarray:
        return _normalized(np.asarray(state, dtype=float)) @ self.model.row_mass

    def state_key(self, state):
        # bytes cache their hash; states are finite and nonnegative, so no
        # -0.0 or NaN can give equal floats unequal bytes
        return np.asarray(state, dtype=float).tobytes()
