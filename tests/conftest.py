"""Shared fixtures: seeded random models and small enumeration helpers."""

import dataclasses
import hashlib
import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from seqtight import Alphabet, Asm, RnnAsm, Sfssm, build_sfssm, useful_states
from seqtight.modelfile import BUILTINS

SYMBOL_POOL = ("a", "b", "c")


def random_sfssm(rng: np.random.Generator, max_states: int = 5, max_symbols: int = 3,
                 ensure_useful: bool = True) -> Sfssm:
    """Sparse random model; sparsity produces a healthy mix of tight and
    non-tight instances (and occasionally states that cannot stop)."""
    while True:
        q = int(rng.integers(1, max_states + 1))
        k = int(rng.integers(1, max_symbols + 1))
        symbols = SYMBOL_POOL[:k]
        trans = {a: np.zeros((q, q)) for a in symbols}
        term = np.zeros(q)
        for i in range(q):
            cells: list[tuple[str | None, int | None]] = []
            if rng.random() < 0.35:
                cells.append((None, None))  # termination event
            for a in symbols:
                for j in range(q):
                    if rng.random() < 0.3:
                        cells.append((a, j))
            if not cells:
                cells.append((None, None))
            weights = rng.random(len(cells)) + 0.05
            weights /= weights.sum()
            for (a, j), w in zip(cells, weights):
                if a is None:
                    term[i] = w
                else:
                    trans[a][i, j] = w
        init = np.zeros(q)
        if q > 1 and rng.random() < 0.3:
            spread = rng.random(q) * (rng.random(q) < 0.5)
            if spread.sum() == 0:
                spread[int(rng.integers(0, q))] = 1.0
            init = spread / spread.sum()
        else:
            init[int(rng.integers(0, q))] = 1.0
        model = build_sfssm(Alphabet(symbols), trans, init, term)
        if not ensure_useful or useful_states(model):
            return model


def dense_transitions(model: Sfssm, symbol: str) -> np.ndarray:
    """One symbol's ``Q x Q`` transition matrix, rebuilt from the model's edges."""
    k = model.alphabet.index(symbol)
    e = slice(model.offsets[k], model.offsets[k + 1])
    mat = np.zeros((model.num_states, model.num_states))
    mat[model.src[e], model.dst[e]] = model.prob[e]
    return mat


def random_corpus(rng: np.random.Generator, max_strings: int = 20,
                  max_len: int = 8, max_symbols: int = 3) -> list[tuple[str, ...]]:
    k = int(rng.integers(1, max_symbols + 1))
    symbols = SYMBOL_POOL[:k]
    count = int(rng.integers(1, max_strings + 1))
    return [tuple(rng.choice(symbols, size=int(rng.integers(0, max_len + 1))))
            for _ in range(count)]


def strings_up_to(symbols, max_len):
    """Every string over ``symbols`` with length at most ``max_len``."""
    for n in range(max_len + 1):
        yield from itertools.product(symbols, repeat=n)


class StableRandomAsm(Asm):
    """Deterministic pseudo-random ASM: the conditional at each prefix is a
    Dirichlet draw keyed by a stable hash of (seed, prefix)."""

    def __init__(self, alphabet: Alphabet, seed: int, eos_floor: float = 0.0):
        self.alphabet = alphabet
        self.seed = seed
        self.eos_floor = eos_floor

    def conditional(self, prefix):
        key = hashlib.sha256(f"{self.seed}|{'|'.join(prefix)}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(key[:8], "little"))
        vec = rng.dirichlet(np.ones(self.alphabet.full_size))
        if self.eos_floor > 0.0:
            vec = vec * (1.0 - self.eos_floor)
            vec[-1] += self.eos_floor
        return vec


class CountingAsm(Asm):
    """Delegates to ``inner`` and counts its ``step`` and ``state_conditional`` calls."""

    def __init__(self, inner: Asm):
        self.inner = inner
        self.alphabet = inner.alphabet
        self.calls = {"step": 0, "state_conditional": 0}

    def initial_state(self):
        return self.inner.initial_state()

    def step(self, state, symbol):
        self.calls["step"] += 1
        return self.inner.step(state, symbol)

    def state_conditional(self, state):
        self.calls["state_conditional"] += 1
        return self.inner.state_conditional(state)

    def state_key(self, state):
        return self.inner.state_key(state)

    def can_stop(self, state):
        return self.inner.can_stop(state)


class CountingRnn(RnnAsm):
    """An :class:`RnnAsm` that counts its batch hook calls."""

    @classmethod
    def of(cls, model: RnnAsm) -> "CountingRnn":
        return cls(**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)})

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "calls", Counter())

    def state_conditionals(self, states):
        self.calls["state_conditionals"] += 1
        return super().state_conditionals(states)

    def successors(self, states, rows, symbols):
        self.calls["successors"] += 1
        return super().successors(states, rows, symbols)

    def unroll(self, state, symbol, n):
        self.calls["unroll"] += 1
        return super().unroll(state, symbol, n)


def seeded_tanh_model(seed: int, hidden: int = 4) -> RnnAsm:
    """Two-symbol tanh RNN whose continuous hidden states never pool."""
    rng = np.random.default_rng(seed)
    out = rng.normal(size=(3, hidden))
    return RnnAsm(alphabet=Alphabet(("x", "y")), input_embedding=rng.normal(size=(3, hidden)),
                  output_embedding=out / np.abs(out).sum(axis=1, keepdims=True),
                  input_weights=rng.normal(size=(hidden, hidden)),
                  recurrent_weights=rng.normal(0.0, 0.6, (hidden, hidden)),
                  bias=rng.normal(0.0, 0.1, hidden), activation="tanh",
                  initial_hidden=np.zeros(hidden))


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's model generators, ``perfbench/workloads.py``, as a module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def fig1a():
    return BUILTINS["fig1a"]()


@pytest.fixture(scope="session")
def fig1b():
    return BUILTINS["fig1b"]()
