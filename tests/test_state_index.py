"""The finite-state adapter of a deterministic model, which carries a state index.

``as_asm`` of a deterministic model (one start state, at most one edge per
state and symbol) walks state indices; ``SfssmAsm`` walks one-hot belief
vectors.  Every hook of the two must give the same answers, bit for bit, so
seeded sampling and enumeration do not change with the path taken.
"""

from pathlib import Path

import numpy as np
import pytest

from seqtight import (Alphabet, DeadPrefix, SfssmAsm, as_asm, build_sfssm, eos_hazard_enumerate,
                      load_model, mle_ngram, monte_carlo_termination, trim, useful_states)

from conftest import SYMBOL_POOL, random_corpus

MODELS = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.model"))
SEEDS = range(240)


def random_deterministic(rng: np.random.Generator, max_states: int = 6):
    """A deterministic model: each state sends each symbol to one state or to none.

    A state with no edge stops surely (a dead end); a state that never stops
    loops among the others; one model in ten has no symbols; the start mass is
    sometimes short of 1 by rounding; and a quarter of the models are trimmed,
    so their rows may sum below 1."""
    q = int(rng.integers(1, max_states + 1))
    symbols = SYMBOL_POOL[:int(rng.integers(1, 4)) if rng.random() < 0.9 else 0]
    trans = {a: np.zeros((q, q)) for a in symbols}
    term = np.zeros(q)
    for i in range(q):
        moves = [a for a in symbols if rng.random() < 0.6]
        stops = not moves or rng.random() < 0.5
        weights = rng.random(len(moves) + stops) + 0.05
        weights /= weights.sum()
        for a, w in zip(moves, weights):
            trans[a][i, int(rng.integers(q))] = w
        if stops:
            term[i] = weights[-1]
    init = np.zeros(q)
    init[int(rng.integers(q))] = 1.0 - 5e-10 if rng.random() < 0.2 else 1.0
    model = build_sfssm(Alphabet(symbols), trans, init, term)
    if rng.random() < 0.25 and useful_states(model):
        model = trim(model)
    return model


def cases():
    for seed in SEEDS:
        rng = np.random.default_rng([31, seed])
        model = random_deterministic(rng)
        yield seed, rng, model, as_asm(model), SfssmAsm(model)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and text of the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:   # DeadPrefix and InvalidWeight are ValueErrors
        return type(exc), str(exc)


def random_prefixes(rng, model, count: int = 12, max_len: int = 8):
    symbols = model.alphabet.symbols
    for _ in range(count):
        n = int(rng.integers(0, max_len + 1)) if symbols else 0
        yield tuple(symbols[j] for j in rng.integers(0, len(symbols), size=n).tolist())


def test_every_generated_model_is_deterministic_and_takes_the_index_path():
    kinds = {"trimmed": 0, "dead end": 0, "cannot stop": 0, "missing edge": 0}
    for _, _, model, index, belief in cases():
        assert model.deterministic
        assert isinstance(index, SfssmAsm) and type(index) is not SfssmAsm
        assert type(belief) is SfssmAsm
        kinds["trimmed"] += model.state_map is not None
        out = np.bincount(model.src, minlength=model.num_states)
        kinds["dead end"] += bool((out == 0).any())
        kinds["cannot stop"] += not all(map(index.can_stop, range(model.num_states)))
        kinds["missing edge"] += bool((out < model.alphabet.size).any())
    assert min(kinds.values()) >= 20, kinds


def test_monte_carlo_estimates_are_equal():
    for seed, rng, _, index, belief in cases():
        samples, max_len = int(rng.integers(1, 3000)), int(rng.integers(1, 60))
        assert (outcome(monte_carlo_termination, index, samples, max_len, seed)
                == outcome(monte_carlo_termination, belief, samples, max_len, seed)), seed


def _series(asm, horizon):
    series = outcome(eos_hazard_enumerate, asm, horizon)
    if isinstance(series, tuple):
        return series
    return ([getattr(series, name).tobytes() for name in ("values", "partial_sums", "survival", "min_eos")],
            series.hit_one_at, series.support_exhausted_at)


def test_enumerated_hazards_are_equal_bit_for_bit():
    for seed, rng, _, index, belief in cases():
        horizon = int(rng.integers(1, 25))
        assert _series(index, horizon) == _series(belief, horizon), seed


def _conditional(asm, prefix):
    row = outcome(asm.conditional, prefix)
    return row if isinstance(row, tuple) else (row.dtype, row.shape, row.tobytes())


def test_conditionals_and_dead_prefixes_are_equal_bit_for_bit():
    dead = live = 0
    for seed, rng, model, index, belief in cases():
        for prefix in random_prefixes(rng, model):
            got = _conditional(index, prefix)
            assert got == _conditional(belief, prefix), (seed, prefix)
            dead += got[0] is DeadPrefix
            live += got[0] is not DeadPrefix
    assert dead >= 100 and live >= 100


def _walk(asm, prefix):
    """The state after each live prefix of ``prefix``, and where the walk died (None if it did not)."""
    states = [asm.initial_state()]
    for i, token in enumerate(prefix):
        try:
            states.append(asm.step(states[-1], token))
        except DeadPrefix:
            return states, i + 1
    return states, None


def test_can_stop_is_equal_along_every_live_prefix():
    answers = set()
    for seed, rng, model, index, belief in cases():
        for prefix in random_prefixes(rng, model):
            (by_index, died), (by_belief, died_too) = _walk(index, prefix), _walk(belief, prefix)
            assert died == died_too, (seed, prefix)
            stops = [index.can_stop(s) for s in by_index]
            assert stops == [belief.can_stop(s) for s in by_belief], (seed, prefix)
            answers.update(stops)
    assert answers == {True, False}


def test_the_index_path_builds_no_dense_row_mass():
    for _, rng, model, index, _ in cases():
        outcome(monte_carlo_termination, index, 100, max_len=20, seed=1)
        outcome(eos_hazard_enumerate, index, 8)
        for prefix in random_prefixes(rng, model, count=3):
            outcome(index.conditional, prefix)
        assert "row_mass" not in vars(model)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_every_mle_ngram_model_is_deterministic(order, seed):
    model = mle_ngram(random_corpus(np.random.default_rng([order, seed])), order)
    assert model.deterministic
    assert type(as_asm(model)) is not SfssmAsm


@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.name)
def test_every_shipped_model_file_is_deterministic(path):
    assert load_model(str(path)).deterministic


def test_a_split_start_or_two_edges_on_one_state_and_symbol_take_the_belief_path():
    alphabet, term = Alphabet(("a",)), [0.5, 0.5]
    split = build_sfssm(alphabet, {"a": [[0.5, 0.0], [0.0, 0.5]]}, [0.5, 0.5], term)
    forked = build_sfssm(alphabet, {"a": [[0.25, 0.25], [0.0, 0.5]]}, [1.0, 0.0], term)
    one = build_sfssm(alphabet, {"a": [[0.0, 0.5], [0.0, 0.5]]}, [1.0, 0.0], term)
    assert (split.deterministic, forked.deterministic, one.deterministic) == (False, False, True)
    assert type(as_asm(split)) is SfssmAsm and type(as_asm(forked)) is SfssmAsm
