"""Core alphabet, string and probability-operation behaviour."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from seqtight import (Alphabet, Asm, FunctionAsm, NotADistribution, SfssmAsm,
                      UnknownSymbol, prefix_probability, string_probability,
                      validate_conditional)

from conftest import StableRandomAsm, strings_up_to


def test_alphabet_rejects_duplicates_and_eos_overlap():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", "EOS"))


def test_alphabet_indexing():
    alphabet = Alphabet(("x", "y"))
    assert alphabet.index("y") == 1
    assert alphabet.eos_index == 2
    assert alphabet.full_size == 3
    with pytest.raises(UnknownSymbol):
        alphabet.index("z")


def test_empty_alphabet_is_allowed_for_degenerate_models():
    alphabet = Alphabet(())
    assert alphabet.full_size == 1
    asm = FunctionAsm(alphabet, lambda prefix: np.array([1.0]))
    assert string_probability(asm, ()) == 1.0


def test_validate_conditional_uniform_ok():
    alphabet = Alphabet(("a", "b"))
    asm = FunctionAsm(alphabet, lambda prefix: np.full(3, 1.0 / 3.0))
    validate_conditional(asm, ())


def test_validate_conditional_rejects_deficient_mass():
    alphabet = Alphabet(("a", "b"))
    asm = FunctionAsm(alphabet, lambda prefix: np.array([0.5, 0.3, 0.1]))
    with pytest.raises(NotADistribution) as info:
        validate_conditional(asm, ())
    assert info.value.total == pytest.approx(0.9)


def test_validate_conditional_reports_negative_entries():
    alphabet = Alphabet(("a",))
    asm = FunctionAsm(alphabet, lambda prefix: np.array([1.2, -0.2]))
    with pytest.raises(NotADistribution) as info:
        validate_conditional(asm, ("a",))
    assert info.value.offending == [(1, -0.2)]


def test_validate_conditional_on_bigram_table(fig1a):
    validate_conditional(SfssmAsm(fig1a), ("a",))


def test_string_probability_on_bigram_table(fig1a):
    asm = SfssmAsm(fig1a)
    assert string_probability(asm, ("a",)) == pytest.approx(0.1, abs=1e-12)
    # EOS is unreachable once a 'b' has been produced
    assert string_probability(asm, ("a", "b")) == 0.0
    assert string_probability(asm, ("b",)) == 0.0


def test_string_probability_of_empty_string_is_eos_at_start():
    alphabet = Alphabet(("a",))
    asm = FunctionAsm(alphabet, lambda prefix: np.array([0.75, 0.25]))
    assert string_probability(asm, ()) == pytest.approx(0.25)


def test_prefix_probability_examples(fig1a):
    asm = SfssmAsm(fig1a)
    assert prefix_probability(asm, ()) == 1.0
    assert prefix_probability(asm, ("a", "a")) == pytest.approx(0.7, abs=1e-12)


def test_unknown_symbol_rejected(fig1a):
    asm = SfssmAsm(fig1a)
    with pytest.raises(UnknownSymbol):
        string_probability(asm, ("a", "z"))


@given(hst.lists(hst.sampled_from(["a", "b"]), max_size=5))
@settings(max_examples=60, deadline=None)
def test_prefix_probability_monotone_under_extension(prefix):
    asm = StableRandomAsm(Alphabet(("a", "b")), seed=7)
    base = prefix_probability(asm, tuple(prefix))
    for symbol in "ab":
        assert prefix_probability(asm, tuple(prefix) + (symbol,)) <= base + 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_decomposition_identity_on_random_asms(seed):
    # prefix mass splits exactly into "stop now" plus all one-symbol extensions
    asm = StableRandomAsm(Alphabet(("a", "b")), seed=seed)
    for prefix in strings_up_to(("a", "b"), 3):
        lhs = prefix_probability(asm, prefix)
        rhs = string_probability(asm, prefix) + sum(
            prefix_probability(asm, prefix + (s,)) for s in ("a", "b"))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_decomposition_identity_on_bigram_table(fig1a):
    asm = SfssmAsm(fig1a)
    for prefix in [(), ("a",), ("a", "a"), ("a", "b")]:
        lhs = prefix_probability(asm, prefix)
        rhs = string_probability(asm, prefix) + sum(
            prefix_probability(asm, prefix + (s,)) for s in ("a", "b"))
        assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_partial_string_mass_never_exceeds_one(seed):
    asm = StableRandomAsm(Alphabet(("a", "b")), seed=100 + seed)
    for max_len in (2, 4):
        total = sum(string_probability(asm, x) for x in strings_up_to(("a", "b"), max_len))
        assert total <= 1.0 + 1e-9
    assert total >= 0.0


def test_incremental_interface_agrees_with_pure_conditional(fig1b):
    asm = SfssmAsm(fig1b)
    state = asm.initial_state()
    for i, symbol in enumerate(("a", "a", "b", "b")):
        walked = asm.state_conditional(state)
        pure = asm.conditional(("a", "a", "b", "b")[:i])
        np.testing.assert_allclose(walked, pure, atol=1e-12)
        state = asm.step(state, symbol)


class StepCounter(Asm):
    """Hooks-only model: the state counts symbols, EOS probability 1/(n + 2)."""

    def __init__(self):
        self.alphabet = Alphabet(("a", "b"))

    def initial_state(self):
        return 0

    def step(self, state, symbol):
        return state + 1

    def state_conditional(self, state):
        eos = 1.0 / (state + 2)
        return np.array([(1.0 - eos) / 2, (1.0 - eos) / 2, eos])


def test_conditional_is_derived_from_the_carried_state_hooks():
    asm = StepCounter()
    for prefix in strings_up_to(("a", "b"), 3):
        state = asm.initial_state()
        for symbol in prefix:
            state = asm.step(state, symbol)
        np.testing.assert_array_equal(asm.conditional(prefix), asm.state_conditional(state))
    assert asm.conditional(("a", "b"))[-1] == 0.25
    assert string_probability(asm, ("a",)) == pytest.approx(0.5 * 0.5 * (1 / 3), abs=1e-15)
    with pytest.raises(UnknownSymbol):
        asm.conditional(("a", "z"))


def test_asm_overriding_nothing_is_not_implemented():
    class Bare(Asm):
        alphabet = Alphabet(("a",))

    with pytest.raises(NotImplementedError):
        Bare().conditional(())
    with pytest.raises(NotImplementedError):
        Bare().state_conditional(())


def test_conditionals_locally_normalized_on_random_asms():
    asm = StableRandomAsm(Alphabet(("a", "b", "c")), seed=3)
    for prefix in strings_up_to(("a", "b", "c"), 2):
        vec = asm.conditional(prefix)
        assert math.isclose(float(vec.sum()), 1.0, abs_tol=1e-9)
        assert (vec >= 0).all()
