"""RNN instances, parity model, and the finite-state adapter."""

import math
import re

import numpy as np
import pytest

from seqtight import (Alphabet, DeadPrefix, OutOfRange, ParityAsm, RnnAsm, SfssmAsm,
                      UnknownSymbol, make_nontight_relu_rnn, make_tight_softplus_rnn,
                      string_probability, string_probability_fsa)
from seqtight.core import _distributions

from conftest import random_sfssm, strings_up_to


# -- ReLU instance -----------------------------------------------------------

def test_relu_rnn_hidden_counts_symbols_exactly():
    m = make_nontight_relu_rnn()
    h = m.initial_state()
    for t in range(1, 40):
        h = m.step(h, "a")
        assert h[0] == float(t)  # integer arithmetic under relu is exact


def test_relu_rnn_eos_schedule():
    m = make_nontight_relu_rnn()
    assert m.conditional(())[-1] == pytest.approx(0.5, abs=1e-15)
    assert m.conditional(("a",))[-1] == pytest.approx(1.0 / (math.e + 1.0), abs=1e-12)
    assert m.conditional(("a",) * 4)[-1] == pytest.approx(1.0 / (math.exp(4) + 1.0), abs=1e-12)


def test_relu_rnn_survives_huge_prefixes():
    # logits grow linearly; softmax must not overflow
    m = make_nontight_relu_rnn()
    vec = m.state_conditional(np.array([2000.0]))
    assert 0.0 <= vec[-1] < 1e-300 or vec[-1] == 0.0
    assert vec[0] == pytest.approx(1.0)


# -- softplus instance ---------------------------------------------------------

def test_softplus_rnn_hidden_tracks_log():
    m = make_tight_softplus_rnn()
    h = m.initial_state()
    for t in range(1, 60):
        h = m.step(h, "a")
        assert h[0] == pytest.approx(math.log(t + 1.0), abs=1e-9)


def test_softplus_rnn_eos_schedule():
    m = make_tight_softplus_rnn()
    assert m.conditional(())[-1] == pytest.approx(0.5, abs=1e-12)
    assert m.conditional(("a", "a"))[-1] == pytest.approx(0.25, abs=1e-12)
    assert m.conditional(("a",) * 9)[-1] == pytest.approx(1.0 / 11.0, abs=1e-12)


# -- recurrence and softmax ------------------------------------------------------

def test_rnn_step_relu_instance():
    m = make_nontight_relu_rnn()
    assert m.step(np.array([0.0]), "a")[0] == 1.0


def test_rnn_step_softplus_instance():
    m = make_tight_softplus_rnn()
    out = m.step(np.array([math.log(2.0)]), "a")
    assert out[0] == pytest.approx(math.log(3.0), abs=1e-12)


def test_rnn_step_zero_weights_fixed_point():
    alphabet = Alphabet(("a",))
    m = RnnAsm(alphabet=alphabet,
               input_embedding=np.zeros((2, 2)),
               output_embedding=np.zeros((2, 2)),
               input_weights=np.zeros((2, 2)),
               recurrent_weights=np.zeros((2, 2)),
               bias=np.zeros(2),
               activation="relu",
               initial_hidden=np.zeros(2))
    np.testing.assert_array_equal(m.step(np.zeros(2), "a"), np.zeros(2))


def test_rnn_conditional_matches_closed_forms():
    relu = make_nontight_relu_rnn()
    for t in (1, 3, 10):
        vec = relu.state_conditional(np.array([float(t)]))
        assert vec[-1] == pytest.approx(1.0 / (math.exp(t) + 1.0), rel=1e-12)
    soft = make_tight_softplus_rnn()
    for t in (1, 4, 25):
        vec = soft.state_conditional(np.array([math.log(float(t))]))
        assert vec[-1] == pytest.approx(1.0 / (t + 1.0), rel=1e-12)


def test_rnn_conditional_uniform_at_zero_hidden():
    m = make_nontight_relu_rnn()
    np.testing.assert_allclose(m.state_conditional(np.array([0.0])), [0.5, 0.5], atol=1e-15)


def test_rnn_conditionals_strictly_positive_and_normalized():
    m = make_tight_softplus_rnn()
    for t in range(12):
        vec = m.conditional(("a",) * t)
        assert (vec > 0).all()
        assert float(vec.sum()) == pytest.approx(1.0, abs=1e-12)
        assert _distributions(vec)


def test_rnn_needs_a_hidden_state():
    with pytest.raises(ValueError, match="initial_hidden needs at least one entry"):
        RnnAsm(alphabet=Alphabet(("a",)), input_embedding=np.zeros((2, 0)),
               output_embedding=np.zeros((2, 0)), input_weights=np.zeros((0, 0)),
               recurrent_weights=np.zeros((0, 0)), bias=np.zeros(0), activation="relu",
               initial_hidden=np.zeros(0))


def test_rnn_successor_keys_are_rows_without_negative_zeros():
    # the frontier pools successors whose key rows have equal bytes, as
    # state_key's bytes are equal
    rnn = make_tight_softplus_rnn()
    states, keys = rnn.successors(np.array([[0.0], [1.0]]), np.array([1, 0, 1]), np.array([0, 0, 0]))
    assert keys.shape == (3, 1)
    assert [row.tobytes() for row in keys] == [rnn.state_key(s) for s in states]


def test_rnn_state_key_ignores_the_sign_of_zero():
    # hidden states 0.0 and -0.0 have the same future, so they must pool
    rnn = make_tight_softplus_rnn()
    assert rnn.state_key(np.array([-0.0])) == rnn.state_key(np.array([0.0]))
    assert rnn.state_key(np.array([1.0])) != rnn.state_key(np.array([0.0]))


@pytest.mark.parametrize("activation", ["relu", "softplus", "tanh", "sigmoid"])
def test_rnn_unroll_rows_are_repeated_steps(activation):
    rng = np.random.default_rng(3)
    rnn = RnnAsm(alphabet=Alphabet(("a", "b")), input_embedding=rng.normal(size=(3, 3)),
                 output_embedding=rng.normal(size=(3, 3)), input_weights=rng.normal(size=(3, 3)),
                 recurrent_weights=rng.normal(size=(3, 3)), bias=rng.normal(size=3),
                 activation=activation, initial_hidden=rng.normal(size=3))
    chain = rnn.unroll(rnn.initial_state(), 1, 40)
    h = rnn.initial_state()
    for row in chain:
        h = rnn.step(h, "b")
        assert row.tobytes() == h.tobytes()
    assert np.array_equal(rnn.state_conditionals(chain),
                          [rnn.state_conditional(row) for row in chain])


def test_default_unroll_steps_once():
    chain = ParityAsm().unroll(3, 0, 50)
    assert list(chain) == [4]


def test_rnn_rejects_unknown_activation():
    with pytest.raises(ValueError):
        RnnAsm(alphabet=Alphabet(("a",)),
               input_embedding=np.zeros((2, 1)),
               output_embedding=np.zeros((2, 1)),
               input_weights=np.zeros((1, 1)),
               recurrent_weights=np.zeros((1, 1)),
               bias=np.zeros(1),
               activation="swish",
               initial_hidden=np.zeros(1))


def test_rnn_rejects_a_parameter_of_the_wrong_shape():
    # one output row too many: without the check, the RNN would be built
    with pytest.raises(ValueError, match=re.escape("output_embedding has shape (3, 1), expected (2, 1)")):
        RnnAsm(alphabet=Alphabet(("a",)),
               input_embedding=np.zeros((2, 1)),
               output_embedding=np.zeros((3, 1)),
               input_weights=np.zeros((1, 1)),
               recurrent_weights=np.zeros((1, 1)),
               bias=np.zeros(1),
               activation="relu",
               initial_hidden=np.zeros(1))


# -- parity model ------------------------------------------------------------------

def test_parity_eos_only_on_even_steps():
    m = ParityAsm()
    assert m.conditional(())[-1] == 0.0           # step 1
    assert m.conditional(("a",))[-1] == 0.1       # step 2
    assert m.conditional(("a", "b"))[-1] == 0.0   # step 3
    assert m.conditional(("a", "b", "a"))[-1] == 0.1


def test_parity_even_length_strings_impossible():
    m = ParityAsm()
    assert string_probability(m, ()) == 0.0
    assert string_probability(m, ("a", "b")) == 0.0
    assert string_probability(m, ("a",)) > 0.0


def test_parity_validates_probability_range():
    with pytest.raises(OutOfRange):
        ParityAsm(0.0)
    with pytest.raises(OutOfRange):
        ParityAsm(1.0)


def test_parity_conditional_checks_symbols():
    # the derived conditional walks only checked tokens, though the state is a count
    with pytest.raises(UnknownSymbol):
        ParityAsm().conditional(("z",))


def test_parity_spreads_rest_uniformly():
    m = ParityAsm(0.2)
    vec = m.conditional(("a",))
    np.testing.assert_allclose(vec, [0.4, 0.4, 0.2], atol=1e-15)


# -- finite-state adapter --------------------------------------------------------------

def test_adapter_conditionals_match_table(fig1a):
    asm = SfssmAsm(fig1a)
    np.testing.assert_allclose(asm.conditional(("a",)), [0.7, 0.2, 0.1], atol=1e-15)
    np.testing.assert_allclose(asm.conditional(("a", "b")), [0.0, 1.0, 0.0], atol=1e-15)


def test_adapter_dead_prefix(fig1a):
    asm = SfssmAsm(fig1a)
    with pytest.raises(DeadPrefix):
        asm.conditional(("b",))


def test_adapter_conditionals_normalized_where_defined(fig1b):
    asm = SfssmAsm(fig1b)
    for prefix in [(), ("a",), ("a", "b"), ("a", "b", "b")]:
        assert float(asm.conditional(prefix).sum()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_adapter_agrees_with_path_sums(seed):
    # exhaustive equivalence of the two probability routes on short strings
    rng = np.random.default_rng(4000 + seed)
    model = random_sfssm(rng)
    asm = SfssmAsm(model)
    for x in strings_up_to(model.alphabet.symbols, 6):
        assert string_probability(asm, x) == pytest.approx(
            string_probability_fsa(model, x), abs=1e-12)
