"""Model file parsing, canonical serialization, digests, and builtins."""

from pathlib import Path

import numpy as np
import pytest

from seqtight import (ParityAsm, ParseError, RnnAsm, Sfssm, mle_ngram, parse_corpus,
                      parse_model, write_model, model_digest)
from seqtight.modelfile import BUILTINS, load_model

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def models_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Sfssm):
        return (a.alphabet == b.alphabet and a.names == b.names
                and np.array_equal(a.init, b.init) and np.array_equal(a.term, b.term)
                and all(np.array_equal(a.trans[s], b.trans[s]) for s in a.alphabet.symbols))
    if isinstance(a, RnnAsm):
        return (a.alphabet == b.alphabet and a.activation == b.activation
                and np.array_equal(a.input_embedding, b.input_embedding)
                and np.array_equal(a.output_embedding, b.output_embedding)
                and np.array_equal(a.input_weights, b.input_weights)
                and np.array_equal(a.recurrent_weights, b.recurrent_weights)
                and np.array_equal(a.bias, b.bias)
                and np.array_equal(a.initial_hidden, b.initial_hidden))
    if isinstance(a, ParityAsm):
        return a.alphabet == b.alphabet and a.eos_prob_even == b.eos_prob_even
    return False


def test_fixture_files_match_builtins():
    for name in ("fig1a", "fig1b"):
        parsed = parse_model((MODELS_DIR / f"{name}.model").read_text())
        assert models_equal(parsed, BUILTINS[name]())


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_round_trip_builtins(name):
    model = BUILTINS[name]()
    again = parse_model(write_model(model))
    assert models_equal(model, again)
    assert write_model(again) == write_model(model)


def test_round_trip_estimated_ngram():
    model = mle_ngram([("a", "b"), ("a",), ()], 2)
    again = parse_model(write_model(model))
    assert models_equal(model, again)


def test_round_trip_degenerate_empty_alphabet():
    model = mle_ngram([()], 2)
    again = parse_model(write_model(model))
    assert models_equal(model, again)


def test_round_trip_odd_probabilities_are_exact():
    model = mle_ngram([("a",), ("a", "a"), ("a", "a", "a")], 2)
    again = parse_model(write_model(model))
    assert np.array_equal(np.asarray(model.trans["a"]), np.asarray(again.trans["a"]))


def test_digest_is_stable_and_discriminating():
    assert model_digest(BUILTINS["fig1a"]()) == model_digest(BUILTINS["fig1a"]())
    assert model_digest(BUILTINS["fig1a"]()) != model_digest(BUILTINS["fig1b"]())
    parsed = parse_model((MODELS_DIR / "fig1a.model").read_text())
    assert model_digest(parsed) == model_digest(BUILTINS["fig1a"]())


def test_comments_and_blank_lines_are_ignored():
    text = (MODELS_DIR / "fig1a.model").read_text()
    noisy = "\n# leading comment\n\n" + text.replace("a a 0.7", "a a 0.7   # self loop")
    assert models_equal(parse_model(noisy), BUILTINS["fig1a"]())


def test_custom_eos_marker():
    text = """
model: sfssm
eos: </s>

[alphabet]
a

[states]
s0

[init]
s0 1.0

[term]
s0 1.0
"""
    model = parse_model(text)
    assert model.alphabet.eos == "</s>"


def test_builtin_kind_in_file():
    model = parse_model("model: relu-rnn\n")
    assert isinstance(model, RnnAsm)
    assert model.activation == "relu"


def test_parity_file_with_parameters():
    model = parse_model("""
model: parity

[alphabet]
x y z

[parity]
eos-prob-even 0.25
""")
    assert isinstance(model, ParityAsm)
    assert model.eos_prob_even == 0.25
    assert model.alphabet.symbols == ("x", "y", "z")


def test_load_model_builtin_scheme(tmp_path):
    assert isinstance(load_model("builtin:softplus-rnn"), RnnAsm)
    with pytest.raises(ParseError):
        load_model("builtin:nope")
    path = tmp_path / "m.model"
    path.write_text(write_model(BUILTINS["fig1b"]()))
    assert isinstance(load_model(str(path)), Sfssm)


# -- diagnostics -------------------------------------------------------------

def diagnose(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_model(text)
    return info.value


def test_missing_model_header():
    err = diagnose("[alphabet]\na b\n")
    assert "model" in str(err)


def test_unknown_kind_position():
    err = diagnose("# hi\nmodel: frobnicator\n")
    assert err.line == 2


def test_bad_number_has_line_and_column():
    text = """model: sfssm

[alphabet]
a

[states]
s0

[init]
s0 one
"""
    err = diagnose(text)
    assert err.line == 10
    assert err.col == 4
    assert "one" in str(err)


def test_unknown_state_reported():
    text = """model: sfssm

[alphabet]
a

[states]
s0

[init]
s1 1.0
"""
    err = diagnose(text)
    assert "s1" in str(err)
    assert err.line == 10


def test_duplicate_section_rejected():
    err = diagnose("model: sfssm\n\n[alphabet]\na\n\n[alphabet]\nb\n")
    assert "duplicate" in str(err)


def test_row_sum_failure_becomes_parse_error():
    text = """model: sfssm

[alphabet]
a

[states]
s0

[init]
s0 1.0

[transitions a]
s0 s0 0.5

[term]
s0 0.4
"""
    err = diagnose(text)
    assert "0.9" in str(err)


NAN_INIT_MODEL = """model: sfssm

[alphabet]
a

[states]
q

[init]
q nan

[transitions a]
q q 0.5

[term]
q 0.5
"""


def test_nan_entries_become_parse_errors():
    assert "nan" in str(diagnose(NAN_INIT_MODEL))
    # a NaN transition makes its row sum NaN, which must fail the row check too
    err = diagnose(NAN_INIT_MODEL.replace("q nan", "q 1.0").replace("q q 0.5", "q q nan"))
    assert "nan" in str(err)


def test_builtin_with_sections_rejected():
    err = diagnose("model: fig1a\n\n[alphabet]\na\n")
    assert "no sections" in str(err)


def test_rnn_missing_sections_reported():
    err = diagnose("model: rnn\n\n[alphabet]\na\n")
    assert "rnn" in str(err)


def test_transition_section_for_unknown_symbol():
    text = """model: sfssm

[alphabet]
a

[states]
s0

[init]
s0 1.0

[transitions q]
s0 s0 1.0
"""
    err = diagnose(text)
    assert "'q'" in str(err)


def test_rnn_file_round_trip_with_edits():
    model = BUILTINS["softplus-rnn"]()
    text = write_model(model)
    tweaked = text.replace("activation softplus", "activation tanh")
    parsed = parse_model(tweaked)
    assert parsed.activation == "tanh"


# -- corpus ------------------------------------------------------------------

def test_parse_corpus_lines_and_blanks():
    corpus = parse_corpus("a b\n\nb\n")
    assert corpus == [("a", "b"), (), ("b",)]


def test_parse_corpus_empty_text():
    assert parse_corpus("") == []


def test_write_model_rejects_unserializable_symbols():
    model = mle_ngram([("a#b",)], 2)
    with pytest.raises(ValueError):
        write_model(model)
