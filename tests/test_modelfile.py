"""Model file parsing, canonical serialization, digests, and builtins."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from seqtight import (Alphabet, FunctionAsm, ParityAsm, ParseError, RnnAsm, Sfssm, mle_ngram,
                      parse_corpus, parse_model, trim, write_model, model_digest)
from seqtight.cli import main
from seqtight.modelfile import BUILTINS, load_model, model_kind, sha256
from seqtight.sfssm import ROW_TOL

from conftest import dense_transitions, random_sfssm

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def models_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Sfssm):
        return (a.alphabet == b.alphabet and a.names == b.names
                and np.array_equal(a.init, b.init) and np.array_equal(a.term, b.term)
                and all(np.array_equal(dense_transitions(a, s), dense_transitions(b, s))
                        for s in a.alphabet.symbols))
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
    assert np.array_equal(dense_transitions(model, "a"), dense_transitions(again, "a"))


def test_digest_is_stable_and_discriminating():
    assert model_digest(BUILTINS["fig1a"]()) == model_digest(BUILTINS["fig1a"]())
    assert model_digest(BUILTINS["fig1a"]()) != model_digest(BUILTINS["fig1b"]())
    parsed = parse_model((MODELS_DIR / "fig1a.model").read_text())
    assert model_digest(parsed) == model_digest(BUILTINS["fig1a"]())


def test_the_builtin_sha256_is_hashlibs_sha256():
    # every length up to 300 bytes, past the 55/56/64-byte padding edges
    data = bytes(np.random.default_rng(5).integers(0, 256, size=300, dtype=np.uint8))
    for n in range(301):
        assert sha256(data[:n]).hexdigest() == hashlib.sha256(data[:n]).hexdigest()


DIGESTED_MODELS = [f"builtin:{name}" for name in sorted(BUILTINS)] + \
                  [str(path) for path in sorted(MODELS_DIR.glob("*.model"))]


def hashlib_digests() -> list[str]:
    return [hashlib.sha256(write_model(load_model(name)).encode("utf-8")).hexdigest()
            for name in DIGESTED_MODELS]


def test_model_digest_is_the_hashlib_sha256_of_the_written_text():
    assert [model_digest(load_model(name)) for name in DIGESTED_MODELS] == hashlib_digests()


def test_without_the_builtin_sha256_modules_digests_go_through_hashlib():
    probe = ("import hashlib, json, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
             "from seqtight import modelfile\n"
             "print(json.dumps([modelfile.sha256 is hashlib.sha256, "
             "[modelfile.model_digest(modelfile.load_model(name)) for name in sys.argv[1:]]]))")
    result = subprocess.run([sys.executable, "-c", probe, *DIGESTED_MODELS],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    assert json.loads(result.stdout) == [True, hashlib_digests()]


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


def test_unknown_header_rejected():
    err = diagnose("model: fig1a\neso: STOP\n")
    assert (err.line, err.col) == (2, 1)
    assert "'eso'" in str(err)


def test_builtin_with_eos_header_rejected():
    err = diagnose("model: fig1a\neos: STOP\n")
    assert err.line == 2
    assert "eos" in str(err)


def test_parity_without_sections_keeps_eos():
    assert model_digest(parse_model("model: parity\n")) == model_digest(ParityAsm())
    model = parse_model("model: parity\neos: STOP\n")
    assert model.alphabet.eos == "STOP"
    assert model.eos_prob_even == ParityAsm().eos_prob_even


def test_duplicate_rnn_entry_rejected():
    text = write_model(BUILTINS["softplus-rnn"]()).replace("h0 0.0\n", "h0 0.0\nh0 5.0\n")
    err = diagnose(text)
    assert (err.line, err.col) == (text.splitlines().index("h0 5.0") + 1, 1)
    assert "duplicate [rnn] entry 'h0'" in str(err)


def test_duplicate_parity_entry_rejected():
    err = diagnose("model: parity\n\n[parity]\neos-prob-even 0.2\neos-prob-even 0.3\n")
    assert (err.line, err.col) == (5, 1)
    assert "duplicate [parity] entry" in str(err)


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


# -- pinned diagnostics --------------------------------------------------------

PINNED_SFSSM = """model: sfssm

[alphabet]
a b

[states]
s0 s1 s ss

[init]
s0 1.0

[transitions a]
s0 s1 0.5
s1 s1 0.5
s ss 1.0
ss s 1.0

[transitions b]
s0 s0 0.5

[term]
s1 0.5
"""

PINNED_RNN = write_model(BUILTINS["softplus-rnn"]()).replace("eos: EOS\n", "")

# (case, text replaced, replacement, (message, line, column)), recorded from the
# line-by-line parser that preceded the column-by-column one
PINNED_SFSSM_ERRORS = [
    ('two tokens', 's1 s1 0.5', 's1 s1',
     ("transition lines are 'from to probability'", 14, 1)),
    ('four tokens', 's1 s1 0.5', 's1 s1 0.5 0.5',
     ("transition lines are 'from to probability'", 14, 1)),
    ('unknown from-state', 's1 s1 0.5', 'zz s1 0.5',
     ("unknown state 'zz'", 14, 1)),
    ('unknown to-state', 's1 s1 0.5', 's1 zz 0.5',
     ("unknown state 'zz'", 14, 4)),
    ('repeated token', 's1 s1 0.5', 's0 s0 junk',
     ("expected a number, got 'junk'", 14, 7)),
    ('token inside an earlier one', 'ss s 1.0', 'ss s junk',
     ("expected a number, got 'junk'", 16, 6)),
    ('duplicate transition', 'ss s 1.0', 'ss s 1.0\ns ss 0.0\nss s 0.5',
     ("duplicate transition 's' -> 'ss'", 17, 1)),
    ('bad number', 's0 s1 0.5', 's0 s1 0.5.0',
     ("expected a number, got '0.5.0'", 13, 7)),
    ('earliest of two faults', 's1 s1 0.5', 's1 s1 x\nzz s1 0.5',
     ("expected a number, got 'x'", 14, 7)),
    ('bad number before a short line', 's1 s1 0.5', 's1 s1 x\ns1 s1',
     ("expected a number, got 'x'", 14, 7)),
    ('duplicate before a bad number', 'ss s 1.0', 'ss s 1.0\nss s 0.0\ns s x',
     ("duplicate transition 'ss' -> 's'", 17, 1)),
    ('unknown state and bad number', 's1 s1 0.5', 's1 zz x',
     ("unknown state 'zz'", 14, 4)),
    ('duplicate with a bad number', 'ss s 1.0', 'ss s 1.0\nss s x',
     ("duplicate transition 'ss' -> 's'", 17, 1)),
    ('bad init value', '[init]\ns0 1.0', '[init]\ns0 one',
     ("expected a number, got 'one'", 10, 4)),
    ('bad term value', '[term]\ns1 0.5', '[term]\ns1 half',
     ("expected a number, got 'half'", 22, 4)),
    ('init line with three tokens', '[init]\ns0 1.0', '[init]\ns0 1.0 2.0',
     ("[init] lines are 'state probability'", 10, 1)),
    ('duplicate term entry', '[term]\ns1 0.5', '[term]\ns1 0.5\ns1 0.5',
     ("duplicate entry for state 's1'", 23, 1)),
    ('tab-separated tokens', 's1 s1 0.5', 's1\ts1\t\tjunk',
     ("expected a number, got 'junk'", 14, 8)),
    ('trailing comment', 's1 s1 0.5', '  s1   zz 0.5   # zz is not a state',
     ("unknown state 'zz'", 14, 8)),
    ('second transition section', 's0 s0 0.5', 's0 s0 0.5\ns1 ss nope',
     ("expected a number, got 'nope'", 20, 7)),
    ('unknown init state', '[init]\ns0 1.0', '[init]\ns0 1.0\nq 0.0',
     ("unknown state 'q'", 11, 1)),
    ('unknown symbol section', '[transitions b]', '[transitions c]',
     ("transition section for unknown symbol 'c'", 18, 1)),
    ('unterminated header', '[transitions b]', '  [transitions b',
     ("section header does not end with ']'", 18, 3)),
]
PINNED_RNN_ERRORS = [
    ('rnn hidden not an integer', 'hidden 1', 'hidden one',
     ("expected an integer, got 'one'", 7, 8)),
    ('rnn bad bias', 'bias 0.0', 'bias   zero',
     ("expected a number, got 'zero'", 10, 8)),
    ('rnn bad matrix entry', '[recurrent-weights]\n1.0', '[recurrent-weights]\n\t1.0x',
     ("expected a number, got '1.0x'", 16, 2)),
    ('rnn matrix row too long', '[recurrent-weights]\n1.0', '[recurrent-weights]\n 1.0 2.0',
     ('[recurrent-weights] rows need exactly 1 numbers', 16, 2)),
    ('rnn embedding value repeats its symbol', '[output-embedding]\na 1.0',
     '[output-embedding]\na a',
     ("expected a number, got 'a'", 23, 3)),
    ('rnn h0 too long', 'h0 0.0', 'h0 0.0 1.0',
     ("'h0' needs exactly 1 numbers", 9, 1)),
    ('rnn bias without numbers', 'bias 0.0', 'bias',
     ("'bias' needs exactly 1 numbers", 10, 1)),
]
PINNED_HEADER_ERRORS = [
    ('parity bad value', 'model: parity\n[parity]\neos-prob-even  x\n',
     ("expected a number, got 'x'", 3, 16)),
    ('header with two values', 'model: sfssm extra\n',
     ("header 'model' takes exactly one value", 1, 1)),
    ('header not key-value', '\n  model sfssm\n',
     ("expected 'key: value' before the first section, got 'model'", 2, 3)),
]


def error_tuple(text: str) -> tuple[str, int, int]:
    err = diagnose(text)
    return str(err).split(": ", 1)[1], err.line, err.col


def test_pinned_models_parse():
    assert isinstance(parse_model(PINNED_SFSSM), Sfssm)
    assert isinstance(parse_model(PINNED_RNN), RnnAsm)


# every str.splitlines boundary that str.split also takes for whitespace
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"],
                         ids=["lf", "crlf", "cr", "ff", "nel", "ls"])
@pytest.mark.parametrize("old, new, expected", [case[1:] for case in PINNED_SFSSM_ERRORS],
                         ids=[case[0] for case in PINNED_SFSSM_ERRORS])
def test_sfssm_parse_errors_are_pinned(old, new, expected, newline):
    assert old in PINNED_SFSSM
    text = PINNED_SFSSM.replace(old, new, 1).replace("\n", newline)
    assert error_tuple(text) == expected


@pytest.mark.parametrize("old, new, expected", [case[1:] for case in PINNED_RNN_ERRORS],
                         ids=[case[0] for case in PINNED_RNN_ERRORS])
def test_rnn_parse_errors_are_pinned(old, new, expected):
    assert old in PINNED_RNN
    assert error_tuple(PINNED_RNN.replace(old, new, 1)) == expected


@pytest.mark.parametrize("text, expected", [case[1:] for case in PINNED_HEADER_ERRORS],
                         ids=[case[0] for case in PINNED_HEADER_ERRORS])
def test_header_and_parity_parse_errors_are_pinned(text, expected):
    assert error_tuple(text) == expected


# every other ParseError of the parsers: (case, kind written, text replaced,
# replacement, (message, line, column))
WRITTEN = {kind: write_model(BUILTINS[kind]()) for kind in ("fig1b", "softplus-rnn", "parity")}
WRITTEN_ERRORS = [
    ('duplicate header', 'fig1b', 'eos: EOS\n', 'eos: EOS\neos: EOS\n',
     ("duplicate header 'eos'", 3, 1)),
    ('empty section header', 'fig1b', '[term]', '[ ]',
     ("empty section header", 21, 1)),
    ('duplicate alphabet symbol', 'fig1b', '[alphabet]\na b', '[alphabet]\na b a',
     ("duplicate alphabet symbol 'a'", 5, 5)),
    ('duplicate state', 'fig1b', '[states]\nBOS a b', '[states]\nBOS a b a',
     ("duplicate state 'a'", 8, 9)),
    ('empty states', 'fig1b', '[states]\nBOS a b', '[states]',
     ("[states] section is empty", 7, 1)),
    ('transition section with two symbols', 'fig1b', '[transitions b]', '[transitions b a]',
     ("transition sections are named [transitions <symbol>]", 17, 1)),
    ('hidden with two values', 'softplus-rnn', 'hidden 1', 'hidden 1 2',
     ("'hidden' takes one integer", 8, 1)),
    ('activation without a name', 'softplus-rnn', 'activation softplus', 'activation',
     ("'activation' takes one name", 9, 1)),
    ('unknown rnn entry', 'softplus-rnn', 'bias 0.0', 'bias 0.0\n  scale 2.0',
     ("unknown [rnn] entry 'scale'", 12, 3)),
    ('hidden zero', 'softplus-rnn', 'hidden 1', 'hidden 0',
     ("[rnn] must declare 'hidden <d>' with d >= 1", 7, 1)),
    ('no activation', 'softplus-rnn', 'activation softplus\n', '',
     ("[rnn] must declare 'activation <name>'", 7, 1)),
    ('matrix with two rows', 'softplus-rnn', '[input-weights]\n0.0', '[input-weights]\n0.0\n0.0',
     ("[input-weights] needs exactly 1 rows", 13, 1)),
    ('embedding for an unknown symbol', 'softplus-rnn', '[input-embedding]\na 1.0',
     '[input-embedding]\n z 1.0', ("embedding for unknown symbol 'z'", 20, 2)),
    ('duplicate embedding', 'softplus-rnn', '[input-embedding]\na 1.0',
     '[input-embedding]\na 1.0\na 1.0', ("duplicate embedding for 'a'", 21, 1)),
    ('embedding too long', 'softplus-rnn', '[output-embedding]\na 1.0',
     '[output-embedding]\na 1.0 2.0', ("embeddings need exactly 1 numbers", 24, 1)),
    ('missing embedding', 'softplus-rnn', '[output-embedding]\na 1.0\nEOS 0.0',
     '[output-embedding]\na 1.0', ("missing embeddings for ['EOS']", 23, 1)),
    ('unknown parity entry', 'parity', 'eos-prob-even 0.1', 'eos-prob-odd 0.1',
     ("[parity] lines are 'eos-prob-even <p>'", 8, 1)),
    ('section of another kind', 'parity', '[parity]', '[rnn]',
     ("unexpected section [rnn] in a parity file", 7, 1)),
]


@pytest.mark.parametrize("kind, old, new, expected", [case[1:] for case in WRITTEN_ERRORS],
                         ids=[case[0] for case in WRITTEN_ERRORS])
def test_parse_errors_of_edited_written_models_are_pinned(kind, old, new, expected):
    assert old in WRITTEN[kind]
    assert error_tuple(WRITTEN[kind].replace(old, new, 1)) == expected


def test_load_model_skips_a_byte_order_mark(tmp_path):
    text = (MODELS_DIR / "fig1b.model").read_text()
    marked = tmp_path / "marked.model"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert models_equal(load_model(str(marked)), BUILTINS["fig1b"]())
    with pytest.raises(ParseError):
        parse_model("\ufeff" + text)   # parse_model itself takes the text as given


# sha256 digests (model_digest) of the ngram-exact benchmark's bigram files
# per seed: mle.model as ``estimate-ngram`` writes it, then leaky.model
BENCH_DIGESTS = {
    1: ("a423622e71b1903485ccad3b0a4c99470b75a7d642931e42b794e7969293251c",
        "0a90b57967052f4f3bcd02b80adce857982d3ec02fbe60773893ccd13ae6ceaa"),
    2: ("8edcbe4eb36f679515f5365176e47c7f861a6afde4ee9ab7d0aed5059b86cf75",
        "651101616c6cc1b9ef45d238e90c1d29aec76b1a0a09028287d429ff2cf2b1d3"),
    3: ("c1a7e1c6dad552e2b5d2985ed5424ea2031d91710be57efc73bfd59ef3c0c106",
        "2a9c4eb383eb66d4a35467c219c29dfebda011982facf889d783177d12753887"),
}


@pytest.mark.parametrize("seed", sorted(BENCH_DIGESTS))
def test_bench_bigram_files_keep_their_digests(seed, tmp_path, workloads, capsys):
    workloads.ngram_exact(seed, tmp_path)
    assert main(["estimate-ngram", str(tmp_path / "corpus.txt"), "--order", "2",
                 "--out", str(tmp_path / "mle.model")]) == 0
    capsys.readouterr()
    for name, digest in zip(("mle.model", "leaky.model"), BENCH_DIGESTS[seed]):
        path = tmp_path / name
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert model_digest(load_model(str(path))) == digest


# -- corpus ------------------------------------------------------------------

def test_parse_corpus_lines_and_blanks():
    corpus = parse_corpus("a b\n\nb\n")
    assert corpus == [("a", "b"), (), ("b",)]


def test_parse_corpus_empty_text():
    assert parse_corpus("") == []


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_model_kind_is_the_kind_the_writer_names(name):
    model = BUILTINS[name]()
    assert write_model(model).startswith(f"model: {model_kind(model)}\n")


def test_model_kind_of_a_model_with_no_file_kind_is_its_class_name():
    assert model_kind(FunctionAsm(Alphabet(("a",)), lambda prefix: [0.5, 0.5])) == "FunctionAsm"
    with pytest.raises(TypeError, match="cannot serialize FunctionAsm"):
        write_model(FunctionAsm(Alphabet(("a",)), lambda prefix: [0.5, 0.5]))


def test_write_model_rejects_unserializable_symbols():
    model = mle_ngram([("a#b",)], 2)
    with pytest.raises(ValueError):
        write_model(model)


# -- the edge-list parser and writer -------------------------------------------

def test_rnn_with_non_finite_parameters_is_a_parse_error():
    text = write_model(BUILTINS["softplus-rnn"]())
    assert "nan" in str(diagnose(text.replace("h0 0.0", "h0 nan")))
    assert "inf" in str(diagnose(text.replace("bias 0.0", "bias inf")))


# sha256 of write_model output, recorded from the dense-matrix writer that
# preceded the edge-list layout; the digests must never change
DENSE_WRITER_DIGESTS = {
    "fig1a": "9ffa3f3ab5825ea0429eef8a1a8cac52fa6e1c07c85d4768a5ceda16ed4d948f",
    "fig1b": "58dd7420f12c36f1ce27e6f6973811891c163dd95c5917474ac1174e01e04fde",
    "acceptance pool": "e7c03515106d20d276460468c5fd1b29a41605a33e917cd2447d812baf555b84",
}


def test_writer_output_matches_the_dense_writer():
    for name in ("fig1a", "fig1b"):
        model = parse_model((MODELS_DIR / f"{name}.model").read_text())
        assert model_digest(model) == DENSE_WRITER_DIGESTS[name]
    rng = np.random.default_rng(91)   # the pool of tests/test_acceptance.py
    pool = hashlib.sha256()
    for _ in range(200):
        pool.update(write_model(random_sfssm(rng, max_states=5, max_symbols=3)).encode())
    assert pool.hexdigest() == DENSE_WRITER_DIGESTS["acceptance pool"]


UNORDERED_MODEL = """model: sfssm

[alphabet]
a b

[states]
s0 s1 s2

[init]
s1 0.0
s0 1.0

[transitions b]
s2 s2 0.25
s1 s0 -0.0
s0 s2 0.5

[transitions a]
s2 s0 0.75
s1 s1 0.0
s0 s1 0.25
s0 s0 0.25
s1 s2 1e-320

[term]
s1 1.0
s2 -0.0
"""

# what the dense-matrix writer printed for UNORDERED_MODEL: row-major edges,
# zero and negative-zero entries left out
UNORDERED_MODEL_CANONICAL = """model: sfssm
eos: EOS

[alphabet]
a b

[states]
s0 s1 s2

[init]
s0 1.0

[transitions a]
s0 s0 0.25
s0 s1 0.25
s1 s2 1e-320
s2 s0 0.75

[transitions b]
s0 s2 0.5
s2 s2 0.25

[term]
s1 1.0
"""


def test_write_model_refuses_trimmed_models(fig1a):
    # trim(fig1a) keeps row a at 0.8: no model file can hold it
    with pytest.raises(ValueError, match="trimmed"):
        write_model(trim(fig1a))
    with pytest.raises(ValueError, match="trimmed"):
        model_digest(trim(fig1a))


def test_writer_puts_edges_in_row_major_order_and_drops_zeros():
    model = parse_model(UNORDERED_MODEL)
    assert write_model(model) == UNORDERED_MODEL_CANONICAL
    np.testing.assert_array_equal(model.offsets, [0, 4, 6])
    np.testing.assert_array_equal(model.src, [0, 0, 1, 2, 0, 2])
    np.testing.assert_array_equal(model.dst, [0, 1, 2, 0, 2, 2])


def test_parsing_a_v200_bigram_file_stays_small():
    # a seeded Zipf corpus like the benchmark's: 200 symbols, 201 states; a
    # dense per-symbol layout of this model needs 65 MB
    rng = np.random.default_rng(5)
    weights = 1.0 / np.arange(1, 201) ** 1.1
    corpus = [tuple(f"w{i:03d}" for i in rng.choice(200, size=n, p=weights / weights.sum()))
              for n in rng.integers(1, 21, size=3000)]
    corpus.append(tuple(f"w{i:03d}" for i in range(200)))   # every symbol occurs
    text = write_model(mle_ngram(corpus, 2))
    tracemalloc.start()
    try:
        model = parse_model(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (model.num_states, model.alphabet.size) == (201, 200)
    assert peak < 8_000_000


FUZZ_VALUES = ("1.0", "0.5", "0.25", "0.0", "-0.0", "1e-320", "nan", "inf", "-inf", "-0.5",
               "junk", "1e400")


@hst.composite
def sfssm_texts(draw):
    """Model files that are valid until mutated: rows split their mass into
    1, 2 or 4 equal events, then values, lines and sections get scrambled."""
    symbols = draw(hst.lists(hst.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    states = [f"s{i}" for i in range(draw(hst.integers(1, 3)))]
    sections = {"alphabet": [" ".join(symbols)], "states": [" ".join(states)],
                "init": [f"{states[0]} 1.0"], "term": []}
    sections.update({f"transitions {a}": [] for a in symbols})
    for s in states:
        events = [None] + [(a, t) for a in symbols for t in states]
        k = draw(hst.sampled_from([k for k in (1, 2, 4) if k <= len(events)]))
        chosen = draw(hst.lists(hst.sampled_from(events), min_size=k, max_size=k, unique=True))
        for event in chosen:
            if event is None:
                sections["term"].append(f"{s} {1 / k!r}")
            else:
                sections[f"transitions {event[0]}"].append(f"{s} {event[1]} {1 / k!r}")
    names = list(sections)
    for _ in range(draw(hst.integers(0, 3))):
        name = draw(hst.sampled_from(names[2:]))
        lines = sections[name]
        action = draw(hst.sampled_from(["value", "duplicate", "extra", "unknown state"]))
        if action == "value" and lines:
            i = draw(hst.integers(0, len(lines) - 1))
            lines[i] = lines[i].rsplit(" ", 1)[0] + " " + draw(hst.sampled_from(FUZZ_VALUES))
        elif action == "duplicate" and lines:
            lines.append(draw(hst.sampled_from(lines)))
        elif action == "extra":
            head = draw(hst.sampled_from(states)) + ("" if name in ("init", "term")
                                                     else " " + draw(hst.sampled_from(states)))
            lines.append(f"{head} {draw(hst.sampled_from(FUZZ_VALUES))}")
        elif action == "unknown state":
            lines.append("zz " + " ".join(lines[0].split()[1:]) if lines else "zz 0.5")
    order = draw(hst.permutations(names))
    if draw(hst.booleans()):
        order.append(draw(hst.sampled_from(names)))   # a duplicated section
    body = "\n\n".join(f"[{name}]\n" + "\n".join(draw(hst.permutations(sections[name])))
                       for name in order)
    return "model: sfssm\n\n" + body + "\n"


def same_arrays(a: Sfssm, b: Sfssm) -> bool:
    """Equal models, bit for bit, down to the order of the edge arrays."""
    return (a.alphabet == b.alphabet and a.names == b.names
            and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                    for x, y in zip((a.src, a.dst, a.prob, a.offsets, a.init, a.term),
                                    (b.src, b.dst, b.prob, b.offsets, b.init, b.term))))


@given(hst.integers(0, 2**32 - 1), hst.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_sfssm_files_parse_alike_in_any_line_order(seed, rnd):
    # shuffled lines and sections, comments, blank lines and explicit zeros
    # parse to the canonical file's arrays
    model = random_sfssm(np.random.default_rng(seed))
    head, *blocks = write_model(model).split("\n\n")
    transitions = [block for block in blocks if block.startswith("[transitions ")]
    rnd.shuffle(transitions)
    for k, block in enumerate(transitions):
        title, *lines = block.split("\n")
        taken = {tuple(line.split()[:2]) for line in lines}
        pairs = [(a, b) for a in model.names for b in model.names]
        for src, dst in rnd.sample(pairs, min(2, len(pairs))):
            if (src, dst) not in taken:
                lines.append(f"{src} {dst} {rnd.choice(['0', '0.0', '-0.0', '0e5'])}")
        rnd.shuffle(lines)
        lines = [line + rnd.choice(["", "  # note", "\t#"]) for line in lines]
        for _ in range(rnd.randrange(3)):
            lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(["", "# comment", "   "]))
        transitions[k] = "\n".join([title, *lines])
    others = [block for block in blocks if not block.startswith("[transitions ")]
    text = "\n\n".join([head, *others[:2], *transitions, *others[2:]]) + "\n"
    assert same_arrays(parse_model(text), parse_model(write_model(model)))


def test_sfssm_copies_the_arrays_its_caller_can_write():
    model = mle_ngram([("a", "b"), ("b",)], 2)
    arrays = {name: getattr(model, name).copy() for name in
              ("src", "dst", "prob", "offsets", "init", "term")}
    built = Sfssm(alphabet=model.alphabet, names=model.names, **arrays)
    for array in arrays.values():
        array[...] = 0
    assert same_arrays(built, model)
    # a read-only array is copied too, since its owner can make it writable again
    frozen = {name: getattr(model, name).copy() for name in arrays}
    for array in frozen.values():
        array.setflags(write=False)
    built = Sfssm(alphabet=model.alphabet, names=model.names, **frozen)
    for array in frozen.values():
        array.setflags(write=True)
        array[...] = 0
    assert same_arrays(built, model)


@given(sfssm_texts())
@settings(max_examples=100, deadline=None)
def test_fuzzed_sfssm_files_are_rejected_or_valid_and_round_trip(text):
    try:
        model = parse_model(text)
    except ParseError:
        return
    for values in (model.prob, model.init, model.term):
        assert np.isfinite(values).all() and (values >= 0).all()
    assert (model.prob != 0).all()
    assert abs(model.init.sum() - 1.0) <= ROW_TOL
    assert (np.abs(model.row_mass.sum(axis=1) - 1.0) <= ROW_TOL).all()
    canonical = write_model(model)
    again = parse_model(canonical)
    assert models_equal(model, again)
    assert write_model(again) == canonical
