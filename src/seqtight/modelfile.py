"""Plain-text model files: parsing, canonical serialization, builtins.

The format is line-oriented with explicit section headers, so fixture
files diff cleanly and round-trip exactly::

    # a two-symbol bigram table
    model: sfssm
    eos: EOS

    [alphabet]
    a b

    [states]
    BOS a b

    [init]
    BOS 1.0

    [transitions a]     # lines are "from to probability"
    BOS a 1.0
    a a 0.7

    [transitions b]
    a b 0.2
    b b 1.0

    [term]              # lines are "state probability"
    a 0.1

``model:`` names the kind — ``sfssm``, ``rnn``, ``parity`` (sections
optional), or a builtin example name (``fig1a``, ``fig1b``, ``relu-rnn``,
``softplus-rnn``), which takes no sections and no ``eos:``.  ``#`` starts
a comment anywhere on a line.  RNN files carry the weight matrices row by
row plus per-symbol embedding lines; see :func:`write_model` output for
the canonical shape of each kind.
"""

from __future__ import annotations

from itertools import chain, count, starmap
from typing import Callable, Iterable, Iterator, Union

import numpy as np

# CPython's built-in SHA-256 module, which random.py also tries first: the
# bytes of hashlib.sha256 without importing hashlib, which maps OpenSSL's
# libcrypto (3.5 MB of RSS) in any process that has not blocked _hashlib as
# seqtight.cli's main does
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .asm_zoo import (ParityAsm, RnnAsm, SfssmAsm, _StateIndexAsm, make_nontight_relu_rnn,
                      make_tight_softplus_rnn)
from .core import Alphabet, Asm
from .sfssm import Sfssm, _from_edges, build_sfssm

Model = Union[Sfssm, RnnAsm, ParityAsm]


class ParseError(ValueError):
    """Model or corpus text is malformed; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")


class NotUtf8(ValueError):
    """A model or corpus file holds bytes that are not UTF-8."""


# -- builtins --------------------------------------------------------------

def _fig1(stay: float, stop: float) -> Sfssm:
    """Two-symbol bigram table; state b loops with ``stay`` and stops with
    ``stop``.  fig1a (``stop = 0``) leaks mass, since b can never stop;
    fig1b gives b an escape hatch and terminates surely."""
    trans = {
        "a": np.array([[0, 1, 0], [0, 0.7, 0], [0, 0, 0]], dtype=float),
        "b": np.array([[0, 0, 0], [0, 0, 0.2], [0, 0, stay]], dtype=float),
    }
    return build_sfssm(Alphabet(("a", "b")), trans, init=[1, 0, 0], term=[0, 0.1, stop],
                       names=("BOS", "a", "b"))


BUILTINS: dict[str, Callable[[], Model]] = {
    "fig1a": lambda: _fig1(1.0, 0.0),
    "fig1b": lambda: _fig1(0.9, 0.1),
    "relu-rnn": make_nontight_relu_rnn,
    "softplus-rnn": make_tight_softplus_rnn,
    "parity": ParityAsm,
}


# -- parsing ----------------------------------------------------------------

# A non-blank line is the tuple (1-based number, raw text, words): the words
# of the text before any '#'.  Columns are worked out only for an error.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"   # where str.splitlines ends a line


def _where(line: tuple[int, str, list[str]], k: int = 0) -> tuple[int, int]:
    """The line number and 1-based column of the ``k``-th word of ``line``."""
    number, raw, words = line
    text, col = raw.split("#", 1)[0], 0
    for word in words[:k]:
        col = text.index(word, col) + len(word)
    return number, text.index(words[k], col) + 1


def _lines(first: int, raws: list[str]) -> list[tuple[int, str, list[str]]]:
    """The non-blank lines of ``raws``, whose first is line number ``first``."""
    return [line for line in zip(count(first), raws, [raw.split("#", 1)[0].split() for raw in raws])
            if line[2]]


class _Section:
    """A section's name, header line number and span of the text, up to the next header;
    its lines are split only when read, so a parse holds one section's lines at a time."""

    def __init__(self, name_parts: list[str], line: int, text: str, lo: int, hi: int):
        self.name_parts, self.name, self.line = name_parts, " ".join(name_parts), line
        self.text, self.lo, self.hi = text, lo, hi

    def raws(self) -> list[str]:
        return self.text[self.lo:self.hi].splitlines()[1:]

    @property
    def lines(self) -> list[tuple[int, str, list[str]]]:
        return _lines(self.line + 1, self.raws())


def _split_sections(text: str) -> tuple[dict[str, tuple[str, int]], list[_Section]]:
    """Return ({header key: (value, line number)}, sections)."""
    starts, at = [], text.find("[")
    while at >= 0:   # a section starts at a line whose first non-blank is '['
        lo = at
        while lo and text[lo - 1] not in _BREAKS and text[lo - 1].isspace():
            lo -= 1
        if not lo or text[lo - 1] in _BREAKS:
            starts.append(lo)
        at = text.find("[", at + 1)
    headers: dict[str, tuple[str, int]] = {}
    for line in _lines(1, text[:starts[0] if starts else len(text)].splitlines()):
        number, _, (first, *values) = line
        key = first[:-1]
        if not first.endswith(":"):
            raise ParseError(f"expected 'key: value' before the first section, got {first!r}",
                             *_where(line))
        if key not in ("model", "eos"):
            raise ParseError(f"unknown header {key!r}", *_where(line))
        if key in headers:
            raise ParseError(f"duplicate header {key!r}", *_where(line))
        if len(values) != 1:
            raise ParseError(f"header {key!r} takes exactly one value", *_where(line))
        headers[key] = values[0], number
    sections: list[_Section] = []
    breaks, number = [c for c in _BREAKS if c in text], 1
    for before, lo, hi in zip([0, *starts], starts, starts[1:] + [len(text)]):
        number += sum(text.count(c, before, lo) for c in breaks) - text.count("\r\n", before, lo)
        head = _lines(number, text[lo:text.find("\n", lo, hi) + 1 or hi].splitlines()[:1])[0]
        if not head[2][-1].endswith("]"):
            raise ParseError("section header does not end with ']'", *_where(head))
        name_parts = head[1].split("#", 1)[0].strip()[1:-1].split()
        if not name_parts:
            raise ParseError("empty section header", *_where(head))
        sections.append(_Section(name_parts, number, text, lo, hi))
    if "model" not in headers:
        raise ParseError("missing 'model: <kind>' header", 1)
    return headers, sections


def _parse_float(line: tuple[int, str, list[str]], k: int) -> float:
    """The ``k``-th word of ``line`` as a float."""
    try:
        return float(line[2][k])
    except ValueError:
        raise ParseError(f"expected a number, got {line[2][k]!r}", *_where(line, k)) from None


def _entries(section: _Section) -> list[tuple[int, str, list[str]]]:
    """The lines of ``section``, whose first words (entry names) must differ."""
    seen = set()
    lines = section.lines
    for line in lines:
        key = line[2][0]
        if key in seen:
            raise ParseError(f"duplicate [{section.name}] entry {key!r}", *_where(line))
        seen.add(key)
    return lines


def _required(by_name: dict[str, _Section], name: str, where: int) -> _Section:
    if name not in by_name:
        raise ParseError(f"missing [{name}] section", where)
    return by_name[name]


def _unique_tokens(section: _Section, what: str) -> tuple[str, ...]:
    """Every word of ``section``, each at most once."""
    tokens: dict[str, None] = {}   # insertion-ordered, with O(1) membership
    for line in section.lines:
        for k, token in enumerate(line[2]):
            if token in tokens:
                raise ParseError(f"duplicate {what} {token!r}", *_where(line, k))
            tokens[token] = None
    return tuple(tokens)


def _state_columns(section: _Section, index: dict[str, int], width: int, usage: str,
                   duplicate: str) -> list[np.ndarray]:
    """The columns of a section whose lines are ``width - 1`` state names and a
    number: intp state indices, then float64 numbers, checked whole (duplicates
    by code, ``src * Q + dst``).  If a check fails, the lines are checked one by
    one, so the error names the first failing line at its first failing word."""
    rows = list(filter(None, [raw.split("#", 1)[0].split() for raw in section.raws()]))
    if set(map(len, rows)) <= {width}:
        *names, values = zip(*rows) if rows else [()] * width
        try:
            columns = [np.fromiter(map(index.__getitem__, c), np.intp, len(rows)) for c in names]
            columns.append(np.fromiter(map(float, values), float, len(rows)))
        except (KeyError, ValueError):
            pass
        else:
            if len(set(np.ravel_multi_index(columns[:-1], (len(index),) * len(names)).tolist())) == len(rows):
                return columns
    seen = set()
    for line in section.lines:
        key = tuple(line[2][:-1])
        if len(line[2]) != width:
            raise ParseError(usage, *_where(line))
        for k, name in enumerate(key):
            if name not in index:
                raise ParseError(f"unknown state {name!r}", *_where(line, k))
        if key in seen:
            raise ParseError(duplicate.format(*key), *_where(line))
        seen.add(key)
        _parse_float(line, width - 1)
    raise AssertionError("a failed section has no failing line")


def _parse_sfssm(eos: str, by_name: dict[str, _Section], model_line: int) -> Sfssm:
    symbols = _unique_tokens(_required(by_name, "alphabet", model_line), "alphabet symbol")
    states_section = _required(by_name, "states", model_line)
    names = _unique_tokens(states_section, "state")
    if not names:
        raise ParseError("[states] section is empty", states_section.line)
    index = {name: i for i, name in enumerate(names)}

    def read_pairs(section: _Section) -> np.ndarray:
        vec = np.zeros(len(names))
        states, values = _state_columns(section, index, 2,
                                        f"[{section.name}] lines are 'state probability'",
                                        "duplicate entry for state {!r}")
        vec[states] = values
        return vec

    init = read_pairs(_required(by_name, "init", model_line))
    term = read_pairs(by_name["term"]) if "term" in by_name else np.zeros(len(names))

    symbol_index = {a: k for k, a in enumerate(symbols)}
    edges = [(np.zeros(0, np.intp),) * 3 + (np.zeros(0),)]   # symbol index, src, dst, prob
    for section in (s for s in by_name.values() if s.name_parts[0] == "transitions"):
        if len(section.name_parts) != 2:
            raise ParseError("transition sections are named [transitions <symbol>]", section.line)
        a = section.name_parts[1]
        if a not in symbol_index:
            raise ParseError(f"transition section for unknown symbol {a!r}", section.line)
        columns = _state_columns(section, index, 3, "transition lines are 'from to probability'",
                                 "duplicate transition {!r} -> {!r}")
        edges.append((np.full(len(columns[0]), symbol_index[a], np.intp), *columns))
    edges = [np.concatenate(column) for column in zip(*edges)]   # frees the sections' arrays
    return _from_edges(Alphabet(symbols, eos=eos), edges, init, term, names)


def _parse_rnn(eos: str, by_name: dict[str, _Section], model_line: int) -> RnnAsm:
    symbols = _unique_tokens(_required(by_name, "alphabet", model_line), "alphabet symbol")
    rnn_section = _required(by_name, "rnn", model_line)
    hidden: int | None = None
    activation: str | None = None
    rows: dict[str, tuple] = {}   # "h0" or "bias" -> (its line, its numbers)
    for line in _entries(rnn_section):
        key, values = line[2][0], line[2][1:]
        if key == "hidden":
            if len(values) != 1:
                raise ParseError("'hidden' takes one integer", *_where(line))
            try:
                hidden = int(values[0])
            except ValueError:
                raise ParseError(f"expected an integer, got {values[0]!r}",
                                 *_where(line, 1)) from None
        elif key == "activation":
            if len(values) != 1:
                raise ParseError("'activation' takes one name", *_where(line))
            activation = values[0]
        elif key in ("h0", "bias"):
            rows[key] = line, [_parse_float(line, k) for k in range(1, len(line[2]))]
        else:
            raise ParseError(f"unknown [rnn] entry {key!r}", *_where(line))
    if hidden is None or hidden < 1:
        raise ParseError("[rnn] must declare 'hidden <d>' with d >= 1", rnn_section.line)
    if activation is None:
        raise ParseError("[rnn] must declare 'activation <name>'", rnn_section.line)
    for key, (line, values) in rows.items():
        if len(values) != hidden:
            raise ParseError(f"'{key}' needs exactly {hidden} numbers", *_where(line))

    def read_matrix(name: str) -> np.ndarray:
        section = _required(by_name, name, model_line)
        lines = section.lines
        if len(lines) != hidden:
            raise ParseError(f"[{name}] needs exactly {hidden} rows", section.line)
        mat = np.zeros((hidden, hidden))
        for r, line in enumerate(lines):
            if len(line[2]) != hidden:
                raise ParseError(f"[{name}] rows need exactly {hidden} numbers", *_where(line))
            mat[r] = [_parse_float(line, k) for k in range(hidden)]
        return mat

    def read_embedding(name: str) -> np.ndarray:
        section = _required(by_name, name, model_line)
        tokens = dict.fromkeys((*symbols, eos))   # ordered, with O(1) membership
        emb: dict[str, list[float]] = {}
        for line in section.lines:
            token = line[2][0]
            if token not in tokens:
                raise ParseError(f"embedding for unknown symbol {token!r}", *_where(line))
            if token in emb:
                raise ParseError(f"duplicate embedding for {token!r}", *_where(line))
            if len(line[2]) != hidden + 1:
                raise ParseError(f"embeddings need exactly {hidden} numbers", *_where(line))
            emb[token] = [_parse_float(line, k) for k in range(1, hidden + 1)]
        missing = tokens.keys() - emb.keys()
        if missing:
            raise ParseError(f"missing embeddings for {sorted(missing)!r}", section.line)
        return np.array([emb[token] for token in tokens])

    return RnnAsm(
        alphabet=Alphabet(symbols, eos=eos),
        input_embedding=read_embedding("input-embedding"),
        output_embedding=read_embedding("output-embedding"),
        input_weights=read_matrix("input-weights"),
        recurrent_weights=read_matrix("recurrent-weights"),
        bias=np.asarray(rows["bias"][1]) if "bias" in rows else np.zeros(hidden),
        activation=activation,
        initial_hidden=np.asarray(rows["h0"][1]) if "h0" in rows else np.zeros(hidden),
    )


def _parse_parity(eos: str, by_name: dict[str, _Section], model_line: int) -> ParityAsm:
    symbols = (_unique_tokens(by_name["alphabet"], "alphabet symbol")
               if "alphabet" in by_name else ("a", "b"))
    p_even = 0.1
    parity_section = by_name.get("parity")
    if parity_section is not None:
        for line in _entries(parity_section):
            if line[2][0] != "eos-prob-even" or len(line[2]) != 2:
                raise ParseError("[parity] lines are 'eos-prob-even <p>'", *_where(line))
            p_even = _parse_float(line, 1)
    return ParityAsm(p_even, alphabet=Alphabet(symbols, eos=eos))


# kind -> (model class, parser, "a(n) <kind>", known sections; "transitions"
# stands for every [transitions <symbol>] section)
_KINDS = {
    "sfssm": (Sfssm, _parse_sfssm, "an sfssm", {"alphabet", "states", "init", "term", "transitions"}),
    "rnn": (RnnAsm, _parse_rnn, "an rnn", {"alphabet", "rnn", "input-weights", "recurrent-weights",
                                            "input-embedding", "output-embedding"}),
    "parity": (ParityAsm, _parse_parity, "a parity", {"alphabet", "parity"}),
}


def model_kind(model) -> str:
    """The ``model:`` kind whose file holds ``model``, else its class name."""
    return next((kind for kind, (cls, *_) in _KINDS.items() if isinstance(model, cls)),
                type(model).__name__)


def parse_model(text: str) -> Model:
    """Parse model-file text into exactly one validated model."""
    headers, sections = _split_sections(text)
    (kind, model_line), (eos, _) = headers["model"], headers.get("eos", ("EOS", 1))
    if kind in _KINDS:
        _, parse, a_kind, known = _KINDS[kind]
        by_name: dict[str, _Section] = {}
        for section in sections:
            if by_name.setdefault(section.name, section) is not section:
                raise ParseError(f"duplicate section [{section.name}]", section.line)
        for section in sections:
            name = "transitions" if section.name_parts[0] == "transitions" else section.name
            if name not in known:
                raise ParseError(f"unexpected section [{section.name}] in {a_kind} file",
                                 section.line)
        try:
            return parse(eos, by_name, model_line)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), model_line) from exc
    if kind in BUILTINS:
        if sections or "eos" in headers:
            where = sections[0].line if sections else headers["eos"][1]
            raise ParseError(f"builtin model {kind!r} takes no sections and no 'eos:'", where)
        return BUILTINS[kind]()
    raise ParseError(f"unknown model kind {kind!r}", model_line)


def load_model(spec: str) -> Model:
    """Load a model from ``builtin:<name>`` or from a file path."""
    if spec.startswith("builtin:"):
        name = spec[len("builtin:"):]
        if name not in BUILTINS:
            raise ParseError(f"unknown builtin model {name!r} "
                             f"(available: {', '.join(sorted(BUILTINS))})", 1)
        return BUILTINS[name]()
    return parse_model("".join(read_lines(spec)))


def read_lines(path: str) -> Iterator[str]:
    """The text of the UTF-8 file ``path``, lazily, in blocks of whole lines of
    about 64 KiB, a leading byte-order mark skipped; a byte that is not UTF-8
    raises :class:`NotUtf8` naming its offset."""
    offset = 0
    with open(path, "rb") as handle:
        # no UTF-8 sequence holds the byte b"\n", so blocks of whole lines decode alone
        while block := b"".join(handle.readlines(1 << 16)):
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as bad:
                raise NotUtf8(f"{path}: byte {offset + bad.start} is not UTF-8 ({bad.reason})") from None
            yield text if offset else text.removeprefix("\ufeff")
            offset += len(block)


# -- serialization -----------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _check_writable_names(names) -> None:
    for name in names:
        if not name or name.split() != [name] or "#" in name or name.startswith("["):
            raise ValueError(f"{name!r} cannot be written to a model file "
                             f"(needs to be a non-empty token without whitespace, '#' or '[')")


def _section(head: str, lines: Iterable[str]) -> str:
    """One section's text, after the blank line that separates it from the last."""
    return "\n".join((f"\n[{head}]", *lines, ""))


def _sections(model: Model) -> Iterator[tuple[str, Iterable[str]]]:
    """The name and the lines of each section of ``model``'s file, in order."""
    if isinstance(model, Sfssm):
        name = model.names.__getitem__
        yield "alphabet", [" ".join(model.alphabet.symbols) or "# (empty)"]
        yield "states", [" ".join(model.names)]
        yield "init", [f"{name(i)} {v!r}" for i, v in enumerate(model.init.tolist()) if v != 0]
        bounds = model.offsets.tolist()
        for a, lo, hi in zip(model.alphabet.symbols, bounds, bounds[1:]):
            # one symbol's edges at a time, so no list holds every edge
            yield f"transitions {a}", map(" ".join, zip(map(name, model.src[lo:hi].tolist()),
                                                        map(name, model.dst[lo:hi].tolist()),
                                                        map(repr, model.prob[lo:hi].tolist())))
        yield "term", [f"{name(i)} {v!r}" for i, v in enumerate(model.term.tolist()) if v != 0]
    elif isinstance(model, RnnAsm):
        yield "alphabet", [" ".join(model.alphabet.symbols)]
        yield "rnn", [f"hidden {model.hidden_dim}",
                      f"activation {model.activation}",
                      "h0 " + " ".join(_fmt(v) for v in model.initial_hidden),
                      "bias " + " ".join(_fmt(v) for v in model.bias)]
        for head, mat in (("input-weights", model.input_weights),
                          ("recurrent-weights", model.recurrent_weights)):
            yield head, [" ".join(_fmt(v) for v in row) for row in mat]
        tokens = list(model.alphabet.symbols) + [model.alphabet.eos]
        for head, emb in (("input-embedding", model.input_embedding),
                          ("output-embedding", model.output_embedding)):
            yield head, [f"{tok} " + " ".join(_fmt(v) for v in emb[i])
                         for i, tok in enumerate(tokens)]
    elif isinstance(model, ParityAsm):
        yield "alphabet", [" ".join(model.alphabet.symbols)]
        yield "parity", [f"eos-prob-even {_fmt(model.eos_prob_even)}"]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")


def model_text(model: Model) -> Iterator[str]:
    """The canonical text of :func:`write_model`, a header and then one piece per
    section, so the whole text need never be held at once.  Names that cannot
    be written raise ValueError at the call, before any piece is made."""
    _check_writable_names((*model.alphabet.symbols, model.alphabet.eos))
    if isinstance(model, Sfssm):
        if model.state_map is not None:
            raise ValueError("a trimmed model need not be stochastic and has no model file")
        _check_writable_names(model.names)
    return chain((f"model: {model_kind(model)}\neos: {model.alphabet.eos}\n",),
                 starmap(_section, _sections(model)))


def write_model(model: Model) -> str:
    """Canonical text form; parsing it back reproduces the model exactly."""
    return "".join(model_text(model)).rstrip() + "\n"


def model_digest(model: Model) -> str:
    """SHA-256 of the canonical :func:`write_model` text, stable across reformatting.

    The text is hashed a section at a time (:func:`model_text`), so neither it
    nor its UTF-8 copy is held whole.  CPython's built-in SHA-256 module gives
    ``hashlib.sha256``'s bytes without loading hashlib or OpenSSL."""
    digest = sha256()
    for piece in model_text(model):
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


def as_asm(model: Model) -> Asm:
    """View any parsed model through the generic ASM interface."""
    if isinstance(model, Sfssm):
        return _StateIndexAsm(model) if model.deterministic else SfssmAsm(model)
    return model


def corpus_strings(lines: Iterable[str]) -> Iterator[tuple[str, ...]]:
    """Lazily, a whitespace-tokenized string per ``str.splitlines`` line of each item."""
    return (tuple(line.split()) for chunk in lines for line in chunk.splitlines())


def parse_corpus(text: str) -> list[tuple[str, ...]]:
    """:func:`corpus_strings` of the whole text, as a list."""
    return list(corpus_strings((text,)))
