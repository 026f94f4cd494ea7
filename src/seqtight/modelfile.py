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

import hashlib
from itertools import count
from typing import Callable, Union

import numpy as np

from .asm_zoo import (ParityAsm, RnnAsm, SfssmAsm, make_nontight_relu_rnn,
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


# -- builtins --------------------------------------------------------------

def _fig1(stay: float, stop: float) -> Sfssm:
    """Two-symbol bigram table; state b loops with ``stay`` and stops with
    ``stop``.  fig1a (``stop = 0``) leaks mass, since b can never stop;
    fig1b gives b an escape hatch and terminates surely."""
    alphabet = Alphabet(("a", "b"))
    trans = {
        "a": np.array([[0, 1, 0], [0, 0.7, 0], [0, 0, 0]], dtype=float),
        "b": np.array([[0, 0, 0], [0, 0, 0.2], [0, 0, stay]], dtype=float),
    }
    return build_sfssm(alphabet, trans, init=[1, 0, 0], term=[0, 0.1, stop],
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

def _where(line: tuple[int, str, list[str]], k: int = 0) -> tuple[int, int]:
    """The line number and 1-based column of the ``k``-th word of ``line``."""
    number, raw, words = line
    text = raw.split("#", 1)[0]
    col = 0
    for word in words[:k]:
        col = text.index(word, col) + len(word)
    return number, text.index(words[k], col) + 1


def _lines(first: int, raws: list[str]) -> list[tuple[int, str, list[str]]]:
    """The non-blank lines of ``raws``, whose first is line number ``first``."""
    return [line for line in zip(count(first), raws, [raw.split("#", 1)[0].split() for raw in raws])
            if line[2]]


class _Section:
    """A section's name, header line number and raw lines up to the next header;
    each reader splits the lines it reads, so a section's words are not kept."""

    def __init__(self, name_parts: list[str], line: int, raws: list[str]):
        self.name_parts = name_parts
        self.name = " ".join(name_parts)
        self.line = line
        self.raws = raws

    @property
    def lines(self) -> list[tuple[int, str, list[str]]]:
        return _lines(self.line + 1, self.raws)


def _split_sections(text: str) -> tuple[dict[str, str], dict[str, int], list[_Section]]:
    """Return (header key/values, header key/line numbers, sections)."""
    raws = text.splitlines()
    starts = [n for n, raw in enumerate(raws) if raw.lstrip().startswith("[")]
    headers: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    for line in _lines(1, raws[:starts[0] if starts else len(raws)]):
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
        headers[key] = values[0]
        header_lines[key] = number
    sections: list[_Section] = []
    for lo, hi in zip(starts, starts[1:] + [len(raws)]):
        head = _lines(lo + 1, raws[lo:lo + 1])[0]
        if not head[2][-1].endswith("]"):
            raise ParseError("section header does not end with ']'", *_where(head))
        name_parts = raws[lo].split("#", 1)[0].strip()[1:-1].split()
        if not name_parts:
            raise ParseError("empty section header", *_where(head))
        sections.append(_Section(name_parts, lo + 1, raws[lo + 1:hi]))
    if "model" not in headers:
        raise ParseError("missing 'model: <kind>' header", 1)
    return headers, header_lines, sections


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
                   duplicate: str) -> list[list]:
    """The columns of a section whose lines are ``width - 1`` state names and
    a number: each name column as state indices, then the numbers.

    Whole columns go through the state dict and ``float``; if a check fails,
    the lines are checked one by one, so the error names the first failing
    line at the column of its first failing word."""
    rows = list(filter(None, [raw.split("#", 1)[0].split() for raw in section.raws]))
    if set(map(len, rows)) <= {width}:
        *names, values = zip(*rows) if rows else [()] * width
        try:
            columns = [list(map(index.__getitem__, column)) for column in names]
            columns.append(list(map(float, values)))
        except (KeyError, ValueError):
            pass
        else:
            if len(set(zip(*names))) == len(rows):
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
    edges: tuple[list, list, list, list] = ([], [], [], [])   # symbol index, src, dst, prob
    for section in by_name.values():
        if section.name_parts[0] != "transitions":
            continue
        if len(section.name_parts) != 2:
            raise ParseError("transition sections are named [transitions <symbol>]",
                             section.line)
        a = section.name_parts[1]
        if a not in symbol_index:
            raise ParseError(f"transition section for unknown symbol {a!r}", section.line)
        columns = _state_columns(section, index, 3, "transition lines are 'from to probability'",
                                 "duplicate transition {!r} -> {!r}")
        for edge_column, column in zip(edges, ([symbol_index[a]] * len(columns[0]), *columns)):
            edge_column += column
    return _from_edges(Alphabet(symbols, eos=eos), edges, init, term, names)


def _parse_rnn(eos: str, by_name: dict[str, _Section], model_line: int) -> RnnAsm:
    symbols = _unique_tokens(_required(by_name, "alphabet", model_line), "alphabet symbol")
    rnn_section = _required(by_name, "rnn", model_line)
    hidden: int | None = None
    activation: str | None = None
    rows: dict[str, list[float]] = {}
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
            rows[key] = [_parse_float(line, k) for k in range(1, len(line[2]))]
        else:
            raise ParseError(f"unknown [rnn] entry {key!r}", *_where(line))
    if hidden is None or hidden < 1:
        raise ParseError("[rnn] must declare 'hidden <d>' with d >= 1", rnn_section.line)
    if activation is None:
        raise ParseError("[rnn] must declare 'activation <name>'", rnn_section.line)

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
        emb = np.zeros((len(symbols) + 1, hidden))
        order = {s: i for i, s in enumerate(symbols)}
        order[eos] = len(symbols)
        filled = set()
        for line in section.lines:
            token = line[2][0]
            if token not in order:
                raise ParseError(f"embedding for unknown symbol {token!r}", *_where(line))
            if token in filled:
                raise ParseError(f"duplicate embedding for {token!r}", *_where(line))
            filled.add(token)
            if len(line[2]) != hidden + 1:
                raise ParseError(f"embeddings need exactly {hidden} numbers", *_where(line))
            emb[order[token]] = [_parse_float(line, k) for k in range(1, hidden + 1)]
        missing = set(order) - filled
        if missing:
            raise ParseError(f"missing embeddings for {sorted(missing)!r}", section.line)
        return emb

    return RnnAsm(
        alphabet=Alphabet(symbols, eos=eos),
        input_embedding=read_embedding("input-embedding"),
        output_embedding=read_embedding("output-embedding"),
        input_weights=read_matrix("input-weights"),
        recurrent_weights=read_matrix("recurrent-weights"),
        bias=np.asarray(rows.get("bias", [0.0] * hidden)),
        activation=activation,
        initial_hidden=np.asarray(rows.get("h0", [0.0] * hidden)),
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
    headers, header_lines, sections = _split_sections(text)
    kind, model_line = headers["model"], header_lines["model"]
    eos = headers.get("eos", "EOS")
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
            where = sections[0].line if sections else header_lines["eos"]
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
    with open(spec, encoding="utf-8-sig") as handle:   # a leading byte-order mark is skipped
        return parse_model(handle.read())


# -- serialization -----------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _check_writable_names(names) -> None:
    for name in names:
        if not name or name.split() != [name] or "#" in name or name.startswith("["):
            raise ValueError(f"{name!r} cannot be written to a model file "
                             f"(needs to be a non-empty token without whitespace, '#' or '[')")


def write_model(model: Model) -> str:
    """Canonical text form; parsing it back reproduces the model exactly."""
    _check_writable_names(model.alphabet.symbols)
    _check_writable_names((model.alphabet.eos,))
    if isinstance(model, Sfssm):
        if model.state_map is not None:
            raise ValueError("a trimmed model need not be stochastic and has no model file")
        _check_writable_names(model.names)
    out = [f"model: {model_kind(model)}", f"eos: {model.alphabet.eos}", ""]
    if isinstance(model, Sfssm):
        out += ["[alphabet]", " ".join(model.alphabet.symbols) or "# (empty)", ""]
        out += ["[states]", " ".join(model.names), ""]
        out.append("[init]")
        out += [f"{model.names[i]} {v!r}" for i, v in enumerate(model.init.tolist()) if v != 0]
        out.append("")
        name = model.names.__getitem__
        edges = list(map(" ".join, zip(map(name, model.src.tolist()), map(name, model.dst.tolist()),
                                       map(repr, model.prob.tolist()))))
        bounds = model.offsets.tolist()
        for a, lo, hi in zip(model.alphabet.symbols, bounds, bounds[1:]):
            out.append(f"[transitions {a}]")
            out += edges[lo:hi]
            out.append("")
        out.append("[term]")
        out += [f"{model.names[i]} {v!r}" for i, v in enumerate(model.term.tolist()) if v != 0]
    elif isinstance(model, RnnAsm):
        d = model.hidden_dim
        out += ["[alphabet]", " ".join(model.alphabet.symbols), ""]
        out += ["[rnn]",
                f"hidden {d}",
                f"activation {model.activation}",
                "h0 " + " ".join(_fmt(v) for v in model.initial_hidden),
                "bias " + " ".join(_fmt(v) for v in model.bias),
                ""]
        for name, mat in (("input-weights", model.input_weights),
                          ("recurrent-weights", model.recurrent_weights)):
            out.append(f"[{name}]")
            out += [" ".join(_fmt(v) for v in row) for row in mat]
            out.append("")
        tokens = list(model.alphabet.symbols) + [model.alphabet.eos]
        for name, emb in (("input-embedding", model.input_embedding),
                          ("output-embedding", model.output_embedding)):
            out.append(f"[{name}]")
            out += [f"{tok} " + " ".join(_fmt(v) for v in emb[i])
                    for i, tok in enumerate(tokens)]
            out.append("")
    elif isinstance(model, ParityAsm):
        out += ["[alphabet]", " ".join(model.alphabet.symbols), ""]
        out += ["[parity]", f"eos-prob-even {_fmt(model.eos_prob_even)}"]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return "\n".join(out).rstrip() + "\n"


def model_digest(model: Model) -> str:
    """SHA-256 of the canonical serialization; stable across reformatting."""
    return hashlib.sha256(write_model(model).encode("utf-8")).hexdigest()


def as_asm(model: Model) -> Asm:
    """View any parsed model through the generic ASM interface."""
    if isinstance(model, Sfssm):
        return SfssmAsm(model)
    return model


def parse_corpus(text: str) -> list[tuple[str, ...]]:
    """One whitespace-tokenized string per line; blank lines are empty strings."""
    return [tuple(line.split()) for line in text.splitlines()]
