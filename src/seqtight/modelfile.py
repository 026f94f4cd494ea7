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

``model:`` names the kind — ``sfssm``, ``rnn``, ``parity``, or one of the
builtin example names (``fig1a``, ``fig1b``, ``relu-rnn``,
``softplus-rnn``, ``parity``), which need no sections.  ``#`` starts a
comment anywhere on a line.  RNN files carry the weight matrices row by
row plus per-symbol embedding lines; see :func:`write_model` output for
the canonical shape of each kind.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Union

import numpy as np

from .asm_zoo import (ParityAsm, RnnAsm, make_nontight_relu_rnn, make_tight_softplus_rnn,
                      sfssm_as_asm)
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

class _Line:
    def __init__(self, number: int, raw: str):
        self.number = number
        text = raw.split("#", 1)[0]
        self.text = text.rstrip()
        self.tokens: list[tuple[str, int]] = []
        col = 0
        for piece in text.split():
            col = text.index(piece, col)
            self.tokens.append((piece, col + 1))
            col += len(piece)

    @property
    def is_blank(self) -> bool:
        return not self.tokens

    @property
    def is_header(self) -> bool:
        return bool(self.tokens) and self.text.lstrip().startswith("[")


class _Section:
    def __init__(self, name_parts: list[str], line: int):
        self.name_parts = name_parts
        self.line = line
        self.lines: list[_Line] = []

    @property
    def name(self) -> str:
        return " ".join(self.name_parts)


def _split_sections(text: str) -> tuple[dict[str, str], int, list[_Section]]:
    """Return (header key/values, line of ``model:``, sections)."""
    headers: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    sections: list[_Section] = []
    current: _Section | None = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = _Line(number, raw)
        if line.is_blank:
            continue
        if line.is_header:
            body = line.text.strip()
            if not body.endswith("]"):
                raise ParseError("section header does not end with ']'", number,
                                 line.tokens[0][1])
            name_parts = body[1:-1].split()
            if not name_parts:
                raise ParseError("empty section header", number, line.tokens[0][1])
            current = _Section(name_parts, number)
            sections.append(current)
            continue
        if current is not None:
            current.lines.append(line)
            continue
        first, col = line.tokens[0]
        if not first.endswith(":"):
            raise ParseError(f"expected 'key: value' before the first section, got {first!r}",
                             number, col)
        key = first[:-1]
        if key in headers:
            raise ParseError(f"duplicate header {key!r}", number, col)
        if len(line.tokens) != 2:
            raise ParseError(f"header {key!r} takes exactly one value", number, col)
        headers[key] = line.tokens[1][0]
        header_lines[key] = number
    if "model" not in headers:
        raise ParseError("missing 'model: <kind>' header", 1)
    return headers, header_lines["model"], sections


def _parse_float(token: str, line: int, col: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", line, col) from None


def _sections_by_name(sections: list[_Section]) -> dict[str, _Section]:
    seen: dict[str, _Section] = {}
    for section in sections:
        if section.name in seen:
            raise ParseError(f"duplicate section [{section.name}]", section.line)
        seen[section.name] = section
    return seen


def _required(by_name: dict[str, _Section], name: str, where: int) -> _Section:
    if name not in by_name:
        raise ParseError(f"missing [{name}] section", where)
    return by_name[name]


def _unique_tokens(section: _Section, what: str) -> tuple[str, ...]:
    """Every token of ``section``, each at most once."""
    tokens: dict[str, None] = {}   # insertion-ordered, with O(1) membership
    for line in section.lines:
        for token, col in line.tokens:
            if token in tokens:
                raise ParseError(f"duplicate {what} {token!r}", line.number, col)
            tokens[token] = None
    return tuple(tokens)


def _parse_sfssm(eos: str, by_name: dict[str, _Section], model_line: int) -> Sfssm:
    symbols = _unique_tokens(_required(by_name, "alphabet", model_line), "alphabet symbol")
    states_section = _required(by_name, "states", model_line)
    names = _unique_tokens(states_section, "state")
    if not names:
        raise ParseError("[states] section is empty", states_section.line)
    index = {name: i for i, name in enumerate(names)}
    q = len(names)

    def state_index(token: str, line: int, col: int) -> int:
        if token not in index:
            raise ParseError(f"unknown state {token!r}", line, col)
        return index[token]

    def read_pairs(section: _Section) -> np.ndarray:
        vec = np.zeros(q)
        filled = set()
        for line in section.lines:
            if len(line.tokens) != 2:
                raise ParseError(f"[{section.name}] lines are 'state probability'",
                                 line.number, line.tokens[0][1])
            (state_tok, scol), (val_tok, vcol) = line.tokens
            i = state_index(state_tok, line.number, scol)
            if i in filled:
                raise ParseError(f"duplicate entry for state {state_tok!r}", line.number, scol)
            filled.add(i)
            vec[i] = _parse_float(val_tok, line.number, vcol)
        return vec

    init = read_pairs(_required(by_name, "init", model_line))
    term = read_pairs(by_name["term"]) if "term" in by_name else np.zeros(q)

    symbol_index = {a: k for k, a in enumerate(symbols)}
    edges: list[tuple[int, int, int, float]] = []
    for section in by_name.values():
        if section.name_parts[0] != "transitions":
            continue
        if len(section.name_parts) != 2:
            raise ParseError("transition sections are named [transitions <symbol>]",
                             section.line)
        symbol = section.name_parts[1]
        if symbol not in symbol_index:
            raise ParseError(f"transition section for unknown symbol {symbol!r}", section.line)
        k = symbol_index[symbol]
        seen_edges = set()
        for line in section.lines:
            if len(line.tokens) != 3:
                raise ParseError("transition lines are 'from to probability'",
                                 line.number, line.tokens[0][1])
            (ftok, fcol), (ttok, tcol), (vtok, vcol) = line.tokens
            i = state_index(ftok, line.number, fcol)
            j = state_index(ttok, line.number, tcol)
            if (i, j) in seen_edges:
                raise ParseError(f"duplicate transition {ftok!r} -> {ttok!r}", line.number, fcol)
            seen_edges.add((i, j))
            edges.append((k, i, j, _parse_float(vtok, line.number, vcol)))
    return _from_edges(Alphabet(symbols, eos=eos), edges, init, term, names)


def _parse_rnn(eos: str, by_name: dict[str, _Section], model_line: int) -> RnnAsm:
    symbols = _unique_tokens(_required(by_name, "alphabet", model_line), "alphabet symbol")
    rnn_section = _required(by_name, "rnn", model_line)
    hidden: int | None = None
    activation: str | None = None
    rows: dict[str, list[float]] = {}
    for line in rnn_section.lines:
        key, col = line.tokens[0]
        values = line.tokens[1:]
        if key == "hidden":
            if len(values) != 1:
                raise ParseError("'hidden' takes one integer", line.number, col)
            try:
                hidden = int(values[0][0])
            except ValueError:
                raise ParseError(f"expected an integer, got {values[0][0]!r}",
                                 line.number, values[0][1]) from None
        elif key == "activation":
            if len(values) != 1:
                raise ParseError("'activation' takes one name", line.number, col)
            activation = values[0][0]
        elif key in ("h0", "bias"):
            rows[key] = [_parse_float(tok, line.number, c) for tok, c in values]
        else:
            raise ParseError(f"unknown [rnn] entry {key!r}", line.number, col)
    if hidden is None or hidden < 1:
        raise ParseError("[rnn] must declare 'hidden <d>' with d >= 1", rnn_section.line)
    if activation is None:
        raise ParseError("[rnn] must declare 'activation <name>'", rnn_section.line)

    def read_matrix(name: str) -> np.ndarray:
        section = _required(by_name, name, model_line)
        if len(section.lines) != hidden:
            raise ParseError(f"[{name}] needs exactly {hidden} rows", section.line)
        mat = np.zeros((hidden, hidden))
        for r, line in enumerate(section.lines):
            if len(line.tokens) != hidden:
                raise ParseError(f"[{name}] rows need exactly {hidden} numbers",
                                 line.number, line.tokens[0][1])
            mat[r] = [_parse_float(tok, line.number, c) for tok, c in line.tokens]
        return mat

    def read_embedding(name: str) -> np.ndarray:
        section = _required(by_name, name, model_line)
        emb = np.zeros((len(symbols) + 1, hidden))
        order = {s: i for i, s in enumerate(symbols)}
        order[eos] = len(symbols)
        filled = set()
        for line in section.lines:
            token, col = line.tokens[0]
            if token not in order:
                raise ParseError(f"embedding for unknown symbol {token!r}", line.number, col)
            if token in filled:
                raise ParseError(f"duplicate embedding for {token!r}", line.number, col)
            filled.add(token)
            values = line.tokens[1:]
            if len(values) != hidden:
                raise ParseError(f"embeddings need exactly {hidden} numbers", line.number, col)
            emb[order[token]] = [_parse_float(tok, line.number, c) for tok, c in values]
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
        for line in parity_section.lines:
            key, col = line.tokens[0]
            if key != "eos-prob-even" or len(line.tokens) != 2:
                raise ParseError("[parity] lines are 'eos-prob-even <p>'", line.number, col)
            p_even = _parse_float(line.tokens[1][0], line.number, line.tokens[1][1])
    return ParityAsm(p_even, alphabet=Alphabet(symbols, eos=eos))


# kind -> (parser, "a(n) <kind>", known sections; "transitions" stands for
# every [transitions <symbol>] section)
_KINDS = {
    "sfssm": (_parse_sfssm, "an sfssm", {"alphabet", "states", "init", "term", "transitions"}),
    "rnn": (_parse_rnn, "an rnn", {"alphabet", "rnn", "input-weights", "recurrent-weights",
                                    "input-embedding", "output-embedding"}),
    "parity": (_parse_parity, "a parity", {"alphabet", "parity"}),
}


def parse_model(text: str) -> Model:
    """Parse model-file text into exactly one validated model."""
    headers, model_line, sections = _split_sections(text)
    kind = headers["model"]
    eos = headers.get("eos", "EOS")
    if kind in _KINDS and (sections or kind not in BUILTINS):
        parse, a_kind, known = _KINDS[kind]
        by_name = _sections_by_name(sections)
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
        if sections:
            raise ParseError(f"builtin model {kind!r} takes no sections", sections[0].line)
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
    with open(spec, encoding="utf-8") as handle:
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
    out: list[str] = []
    if isinstance(model, Sfssm):
        out += ["model: sfssm", f"eos: {model.alphabet.eos}", ""]
        out += ["[alphabet]", " ".join(model.alphabet.symbols) or "# (empty)", ""]
        out += ["[states]", " ".join(model.names), ""]
        out.append("[init]")
        out += [f"{model.names[i]} {_fmt(v)}" for i, v in enumerate(model.init) if v != 0]
        out.append("")
        bounds = model.offsets.tolist()
        for a, lo, hi in zip(model.alphabet.symbols, bounds, bounds[1:]):
            out.append(f"[transitions {a}]")
            out += [f"{model.names[i]} {model.names[j]} {_fmt(p)}" for i, j, p in
                    zip(*(v[lo:hi].tolist() for v in (model.src, model.dst, model.prob)))]
            out.append("")
        out.append("[term]")
        out += [f"{model.names[i]} {_fmt(v)}" for i, v in enumerate(model.term) if v != 0]
    elif isinstance(model, RnnAsm):
        d = model.hidden_dim
        out += ["model: rnn", f"eos: {model.alphabet.eos}", ""]
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
        out += ["model: parity", f"eos: {model.alphabet.eos}", ""]
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
        return sfssm_as_asm(model)
    return model


def parse_corpus(text: str) -> list[tuple[str, ...]]:
    """One whitespace-tokenized string per line; blank lines are empty strings."""
    return [tuple(line.split()) for line in text.splitlines()]
