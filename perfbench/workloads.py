"""Seeded inputs, command lists and correctness oracles for each workload.

Expected values come from the generated inputs or from closed forms, never
from seqtight's analysis code. seqtight is used here only to write model
files through its public constructors and ``write_model``, so the files stay
in the canonical format whatever the in-memory representation becomes.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from seqtight import Alphabet, RnnAsm, build_sfssm, write_model

START = "<s>"            # history placeholder before the first token
LEAK = 0.05              # share of BOS's first-symbol mass routed into the sink
Z_TOLERANCE = 5.0        # Monte Carlo checks allow five standard errors
# A dense n-gram model is held about three times over at peak (parse, trim,
# solve), and only one child runs at a time.
DENSE_RAM_FRACTION = 1 / 16


class TooLarge(RuntimeError):
    """A workload model's dense layout is over the share of RAM it may use."""


@dataclass
class Command:
    """One ``python -m seqtight.cli`` invocation plus its oracle."""

    kind: str                              # the subcommand
    args: list[str]
    check: Callable[[dict], list[str]]     # problems found in the machine payload
    writes: Path | None = None             # file hashed for the determinism check


@dataclass
class Workload:
    commands: list[Command]
    models: list[str]                      # specs that ``setup_s`` loads
    sizes: list[dict] = field(default_factory=list)   # size-guard records


# -- inputs -------------------------------------------------------------------

def zipf_corpus(rng: np.random.Generator, vocab: int, lines: int,
                max_len: int = 20, exponent: float = 1.1) -> list[tuple[str, ...]]:
    """Lines of uniform length 1..max_len over Zipf-distributed tokens.

    Token ``w000`` is the most frequent and sorts first, so it is the first
    alphabet symbol of every model estimated from the corpus.
    """
    weights = 1.0 / np.arange(1, vocab + 1) ** exponent
    weights /= weights.sum()
    lengths = rng.integers(1, max_len + 1, size=lines)
    ids = rng.choice(vocab, size=int(lengths.sum()), p=weights)
    corpus, pos = [], 0
    for n in lengths:
        corpus.append(tuple(f"w{i:03d}" for i in ids[pos:pos + n]))
        pos += n
    return corpus


def write_corpus(corpus, path: Path) -> None:
    path.write_text("".join(" ".join(line) + "\n" for line in corpus), encoding="utf-8")


def ngram_counts(corpus, order: int) -> dict[tuple, Counter]:
    """Event counts per history of an order-``order`` MLE model; ``None`` is the end event."""
    counts: dict[tuple, Counter] = {}
    for line in corpus:
        history = (START,) * (order - 1)
        for token in line + (None,):
            counts.setdefault(history, Counter())[token] += 1
            if token is not None and order > 1:
                history = history[1:] + (token,)
    return counts


def memory_limit_bytes() -> int:
    return int(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") * DENSE_RAM_FRACTION)


def size_record(name: str, vocab: int, states: int) -> dict:
    """Dense transition bytes (V * Q^2 * 8) of a model, and whether it may run here."""
    dense = vocab * states * states * 8
    limit = memory_limit_bytes()
    return {"model": name, "vocab": vocab, "states": states, "dense_bytes": dense,
            "limit_bytes": limit, "status": "run" if dense <= limit else "skipped"}


def guard(record: dict) -> dict:
    if record["status"] != "run":
        raise TooLarge(f"{record['model']} needs {record['dense_bytes']} bytes of dense "
                       f"transitions, above the limit of {record['limit_bytes']} (1/16 of RAM)")
    return record


def bigram_model_text(corpus, counts: dict[tuple, Counter], leak: float = 0.0) -> str:
    """Order-2 MLE model file built from ``counts``.

    With ``leak > 0`` a share ``leak`` of BOS's mass on the first symbol goes
    to an absorbing ``sink`` state, so the model leaks exactly that mass.
    """
    symbols = sorted({t for line in corpus for t in line})
    names = ["BOS", *symbols] + (["sink"] if leak else [])
    index = {name: i for i, name in enumerate(names)}
    q = len(names)
    trans = {a: np.zeros((q, q)) for a in symbols}
    term = np.zeros(q)
    for (history,), events in counts.items():
        i = index["BOS" if history == START else history]
        total = sum(events.values())
        for token, c in events.items():
            if token is None:
                term[i] = c / total
            else:
                trans[token][i, index[token]] = c / total
    if leak:
        first, bos, sink = symbols[0], index["BOS"], index["sink"]
        moved = leak * trans[first][bos, index[first]]
        trans[first][bos, index[first]] -= moved
        trans[first][bos, sink] = moved
        trans[first][sink, sink] = 1.0
    init = np.zeros(q)
    init[index["BOS"]] = 1.0
    return write_model(build_sfssm(Alphabet(tuple(symbols)), trans, init, term,
                                   names=tuple(names)))


def tanh_rnn(rng: np.random.Generator, hidden: int = 4) -> RnnAsm:
    """Two-symbol tanh RNN; continuous hidden states, so no two prefixes pool.

    Output rows are scaled to L1 norm 1, which keeps every logit in [-1, 1]
    and the EOS probability above e^-1 / (e^-1 + 2e) > 0.06 at every step.
    """
    out = rng.normal(0.0, 1.0, (3, hidden))
    out /= np.abs(out).sum(axis=1, keepdims=True)
    return RnnAsm(alphabet=Alphabet(("x", "y")),
                  input_embedding=rng.normal(0.0, 1.0, (3, hidden)),
                  output_embedding=out,
                  input_weights=rng.normal(0.0, 1.0, (hidden, hidden)),
                  recurrent_weights=rng.normal(0.0, 0.6, (hidden, hidden)),
                  bias=rng.normal(0.0, 0.1, hidden),
                  activation="tanh",
                  initial_hidden=np.zeros(hidden))


# -- oracles ------------------------------------------------------------------

def close(label: str, got, want: float, tol: float) -> list[str]:
    if got is None or not abs(got - want) <= tol:
        return [f"{label} = {got!r}, expected {want!r} within {tol:g}"]
    return []


def equal(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label} = {got!r}, expected {want!r}"]


def within_z(label: str, got: float, want: float, stderr: float) -> list[str]:
    return close(label, got, want, Z_TOLERANCE * stderr)


def fraction_stderr(p: float, n: int) -> float:
    """Standard error of a fraction; the 1/n floor keeps it nonzero at p = 0 or 1."""
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def check_mc_fraction(mc: dict, want: float) -> list[str]:
    """The terminated fraction estimates the stopping CDF at ``max_len``."""
    return within_z("monte carlo terminated fraction", mc["terminated_fraction"], want,
                    fraction_stderr(want, mc["samples"]))


def check_mle_analyze(payload: dict) -> list[str]:
    verdict = payload["verdict"]
    return (equal("verdict", verdict["kind"], "tight")
            + equal("certificate", verdict.get("certificate"), "co-accessibility")
            + close("termination probability", payload.get("termination_probability"), 1.0, 1e-9))


def leaky_analyze_check(leaked: float):
    def check(payload: dict) -> list[str]:
        verdict = payload["verdict"]
        return (equal("verdict", verdict["kind"], "non-tight")
                + equal("witness", verdict.get("witness_name"), "sink")
                + close("verdict leaked mass", verdict.get("leaked_mass"), leaked, 1e-9)
                + close("leaked mass", payload.get("leaked_mass"), leaked, 1e-9))
    return check


def string_probability(counts: dict[tuple, Counter], line: tuple[str, ...]) -> float:
    p, history = 1.0, (START,)
    for token in line + (None,):
        events = counts[history]
        p *= events[token] / sum(events.values())
        history = (token,)
    return p


def prob_check(want: float):
    def check(payload: dict) -> list[str]:
        return close("string probability", payload["string_probability"], want, 1e-9 * want)
    return check


def estimate_check(states: int, symbols: list[str]):
    def check(payload: dict) -> list[str]:
        return equal("states", payload["states"], states) + equal("symbols", payload["symbols"], symbols)
    return check


def relu_leaked_mass() -> float:
    """prod over t >= 1 of (1 - 1 / (e^(t-1) + 1)); later factors are 1 in double precision."""
    return math.prod(1.0 - 1.0 / (math.exp(t - 1) + 1.0) for t in range(1, 60))


def check_softplus(payload: dict) -> list[str]:
    horizon = payload["series"]["horizon"]
    max_len = payload["monte_carlo"]["max_len"]
    return (equal("verdict", payload["verdict"]["kind"], "tight")
            + close("cdf at horizon", payload["series"]["termination_cdf"][-1],
                    1.0 - 1.0 / (horizon + 1), 1e-9)
            + check_mc_fraction(payload["monte_carlo"], 1.0 - 1.0 / (max_len + 1)))


def check_relu(payload: dict) -> list[str]:
    leaked = relu_leaked_mass()
    return (equal("verdict", payload["verdict"]["kind"], "non-tight")
            + close("leaked mass", payload["verdict"].get("leaked_mass"), leaked, 1e-9)
            + check_mc_fraction(payload["monte_carlo"], 1.0 - leaked))


def check_parity(payload: dict) -> list[str]:
    horizon = payload["series"]["horizon"]
    hazards = [0.1 if t % 2 == 0 else 0.0 for t in range(1, horizon + 1)]
    return (close("survival at horizon", payload["series"]["survival"][-1],
                  0.9 ** (horizon // 2), 1e-12)
            + close("largest hazard error",
                    max(abs(a - b) for a, b in zip(payload["series"]["eos_hazard"], hazards)),
                    0.0, 1e-12)
            + equal("monte carlo truncated fraction",
                    payload["monte_carlo"]["truncated_fraction"], 0.0))


def rnn_hazards(model: RnnAsm, horizon: int) -> np.ndarray:
    """EOS hazard series by batched enumeration of every prefix, EOS logit last."""
    h = model.initial_hidden[None, :]
    mass = np.ones(1)
    eos = model.alphabet.eos_index
    hazards = []
    for t in range(1, horizon + 1):
        logits = h @ model.output_embedding.T
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        hazards.append(float(mass @ probs[:, eos] / mass.sum()))
        if t == horizon:
            break
        grown_h, grown_mass = [], []
        for s in range(model.alphabet.size):
            pre = (model.input_weights @ model.input_embedding[s])[None, :] \
                + h @ model.recurrent_weights.T + model.bias
            grown_h.append(np.tanh(pre))
            grown_mass.append(mass * probs[:, s])
        h, mass = np.concatenate(grown_h), np.concatenate(grown_mass)
    return np.array(hazards)


def tanh_check(model: RnnAsm):
    def check(payload: dict) -> list[str]:
        got = np.array(payload["series"]["eos_hazard"])
        want = rnn_hazards(model, len(got))
        return (close("largest hazard error", float(np.abs(got - want).max()), 0.0, 1e-12)
                + equal("monte carlo truncated fraction",
                        payload["monte_carlo"]["truncated_fraction"], 0.0))
    return check


def ngram_sample_check(corpus):
    """An MLE n-gram model's expected string length is the corpus mean length."""
    lengths = [len(line) for line in corpus]
    want = sum(lengths) / len(lengths)

    def check(payload: dict) -> list[str]:
        pairs = payload["length_counts"]
        n = sum(c for _, c in pairs)
        mean = sum(length * c for length, c in pairs) / n
        var = sum(c * (length - mean) ** 2 for length, c in pairs) / max(n - 1, 1)
        return (equal("samples accounted", n + round(payload["truncated_fraction"] * payload["samples"]),
                      payload["samples"])
                + within_z("mean length of terminated", mean, want, math.sqrt(var / n)))
    return check


def check_fig1a(payload: dict) -> list[str]:
    return check_mc_fraction(payload, 1.0 / 3.0)


# -- workloads ----------------------------------------------------------------

MACHINE = ["--format", "machine"]


def ngram_exact(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    corpus = zipf_corpus(rng, vocab=200, lines=3000)
    counts = ngram_counts(corpus, 2)
    symbols = sorted({t for line in corpus for t in line})
    sizes = [guard(size_record("mle order 2", len(symbols), len(counts))),
             guard(size_record("leaky order 2", len(symbols), len(counts) + 1)),
             size_record("mle order 3", len(symbols), len(ngram_counts(corpus, 3)))]
    corpus_path, mle_path, leaky_path = work / "corpus.txt", work / "mle.model", work / "leaky.model"
    write_corpus(corpus, corpus_path)
    leaky_path.write_text(bigram_model_text(corpus, counts, leak=LEAK), encoding="utf-8")
    first = counts[(START,)]
    leaked = LEAK * first[symbols[0]] / sum(first.values())
    line = corpus[int(rng.integers(len(corpus)))]
    commands = [
        Command("estimate-ngram", [str(corpus_path), "--order", "2", "--out", str(mle_path), *MACHINE],
                estimate_check(len(counts), symbols), writes=mle_path),
        Command("analyze", [str(mle_path), "--horizon", "2000", *MACHINE], check_mle_analyze),
        Command("analyze", [str(leaky_path), "--horizon", "2000", *MACHINE], leaky_analyze_check(leaked)),
        Command("prob", [str(mle_path), " ".join(line), *MACHINE],
                prob_check(string_probability(counts, line))),
    ]
    return Workload(commands, [str(mle_path), str(leaky_path)], sizes)


def asm_walk(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    tanh = tanh_rnn(rng)
    tanh_path = work / "tanh.model"
    tanh_path.write_text(write_model(tanh), encoding="utf-8")
    mc = ["--seed", str(seed), *MACHINE]
    commands = [
        Command("analyze", ["builtin:softplus-rnn", "--horizon", "10000",
                            "--bound", "harmonic:1,1", *mc], check_softplus),
        Command("analyze", ["builtin:relu-rnn", "--horizon", "10000",
                            "--upper-bound", "geometric:2.7,0.37", *mc], check_relu),
        Command("analyze", ["builtin:parity", "--horizon", "16", *mc], check_parity),
        Command("analyze", [str(tanh_path), "--horizon", "14", "--samples", "2000", *mc],
                tanh_check(tanh)),
    ]
    models = ["builtin:softplus-rnn", "builtin:relu-rnn", "builtin:parity", str(tanh_path)]
    return Workload(commands, models)


def ngram_sample(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    corpus = zipf_corpus(rng, vocab=100, lines=2000)
    counts = ngram_counts(corpus, 2)
    vocab = len({t for line in corpus for t in line})
    sizes = [guard(size_record("mle order 2", vocab, len(counts)))]
    model_path = work / "ngram.model"
    model_path.write_text(bigram_model_text(corpus, counts), encoding="utf-8")
    mc = ["--seed", str(seed), *MACHINE]
    commands = [
        Command("sample", [str(model_path), "--max-len", "200", "--samples", "3000", *mc],
                ngram_sample_check(corpus)),
        Command("sample", ["builtin:fig1a", "--samples", "200000", *mc], check_fig1a),
    ]
    return Workload(commands, [str(model_path), "builtin:fig1a"], sizes)


WORKLOADS = {"ngram-exact": ngram_exact, "asm-walk": asm_walk, "ngram-sample": ngram_sample}
