"""Command-line front end.

Four subcommands: ``analyze`` reports what :func:`seqtight.tightness.analyze`
decides or brackets, ``prob`` scores a single string, ``sample`` runs the
seeded ancestral sampler, and ``estimate-ngram`` fits a maximum-likelihood
n-gram model from a corpus and writes it as a model file.

Exit codes: 0 when the analysis completed (whatever the verdict — a
non-tight model is a result, not a failure), 1 for usage or parse problems
and for a conditional that is no distribution (an RNN whose hidden state
overflows, say), 2 for internal invariant violations.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import traceback

from .core import OutOfRange, UnknownSymbol, prefix_probability, string_probability
from .modelfile import (BUILTINS, Model, ParseError, as_asm, load_model, model_digest,
                        model_kind, parse_corpus, write_model)
from .sfssm import EmptyCorpus, Sfssm, mle_ngram, prefix_probability_fsa, string_probability_fsa
from .tightness import (DEFAULT_ENUM_BUDGET, BudgetExceeded, EosBoundFamily, InvalidWeight,
                        analyze, monte_carlo_termination)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors exit with 1 here; argparse's built-in error path exits 2
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(low: int):
    """An argparse ``type``: an integer of at least ``low``."""
    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {int(text)}")
        return int(text)
    parse.__name__ = "int"   # so a non-integer reads "invalid int value: ..."
    return parse


def _tokens_for(model: Model, text: str) -> tuple[str, ...]:
    """Whitespace-tokenized string; falls back to per-character symbols so
    compact forms like "aab" work for single-character alphabets."""
    alphabet = model.alphabet
    tokens = tuple(text.split())
    known = set(alphabet.symbols)
    if all(tok in known for tok in tokens):
        return tokens
    compact = tuple(text.replace(" ", ""))
    if compact and all(ch in known for ch in compact):
        return compact
    return alphabet.check_string(tokens)  # raises UnknownSymbol


def _write_json(write, value, indent: str = "") -> None:
    """Write ``value`` as ``json.JSONEncoder(sort_keys=True, indent=2)`` would,
    or raise TypeError at a key that is not a str.  A list holding no list or
    dict goes through the C encoder 4096 items at a time; the rest recurses."""
    inner = indent + "  "
    if not value or not isinstance(value, (dict, list, tuple)):
        write(json.dumps(value))
    elif isinstance(value, dict):
        for n, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(f"{',' if n else '{'}\n{inner}{json.dumps(key)}: ")
            _write_json(write, value[key], inner)
        write(f"\n{indent}}}")
    elif any(isinstance(item, (dict, list, tuple)) for item in value):
        for n, item in enumerate(value):
            write(f"{',' if n else '['}\n{inner}")
            _write_json(write, item, inner)
        write(f"\n{indent}]")
    else:
        sep = ",\n" + inner
        for start in range(0, len(value), 4096):
            write(sep if start else "[\n" + inner)
            write(json.dumps(value[start:start + 4096], separators=(sep, ": "))[1:-1])
        write(f"\n{indent}]")


def _emit(payload: dict, text_lines: list[str], fmt: str, out: str | None) -> None:
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as handle:
        if fmt == "machine":
            _write_json(handle.write, payload)
        else:
            handle.write("\n".join(text_lines))
        handle.write("\n")


def _preview(values) -> str:
    shown = " ".join(f"{v:.9g}" for v in values[:10])
    return shown + (" ..." if len(values) > 10 else "")


# -- analyze ----------------------------------------------------------------

_ESTIMATE_KEYS = ("samples", "max_len", "seed", "terminated_fraction",
                  "truncated_fraction", "confidence_halfwidth")


def _estimate_payload(estimate) -> dict:
    """The Monte Carlo summary shared by ``analyze`` and ``sample``."""
    return {key: getattr(estimate, key) for key in _ESTIMATE_KEYS}


def cmd_analyze(args) -> int:
    model = load_model(args.model)
    digest = model_digest(model)
    result = analyze(model, horizon=args.horizon, budget=args.budget,
                     bound=EosBoundFamily.parse(args.bound) if args.bound else None,
                     upper=EosBoundFamily.parse(args.upper_bound) if args.upper_bound else None,
                     samples=args.samples, max_len=args.max_len, seed=args.seed)
    series, cdf, estimate = result.series, result.cdf, result.estimate
    payload: dict = {
        "command": "analyze",
        "model": args.model,
        "model_kind": model_kind(model),
        "provenance": {
            "model_digest": digest,
            "seed": args.seed,
            "horizon": args.horizon,
            "budget": args.budget,
            "samples": args.samples,
            "max_len": args.max_len,
        },
        "verdict": result.verdict.to_dict(),
        "series": {
            "horizon": series.horizon,
            "eos_hazard": list(series.values),
            "termination_cdf": list(cdf),
            "partial_sums": list(series.partial_sums),
            "survival": list(series.survival),
        },
        "notes": list(result.notes),
    }
    lines = [
        f"model: {args.model} ({model_kind(model)}, digest {digest[:12]})",
        f"verdict: {result.verdict.describe()}",
    ]
    if result.termination is not None:
        payload["termination_probability"] = result.termination
        payload["leaked_mass"] = result.leaked_mass
        lines.append(f"termination probability: {result.termination:.10g}")
        lines.append(f"leaked mass: {result.leaked_mass:.10g}")
    lines.append(f"eos hazard ({series.horizon} steps): {_preview(series.values)}")
    lines.append(f"termination cdf: {_preview(cdf)}")
    if cdf:
        lines.append(f"cdf at horizon {series.horizon}: {cdf[-1]:.10g}")
    if series.hit_one_at is not None:
        payload["series"]["hit_one_at"] = series.hit_one_at
        lines.append(f"hazard reaches 1 at step {series.hit_one_at}")
    if series.support_exhausted_at is not None:
        payload["series"]["support_exhausted_at"] = series.support_exhausted_at
        lines.append(f"prefix mass exhausted at step {series.support_exhausted_at}")
    if estimate is not None:
        payload["monte_carlo"] = _estimate_payload(estimate)
        lines.append(f"monte carlo: terminated {estimate.terminated_fraction:.5f} "
                     f"± {estimate.confidence_halfwidth:.5f} (95%), "
                     f"truncated {estimate.truncated_fraction:.5f} "
                     f"at max length {estimate.max_len}")
    lines += [f"note: {note}" for note in result.notes]
    _emit(payload, lines, args.format, args.out)
    return 0


def cmd_prob(args) -> int:
    model = load_model(args.model)
    tokens = _tokens_for(model, args.string)
    if isinstance(model, Sfssm):
        string_p = string_probability_fsa(model, tokens)
        prefix_p = prefix_probability_fsa(model, tokens)
    else:
        string_p = string_probability(model, tokens)
        prefix_p = prefix_probability(model, tokens)
    payload = {
        "command": "prob",
        "model": args.model,
        "string": list(tokens),
        "string_probability": string_p,
        "prefix_probability": prefix_p,
        "provenance": {"model_digest": model_digest(model)},
    }
    lines = [
        f"string: {' '.join(tokens) if tokens else '(empty)'}",
        f"string probability: {string_p:.12g}",
        f"prefix probability: {prefix_p:.12g}",
    ]
    _emit(payload, lines, args.format, args.out)
    return 0


def cmd_sample(args) -> int:
    model = load_model(args.model)
    estimate = monte_carlo_termination(as_asm(model), args.samples,
                                       max_len=args.max_len, seed=args.seed)
    payload = {
        "command": "sample",
        "model": args.model,
        **_estimate_payload(estimate),
        "mean_length_of_terminated": (None if estimate.terminated == 0
                                      else estimate.mean_length_of_terminated),
        "length_counts": [list(pair) for pair in estimate.length_counts],
        "provenance": {"model_digest": model_digest(model)},
    }
    lines = [
        f"samples: {estimate.samples}   max length: {estimate.max_len}   seed: {estimate.seed}",
        f"terminated fraction: {estimate.terminated_fraction:.5f} "
        f"± {estimate.confidence_halfwidth:.5f} (95%)",
        f"truncated fraction: {estimate.truncated_fraction:.5f}",
    ]
    if estimate.terminated:
        quantiles = {q: estimate.length_quantile(q) for q in (0.5, 0.9, 0.99)}
        lines.append(f"terminated length: mean {estimate.mean_length_of_terminated:.3f}, "
                     f"p50 {quantiles[0.5]}, p90 {quantiles[0.9]}, p99 {quantiles[0.99]}, "
                     f"max {estimate.length_counts[-1][0]}")
    _emit(payload, lines, args.format, args.out)
    return 0


def cmd_estimate_ngram(args) -> int:
    with open(args.corpus, encoding="utf-8-sig") as handle:   # a leading byte-order mark is skipped
        corpus = parse_corpus(handle.read())
    try:
        model = mle_ngram(corpus, args.order)
        text = write_model(model)
    except ValueError as exc:  # reserved tokens, unserializable symbols
        raise _UsageError(str(exc)) from exc
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    payload = {
        "command": "estimate-ngram",
        "corpus": args.corpus,
        "order": args.order,
        "out": args.out,
        "states": model.num_states,
        "symbols": list(model.alphabet.symbols),
        # model_digest(model), from the text just written rather than a second write_model
        "provenance": {"model_digest": hashlib.sha256(text.encode("utf-8")).hexdigest()},
    }
    lines = [
        f"estimated order-{args.order} model from {len(corpus)} strings",
        f"states: {model.num_states}, symbols: {len(model.alphabet.symbols)}",
        f"wrote {args.out}",
    ]
    _emit(payload, lines, args.format, out=None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seqtight",
                     description="Decide whether autoregressive sequence models "
                                 "terminate with probability one.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="report style: human text or deterministic JSON")
        p.add_argument("--out", help="write the report to this file instead of stdout")

    def seed(p):
        p.add_argument("--seed", type=_int_at_least(0), default=0,
                       help="random seed for sampling (default %(default)s)")

    analyze = sub.add_parser("analyze", help="decide or bracket tightness",
                             description="Exact decision for finite-state models; "
                                         "hazard series, certificates and sampling "
                                         "for everything else.")
    analyze.add_argument("model", help="model file path or builtin:<name> "
                                       f"(builtins: {', '.join(sorted(BUILTINS))})")
    analyze.add_argument("--horizon", type=_int_at_least(1), default=50,
                         help="hazard series length (default %(default)s)")
    analyze.add_argument("--budget", type=_int_at_least(1), default=DEFAULT_ENUM_BUDGET,
                         help="max live pooled states for enumeration (default %(default)s)")
    analyze.add_argument("--samples", type=_int_at_least(0), default=10_000,
                         help="Monte Carlo samples for non-finite-state models; "
                              "0 disables (default %(default)s)")
    analyze.add_argument("--max-len", type=_int_at_least(1), default=1_000,
                         help="sampling truncation length (default %(default)s)")
    analyze.add_argument("--bound", default=None, metavar="FAMILY:PARAMS",
                         help="asserted per-step lower bound on EOS probability, e.g. "
                              "constant:0.1, harmonic:1,1, log-harmonic:1,1")
    analyze.add_argument("--upper-bound", default=None, metavar="FAMILY:PARAMS",
                         help="asserted upper bound on the hazard series; a geometric "
                              "family (geometric:c,r) can certify non-tightness")
    seed(analyze)
    common(analyze)
    analyze.set_defaults(func=cmd_analyze)

    prob = sub.add_parser("prob", help="string and prefix probability")
    prob.add_argument("model")
    prob.add_argument("string",
                      help="whitespace-separated symbols (quote it); single-character "
                           "symbols may be run together, e.g. \"aab\"")
    common(prob)
    prob.set_defaults(func=cmd_prob)

    sample = sub.add_parser("sample", help="seeded ancestral sampling summary")
    sample.add_argument("model")
    sample.add_argument("--samples", type=_int_at_least(1), default=10_000,
                        help="number of runs (default %(default)s)")
    sample.add_argument("--max-len", type=_int_at_least(1), default=10_000,
                        help="truncation length (default %(default)s)")
    seed(sample)
    common(sample)
    sample.set_defaults(func=cmd_sample)

    ngram = sub.add_parser("estimate-ngram",
                           help="maximum-likelihood n-gram model from a corpus")
    ngram.add_argument("corpus", help="UTF-8 text, one whitespace-tokenized string per line")
    ngram.add_argument("--order", "-n", type=int, required=True,
                       help="n-gram order (1 = unigram, 2 = bigram, ...)")
    ngram.add_argument("--out", required=True, help="where to write the model file")
    ngram.add_argument("--format", choices=("text", "machine"), default="text")
    ngram.set_defaults(func=cmd_estimate_ngram)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ParseError, UnknownSymbol, EmptyCorpus, BudgetExceeded, OutOfRange,
            InvalidWeight, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # internal invariant violation
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
