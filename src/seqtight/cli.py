"""Command-line front end.

Four subcommands: ``analyze`` decides or brackets tightness and reports
the hazard series, ``prob`` scores a single string, ``sample`` runs the
seeded ancestral sampler, and ``estimate-ngram`` fits a maximum-likelihood
n-gram model from a corpus and writes it as a model file.

Exit codes: 0 when the analysis completed (whatever the verdict — a
non-tight model is a result, not a failure), 1 for usage or parse
problems, 2 for internal invariant violations.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .asm_zoo import ParityAsm, RnnAsm
from .core import OutOfRange, UnknownSymbol, prefix_probability, string_probability
from .modelfile import (BUILTINS, Model, ParseError, as_asm, load_model, model_digest,
                        parse_corpus, write_model)
from .sfssm import (EmptyCorpus, Sfssm, mle_ngram, prefix_probability_fsa,
                    solve_tightness, string_probability_fsa)
from .tightness import (BoundViolated, BudgetExceeded, EosBoundFamily, EosHazardSeries,
                        certify_nontight_upper_bound, certify_tight_lower_bound,
                        eos_hazard_enumerate, eos_hazard_fsa, fit_geometric_tail,
                        monte_carlo_termination, suggests_tight, termination_cdf)
from .verdicts import Certificate, TightnessVerdict


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage errors exit with 1 here; argparse's built-in error path exits 2
    def error(self, message):
        raise _UsageError(message)


def _parse_bound(text: str) -> EosBoundFamily:
    kind, _, rest = text.partition(":")
    try:
        params = [float(x) for x in rest.split(",") if x.strip()]
    except ValueError:
        raise _UsageError(f"bad bound parameters in {text!r}") from None
    try:
        if kind == "constant":
            if len(params) != 1:
                raise _UsageError("constant bound takes one parameter: constant:<eps>")
            return EosBoundFamily.constant(params[0])
        if kind == "harmonic":
            return EosBoundFamily.harmonic(*params[:2])
        if kind == "log-harmonic":
            return EosBoundFamily.log_harmonic(*params[:2])
        if kind == "geometric":
            if len(params) != 2:
                raise _UsageError("geometric bound takes two parameters: geometric:<c>,<r>")
            return EosBoundFamily.geometric(params[0], params[1])
        if kind == "table":
            if not params:
                raise _UsageError("table bound needs at least one value: table:<p1>,<p2>,...")
            return EosBoundFamily.table(params)
    except OutOfRange as exc:
        raise _UsageError(f"invalid bound {text!r}: {exc}") from None
    raise _UsageError(f"unknown bound family {kind!r} "
                      f"(choose constant, harmonic, log-harmonic, geometric, table)")


def _model_kind(model: Model) -> str:
    if isinstance(model, Sfssm):
        return "sfssm"
    if isinstance(model, RnnAsm):
        return "rnn"
    if isinstance(model, ParityAsm):
        return "parity"
    return type(model).__name__


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


def _emit(payload: dict, text_lines: list[str], fmt: str, out: str | None) -> None:
    if fmt == "machine":
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(body)
    else:
        sys.stdout.write(body)


def _preview(values, count: int = 10) -> str:
    shown = " ".join(f"{v:.9g}" for v in values[:count])
    return shown + (" ..." if len(values) > count else "")


# -- analyze ----------------------------------------------------------------

def _series_payload(series: EosHazardSeries) -> dict:
    cdf = termination_cdf(series)
    payload = {
        "horizon": series.horizon,
        "eos_hazard": list(series.values),
        "termination_cdf": list(cdf),
        "partial_sums": list(series.partial_sums),
        "survival": list(series.survival),
    }
    if series.hit_one_at is not None:
        payload["hit_one_at"] = series.hit_one_at
    if series.support_exhausted_at is not None:
        payload["support_exhausted_at"] = series.support_exhausted_at
    return payload


_ESTIMATE_KEYS = ("samples", "max_len", "seed", "terminated_fraction",
                  "truncated_fraction", "confidence_halfwidth")


def _estimate_payload(estimate) -> dict:
    """The Monte Carlo summary shared by ``analyze`` and ``sample``."""
    return {key: getattr(estimate, key) for key in _ESTIMATE_KEYS}


def _verdict_for_series(series: EosHazardSeries, lower: EosBoundFamily | None,
                        upper: EosBoundFamily | None, asm, horizon: int,
                        budget: int, notes: list[str]) -> TightnessVerdict:
    if series.sure_termination:
        step = series.hit_one_at or series.support_exhausted_at
        return TightnessVerdict.tight(
            Certificate.EOS_HITS_ONE,
            detail=f"generation surely stops by step {step}")
    if lower is not None:
        try:
            verdict = certify_tight_lower_bound(lower, asm, horizon, budget, series=series)
            if verdict.is_tight:
                return verdict
            notes.append(f"lower bound {lower.describe()}: {verdict.evidence}")
        except BoundViolated as exc:
            notes.append(f"supplied lower bound does not hold: {exc}")
    if upper is not None:
        try:
            verdict = certify_nontight_upper_bound(series, upper)
            if verdict.is_non_tight:
                return verdict
            notes.append(f"upper bound {upper.describe()}: {verdict.evidence}")
        except BoundViolated as exc:
            notes.append(f"supplied upper bound does not hold: {exc}")
    if suggests_tight(series):
        notes.append("numeric evidence is consistent with termination probability 1 "
                     "(hazard sums diverging, survival vanishing); supply a divergent "
                     "--bound to certify tightness")
    fit = fit_geometric_tail(series)
    if fit is not None:
        tail = fit.geometric_tail(series.horizon)
        would_leak = series.survival[-1] * (1.0 - tail)
        if would_leak > 0:
            # full float precision so the suggested flag parses back to the
            # exact validated family (rounded values can fall out of range)
            notes.append(
                f"hazard decays geometrically over the computed horizon "
                f"(<= {fit.describe()}); a geometric upper bound certifies non-tightness "
                f"— rerun with --upper-bound geometric:{fit.scale!r},{fit.ratio!r} "
                f"to certify leaked mass >= {would_leak:.6g}")
    return TightnessVerdict.inconclusive(
        f"no certificate at horizon {series.horizon}: partial hazard sum "
        f"{series.partial_sums[-1]:.6g}, survival {series.survival[-1]:.6g}")


def cmd_analyze(args) -> int:
    model = load_model(args.model)
    digest = model_digest(model)
    lower = _parse_bound(args.bound) if args.bound else None
    upper = _parse_bound(args.upper_bound) if args.upper_bound else None
    notes: list[str] = []
    payload: dict = {
        "command": "analyze",
        "model": args.model,
        "model_kind": _model_kind(model),
        "provenance": {
            "model_digest": digest,
            "seed": args.seed,
            "horizon": args.horizon,
            "budget": args.budget,
            "samples": args.samples,
            "max_len": args.max_len,
        },
    }
    termination = leaked = None
    estimate = None

    if isinstance(model, Sfssm):
        verdict, termination = solve_tightness(model)
        if termination == 0.0:
            notes.append("no useful states: every string has probability 0")
        leaked = 1.0 - termination
        series = eos_hazard_fsa(model, args.horizon)
        if lower is not None or upper is not None:
            notes.append("bounds are ignored for finite-state models; the "
                         "co-accessibility decision is exact")
    else:
        asm = as_asm(model)
        series = eos_hazard_enumerate(asm, args.horizon, budget=args.budget)
        verdict = _verdict_for_series(series, lower, upper, asm, args.horizon,
                                      args.budget, notes)
        if verdict.is_tight and verdict.certificate is Certificate.EOS_HITS_ONE:
            termination, leaked = 1.0, 0.0
        if args.samples > 0:
            estimate = monte_carlo_termination(asm, args.samples,
                                               max_len=args.max_len, seed=args.seed)

    cdf = termination_cdf(series)
    payload["verdict"] = verdict.to_dict()
    payload["series"] = _series_payload(series)
    if termination is not None:
        payload["termination_probability"] = termination
        payload["leaked_mass"] = leaked
    if estimate is not None:
        payload["monte_carlo"] = _estimate_payload(estimate)
    payload["notes"] = notes

    lines = [
        f"model: {args.model} ({_model_kind(model)}, digest {digest[:12]})",
        f"verdict: {verdict.describe()}",
    ]
    if termination is not None:
        lines.append(f"termination probability: {termination:.10g}")
        lines.append(f"leaked mass: {leaked:.10g}")
    lines.append(f"eos hazard ({series.horizon} steps): {_preview(series.values)}")
    lines.append(f"termination cdf: {_preview(cdf)}")
    if cdf:
        lines.append(f"cdf at horizon {series.horizon}: {cdf[-1]:.10g}")
    if series.hit_one_at is not None:
        lines.append(f"hazard reaches 1 at step {series.hit_one_at}")
    if series.support_exhausted_at is not None:
        lines.append(f"prefix mass exhausted at step {series.support_exhausted_at}")
    if estimate is not None:
        lines.append(f"monte carlo: terminated {estimate.terminated_fraction:.5f} "
                     f"± {estimate.confidence_halfwidth:.5f} (95%), "
                     f"truncated {estimate.truncated_fraction:.5f} "
                     f"at max length {estimate.max_len}")
    for note in notes:
        lines.append(f"note: {note}")
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
    with open(args.corpus, encoding="utf-8") as handle:
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
        "provenance": {"model_digest": model_digest(model)},
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

    def common(p, seed_default=0):
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="report style: human text or deterministic JSON")
        p.add_argument("--out", help="write the report to this file instead of stdout")
        p.add_argument("--seed", type=int, default=seed_default,
                       help="random seed for sampling (default %(default)s)")

    analyze = sub.add_parser("analyze", help="decide or bracket tightness",
                             description="Exact decision for finite-state models; "
                                         "hazard series, certificates and sampling "
                                         "for everything else.")
    analyze.add_argument("model", help="model file path or builtin:<name> "
                                       f"(builtins: {', '.join(sorted(BUILTINS))})")
    analyze.add_argument("--horizon", type=int, default=50,
                         help="hazard series length (default %(default)s)")
    analyze.add_argument("--budget", type=int, default=1_000_000,
                         help="max live pooled states for enumeration (default %(default)s)")
    analyze.add_argument("--samples", type=int, default=10_000,
                         help="Monte Carlo samples for non-finite-state models; "
                              "0 disables (default %(default)s)")
    analyze.add_argument("--max-len", type=int, default=1_000,
                         help="sampling truncation length (default %(default)s)")
    analyze.add_argument("--bound", default=None, metavar="FAMILY:PARAMS",
                         help="asserted per-step lower bound on EOS probability, e.g. "
                              "constant:0.1, harmonic:1,1, log-harmonic:1,1")
    analyze.add_argument("--upper-bound", default=None, metavar="FAMILY:PARAMS",
                         help="asserted upper bound on the hazard series; a geometric "
                              "family (geometric:c,r) can certify non-tightness")
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
    sample.add_argument("--samples", type=int, default=10_000,
                        help="number of runs (default %(default)s)")
    sample.add_argument("--max-len", type=int, default=10_000,
                        help="truncation length (default %(default)s)")
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, UnknownSymbol, EmptyCorpus, BudgetExceeded, OutOfRange, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # internal invariant violation
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
