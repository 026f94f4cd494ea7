"""Command-line behaviour: reports, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqtight import (Alphabet, RnnAsm, decide_tight, make_tight_softplus_rnn,
                      termination_probability, trim, parse_model, mle_ngram, write_model)
from seqtight import cli, sfssm
from seqtight.cli import main

from conftest import dense_transitions

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze -----------------------------------------------------------------

def test_analyze_leaky_bigram_file(capsys):
    code, out, _ = run(capsys, "analyze", str(MODELS_DIR / "fig1a.model"))
    assert code == 0
    assert "non-tight" in out
    assert "witness state b" in out
    assert "termination probability: 0.3333333333" in out
    assert "leaked mass: 0.6666666667" in out


def test_analyze_tight_bigram_builtin(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:fig1b")
    assert code == 0
    assert "verdict: tight (co-accessibility)" in out
    assert "termination probability: 1" in out


def test_analyze_relu_rnn_series_and_note(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:relu-rnn",
                       "--horizon", "50", "--samples", "2000")
    assert code == 0
    assert "inconclusive" in out
    assert "cdf at horizon 50: 0.70201" in out
    assert "geometric upper bound certifies non-tightness" in out
    assert "--upper-bound geometric:" in out


def test_analyze_softplus_with_harmonic_bound(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:softplus-rnn",
                       "--bound", "harmonic:1,1", "--samples", "0", "--horizon", "30")
    assert code == 0
    assert "tight (divergent-bound-family)" in out


def test_analyze_relu_with_geometric_upper_bound(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:relu-rnn", "--samples", "0",
                       "--upper-bound", "geometric:1.95,0.5")
    assert code == 0
    assert "non-tight" in out
    assert "leaked mass 0.29798" in out


def test_analyze_violated_lower_bound_noted(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:relu-rnn", "--samples", "0",
                       "--bound", "constant:0.4")
    assert code == 0
    assert "inconclusive" in out
    assert "does not hold" in out


def test_analyze_sure_stopper_certificate(capsys, tmp_path):
    model = mle_ngram([()], 1)
    from seqtight import write_model
    path = tmp_path / "stop.model"
    path.write_text(write_model(model))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert "tight (co-accessibility)" in out


def test_analyze_budget_exceeded_guidance(capsys, tmp_path):
    # continuous tanh hidden states never pool: 2^7 live states at step 8
    rng = np.random.default_rng(0)
    model = RnnAsm(alphabet=Alphabet(("x", "y")),
                   input_embedding=rng.normal(size=(3, 2)),
                   output_embedding=rng.normal(size=(3, 2)),
                   input_weights=rng.normal(size=(2, 2)),
                   recurrent_weights=rng.normal(size=(2, 2)),
                   bias=rng.normal(size=2), activation="tanh",
                   initial_hidden=np.zeros(2))
    path = tmp_path / "tanh.model"
    path.write_text(write_model(model))
    code, out, err = run(capsys, "analyze", str(path), "--horizon", "40", "--budget", "100")
    assert code == 1
    assert "budget" in err
    assert "at step 8" in err


def test_analyze_parity_default_flags_pools_states(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:parity", "--format", "machine")
    assert code == 0
    hazards = json.loads(out)["series"]["eos_hazard"]
    assert len(hazards) == 50
    assert hazards == pytest.approx([0.0, 0.1] * 25, abs=1e-15)


def test_analyze_rejects_nan_model(capsys, tmp_path):
    path = tmp_path / "nan.model"
    path.write_text("model: sfssm\n\n[alphabet]\na\n\n[states]\nq\n\n[init]\nq nan\n\n"
                    "[transitions a]\nq q 0.5\n\n[term]\nq 0.5\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert "nan" in err


def test_analyze_rejects_nan_rnn(capsys, tmp_path):
    # a NaN hidden state makes every conditional NaN; if the model got that
    # far, the lost mass would read as "prefix mass exhausted", i.e. tight
    path = tmp_path / "nan_rnn.model"
    path.write_text(write_model(make_tight_softplus_rnn()).replace("h0 0.0", "h0 nan"))
    code, out, err = run(capsys, "analyze", str(path), "--horizon", "5", "--samples", "0")
    assert code == 1
    assert out == ""
    assert "initial_hidden has a non-finite entry: nan" in err


@pytest.mark.parametrize("name, verdict", [("fig1a", "non-tight"), ("fig1b", "tight")])
def test_analyze_trims_and_solves_once(capsys, monkeypatch, name, verdict):
    counted_names = ("accessible", "coaccessible", "_trim", "solve_linear")
    calls = dict.fromkeys(counted_names, 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for fname in counted_names:
        monkeypatch.setattr(sfssm, fname, counted(fname, getattr(sfssm, fname)))
    code, out, _ = run(capsys, "analyze", f"builtin:{name}", "--horizon", "5")
    assert code == 0 and f"verdict: {verdict} " in out
    assert calls == dict.fromkeys(counted_names, 1)


def test_analyze_tight_verdict_below_one_is_an_invariant_violation(capsys, monkeypatch):
    monkeypatch.setattr(sfssm, "termination_probability", lambda model: 0.5)
    code, out, err = run(capsys, "analyze", "builtin:fig1b")
    assert code == 2
    assert out == ""
    assert "TerminationShortfall: verdict is tight but the termination probability is 0.5" in err


def test_analyze_tight_model_with_rounded_rows(capsys, tmp_path):
    # the row sums to 1 - 9e-10, inside the parser's tolerance; over an
    # expected 1,000 steps that leaks 9e-7 of mass, and the verdict stands
    path = tmp_path / "rounded.model"
    path.write_text("model: sfssm\n[alphabet]\na\n[states]\nq0\n[init]\nq0 1.0\n"
                    "[transitions a]\nq0 q0 0.999\n[term]\nq0 0.0009999991\n")
    code, out, err = run(capsys, "analyze", str(path), "--format", "machine")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["verdict"]["kind"] == "tight"
    assert payload["termination_probability"] == pytest.approx(0.9999991, rel=1e-12)


def test_importing_the_cli_leaves_scipy_unloaded():
    probe = "import sys, seqtight.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC_DIR)}, check=True)
    assert result.stdout.strip() == "False"


def test_analyze_machine_format_is_byte_stable(capsys):
    code1, out1, _ = run(capsys, "analyze", "builtin:relu-rnn", "--format", "machine",
                         "--horizon", "20", "--samples", "1000", "--seed", "9")
    code2, out2, _ = run(capsys, "analyze", "builtin:relu-rnn", "--format", "machine",
                         "--horizon", "20", "--samples", "1000", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verdict"]["kind"] == "inconclusive"
    assert payload["series"]["horizon"] == 20
    assert payload["provenance"]["seed"] == 9
    assert len(payload["series"]["eos_hazard"]) == 20


# sha256 of the --format machine stdout, recorded before the model layer
# derived each conditional from its carried-state hooks; the output of these
# commands must never change
GOLDEN_MACHINE_OUTPUT = [
    (("analyze", "builtin:fig1a"),
     "e1f01ab7a805eb31695e28c87e1d1c2b492f16c7354cd2e88160f0458cdeef86"),
    (("analyze", "models/fig1b.model"),
     "d244438dc8ef8a1346daa7d02d4995367a78cd3a1e19091ab73c1defa55dee53"),
    (("analyze", "builtin:parity", "--horizon", "16"),
     "6d8c517d9872d258f5ee7533c91c02c0771fdf5f223f84f9f7593617fb58a0cc"),
    (("analyze", "builtin:softplus-rnn", "--horizon", "300", "--bound", "harmonic:1,1"),
     "a271fa93826007c123c55f5576de19474007acc7c7b3b1b755efd42c664496b9"),
    (("analyze", "builtin:relu-rnn", "--horizon", "50", "--upper-bound",
      "geometric:2.7182818278008387,0.3678794411746719"),
     "c48fdf33d13f11065679d6c400b86e71c07e504592fdd4964c61110d1c45c0a4"),
    (("sample", "builtin:fig1a", "--samples", "100000", "--seed", "1"),
     "dc554ebe7c851c6af2a4bb0aef3f1835c9672725a0b8693d7b4ce707fa90eaa0"),
    (("prob", "models/fig1b.model", "a b"),
     "e089b1891abea473f74f36e8e8646cb30edc6113c61dd3cb926dab2597bf6e3f"),
    # several pooled groups per step through the finite-state adapter
    (("sample", "models/fig1b.model", "--samples", "100000", "--max-len", "50", "--seed", "3"),
     "3c3b51d805a86c5862b02e9d3bb661532b7b64cdd786df36d798564f7fe25ff3"),
    # the table fails at step 5 after ('a', 'a', 'a', 'a'): the bound walk reruns for the witness
    (("analyze", "builtin:parity", "--horizon", "16", "--bound", "table:0,0.1,0,0.1,0.2"),
     "cee0217264130c253dffb3e9634f165178e792a9e089756ae92931de2b276b06"),
]


def golden_ids() -> list[str]:
    """Subcommand and model, or the whole command line when those repeat."""
    ids: list[str] = []
    for argv, _ in GOLDEN_MACHINE_OUTPUT:
        short = " ".join(argv[:2])
        ids.append(" ".join(argv) if short in ids else short)
    return ids


@pytest.mark.parametrize("argv, digest", GOLDEN_MACHINE_OUTPUT, ids=golden_ids())
def test_machine_output_matches_golden_hash(capsys, monkeypatch, argv, digest):
    monkeypatch.chdir(MODELS_DIR.parent)   # the payload records the model path as given
    code, out, _ = run(capsys, *argv, "--format", "machine")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_analyze_machine_format_leaky_model(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:fig1a", "--format", "machine")
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"]["kind"] == "non-tight"
    assert payload["verdict"]["witness_name"] == "b"
    assert payload["termination_probability"] == pytest.approx(1 / 3, abs=1e-9)
    assert payload["leaked_mass"] == pytest.approx(2 / 3, abs=1e-9)


def test_analyze_out_file(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "builtin:fig1b", "--format", "machine",
                       "--out", str(report))
    assert code == 0
    assert out == ""
    payload = json.loads(report.read_text())
    assert payload["verdict"]["kind"] == "tight"


# -- prob ---------------------------------------------------------------------

def test_prob_bigram_values(capsys):
    code, out, _ = run(capsys, "prob", "builtin:fig1a", "a")
    assert code == 0
    assert "string probability: 0.1" in out
    assert "prefix probability: 1" in out


def test_prob_unreachable_first_symbol(capsys):
    code, out, _ = run(capsys, "prob", "builtin:fig1a", "b")
    assert code == 0
    assert "string probability: 0" in out
    assert "prefix probability: 0" in out


def test_prob_compact_and_spaced_tokens_agree(capsys):
    code1, out1, _ = run(capsys, "prob", "builtin:fig1b", "ab")
    code2, out2, _ = run(capsys, "prob", "builtin:fig1b", "a b")
    assert code1 == code2 == 0
    assert "string probability: 0.02" in out1
    assert out1.splitlines()[1:] == out2.splitlines()[1:]


def test_prob_empty_string(capsys):
    code, out, _ = run(capsys, "prob", "builtin:fig1a", "")
    assert code == 0
    assert "string probability: 0" in out


def test_prob_unknown_symbol_is_usage_error(capsys):
    code, _, err = run(capsys, "prob", "builtin:fig1a", "a z")
    assert code == 1
    assert "unknown symbol" in err


# -- sample ----------------------------------------------------------------------

def test_sample_deterministic_per_seed(capsys):
    args = ("sample", "builtin:fig1a", "--samples", "5000", "--max-len", "300",
            "--seed", "1", "--format", "machine")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert abs(payload["terminated_fraction"] - 1 / 3) < 0.03
    assert payload["truncated_fraction"] > 0.6


def test_sample_sure_stop(capsys, tmp_path):
    from seqtight import write_model
    path = tmp_path / "stop.model"
    path.write_text(write_model(mle_ngram([()], 1)))
    code, out, _ = run(capsys, "sample", str(path), "--samples", "500")
    assert code == 0
    assert "terminated fraction: 1.00000" in out


def test_sample_softplus_reaches_cdf(capsys):
    code, out, _ = run(capsys, "sample", "builtin:softplus-rnn",
                       "--samples", "20000", "--max-len", "1000", "--seed", "2")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("terminated fraction")][0]
    value = float(line.split()[2])
    assert abs(value - (1 - 1 / 1001)) < 0.005


# -- estimate-ngram -----------------------------------------------------------------

def test_estimate_ngram_end_to_end(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\n")
    out_model = tmp_path / "bigram.model"
    code, out, _ = run(capsys, "estimate-ngram", str(corpus), "--order", "2",
                       "--out", str(out_model))
    assert code == 0
    assert "wrote" in out

    model = parse_model(out_model.read_text())
    assert dense_transitions(model, "a")[model.names.index("BOS"), model.names.index("a")] == 1.0
    assert dense_transitions(model, "b")[model.names.index("a"), model.names.index("b")] == 1.0
    assert model.term[model.names.index("b")] == 1.0
    assert decide_tight(model).is_tight
    assert termination_probability(trim(model)) == pytest.approx(1.0, abs=1e-9)

    code, out, _ = run(capsys, "analyze", str(out_model))
    assert code == 0
    assert "tight (co-accessibility)" in out


def test_estimate_ngram_matches_library(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a a b\nb\n\na\n")
    out_model = tmp_path / "m.model"
    code, _, _ = run(capsys, "estimate-ngram", str(corpus), "-n", "2",
                     "--out", str(out_model))
    assert code == 0
    from seqtight import write_model
    expected = mle_ngram([("a", "a", "b"), ("b",), (), ("a",)], 2)
    assert out_model.read_text() == write_model(expected)


def test_estimate_ngram_empty_corpus(capsys, tmp_path):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("")
    code, _, err = run(capsys, "estimate-ngram", str(corpus), "--order", "2",
                       "--out", str(tmp_path / "x.model"))
    assert code == 1
    assert "corpus" in err


# -- exit codes and errors ------------------------------------------------------------

def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "no-such-file.model")
    assert code == 1
    assert "error" in err


def test_malformed_model_reports_location(capsys, tmp_path):
    path = tmp_path / "bad.model"
    path.write_text("model: sfssm\n\n[alphabet]\na\n\n[states]\ns0\n\n[init]\ns0 huh\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "line 10" in err


def test_bad_bound_spec_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "builtin:fig1a", "--bound", "quadratic:1")
    assert code == 1
    assert "bound" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_bad_flag_value_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "builtin:fig1a", "--horizon", "soon")
    assert code == 1


def test_estimate_ngram_unserializable_token_is_usage_error(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a#b\n")
    code, _, err = run(capsys, "estimate-ngram", str(corpus), "--order", "2",
                       "--out", str(tmp_path / "x.model"))
    assert code == 1
    assert "model file" in err
