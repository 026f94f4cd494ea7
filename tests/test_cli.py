"""Command-line behaviour: reports, determinism, exit codes."""

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from seqtight import (Alphabet, EosBoundFamily, RnnAsm, certify_nontight_upper_bound,
                      decide_tight, eos_hazard_enumerate, fit_geometric_tail,
                      make_nontight_relu_rnn, make_tight_softplus_rnn,
                      termination_probability, trim, parse_corpus, parse_model, mle_ngram,
                      model_digest, write_model)
from seqtight import cli, sfssm, tightness
from seqtight.cli import main
from seqtight.modelfile import as_asm

from conftest import CountingAsm, dense_transitions, seeded_tanh_model

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


def test_analyze_bound_below_the_absolute_slack_is_checked(capsys):
    # relu's eos probability is about 1e-26 at step 60; a 1e-13 floor must fail
    code, out, _ = run(capsys, "analyze", "builtin:relu-rnn", "--horizon", "60",
                       "--samples", "0", "--bound", "constant:1e-13")
    assert code == 0
    assert "inconclusive" in out
    assert "bound violated at step 31" in out


def test_analyze_trap_model(capsys):
    code, out, _ = run(capsys, "analyze", str(MODELS_DIR / "trap.model"), "--samples", "0")
    assert code == 0
    assert "non-tight" in out
    assert "termination probability: 0.54" in out


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


def test_analyze_rejects_a_negative_entry_in_a_vector_that_sums_to_1(capsys, tmp_path):
    path = tmp_path / "negative.model"
    path.write_text("model: sfssm\n\n[alphabet]\na\n\n[states]\nq r\n\n[init]\nq 1.5\nr -0.5\n\n"
                    "[term]\nq 1.0\nr 1.0\n")
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert out == ""
    assert "negative entry at ('init', 1)" in err


def test_analyze_rejects_nan_rnn(capsys, tmp_path):
    # a NaN hidden state makes every conditional NaN; if the model got that
    # far, the lost mass would read as "prefix mass exhausted", i.e. tight
    path = tmp_path / "nan_rnn.model"
    path.write_text(write_model(make_tight_softplus_rnn()).replace("h0 0.0", "h0 nan"))
    code, out, err = run(capsys, "analyze", str(path), "--horizon", "5", "--samples", "0")
    assert code == 1
    assert out == ""
    assert "initial_hidden has a non-finite entry: nan" in err


def overflowing_rnn(tmp_path) -> Path:
    # h doubles each step from 1, so h is inf after 1023 symbols and the
    # conditional at step 1024 is NaN: a fault of the model, not of seqtight
    path = tmp_path / "overflow_rnn.model"
    path.write_text(write_model(make_nontight_relu_rnn()).replace("h0 0.0", "h0 1.0")
                    .replace("[recurrent-weights]\n1.0", "[recurrent-weights]\n2.0"))
    return path


OVERFLOW_ARGV = [("analyze", "--horizon", "1100", "--samples", "0"),
                 ("sample", "--samples", "100", "--max-len", "1100")]
OVERFLOW_ERROR = "error: the conditional at step 1024 is not a distribution: symbol 'a' has nan\n"


def test_a_model_whose_conditional_is_no_distribution_exits_1(capsys, tmp_path):
    path = overflowing_rnn(tmp_path)
    for command, *options in OVERFLOW_ARGV:
        code, out, err = run(capsys, command, str(path), *options)
        assert code == 1
        assert out == ""
        assert err == OVERFLOW_ERROR


@pytest.mark.parametrize("command, options", [(argv[0], argv[1:]) for argv in OVERFLOW_ARGV],
                         ids=[argv[0] for argv in OVERFLOW_ARGV])
def test_an_overflowing_rnn_prints_only_its_error_line(tmp_path, command, options):
    # in a child, where no warning filter hides numpy's overflow warnings
    result = subprocess.run([sys.executable, "-m", "seqtight.cli", command,
                             str(overflowing_rnn(tmp_path)), *options],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == OVERFLOW_ERROR


def test_a_huge_rnn_width_is_a_parse_error_before_any_allocation(tmp_path):
    # under a 1 GiB address-space limit, so an array of the declared width
    # (2 x 10^11 floats, 1.46 TiB) fails with MemoryError instead of filling memory
    path = tmp_path / "huge.model"
    path.write_text(write_model(make_tight_softplus_rnn()).replace("hidden 1", "hidden 100000000000")
                    .replace("h0 0.0\n", "").replace("bias 0.0\n", ""))
    probe = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
             "from seqtight.cli import main; sys.exit(main(sys.argv[1:]))")
    result = subprocess.run([sys.executable, "-c", probe, "analyze", str(path)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: line 18, column 1: embeddings need exactly 100000000000 numbers\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ("analyze", str(MODELS_DIR / "fig1b.model"), "--format", "text"),
    ("analyze", str(MODELS_DIR / "fig1b.model"), "--format", "machine"),
    ("--help",),
    ("analyze", "--help"),
], ids=["text", "machine", "help", "analyze-help"])
def test_a_closed_output_pipe_ends_quietly(argv, unbuffered):
    # the read end is closed before the child writes, as when `| head`
    # has already exited; unbuffered, the write itself fails, buffered, the
    # flush, which --help reaches inside parse_args
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC_DIR)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "seqtight.cli", *argv],
                                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (0, "")


@pytest.mark.parametrize("argv", [("sample", "builtin:fig1a"),
                                  ("analyze", "builtin:relu-rnn", "--horizon", "5")],
                         ids=["sample", "analyze"])
def test_more_samples_than_one_draw_holds_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv, "--samples", str(2**63))
    assert code == 1
    assert out == ""
    assert err == "error: samples is 9223372036854775808; one walk draws 1 to 2**63 - 1 runs\n"


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


# runs main(argv) after ``prelude`` in a fresh interpreter and reports its
# code and output, whether _hashlib (OpenSSL) was loaded before and after, and
# whether a module loaded before is still the one in sys.modules
MAIN_PROBE = ("import contextlib, io, json, sys\n"
              "from seqtight.cli import main\n"
              "held = sys.modules.get('_hashlib')\n"
              "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
              "    code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
              "print(json.dumps({'code': code, 'out': out.getvalue(), 'held': held is not None,\n"
              "                  'openssl': sys.modules.get('_hashlib') is not None,\n"
              "                  'kept': sys.modules.get('_hashlib') is held,\n"
              "                  'numpy_random': 'numpy.random' in sys.modules}))")


def run_main_child(argv, prelude: str = "") -> tuple[str, dict]:
    """The child's standard error and its report."""
    result = subprocess.run([sys.executable, "-c", prelude + "\n" + MAIN_PROBE, *argv],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    return result.stderr, json.loads(result.stdout)


@pytest.mark.parametrize("argv, samples", [
    ((), False),
    (("analyze", str(MODELS_DIR / "fig1b.model")), False),
    (("prob", str(MODELS_DIR / "fig1a.model"), "a b"), False),
    (("estimate-ngram", "{corpus}", "--order", "2", "--out", "{model}"), False),
    (("sample", "builtin:fig1a"), True),
], ids=["import", "analyze", "prob", "estimate-ngram", "sample"])
def test_only_sampling_loads_numpy_random_and_openssl(tmp_path, argv, samples):
    # the digests take CPython's built-in sha256, and main blocks _hashlib, so
    # numpy.random's import of secrets -> hmac -> hashlib takes the built-in
    # hashes too: no command maps OpenSSL
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\nb a a\n")
    argv = [arg.format(corpus=corpus, model=tmp_path / "mle.model") for arg in argv]
    _, report = run_main_child(argv)
    assert report["code"] == 0
    assert report["numpy_random"] is samples
    assert report["openssl"] is False


@pytest.mark.parametrize("argv", [
    ("sample", "builtin:fig1a", "--seed", "3"),
    ("analyze", "builtin:relu-rnn", "--samples", "1000", "--seed", "3"),
], ids=["sample", "analyze"])
def test_machine_output_is_the_same_with_openssl_loaded(argv):
    argv = [*argv, "--format", "machine"]
    err, loaded = run_main_child(argv, "import hashlib")
    assert err == ""
    # main leaves a _hashlib that some module loaded before it in place
    assert loaded["held"] and loaded["openssl"] and loaded["kept"]
    err, blocked = run_main_child(argv)
    assert err == ""
    assert not blocked["openssl"]
    assert blocked["code"] == loaded["code"] == 0
    assert blocked["out"] == loaded["out"]
    assert json.loads(blocked["out"])["command"] == argv[0]


def test_without_a_builtin_hash_module_sampling_loads_openssl():
    # blocking OpenSSL then would make hashlib log a traceback for md5
    err, report = run_main_child(("sample", "builtin:fig1a", "--format", "machine"),
                                 "import sys; sys.modules['_md5'] = None")
    assert err == ""
    assert report["code"] == 0 and report["openssl"]
    assert report["out"] == run_main_child(("sample", "builtin:fig1a", "--format", "machine"))[1]["out"]


def test_machine_output_does_not_depend_on_the_blas_thread_count(tmp_path, workloads):
    # several OpenBLAS threads round the solve of a 201-state bigram
    # differently from one, so the package pins one unless the caller set a count
    leaky = workloads.ngram_exact(2, tmp_path).commands[2]
    unset = {name: value for name, value in os.environ.items()
             if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    unset["PYTHONPATH"] = str(SRC_DIR)
    outs = [subprocess.run([sys.executable, "-m", "seqtight.cli", leaky.kind, *leaky.args],
                           capture_output=True, env=env, check=True).stdout
            for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"})]
    assert b'"termination_probability"' in outs[0]
    assert outs[0] == outs[1]


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
     "c945b1b66199d56596f59546463639f0730429b14e3c1e08bfa27d8bce053452"),
    (("prob", "models/fig1b.model", "a b"),
     "e089b1891abea473f74f36e8e8646cb30edc6113c61dd3cb926dab2597bf6e3f"),
    # several pooled groups per step through the finite-state adapter
    (("sample", "models/fig1b.model", "--samples", "100000", "--max-len", "50", "--seed", "3"),
     "b48a894e9fbbfb89816b7c68e42ed8d5bd3ca448a1e0cfe629d5b00714add03b"),
    # the table fails at step 5 after ('a', 'a', 'a', 'a'): the bound walk reruns for the witness
    (("analyze", "builtin:parity", "--horizon", "16", "--bound", "table:0,0.1,0,0.1,0.2"),
     "cee0217264130c253dffb3e9634f165178e792a9e089756ae92931de2b276b06"),
    # runs trapped in T, which loops on a and b, and in a two-state cycle
    # entered at step 1 only, whose live state alternates
    (("sample", "models/trap.model", "--samples", "100000", "--max-len", "1000", "--seed", "1"),
     "82d2fc1dd891dc19748d43c4d203a38784948de82c80d677c8999935a9083340"),
    (("sample", "models/trap.model", "--samples", "3000", "--max-len", "10000", "--seed", "2"),
     "8be61dd849ead2ed9c13f4874d599c3193ce22f0787624f4227ba523d00d596f"),
    # one-row frontiers for 10,000 steps, as the asm-walk benchmark runs them
    (("analyze", "builtin:softplus-rnn", "--horizon", "10000", "--bound", "harmonic:1,1",
      "--seed", "7"),
     "d37542e5ad124c39e06ff5ce576e15ebfe0af8c3a064fc97af0c5c8a7266d20e"),
    (("analyze", "builtin:relu-rnn", "--horizon", "10000", "--upper-bound", "geometric:2.7,0.37",
      "--seed", "7"),
     "2e6f6b80635e7b6241b1c63ed056514096d9d18034167b986dc9edea9e49c295"),
    # one live state per step for 2,000 steps, read from chains of up to 1,024
    # rows; EOS is exactly 0 from about step 746 on
    (("sample", "builtin:relu-rnn", "--samples", "10000", "--max-len", "2000", "--seed", "7"),
     "c68a0cb9c75f5bd5e81cb1dfe20894ccb581a944704ddaf6c3b8cbb4f01a7c96"),
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


def test_sample_stops_walking_runs_caught_in_a_period_three_cycle(capsys, monkeypatch):
    # half the runs of cycle.model enter C1 -> C2 -> C3 -> C1, which cannot
    # stop: the walk ends there, so 10^8 steps change nothing but max_len
    monkeypatch.chdir(MODELS_DIR.parent)
    payloads = []
    for max_len in ("1000", "100000000"):
        code, out, _ = run(capsys, "sample", "models/cycle.model", "--samples", "100000",
                           "--max-len", max_len, "--format", "machine")
        assert code == 0
        payloads.append({k: v for k, v in json.loads(out).items() if k != "max_len"})
    assert payloads[0] == payloads[1]
    assert payloads[0]["truncated_fraction"] > 0


# sha256 of the text stdout of commands whose notes come from the analysis
# pipeline: ignored bounds, a failing bound and the geometric-tail hint
GOLDEN_TEXT_OUTPUT = [
    (("analyze", "builtin:fig1a", "--bound", "constant:0.1"),
     "e330ddcb1d867e7c9dd1e10c0053289169d7a22f5728e3ffecae568640b7d89c"),
    (("analyze", "builtin:parity", "--horizon", "16", "--bound", "table:0,0.1,0,0.1,0.2"),
     "4cd135c5e61e3a4a46ffc5aa9df97bc4915b22c435ca56b7f5edd089ec7bd6f4"),
    (("analyze", "builtin:relu-rnn", "--horizon", "50", "--samples", "1000", "--seed", "9"),
     "d1bc12833c975435a8d9191e55c0d74fdf701818ebcf00d2bf399376ca15d319"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_TEXT_OUTPUT,
                         ids=[" ".join(argv[1:]) for argv, _ in GOLDEN_TEXT_OUTPUT])
def test_text_output_matches_golden_hash(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_sample_of_a_wide_bigram_matches_golden_hash(capsys, monkeypatch, tmp_path):
    # about 100 pooled states live at once, where the golden models above
    # have at most 5; the hash was recorded before Monte Carlo walked a
    # state-key table
    rng = random.Random(17)
    words = [f"w{i:02d}" for i in range(100)]
    weights = [1.0 / (i + 1) for i in range(100)]
    lines = (" ".join(rng.choices(words, weights, k=rng.randint(1, 20))) for _ in range(2000))
    (tmp_path / "corpus.txt").write_text("".join(line + "\n" for line in lines))
    monkeypatch.chdir(tmp_path)   # the payload records the model path as given
    code, _, _ = run(capsys, "estimate-ngram", "corpus.txt", "--order", "2", "--out", "wide.model")
    assert code == 0
    assert parse_model((tmp_path / "wide.model").read_text()).num_states == 101
    code, out, _ = run(capsys, "sample", "wide.model", "--samples", "3000", "--max-len", "200",
                       "--seed", "1", "--format", "machine")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "21d2796455e02c1669527318eea9466387ccb131fe924e1893316c96eb083efc"


def test_analyze_of_a_wide_frontier_matches_golden_hash(capsys, monkeypatch, tmp_path, workloads):
    # the bench tanh model pools no two prefixes, so 2**16 rows are live at
    # step 17, where the golden models above have a few; the hash was recorded
    # before the frontier was split and pooled with array operations
    tanh = workloads.tanh_rnn(np.random.default_rng([1, 2]))
    (tmp_path / "tanh.model").write_text(write_model(tanh))
    monkeypatch.chdir(tmp_path)   # the payload records the model path as given
    code, out, _ = run(capsys, "analyze", "tanh.model", "--horizon", "17", "--samples", "0",
                       "--format", "machine")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "6fad4bf108e2887fdf545d063c3820d3fbb5b97f1e0b9507d6c6f47e029189b7"


def test_machine_output_is_the_same_through_the_scalar_hooks(capsys, monkeypatch, tmp_path):
    # a traced benchmark run wraps each model in a proxy that has only the
    # scalar hooks, and its output must match the plain run's byte for byte
    path = tmp_path / "tanh.model"
    path.write_text(write_model(seeded_tanh_model(5)))
    argv = ("analyze", str(path), "--horizon", "12", "--format", "machine")
    code, batched, _ = run(capsys, *argv)
    assert code == 0
    proxies = []   # analyze resolves as_asm in tightness, where the benchmark's tracer swaps it
    monkeypatch.setattr(tightness, "as_asm",
                        lambda model: proxies.append(CountingAsm(as_asm(model))) or proxies[-1])
    assert run(capsys, *argv)[1] == batched
    assert proxies[0].calls["step"] > 2 ** 11


_JSON_SCALARS = (hst.none() | hst.booleans() | hst.integers(-2**70, 2**70)
                 | hst.floats(allow_nan=True, allow_infinity=True) | hst.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(hst.recursive(_JSON_SCALARS, lambda inner: hst.lists(inner, max_size=5)
                     | hst.tuples(inner, inner) | hst.dictionaries(hst.text(max_size=4), inner,
                                                                  max_size=4),
                     max_leaves=30))
@example({"b": [0.5, -0.0, math.nan, math.inf, -math.inf], "a": {}, "": [[], {}, [1, [2]]]})
@example(list(range(10_000)))  # more than one slice through the C encoder
def test_machine_writer_matches_the_indenting_encoder(value):
    out = io.StringIO()
    cli._write_json(out.write, value)
    assert out.getvalue() == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("values", [[], [0.25], [0.5, -0.0, math.nan, math.inf, -math.inf] * 103,
                                    np.random.default_rng(0).random(10_000).tolist()])
def test_machine_writer_writes_a_float_array_as_its_list(values):
    # the hazard series reach the writer as read-only float64 arrays
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    out = io.StringIO()
    cli._write_json(out.write, {"series": {"x": array}, "n": len(values)})
    assert out.getvalue() == json.dumps({"series": {"x": values}, "n": len(values)},
                                        sort_keys=True, indent=2)


def test_machine_writer_memory_stays_flat_for_a_long_array(tmp_path):
    values = np.arange(10**6) / 8
    path = tmp_path / "out.json"
    tracemalloc.start()
    cli._emit({"values": values}, [], "machine", str(path))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert path.read_text() == json.dumps({"values": values.tolist()}, indent=2) + "\n"
    assert peak < path.stat().st_size / 10


@pytest.mark.parametrize("key", [1, 0.5, True, None])
def test_machine_writer_rejects_a_key_that_is_not_a_str(key):
    # the indenting encoder would quote it; written as it is, it would not be JSON
    with pytest.raises(TypeError, match="keys must be str"):
        cli._write_json(io.StringIO().write, {"a": 1, "b": {key: 2}})


def test_machine_writer_memory_stays_flat_for_a_long_list(tmp_path):
    values = [i / 8 for i in range(10**6)]
    path = tmp_path / "out.json"
    tracemalloc.start()
    cli._emit({"values": values}, [], "machine", str(path))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert path.stat().st_size > 10**7
    assert peak < path.stat().st_size / 10


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


@pytest.mark.parametrize("model, string, string_p, prefix_p", [
    ("parity", "a", 0.05, 0.5),
    ("relu-rnn", "a", 0.5 / (math.e + 1), 0.5),
    ("softplus-rnn", "a a", 1 / 12, 1 / 3),
])
def test_prob_of_a_model_that_is_not_finite_state(capsys, model, string, string_p, prefix_p):
    code, out, _ = run(capsys, "prob", f"builtin:{model}", string, "--format", "machine")
    payload = json.loads(out)
    assert code == 0
    assert payload["string_probability"] == pytest.approx(string_p, rel=1e-12)
    assert payload["prefix_probability"] == pytest.approx(prefix_p, rel=1e-12)


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


@pytest.mark.parametrize("bound", ["harmonic:1,inf", "log-harmonic:1,1e-300",
                                   "harmonic:1,1,7", "log-harmonic:1,1,7"])
def test_degenerate_bound_is_usage_error(capsys, bound):
    code, out, err = run(capsys, "analyze", "builtin:relu-rnn", "--horizon", "5",
                         "--samples", "0", "--bound", bound)
    assert code == 1
    assert out == ""
    assert "bound" in err


@pytest.mark.parametrize("flag", ["--bound", "--upper-bound"])
@pytest.mark.parametrize("bound", ["table:0.1,,0.05", "harmonic:,5", "constant:0.1,"])
def test_empty_bound_field_is_usage_error(capsys, flag, bound):
    # the fields after an empty one are not shifted into its place
    code, out, err = run(capsys, "analyze", "builtin:softplus-rnn", "--horizon", "5",
                         "--samples", "0", flag, bound)
    assert code == 1
    assert out == ""
    assert err == f"error: invalid bound {bound!r}: could not convert string to float: ''\n"


def test_prob_takes_no_seed(capsys):
    code, _, err = run(capsys, "prob", "builtin:fig1a", "a", "--seed", "1")
    assert code == 1
    assert "--seed" in err


@pytest.mark.parametrize("flag, bound, note", [
    ("--bound", "table:0.1,0.05",
     "lower bound table of 2 steps has a convergent or unclassified series; "
     "it cannot certify tightness"),
    ("--upper-bound", "harmonic:1,1",
     "upper bound 1/(t+1) does not have a summable tail; "
     "only geometric upper bounds certify non-tightness"),
    ("--upper-bound", "geometric:1,0.9",
     "upper bound 1*0.9^t leaves a geometric tail after step 5 too large to keep "
     "the survival product away from zero"),
])
def test_inconclusive_bound_is_named_once_in_its_note(capsys, flag, bound, note):
    code, out, _ = run(capsys, "analyze", "builtin:softplus-rnn", "--horizon", "5",
                       "--samples", "0", flag, bound, "--format", "machine")
    assert code == 0
    assert note in json.loads(out)["notes"]


def test_suggested_upper_bound_parses_back_to_the_fit(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:relu-rnn", "--horizon", "50",
                       "--samples", "0", "--format", "machine")
    assert code == 0
    [hint] = [note for note in json.loads(out)["notes"] if "--upper-bound" in note]
    spelled = hint.split("--upper-bound ")[1].split()[0]
    series = eos_hazard_enumerate(make_nontight_relu_rnn(), 50)
    assert EosBoundFamily.parse(spelled) == fit_geometric_tail(series)
    leaked = certify_nontight_upper_bound(series, fit_geometric_tail(series)).leaked_mass
    assert hint.endswith(f"leaked mass >= {leaked:.6g}")


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_bad_flag_value_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "builtin:fig1a", "--horizon", "soon")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("analyze", "builtin:fig1a", "--horizon", "0"),
    ("analyze", "builtin:relu-rnn", "--max-len", "0"),
    ("analyze", "builtin:relu-rnn", "--budget", "0"),
    ("analyze", "builtin:relu-rnn", "--samples", "-3"),
    ("sample", "builtin:fig1a", "--samples", "0"),
    ("sample", "builtin:fig1a", "--max-len", "-1"),
    ("sample", "builtin:fig1a", "--seed", "-1", "--samples", "10"),
    ("analyze", "builtin:relu-rnn", "--seed", "-1", "--samples", "10", "--horizon", "5"),
], ids=lambda argv: " ".join(argv[2:]) + f" ({argv[0]})")
def test_out_of_range_integer_flag_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: argument {argv[2]}: must be at least ")
    assert err.count("\n") == 1


def test_analyze_accepts_zero_samples(capsys):
    code, out, _ = run(capsys, "analyze", "builtin:relu-rnn", "--horizon", "5",
                       "--samples", "0", "--format", "machine")
    assert code == 0
    assert "monte_carlo" not in json.loads(out)


def test_estimate_ngram_skips_a_byte_order_mark(capsys, tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("w1 w2\nw2\n", encoding="utf-8")
    marked.write_text("w1 w2\nw2\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for corpus, model in ((plain, tmp_path / "plain.model"), (marked, tmp_path / "marked.model")):
        code, _, _ = run(capsys, "estimate-ngram", str(corpus), "--order", "2",
                         "--out", str(model))
        assert code == 0
    assert (tmp_path / "marked.model").read_text() == (tmp_path / "plain.model").read_text()
    assert parse_model((tmp_path / "marked.model").read_text()).alphabet.symbols == ("w1", "w2")


def test_estimate_ngram_digest_is_the_written_file_digest(capsys, tmp_path):
    corpus, model = tmp_path / "corpus.txt", tmp_path / "m.model"
    corpus.write_text("a b\nb a a\n")
    code, out, _ = run(capsys, "estimate-ngram", str(corpus), "--order", "2",
                       "--out", str(model), "--format", "machine")
    assert code == 0
    digest = json.loads(out)["provenance"]["model_digest"]
    assert digest == hashlib.sha256(model.read_bytes()).hexdigest()
    assert digest == model_digest(parse_model(model.read_text()))


def test_estimate_ngram_unserializable_token_is_usage_error(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a#b\n")
    code, _, err = run(capsys, "estimate-ngram", str(corpus), "--order", "2",
                       "--out", str(tmp_path / "x.model"))
    assert code == 1
    assert "model file" in err
    assert not (tmp_path / "x.model").exists()   # the names are checked before the file opens


def test_estimate_ngram_order_below_one_is_a_usage_error(capsys, tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b\n")
    code, _, err = run(capsys, "estimate-ngram", str(corpus), "--order", "0",
                       "--out", str(tmp_path / "x.model"))
    assert code == 1
    assert err == "error: argument --order/-n: must be at least 1, got 0\n"
    assert not (tmp_path / "x.model").exists()


# every line break str.splitlines knows, a byte-order mark at the start and one
# inside a line, blank lines, comma tokens and no final newline
ODD_CORPUS = ("\ufeffa b\r\nc\rd\ve\ff\x1cg\x1dh\x1ei\x85j\u2028k\u2029l\n\n\r\n"
              "\ufeffm a,b\n, ,\nlast")


@pytest.mark.parametrize("order", [1, 2, 3])
def test_estimate_ngram_streams_the_lines_str_splitlines_gives(capsys, tmp_path, order):
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(ODD_CORPUS.encode("utf-8"))
    with open(corpus, encoding="utf-8-sig") as handle:   # the whole text, as text mode reads it
        strings = parse_corpus(handle.read())
    expected = write_model(mle_ngram(strings, order))
    model = tmp_path / "m.model"
    code, out, _ = run(capsys, "estimate-ngram", str(corpus), "--order", str(order),
                       "--out", str(model))
    assert code == 0
    assert out.splitlines()[0] == f"estimated order-{order} model from {len(strings)} strings"
    assert len(strings) == 16
    assert model.read_text(encoding="utf-8") == expected
    code, out, _ = run(capsys, "estimate-ngram", str(corpus), "--order", str(order),
                       "--out", str(model), "--format", "machine")
    assert code == 0
    parsed = parse_model(expected)
    assert json.loads(out) == {
        "command": "estimate-ngram", "corpus": str(corpus), "order": order, "out": str(model),
        "states": parsed.num_states, "symbols": list(parsed.alphabet.symbols),
        "provenance": {"model_digest": hashlib.sha256(expected.encode("utf-8")).hexdigest()}}


@pytest.mark.parametrize("command, rest", [("analyze", ()), ("prob", ("a",)), ("sample", ())],
                         ids=["analyze", "prob", "sample"])
def test_a_model_file_that_is_not_utf8_is_one_error_line(capsys, tmp_path, command, rest):
    model = tmp_path / "bad.model"
    model.write_bytes(b"model: sfssm\n\xff\n")
    code, out, err = run(capsys, command, str(model), *rest)
    assert (code, out) == (1, "")
    assert err == f"error: {model}: byte 13 is not UTF-8 (invalid start byte)\n"


@pytest.mark.parametrize("data, offset, reason", [
    # the bad byte comes after the first 64 KiB, so the stream has used it before
    (b"a b\n" * 20_000 + b"c \xff d\n" + b"a\n" * 10, 80_002, "invalid start byte"),
    # the byte-order mark counts: offsets are the file's
    (b"\xef\xbb\xbf\xc3(\n", 3, "invalid continuation byte"),
    (b"a\n\xe2\x82", 2, "unexpected end of data"),
], ids=["after-64-KiB", "after-a-byte-order-mark", "cut-at-the-end"])
def test_a_corpus_that_is_not_utf8_is_one_error_line(capsys, tmp_path, data, offset, reason):
    corpus, model = tmp_path / "corpus.txt", tmp_path / "m.model"
    corpus.write_bytes(data)
    code, out, err = run(capsys, "estimate-ngram", str(corpus), "--order", "2", "--out", str(model))
    assert (code, out) == (1, "")
    assert err == f"error: {corpus}: byte {offset} is not UTF-8 ({reason})\n"
    assert not model.exists()


def test_a_corpus_that_is_not_utf8_ends_the_installed_command_quietly(tmp_path):
    corpus, model = tmp_path / "corpus.txt", tmp_path / "m.model"
    corpus.write_bytes(b"a b\n" * 20_000 + b"\xff\n")
    done = subprocess.run([sys.executable, "-m", "seqtight.cli", "estimate-ngram", str(corpus),
                           "--order", "2", "--out", str(model)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: {corpus}: byte 80000 is not UTF-8 (invalid start byte)\n"
    assert not model.exists()
