"""In-process runs of the workload commands, with a span around each public
seqtight call, for the per-layer metrics (``--trace 1``).

Each command runs through ``cli.build_parser()`` and its ``cmd_*`` function
in this process, with standard output captured, so the traced calls are the
CLI's own. While a run is traced, each function in ``TRACED`` is swapped for
a timing wrapper in every seqtight module that binds it, so calls the
library makes internally (``decide_tight`` -> ``trim`` ->
``termination_probability`` -> ``solve_linear``) nest as child spans; the
originals are restored afterwards. ``as_asm`` returns a delegating ``Asm``
proxy that counts and times the model calls each engine makes.
"""

from __future__ import annotations

import importlib
import io
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stdout

import numpy as np

from seqtight import Asm, cli

TRACED = {
    "modelfile": ("load_model", "parse_model", "write_model", "model_digest", "as_asm",
                  "parse_corpus"),
    "sfssm": ("mle_ngram", "accessible", "coaccessible", "decide_tight", "trim",
              "termination_probability", "string_probability_fsa", "prefix_probability_fsa"),
    "linalg": ("solve_linear",),
    "tightness": ("eos_hazard_fsa", "eos_hazard_enumerate", "certify_tight_lower_bound",
                  "certify_nontight_upper_bound", "termination_cdf", "monte_carlo_termination",
                  "suggests_tight", "fit_geometric_tail"),
    "cli": ("_emit",),
}

# Values kept from a traced call for statistics computed after the run, so
# that computing them adds no time to any span.
KEEP = {
    "modelfile.parse_model": lambda args, result: args[0],
    "modelfile.write_model": lambda args, result: result,
    "linalg.solve_linear": lambda args, result: (args[0], args[1], result),
    "tightness.monte_carlo_termination": lambda args, result: result,
}

# span name -> metric name of its self time
SPAN_METRICS = {name: f"{name}_s" for name in (
    "modelfile.parse_model", "modelfile.write_model", "modelfile.model_digest",
    "sfssm.mle_ngram", "sfssm.accessible", "sfssm.coaccessible", "sfssm.decide_tight",
    "sfssm.trim", "sfssm.termination_probability", "sfssm.string_probability_fsa",
    "linalg.solve_linear",
    "tightness.eos_hazard_fsa", "tightness.eos_hazard_enumerate",
    "tightness.certify_tight_lower_bound", "tightness.certify_nontight_upper_bound",
    "tightness.termination_cdf", "tightness.monte_carlo_termination",
)}
SPAN_METRICS["cli._emit"] = "cli.emit_s"
# engine span -> the name its model calls are counted under
ENGINES = {"tightness.eos_hazard_enumerate": "enumerate",
           "tightness.certify_tight_lower_bound": "lower_bound",
           "tightness.monte_carlo_termination": "monte_carlo"}
ASM_CALLS = ("state_conditional", "step")


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index, command index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.command: int | None = None
        self.asm_time: dict[int, float] = defaultdict(float)   # span -> proxied model time
        self.counters: dict[str, float] = defaultdict(float)
        self.kept: list[tuple[str, object]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.command])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        keep = KEEP.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep is not None:
                self.kept.append((name, keep(args, result)))
            return result
        return traced

    def charge_asm(self, call: str, elapsed: float) -> None:
        """Charge a proxied model call to the innermost open span, and count
        it under the innermost engine span that is open."""
        self.asm_time[self._stack[-1]] += elapsed
        engine = next((ENGINES[self.spans[i][0]] for i in reversed(self._stack)
                       if self.spans[i][0] in ENGINES), "other")
        self.counters[f"asm_zoo.{engine}.{call}_calls"] += 1
        self.counters[f"asm_zoo.{engine}.{call}_s"] += elapsed

    def self_times(self) -> dict[str, float]:
        """Span time minus child spans and proxied model calls, summed per name."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        for index, elapsed in self.asm_time.items():
            own[index] -= elapsed
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return totals


class CountingAsm(Asm):
    """Delegating proxy that times the model calls made through it."""

    def __init__(self, inner: Asm, tracer: Tracer):
        self.inner = inner
        self.alphabet = inner.alphabet
        self._tracer = tracer

    def conditional(self, prefix):
        return self.inner.conditional(prefix)

    def initial_state(self):
        return self.inner.initial_state()

    def state_key(self, state):
        return self.inner.state_key(state)

    def state_conditional(self, state):
        start = time.perf_counter()
        result = self.inner.state_conditional(state)
        self._tracer.charge_asm("state_conditional", time.perf_counter() - start)
        return result

    def step(self, state, symbol):
        start = time.perf_counter()
        result = self.inner.step(state, symbol)
        self._tracer.charge_asm("step", time.perf_counter() - start)
        return result


@contextmanager
def installed(tracer: Tracer):
    """Swap every traced function for its wrapper in all loaded seqtight modules."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "seqtight" or name.startswith("seqtight.")]
    saved = []
    for layer, names in TRACED.items():
        home = importlib.import_module(f"seqtight.{layer}")
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", original)
            if fname == "as_asm":
                wrapper = counting(wrapper, tracer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def counting(as_asm, tracer: Tracer):
    def counted(model):
        return CountingAsm(as_asm(model), tracer)
    return counted


def run_command(cmd) -> tuple[bytes, bytes]:
    """Run one command through the CLI in process, as ``cli.main`` would;
    returns its standard output and the bytes of the file it writes."""
    args = cli.build_parser().parse_args([cmd.kind, *cmd.args])
    out = io.StringIO()
    with redirect_stdout(out):
        code = args.func(args)
    if code != 0:
        raise RuntimeError(f"exit {code}")
    return out.getvalue().encode("utf-8"), cmd.writes.read_bytes() if cmd.writes else b""


def run_pass(commands, tracer: Tracer | None = None) -> tuple[float, list]:
    """Run every command in process; returns (wall seconds, results).

    A result is the command's (stdout, written file), or the text of the
    exception it raised, which then differs from the child's output and
    counts as a failure.
    """
    results = []
    start = time.perf_counter()
    with installed(tracer) if tracer is not None else nullcontext():
        for index, cmd in enumerate(commands):
            if tracer is not None:
                tracer.command = index
            try:
                results.append(run_command(cmd))
            except Exception as exc:   # reported as a failed command
                results.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, results


# -- per-layer metrics --------------------------------------------------------

def _sfssm_text_size(text: str) -> tuple[int, int, int] | None:
    """(V, Q, E) read from an sfssm model file's sections, else None."""
    section, header, v, q, e = None, True, 0, 0, 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header and line.startswith("model:"):
            if line.split()[1] != "sfssm":
                return None
            header = False
        elif line.startswith("["):
            section = line[1:-1].split()[0]
        elif section == "alphabet":
            v += len(line.split())
        elif section == "states":
            q += len(line.split())
        elif section == "transitions":
            e += 1
    return v, q, e


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced run; span times are self times."""
    own = tracer.self_times()
    out = {metric: own.get(name, 0.0) for name, metric in SPAN_METRICS.items()}
    texts = [value for name, value in tracer.kept
             if name in ("modelfile.parse_model", "modelfile.write_model")]
    out["modelfile.model_bytes"] = float(sum(len(t.encode("utf-8")) for t in texts))
    sizes = [s for s in map(_sfssm_text_size, texts) if s is not None]
    v, q, e = max(sizes, key=lambda s: (s[1], s[0]), default=(0, 0, 0))
    out["sfssm.states"], out["sfssm.edges"] = float(q), float(e)
    out["sfssm.dense_bytes"] = float(v * q * q * 8)
    solves = [value for name, value in tracer.kept if name == "linalg.solve_linear"]
    out["linalg.n"] = float(max((len(b) for _, b, _ in solves), default=0))
    out["linalg.flops"] = float(sum(2.0 * len(b) ** 3 / 3.0 for _, b, _ in solves))
    out["linalg.residual"] = max((float(np.abs(np.asarray(a) @ y - b).max())
                                  for a, b, y in solves), default=0.0)
    steps = 0
    for name, estimate in tracer.kept:
        if name == "tightness.monte_carlo_termination":
            steps += sum(c * (length + 1) for length, c in estimate.length_counts)
            steps += estimate.truncated * estimate.max_len
    out["tightness.mc_sample_steps"] = float(steps)
    calls = tracer.counters["asm_zoo.monte_carlo.state_conditional_calls"]
    out["tightness.mc_pool_ratio"] = calls / steps if steps else 0.0
    for engine in ENGINES.values():
        for call in ASM_CALLS:
            for suffix in ("_calls", "_s"):
                key = f"asm_zoo.{engine}.{call}{suffix}"
                out[key] = float(tracer.counters[key])
    return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
