"""seqtight benchmark runner.

Run from the repository root:

    python3 perfbench/run.py --workload ngram-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload's ``python -m seqtight.cli`` commands one at
a time as child processes, pass after pass until ``--seconds`` have elapsed,
and reports the end-to-end metrics as medians over passes. ``--trace 1``
also runs each pass's commands in process through the CLI, once plain and
once traced, and reports the per-layer metrics. Every command's output is checked against an oracle
and against the first pass (byte-identical ``--format machine`` payloads).

A human-readable report goes to standard output; its last line is the JSON
result. Full records, including the spans of a traced run, are written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads, for in-process work

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 165          # the whole run must end within 180 s
SETUP_REPEATS = 2         # setup children after each pass
IMPORT_REPEATS = 3
SETUP_CODE = "import sys, seqtight\nfor spec in sys.argv[1:]:\n    seqtight.load_model(spec)\n"
IMPORT_CODE = ("import time\nstart = time.perf_counter()\nimport seqtight.cli\n"
               "print(time.perf_counter() - start)\n")
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")


@dataclass
class Child:
    wall: float
    returncode: int
    timed_out: bool
    maxrss_kb: int
    out: Path
    err: Path

    def error_tail(self) -> str:
        return self.err.read_text(errors="replace")[-500:]


class Spawner:
    """Client of ``spawn.py``, which starts every child of a run, one at a time."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("spawn.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=CHILD_ENV, cwd=ROOT)

    def run(self, argv: list[str], tag: Path, timeout: float) -> Child:
        out, err = tag.with_suffix(".out"), tag.with_suffix(".err")
        request = {"argv": argv, "out": str(out), "err": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        return Child(**json.loads(reply), out=out, err=err)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


class Runner:
    """Runs passes of one workload and keeps the failure tally."""

    def __init__(self, workload, work: Path, spawner: Spawner, started: float):
        self.workload = workload
        self.work = work
        self.spawner = spawner
        self.started = started
        self.attempted = 0
        self.failures: list[str] = []
        self.first: dict[int, tuple[str, list[str]]] = {}   # command -> (fingerprint, problems)

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, argv: list[str], tag: str) -> Child:
        return self.spawner.run(argv, self.work / tag, self.remaining())

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def run_pass(self) -> tuple[dict, list]:
        """One pass over the command list: its timings, and each command's
        (stdout, written file) or None when the command failed."""
        children = []
        start = time.perf_counter()
        for index, cmd in enumerate(self.workload.commands):
            children.append(self.child(["-m", "seqtight.cli", cmd.kind, *cmd.args], f"cmd-{index}"))
        wall = time.perf_counter() - start
        payloads = []
        for index, (cmd, child) in enumerate(zip(self.workload.commands, children)):
            self.attempted += 1
            payloads.append(self.verify(index, cmd, child))
        timing = {"wall": wall, "children": children,
                  "maxrss_kb": max(c.maxrss_kb for c in children),
                  "output_bytes": sum(c.out.stat().st_size for c in children)}
        return timing, payloads

    def verify(self, index: int, cmd, child: Child):
        label = f"{cmd.kind} #{index}"
        if child.timed_out or child.returncode != 0:
            why = "timed out" if child.timed_out else f"exit {child.returncode}"
            self.fail(f"{label}: {why}: {child.error_tail()}")
            return None
        try:
            stdout = child.out.read_bytes()
            written = cmd.writes.read_bytes() if cmd.writes else b""
            payload = json.loads(stdout)
        except (OSError, ValueError) as exc:
            self.fail(f"{label}: unreadable output: {exc}")
            return None
        fingerprint = hashlib.sha256(stdout + b"\0" + written).hexdigest()
        if index not in self.first:
            self.first[index] = (fingerprint, check(cmd, payload))
        known, problems = self.first[index]
        if fingerprint != known:
            problems = ["output differs from the first pass", *check(cmd, payload)]
        for problem in problems:
            self.fail(f"{label}: {problem}")
        return stdout, written

    def setup_time(self) -> float:
        self.attempted += 1
        child = self.child(["-c", SETUP_CODE, *self.workload.models], "setup")
        if child.returncode != 0:
            self.fail(f"setup: exit {child.returncode}: {child.error_tail()}")
        return child.wall


def check(cmd, payload: dict) -> list[str]:
    """The command's oracle; a payload missing the fields it reads fails it."""
    try:
        return cmd.check(payload)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"oracle could not read the payload: {type(exc).__name__}: {exc}"]


def command_times(workload, passes: list[dict]) -> dict[str, float]:
    """Median over passes of the summed wall time of each subcommand's children."""
    kinds = sorted({cmd.kind for cmd in workload.commands})
    return {f"{kind.split('-')[0]}_s": statistics.median(
        sum(c.wall for cmd, c in zip(workload.commands, p["children"]) if cmd.kind == kind)
        for p in passes) for kind in kinds}


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    passes, setups = [], []
    deadline = time.perf_counter() + seconds
    while True:
        lap = time.perf_counter()
        passes.append(runner.run_pass()[0])
        setups += [runner.setup_time() for _ in range(SETUP_REPEATS)]
        lap = time.perf_counter() - lap
        if time.perf_counter() >= deadline or runner.remaining() < 2 * lap:
            break
    metrics = {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_kb"] for p in passes) / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    record = {"passes": [{"wall_s": p["wall"], "peak_rss_mb": p["maxrss_kb"] / 1024,
                          "children_s": [c.wall for c in p["children"]]} for p in passes],
              "setup_s": setups, "command_s": command_times(runner.workload, passes)}
    return metrics, record


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    import tracing   # imports seqtight; kept out of untraced runs

    commands = runner.workload.commands
    imports = []
    for _ in range(IMPORT_REPEATS):
        runner.attempted += 1
        child = runner.child(["-c", IMPORT_CODE], "import")
        if child.returncode != 0:
            runner.fail(f"import: exit {child.returncode}: {child.error_tail()}")
            continue
        imports.append(float(child.out.read_text()))
    samples, tracers = [], []
    deadline = time.perf_counter() + seconds
    while True:
        lap = time.perf_counter()
        untraced, outputs = runner.run_pass()
        plain_wall, plain = tracing.run_pass(commands)
        tracer = tracing.Tracer()
        traced_wall, traced = tracing.run_pass(commands, tracer)
        for index, (cmd, want) in enumerate(zip(commands, outputs)):
            if want is None:
                continue
            for name, got in (("plain", plain[index]), ("traced", traced[index])):
                runner.attempted += 1
                if got != want:
                    why = got[:300] if isinstance(got, str) else "output or written file differs"
                    runner.fail(f"{cmd.kind} #{index}: in-process {name} run differs from "
                                f"the child: {why}")
        sample = tracing.layer_metrics(tracer)
        sample["cli.output_bytes"] = float(untraced["output_bytes"])
        # interpreter start, imports and exit: the children's time outside the CLI call
        sample["cli.other_s"] = sum(c.wall for c in untraced["children"]) - plain_wall
        sample["trace.overhead_s"] = traced_wall - plain_wall
        samples.append(sample)
        tracers.append(tracer)
        lap = time.perf_counter() - lap
        if time.perf_counter() >= deadline or runner.remaining() < 2 * lap:
            break
    values = tracing.median_metrics(samples)
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    metrics = {name: (values[name], unit) for name, unit in per_layer_units().items()}
    record = {"in_process": samples, "import_s": imports,
              "spans": [[dict(zip(("name", "start", "end", "parent", "command"), s))
                         for s in t.spans] for t in tracers],
              "self_time_s": [t.self_times() for t in tracers]}
    return metrics, record


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def blas_version() -> str | None:
    import numpy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        return None


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "blas": blas_version(),
            "OPENBLAS_NUM_THREADS": CHILD_ENV["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "git_commit": git_commit()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqtight" / "__init__.py").is_file():
        print(f"error: no seqtight sources under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    spawner = Spawner()   # started while this process is still small; see spawn.py
    work = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        sys.path.insert(0, str(SRC))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r} "
                  f"(choose {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
            return 2
        work.mkdir(parents=True)
        try:
            workload = workloads.WORKLOADS[args.workload](args.seed, work)
        except workloads.TooLarge as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        runner = Runner(workload, work, spawner, started)
        runner.child(["-c", "import seqtight.cli"], "warmup")   # compile and cache bytecode
        measured = measure_traced if args.trace else measure
        metrics, record = measured(runner, args.seconds)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    runner_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, sizes=workload.sizes,
                  runner_peak_rss_mb=runner_rss_mb,
                  attempted=runner.attempted, failures=runner.failures, metrics=reported)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    failed = len(runner.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for size in workload.sizes:
        print(f"size {size['model']}: V={size['vocab']} Q={size['states']} "
              f"dense_bytes={size['dense_bytes']} limit={size['limit_bytes']} {size['status']}")
    print(f"runner peak rss = {runner_rss_mb:.1f} MB")
    for name, seconds in record.get("command_s", {}).items():
        print(f"command {name} = {seconds:.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"failed_ratio = {failed}/{runner.attempted} = {failed / runner.attempted:.4g}")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
