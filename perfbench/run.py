"""End-to-end benchmark of the extremal-count CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {search,hosts,certify} --seed N \
        --seconds S --trace {0,1}

The run sets up the workload's inputs (SETUP_REPEATS times, reporting the
median), then replays the workload's command list, each command in a fresh
`python -m extremal_count.cli` process, pass after pass for about S seconds
(at least one pass).  Every output is checked by
`checks.py`.  With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes (commands started
through `traced_cli.py`) and reports the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A record of the run
(environment, input and output hashes, failures) is written under
.perfbench_run/.  The exit code is 0, or 1 when an output check failed, or
2 when the directory holds no checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import checks
import spans
from workloads import WORKLOADS, make_plan

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_run"
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60
CHECKED_ERRORS = (checks.CheckFailure, KeyError, TypeError, ValueError, IndexError)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in (
        "kernels.count_injective", "kernels.canonical_mask", "oracle.is_complete_bipartite",
        "oracle.canonical_form", "embeddings.count_embeddings", "blowup.weighted_hom_sum",
        "blowup.leading_coefficient")},
    **{f"{name}.s": "s" for name in (
        "kernels.count_injective", "kernels.canonical_mask",
        "kernels.triangle_free_canonical_masks", "oracle.find_maximizers",
        "oracle.is_complete_bipartite", "oracle.canonical_form",
        "embeddings.count_embeddings", "embeddings.h_degrees", "embeddings.count_copies",
        "embeddings.count_automorphisms", "blowup.weighted_hom_sum",
        "blowup.optimize_weights", "blowup.leading_coefficient",
        "bounds.edge_bound_check", "bounds.thm1_sweep", "bounds.solve_theorem2_params",
        "bounds.theorem2_end_to_end", "cli.render")},
    "oracle.hosts_enumerated": "count", "oracle.enum_canonical_forms": "count",
    "oracle.enum_yield": "ratio", "oracle.hosts_scored": "count",
    "embeddings.searches_per_count": "count", "bounds.cert_max_bits": "bits",
    "cli.process_s": "s", "cli.import_s": "s", "cli.stdout_bytes": "bytes",
    "fanout.pools": "count", "fanout.tasks": "count", "fanout.s": "s",
    "trace_overhead_frac": "ratio",
    "cmd.search_s": "s", "cmd.count_s": "s", "cmd.verify_s": "s", "cmd.optimize_s": "s",
    "cmd.failed_frac": "ratio",
}


@dataclass
class Outcome:
    cmd_id: str
    subcommand: str
    exit_code: int
    wall_s: float
    rss_kb: int
    stdout: bytes
    stderr_first: str
    failure: str | None = None       # exit 1, exit 2, crash, timeout, failed check
    detail: str = ""

    def record(self) -> dict:
        return {"id": self.cmd_id, "exit": self.exit_code, "wall_s": self.wall_s,
                "rss_kb": self.rss_kb, "stdout_sha256": hashlib.sha256(self.stdout).hexdigest(),
                "stdout_bytes": len(self.stdout), "failure": self.failure,
                "detail": self.detail, "stderr_first_line": self.stderr_first}


@dataclass
class Pass:
    traced: bool
    wall_s: float
    outcomes: list[Outcome]
    trace_dir: str | None = None


class Runner:
    def __init__(self, root: str, run_dir: str):
        self.root = root
        self.run_dir = run_dir
        self.inputs = os.path.join(run_dir, "inputs")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env.pop("EXTREMAL_COUNT_WORKERS", None)

    def start_launcher(self) -> None:
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def stop_launcher(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=COMMAND_TIMEOUT_S)
        self.launcher.stdout.close()

    def spawn(self, argv: list[str], env: dict | None = None) -> Outcome:
        """Run one process in the input directory through the launcher,
        with a timeout; the process and anything it started are gone when
        this returns."""
        out_path = os.path.join(self.run_dir, "stdout.tmp")
        err_path = os.path.join(self.run_dir, "stderr.tmp")
        request = {"argv": argv, "cwd": self.inputs, "env": env or self.env,
                   "timeout": COMMAND_TIMEOUT_S, "stdout": out_path, "stderr": err_path}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        first = next((line for line in stderr.splitlines() if line.strip()), "")
        code = reply["exit"]
        outcome = Outcome("", "", code, reply["wall_s"], reply["rss_kb"], stdout, first)
        if reply["timed_out"]:
            outcome.failure = "timeout"
        elif code == 1 and "Traceback (most recent call last)" in stderr:
            outcome.failure = "crash"
        elif code in (1, 2):
            outcome.failure = f"exit {code}"
        elif code != 0:
            outcome.failure = "crash"
        return outcome

    def cli(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "extremal_count.cli", *args]

    def setup(self, plan) -> tuple[float, str]:
        """Generate the inputs and import the package once; returns the
        seconds taken and the kernel backend the import selected."""
        shutil.rmtree(self.inputs, ignore_errors=True)
        os.makedirs(self.inputs)
        start = time.perf_counter()
        for gen in plan.gens:
            result = self.spawn(self.cli(["gen", *gen]))
            if result.failure:
                raise RuntimeError(f"gen {' '.join(gen)} failed: {result.stderr_first}")
        for name, text in plan.files.items():
            with open(os.path.join(self.inputs, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        probe = self.spawn([sys.executable, "-c",
                            "import extremal_count; print(extremal_count.BACKEND)"])
        seconds = time.perf_counter() - start
        if probe.failure:
            raise RuntimeError(f"import extremal_count failed: {probe.stderr_first}")
        return seconds, probe.stdout.decode().strip()

    def run_pass(self, commands, traced: bool, index: int) -> Pass:
        trace_dir = None
        if traced:
            trace_dir = os.path.join(self.run_dir, "trace", f"pass{index}")
            os.makedirs(trace_dir)
        outcomes = []
        start = time.perf_counter()
        for cmd in commands:
            if traced:
                env = dict(self.env, PERFBENCH_TRACE_DIR=trace_dir, PERFBENCH_CMD=cmd.id)
                outcome = self.spawn([sys.executable, os.path.join(HERE, "traced_cli.py"),
                                      *cmd.argv], env)
            else:
                outcome = self.spawn(self.cli(cmd.argv))
            outcome.cmd_id, outcome.subcommand = cmd.id, cmd.subcommand
            outcomes.append(outcome)
        return Pass(traced, time.perf_counter() - start, outcomes, trace_dir)


class Checker:
    """Checks each distinct output once; also requires every command to
    print the same bytes on every pass, and paired commands to agree."""

    def __init__(self, root: str, inputs: str, commands):
        self.naive = checks.naive_oracles(root)
        self.inputs = inputs
        self.commands = {c.id: c for c in commands}
        self.first_stdout: dict[str, bytes] = {}

    def read(self, name: str) -> str:
        with open(os.path.join(self.inputs, name), encoding="utf-8") as fh:
            return fh.read()

    def check_pass(self, p: Pass) -> None:
        by_id = {o.cmd_id: o for o in p.outcomes}
        for o in p.outcomes:
            if o.failure:
                continue
            cmd = self.commands[o.cmd_id]
            try:
                if o.cmd_id in self.first_stdout:
                    checks.expect(o.stdout == self.first_stdout[o.cmd_id],
                                  "stdout differs from the first pass")
                else:
                    cmd.check(o.stdout, self)
                    self.first_stdout[o.cmd_id] = o.stdout
                twin = by_id.get(cmd.same_stdout_as)
                if twin is not None and not twin.failure:
                    checks.expect(o.stdout == twin.stdout,
                                  f"stdout differs from {cmd.same_stdout_as}")
            except CHECKED_ERRORS as exc:
                o.failure, o.detail = "failed check", f"{type(exc).__name__}: {exc}"


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _git_commit(root: str) -> str | None:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _median_of(dicts: list[dict]) -> dict:
    keys = dicts[0].keys()
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def _untraced_metrics(passes: list[Pass]) -> dict:
    per_pass = []
    for p in passes:
        m = {f"cmd.{sub}_s": sum(o.wall_s for o in p.outcomes if o.subcommand == sub)
             for sub in ("search", "count", "verify", "optimize")}
        m["cmd.failed_frac"] = sum(1 for o in p.outcomes if o.failure) / len(p.outcomes)
        per_pass.append(m)
    return _median_of(per_pass)


def _traced_metrics(p: Pass, backend: str) -> dict:
    records = spans.read_spans(p.trace_dir)
    count_cmds = {o.cmd_id for o in p.outcomes if o.subcommand == "count"}
    m = spans.layer_metrics(records, backend, count_cmds)
    main_s = {r["cmd"]: r["end"] - r["start"] for r in records if r["name"] == "cli.main"}
    m["cli.process_s"] = sum(o.wall_s - main_s.get(o.cmd_id, 0.0) for o in p.outcomes)
    m["cli.stdout_bytes"] = sum(len(o.stdout) for o in p.outcomes)
    bits = 0
    for o in p.outcomes:
        if o.subcommand == "verify" and not o.failure:
            bits = max(bits, checks.max_bits(json.loads(o.stdout)))
    m["bounds.cert_max_bits"] = bits
    return m


def _kernel_equality_check(runner: Runner) -> str | None:
    """With the compiled backend, rerun the compiled-vs-pure equality
    assertions of benchmarks/bench_kernels.py; returns a problem or None."""
    env = dict(runner.env)
    env["PYTHONPATH"] += os.pathsep + os.path.join(runner.root, "benchmarks")
    result = runner.spawn([sys.executable, "-c",
                           "import bench_kernels as b; b.bench_count(1); "
                           "b.bench_canonical(1); b.bench_enumeration(1, 6)"], env)
    if result.failure:
        return f"compiled and pure kernels disagree: {result.stderr_first}"
    return None


def _measure(runner: Runner, plan, args):
    """Set up SETUP_REPEATS times, then run and check rounds of passes
    (untraced, or untraced and traced in turn) for about `args.seconds`.
    Returns (setup seconds, backend, passes, problems)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, backend = runner.setup(plan)
        setups.append(seconds)
    checker = Checker(runner.root, runner.inputs, plan.commands)
    modes = (False, True) if args.trace else (False,)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in modes:
            p = runner.run_pass(plan.commands, traced, len(passes))
            checker.check_pass(p)
            passes.append(p)
        # Stop when another round would end more than half a round past
        # the deadline, so that runs last `seconds` on average.
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 > args.seconds:
            break
    problems = [f"{o.cmd_id}: {o.detail}" for p in passes for o in p.outcomes
                if o.failure == "failed check"]
    if args.trace and backend == "compiled":
        problem = _kernel_equality_check(runner)
        if problem:
            problems.append(problem)
    return setups, backend, passes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="extremal-count CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "extremal_count", "cli.py")):
        print("error: run from the root of an extremal-count checkout "
              "(src/extremal_count/cli.py not found)", file=sys.stderr)
        return 2

    run_dir = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(root, run_dir)
    plan = make_plan(args.workload, args.seed)
    runner.start_launcher()
    try:
        setups, backend, passes, problems = _measure(runner, plan, args)
    finally:
        runner.stop_launcher()

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(1 for p in passes for o in p.outcomes if o.failure)
    if args.trace:
        metrics = _median_of([_traced_metrics(p, backend) for p in traced])
        metrics.update(_untraced_metrics(untraced))
        metrics["trace_overhead_frac"] = (statistics.median(p.wall_s for p in traced)
                                          / statistics.median(p.wall_s for p in untraced) - 1)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(max(o.rss_kb for o in p.outcomes)
                                             for p in passes) / 1024,
            "ok_frac": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload, "why": WORKLOADS[args.workload].why,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "backend": backend, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "inputs_sha256": {name: _sha256_file(os.path.join(runner.inputs, name))
                          for name in sorted(os.listdir(runner.inputs))},
        "setup_s": setups,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "commands": [o.record() for o in p.outcomes]} for p in passes],
        "problems": problems, "metrics": metrics,
    }
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  backend {backend}  "
          f"passes: {len(untraced)} untraced, {len(traced)} traced")
    for o in passes[0].outcomes:
        if o.failure:
            print(f"failed: {o.cmd_id} ({o.failure}) {o.detail or o.stderr_first}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"failed_frac = {failed / attempted:.4f} ({failed} of {attempted} commands)")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
