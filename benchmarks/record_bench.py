"""Record the end-to-end benchmark of one or more checkouts in a JSON file.

    python3 benchmarks/record_bench.py --seeds 1-10 --seconds 30 \
        --out BENCH_N.json parent=PATH change=.

Each LABEL=PATH names a checkout.  For every seed and every workload of
BENCHMARK.json, `perfbench/run.py` runs once in each checkout, the
checkouts taking turns to go first from one seed to the next, so that a
drift in the machine's load falls on both sides alike.  The file records,
per label, the commit, backend and Python version, and per workload the
median and quartiles of each end-to-end metric over the seeds, each seed's
value, whether every output check passed, and each command's median wall
time.  With two or more labels it also records, per workload, how many
seeds the last label beat the first on for each metric, and whether every
command printed the same bytes in every checkout at every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 3600


def seed_list(text: str) -> list[int]:
    """"1-10" or "1,3,5" (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def checkout(text: str) -> tuple[str, str]:
    label, sep, path = text.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    return label, os.path.abspath(path)


def run_once(path: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in the checkout at `path`: its result
    line and the record it wrote."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=path, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"perfbench in {path} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(path, ".perfbench_run",
                               f"{workload}-seed{seed}-trace0", "record.json")
    with open(record_path, encoding="utf-8") as fh:
        return {"result": result, "record": json.load(fh)}


def git_commit(path: str) -> str | None:
    """HEAD of the checkout, with "-dirty" when tracked files differ from
    it, or None outside a git work tree."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=path, check=True,
                              capture_output=True, text=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=path, check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if status.strip() else "")


def summarize(runs: list[dict], metrics: list[str]) -> dict:
    """Medians, quartiles and per-seed values of one label's runs of one
    workload, in seed order."""
    values = {m: [r["result"]["metrics"][m]["value"] for r in runs] for m in metrics}
    walls: dict[str, list[float]] = {}
    for r in runs:
        for p in r["record"]["passes"]:
            for c in p["commands"]:
                walls.setdefault(c["id"], []).append(c["wall_s"])
    return {
        "median": {m: statistics.median(v) for m, v in values.items()},
        "quartiles": {m: _quartiles(v) for m, v in values.items()},
        "per_seed": values,
        "correct": all(r["result"]["correct"] for r in runs),
        "command_wall_s": {c: statistics.median(w) for c, w in sorted(walls.items())},
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


def stdout_digests(run: dict) -> dict[str, set[str]]:
    digests: dict[str, set[str]] = {}
    for p in run["record"]["passes"]:
        for c in p["commands"]:
            digests.setdefault(c["id"], set()).add(c["stdout_sha256"])
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=checkout, metavar="LABEL=PATH")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    labels = [label for label, _ in args.checkouts]

    runs = {(label, w): [] for label in labels for w in workloads}
    for i, seed in enumerate(args.seeds):
        order = args.checkouts if i % 2 == 0 else args.checkouts[::-1]
        for w in workloads:
            for label, path in order:
                run = run_once(path, w, seed, args.seconds)
                runs[label, w].append(run)
                wall = run["result"]["metrics"]["wall_s"]["value"]
                print(f"seed {seed} {w} {label}: wall_s {wall:.3f}", flush=True)

    out = {"benchmark": bench["command"], "seconds": args.seconds,
           "seeds": args.seeds, "python": platform.python_version(),
           "nproc": os.cpu_count(), "labels": {}}
    for label, path in args.checkouts:
        first = runs[label, workloads[0]][0]["record"]
        out["labels"][label] = {
            "commit": git_commit(path), "backend": first["backend"],
            "python": first["python"],
            "workloads": {w: summarize(runs[label, w], metrics) for w in workloads},
        }
    if len(labels) > 1:
        base, last = labels[0], labels[-1]
        out["comparison"] = {"base": base, "change": last, "workloads": {}}
        for w in workloads:
            wins = {}
            for m in metrics:
                sign = 1 if better[m] == "lower" else -1
                wins[m] = sum(sign * (b - a) < 0 for a, b in zip(
                    out["labels"][base]["workloads"][w]["per_seed"][m],
                    out["labels"][last]["workloads"][w]["per_seed"][m]))
            identical = all(
                len(set().union(*(stdout_digests(runs[label, w][k]).get(cmd, set())
                                  for label in labels))) == 1
                for k in range(len(args.seeds))
                for cmd in stdout_digests(runs[base, w][k]))
            out["comparison"]["workloads"][w] = {"seeds_won": wins,
                                                 "stdout_identical": identical}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w in workloads:
        row = "  ".join(f"{label} {out['labels'][label]['workloads'][w]['median']['wall_s']:.3f}"
                        for label in labels)
        print(f"{w}: median wall_s  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
