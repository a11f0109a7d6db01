"""The ladder benchmark: one seeded, oracle-checked command.

    python3 benchmarks/ladder/run.py                     # four workloads, end to end
    python3 benchmarks/ladder/run.py --trace 1           # the per-layer (traced) run
    python3 benchmarks/ladder/run.py --workload wire-hot --seed 7 --seconds 10 --trace 0
    python3 benchmarks/ladder/run.py --repeat 5          # spread next to each bound
    python3 benchmarks/ladder/run.py --smoke             # 2 000 documents, one round

A single-workload run prints its metrics by name and unit, then one
JSON object on the last line: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end set with ``--trace 0``, the per-layer
set with ``--trace 1``).  It exits non-zero when any check failed.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import ladder_api as api  # noqa: E402 - needs HERE on the path
import ladder_inputs as inputs  # noqa: E402
from ladder_workloads import IGNORED_ENV, Profile, Run, end_to_end  # noqa: E402

FULL_DOCS = 60_000
SMOKE = Profile(docs=2000, rounds=1, seconds=1.5)
Metrics = Dict[str, Tuple[float, str]]


def load_json(path: str) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout has none, and ``git`` itself would look above it)."""
    git = os.path.join(api.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def provenance(run: Run, spec: Dict) -> Dict:
    service = api.ServiceConfig()
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": api.np.__version__,
        "git_sha": git_sha(),
        "corpus_docs": run.profile.docs,
        "seed": run.seed,
        "engine": "default (vector)",
        "cache_capacity": service.cache_capacity,
        "scale_factor": run.profile.seconds / inputs.NOMINAL_SECONDS,
        "rounds": run.profile.rounds,
        "connections": inputs.CONNECTIONS,
        "calib_ref_s": run.pins["calib_ref_s"],
        "sha256": run.digests,
        "command": spec["command"],
    }


def run_one(args, spec: Dict, pins: Dict) -> int:
    """One workload, traced or not; returns the exit code."""
    profile = SMOKE if args.smoke else Profile(FULL_DOCS, inputs.ROUNDS, args.seconds)
    os.makedirs(args.out, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=args.out)
    try:
        run = Run(args.workload, args.seed, profile, pins, args.out, tmp)
        if args.trace:
            from ladder_trace import per_layer

            metrics, attempted, failed, notes = per_layer(run)
            declared, rounds = spec["per_layer"], []
        else:
            metrics, outcome = end_to_end(run)
            attempted, failed, notes = outcome.attempted, outcome.failed, outcome.notes
            declared, rounds = spec["end_to_end"], outcome.rounds
        result = report(run, spec, declared, metrics, attempted, failed, notes)
        stem = os.path.join(args.out, f"{args.workload}-trace{args.trace}")
        run.tracer.write(stem + ".spans.jsonl")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"result": result, "notes": notes, "rounds": rounds,
                       "provenance": provenance(run, spec)}, fh, indent=2)
            fh.write("\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(run: Run, spec: Dict, declared: List[Dict], metrics: Metrics,
           attempted: int, failed: int, notes: Dict[str, float]) -> Dict:
    """Print every metric by name and unit; build the result object."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            f"ladder: BENCHMARK.json and the run disagree on metrics: "
            f"{sorted(set(names) ^ set(metrics))}"
        )
    print(f"# {run.workload}  seed={run.seed}  docs={run.profile.docs}  "
          f"rounds={run.profile.rounds}  "
          f"scale={run.profile.seconds / inputs.NOMINAL_SECONDS:.3f}")
    for name in names:
        value, unit = metrics[name]
        print(f"{name:42s} {value:14.4f} {unit}")
    for name in sorted(notes):
        print(f"  ({name} = {notes[name]:.4f})")
    print(f"failed_ratio {failed / attempted:.6f}  ({failed} of {attempted})")
    print("provenance " + json.dumps(provenance(run, spec), sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in names
        },
    }


# ----------------------------------------------------------------------
# Many runs: --workload all, --repeat
# ----------------------------------------------------------------------
def child(args, workload: str, seed: int) -> Optional[Dict]:
    """One single-workload run in its own process (own peak RSS, own
    caches); its report goes to stderr, its result comes back."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", args.out]
    if args.smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def run_many(args, spec: Dict) -> int:
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    ok = True
    for workload in workloads:
        results = []
        for i in range(args.repeat):
            result = child(args, workload, args.seed + (i if args.vary_seed else 0))
            ok = ok and result is not None and result["correct"]
            if result is not None:
                results.append(result)
        if not results:
            continue
        print(f"== {workload}: {len(results)} run(s) ==")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            line = f"{name:42s} median {statistics.median(values):14.4f} {unit}"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                mid = statistics.median(values)
                line += (f"  q1 {q1:.4f} q3 {q3:.4f}  iqr/median "
                         f"{(q3 - q1) / mid if mid else 0.0:.4f}  (max-min)/median "
                         f"{(max(values) - min(values)) / mid if mid else 0.0:.4f}")
                if bounds[name] is not None:
                    line += f"  bound {bounds[name]}"
            print(line)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"failed_ratio {failed / attempted:.6f}  ({failed} of {attempted})")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_json(os.path.join(api.ROOT, "BENCHMARK.json"))
    pins = load_json(os.path.join(HERE, "pinned.json"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=pins["seed"])
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="nominal length of the timed phase; op counts "
                        "are the issue's counts times seconds / 37.5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="2 000 documents, one round: a self-test, not a measurement")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run N times; print median, quartiles and spread")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: run i uses seed + i")
    parser.add_argument("--out", default=os.path.join(api.ROOT, ".ladder_out"),
                        help="server logs, spans, results; scratch files live "
                        "in a temporary directory under it, removed at exit")
    args = parser.parse_args(argv)
    for name in IGNORED_ENV:
        os.environ.pop(name, None)

    def terminate(signum, frame):
        raise SystemExit(128 + signum)  # unwinds through every finally

    signal.signal(signal.SIGTERM, terminate)
    if args.workload == "all" or args.repeat > 1:
        return run_many(args, spec)
    return run_one(args, spec, pins)


if __name__ == "__main__":
    sys.exit(main())
