"""Benchmark of the ggp lab: time-to-verdict on four pinned experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/ggp`; `--workload all`
(the default) runs every workload in turn. Every metric is printed as
`metric <name> <value> <unit>`, and the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is 1 when the correctness gate fails and 2 when the benchmark cannot run.

--trace 0 reports the end-to-end metrics of untraced runs at
min(2, nproc) workers; --trace 1 reports per-layer metrics from runs at one
worker traced by perfbench/tracer.py. Metric names, units and bounds live in
BENCHMARK.json; perfbench/README.md says which metric each layer moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
SESSION_TIMEOUT_S = 150.0

# A fresh interpreter imports the CLI and parses the generated config.
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import ggp.cli; "
    "ggp.cli.parse_config(open(sys.argv[2]).read()); print('ready', flush=True)"
)


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to the program being wrong)."""


def setup_seconds(config_path: Path) -> float:
    """Median wall time from process start until the parsed config is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.Popen([sys.executable, "-c", PROBE, str(SRC), str(config_path)],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = probe.stdout.readline().strip()
        times.append(time.perf_counter() - t0)
        _, err = probe.communicate(timeout=60)
        if line != "ready" or probe.returncode != 0:
            raise BenchmarkError(f"setup probe failed: {err.strip()[-2000:]}")
    return median(times)


def run_session(workload: str, seed: int, seconds: float, mode: str, workers: int,
                out: Path) -> dict:
    result = out / f"{mode}.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "session.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--workers", str(workers), "--out", str(out / mode), "--result", str(result)]
    # Own session, so a timeout can stop the pool workers along with the session.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchmarkError(f"{mode} session exceeded {SESSION_TIMEOUT_S:.0f} s")
    if code != 0 or not result.is_file():
        raise BenchmarkError(f"{mode} session exited with {code}")
    return json.loads(result.read_text())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ggp").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def end_to_end(session: dict, setup_s: float) -> dict:
    lost = session["skipped"] + session["failed"]
    return {
        "run_s": median(session["run_s"]),
        "setup_s": setup_s,
        "peak_rss_mb": session["peak_rss_mb"],
        "completed_ratio": 1.0 - lost / session["attempted"],
    }


def per_layer(session: dict, busy: tuple) -> tuple[dict, list]:
    """Median per-layer metrics over the traced runs, and the layers reported missing."""
    layers = session["layers"]
    # Times are medians over the traced runs; counts repeat exactly at one seed.
    metrics = {name: median([m[name] for m in layers]) if name.endswith("_s") else value
               for name, value in layers[0].items()}
    traced = [t - m["hull.qhull_ref_s"] for t, m in zip(session["traced_run_s"], layers)]
    metrics["cli.records_bytes"] = session["records_bytes"]
    metrics["cli.records_identical"] = session["records_identical"]
    metrics["trace.overhead_s"] = median(traced) - median(session["untraced_w1_run_s"])
    missing = [name for name in busy if name not in session["called"]]
    gone = {name.split(".")[0] for name in missing}
    metrics = {k: v for k, v in metrics.items() if k.split(".")[0] not in gone}
    shares = {k.split(".")[0]: v / median(traced) for k, v in metrics.items()
              if k.endswith((".busy_s", ".self_s"))}
    print("split of traced run_s: " + " ".join(f"{k}={100 * v:.1f}%" for k, v in shares.items()),
          file=sys.stderr)
    return metrics, missing


def measure(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    workers = min(2, os.cpu_count() or 1)
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = out / "config.json"
    config_path.write_text(json.dumps(workload.generated_config(seed, workers)))

    missing = []
    if trace:
        session = run_session(name, seed, seconds, "traced", workers, out)
        metrics, missing = per_layer(session, workload.busy)
        listed = spec["per_layer"]
    else:
        setup_s = setup_seconds(config_path)
        session = run_session(name, seed, seconds, "timed", workers, out)
        metrics = end_to_end(session, setup_s)
        listed = spec["end_to_end"]
    env = dict(workload=name, seed=seed, reps=workload.reps, workers=workers,
               nproc=os.cpu_count(), **session["versions"], git_commit=git_commit(),
               src_sha256=source_digest())
    units = {m["name"]: m["unit"] for m in listed}
    report = {
        "env": env,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "missing": missing,
        "attempted": session["attempted"],
        "failed": session["failed"],
        "problems": session["problems"],
    }
    if trace:
        report["spans"] = session["spans"]
    (out / "report.json").write_text(json.dumps(report))

    print("env " + json.dumps(env, sort_keys=True))
    for k, m in report["metrics"].items():
        print(f"metric {k} {m['value']!r} {m['unit']}")
    for fn in missing:
        print(f"missing: {fn} recorded no call, so its layer's metrics are not reported",
              file=sys.stderr)
    for problem in report["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ggp" / "__init__.py").is_file():
        print(f"error: no ggp package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = {n: measure(n, args.seed, args.seconds, bool(args.trace), spec)
                   for n in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(not r["problems"] and not r["failed"] for r in reports.values())
    if len(names) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in reports.items() for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
