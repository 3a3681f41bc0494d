"""One measurement session in a fresh interpreter; started by run.py.

    python3 perfbench/session.py --workload NAME --seed N --seconds S
        --mode {timed,traced} --workers W --out DIR --result FILE

Imports ggp from the checkout's `src`, calls `ggp.cli.main(["run", ...])`
on generated configs, gates every run's records, and writes a JSON result
for run.py. Running in its own process keeps the setup probes out of this
process's peak RSS and the pool workers inside its RUSAGE_CHILDREN.

timed:  the first run warms up; then runs until S seconds have passed,
        repetition i on seed N * 1000 + i, at W workers, untraced.
traced: on seed N * 1000: one untraced run at W workers, one untraced
        warm-up run at one worker, then pairs of an untraced and a traced
        run at one worker until S seconds have passed, then one untraced
        run on the pinned reference seed. All records of
        seed N * 1000 must be byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

import ggp.cli  # noqa: E402
import gate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_TIMED_RUNS = 3
SESSION_LIMIT_S = 100.0  # stop repeating past this, so the session ends well inside 180 s
REFERENCE_SEED = 0
REFERENCE_DIGESTS = HERE / "reference_sha256.json"


def repetition_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


@dataclass
class Outcome:
    elapsed: float
    gate: gate.GateResult
    sha256: str
    records_bytes: int
    tracer: Tracer | None


def run_once(workload, seed: int, workers: int, workdir: Path, tracer: Tracer | None = None):
    """One `ggp run` on a generated config; gates its records and removes its files."""
    workdir.mkdir(parents=True)
    config = workload.generated_config(seed, workers)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config))
    argv = ["run", "--config", str(config_path), "--out", str(workdir)]
    sink = io.StringIO()
    exit_code = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is None:
                exit_code = ggp.cli.main(argv)
            else:
                with tracer.installed(), tracer.span("cli.main", "cli"):
                    exit_code = ggp.cli.main(argv)
    except Exception:  # the program crashed: every replication of the run fails
        sink.write(traceback.format_exc())
    elapsed = time.perf_counter() - t0

    records = workdir / f"{config['experiment']}_records.csv"
    result = gate.check(workload, config, str(records))
    if exit_code not in (0, 1):
        result.fail(f"exit code {exit_code}: {sink.getvalue()[-2000:]}", whole_run=True)
    data = records.read_bytes() if records.is_file() else b""
    shutil.rmtree(workdir)
    return Outcome(elapsed, result, hashlib.sha256(data).hexdigest(), len(data), tracer)


class Session:
    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.out = Path(args.out)
        self.outcomes: list[Outcome] = []
        self.started = time.perf_counter()

    def run(self, seed: int, workers: int, tracer: Tracer | None = None) -> Outcome:
        outcome = run_once(self.workload, seed, workers, self.out / f"run{len(self.outcomes)}",
                           tracer)
        self.outcomes.append(outcome)
        return outcome

    def keep_going(self, measure_start: float, runs: int, min_runs: int) -> bool:
        now = time.perf_counter()
        if now - self.started > SESSION_LIMIT_S:
            return False
        return runs < min_runs or now - measure_start < self.args.seconds

    def timed(self) -> dict:
        seed, workers = self.args.seed, self.args.workers
        self.run(repetition_seed(seed, 0), workers)  # warm-up, gated but not timed
        run_s = []
        start = time.perf_counter()
        while self.keep_going(start, len(run_s), MIN_TIMED_RUNS):
            run_s.append(self.run(repetition_seed(seed, len(run_s) + 1), workers).elapsed)
        return {"run_s": run_s}

    def traced(self) -> dict:
        seed = repetition_seed(self.args.seed, 0)
        first = self.run(seed, self.args.workers)
        warm = self.run(seed, 1)  # warms this process, which the pool workers did not
        untraced, traced = [], []
        start = time.perf_counter()
        while self.keep_going(start, len(traced), 1):
            traced_first = len(traced) % 2 == 1  # alternate the order within pairs
            if traced_first:
                traced.append(self.run(seed, 1, Tracer()))
            untraced.append(self.run(seed, 1))
            if not traced_first:
                traced.append(self.run(seed, 1, Tracer()))
        if len({o.sha256 for o in [first, warm, *untraced, *traced]}) != 1:
            first.gate.problems.append(
                "records differ between untraced and traced runs or between worker counts")
        reference = self.run(REFERENCE_SEED, self.args.workers)
        expected = json.loads(REFERENCE_DIGESTS.read_text()).get(self.workload.name)
        return {
            "untraced_w1_run_s": [o.elapsed for o in untraced],
            "traced_run_s": [o.elapsed for o in traced],
            "layers": [o.tracer.layer_metrics() for o in traced],
            "called": sorted(set.union(*(o.tracer.called() for o in traced))),
            "spans": traced[-1].tracer.to_json(),
            "records_bytes": first.records_bytes,
            "reference_sha256": reference.sha256,
            "records_identical": int(reference.sha256 == expected),
        }

    def summary(self, measured: dict) -> dict:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        gates = [o.gate for o in self.outcomes]
        return dict(
            measured,
            attempted=sum(g.attempted for g in gates),
            skipped=sum(g.skipped for g in gates),
            failed=sum(g.failed for g in gates),
            problems=[p for g in gates for p in g.problems][:20],
            peak_rss_mb=max(own, children) / 1024.0,
            versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__},
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "traced"))
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    if not Path(ggp.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"ggp imported from {ggp.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    session = Session(args)
    measured = session.timed() if args.mode == "timed" else session.traced()
    Path(args.result).write_text(json.dumps(session.summary(measured)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
