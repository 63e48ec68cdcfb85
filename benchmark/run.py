"""Reasoner benchmark: one workload, one seed, one result line.

    python3 benchmark/run.py --workload t5-race --seed 1 --seconds 50 --trace 0

Runs the workload in a child process (child.py) under a wall-clock limit,
checks every answer against its independent reference, and prints each
metric by name with its unit, then one JSON object as the last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  The
end-to-end times are scaled to a reference machine speed (speed.py).  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time

import speed
from spans import LAYER_UNITS, OP_LIMIT_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("bulk-materialise", "t5-race")
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail(walls: list[float]) -> tuple[int, float]:
    """(percentile, value) of the highest whole percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    if len(walls) <= TAIL_BEYOND:
        return 100, max(walls)
    cuts = statistics.quantiles(walls, n=100, method="inclusive")
    for p in range(99, 0, -1):
        if sum(w > cuts[p - 1] for w in walls) >= TAIL_BEYOND:
            return p, cuts[p - 1]
    return 0, min(walls)


class Tally:
    """Outcome of a run, built from the child's events."""

    def __init__(self):
        self.setups: dict[int, list[float]] = {}  # instance -> its set-ups
        self.runs: dict[int, list[float]] = {}  # op index -> its plain runs that succeeded
        self.references: list[float] = []  # times of speed.reference
        self.reference_threads = 1
        self.left_running = 0  # most reasoner threads alive at a reference loop
        self.untimed: dict[int, float] = {}  # ops kept out of the metrics
        self.ops: dict[int, bool] = {}  # op index -> every phase ok
        self.wrong = 0
        self.checks_failed = 0
        self.errors: list[str] = []
        self.fact_types: dict[str, int] = {}
        self.layers: dict | None = None
        self.done = False
        self.lost = 0  # operations cut off by a stall or a crash

    def add(self, ev: dict):
        kind = ev["ev"]
        if kind == "setup":
            if ev["timed"]:
                self.setups.setdefault(ev["instance"], []).append(ev["wall"])
        elif kind == "reference":
            self.references.append(ev["wall"])
            self.reference_threads = ev["threads"]
            self.left_running = max(self.left_running, ev["left_running"])
        elif kind == "op":
            op = ev["op"]
            ft = ev.get("fact_type")
            if ft and op not in self.ops:
                self.fact_types[ft] = self.fact_types.get(ft, 0) + 1
            self.ops[op] = self.ops.get(op, True) and ev["ok"]
            self.wrong += ev["wrong"]
            # a failed operation's time is no latency: failing fast must not
            # read as a speed-up
            if ev["ok"] and not ev["traced"]:
                if ev["timed"]:
                    self.runs.setdefault(op, []).append(ev["wall"])
                else:
                    self.untimed[op] = ev["wall"]
            if ev["error"]:
                self.errors.append(ev["error"])
        elif kind == "check":
            if not ev["ok"]:
                self.checks_failed += 1
                self.errors.append(ev["detail"])
        elif kind == "layers":
            self.layers = ev["metrics"]
        elif kind == "done":
            self.done = True

    @property
    def walls(self) -> list[float]:
        """Every plain run that succeeded, of every operation."""
        return [wall for runs in self.runs.values() for wall in runs]

    @property
    def op_walls(self) -> list[float]:
        """Each operation's median plain run."""
        return [statistics.median(runs) for runs in self.runs.values()]

    @property
    def setup_walls(self) -> list[float]:
        """Each instance's median set-up."""
        return [statistics.median(runs) for runs in self.setups.values()]

    @property
    def attempted(self) -> int:
        return len(self.ops) + self.lost

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.ops.values()) + self.lost

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.checks_failed == 0 and self.failed == 0


def supervise(cmd: list[str], tally: Tally) -> None:
    """Run the child, feeding its events to `tally`; kill it when it stalls
    for longer than OP_LIMIT_S or runs past RUN_LIMIT_S."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines: queue.Queue = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    stop = time.monotonic() + RUN_LIMIT_S
    try:
        while True:
            wait = min(OP_LIMIT_S, stop - time.monotonic())
            try:
                line = lines.get(timeout=max(wait, 0.0))
            except queue.Empty:
                tally.lost += 1
                tally.errors.append(f"no progress for {wait:.0f} s: operation over the wall limit")
                break
            if line is None:
                break
            tally.add(json.loads(line))
    finally:
        try:
            proc.wait(timeout=5 if tally.done else 0.01)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
    if not tally.done and not tally.lost:
        tally.lost += 1
        tally.errors.append(f"workload process ended early with code {proc.returncode}")


def speed_scale(tally: Tally) -> float:
    """Factor that turns this run's seconds into seconds of a machine on
    which the reference loop takes speed.REFERENCE_S."""
    return speed.REFERENCE_S[tally.reference_threads] / statistics.median(tally.references)


def end_to_end(tally: Tally, peak_rss_mb: float, scale: float) -> dict[str, float]:
    walls = tally.walls
    return {
        "setup_s": statistics.median(tally.setup_walls) * scale,
        "latency_p50_s": statistics.median(walls) * scale,
        # over operations, not runs: a run's own noise would set the tail
        "latency_tail_s": tail(tally.op_walls)[1] * scale,
        "ops_per_s": len(walls) / (sum(walls) * scale),
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "datalogmtl", "__init__.py")):
        print("error: the reasoner's sources (src/datalogmtl) are not in this checkout", file=sys.stderr)
        return 2

    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    tally = Tally()
    supervise(cmd, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    if not tally.walls or not tally.setups or not tally.references or (args.trace and tally.layers is None):
        for e in tally.errors:
            print(f"error: {e}", file=sys.stderr)
        print("error: the workload completed no operation", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {k: (v, LAYER_UNITS[k]) for k, v in tally.layers.items()}
    else:
        scale = speed_scale(tally)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(tally, peak_rss_mb, scale).items()}

    n = len(tally.op_walls)
    p, cut = tail(tally.op_walls)
    beyond = sum(w > cut for w in tally.op_walls)
    print(
        f"workload {args.workload} seed {args.seed}: {n} timed operations, {len(tally.walls)} timed runs of them, "
        f"{len(tally.setups)} instances set up"
    )
    print(f"latency_p50_s is over {len(tally.walls)} runs; latency_tail_s is p{p} over {n} operations, {beyond} beyond it")
    print(f"failed_share {tally.failed_share:.4f} ({tally.failed} of {tally.attempted})")
    ref = statistics.median(tally.references)
    print(
        f"reference loop on {tally.reference_threads} thread(s): median {ref:.4f} s over {len(tally.references)} "
        f"samples; times scaled by {speed.REFERENCE_S[tally.reference_threads]} / {ref:.4f}"
    )
    if tally.left_running:
        print(f"warning: up to {tally.left_running} reasoner thread(s) ran during the reference loop")
    print(
        f"unscaled: setup_s {statistics.median(tally.setup_walls):.6g} "
        f"latency_p50_s {statistics.median(tally.walls):.6g} latency_tail_s {cut:.6g}"
    )
    for op, wall in tally.untimed.items():
        print(f"operation {op} (answered once, not in the metrics) took {wall:.3f} s")
    if tally.fact_types:
        print("fact types " + " ".join(f"{k}={v}" for k, v in sorted(tally.fact_types.items())))
    for e in tally.errors[:20]:
        print(f"failure: {e}")
    for k, (v, unit) in metrics.items():
        print(f"{k} {v:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
