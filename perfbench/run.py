"""systolicsim benchmark: one workload through the public CLI, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
Each CLI command runs in a fresh child process, one at a time, writing into
a temporary directory under ``.perfbench_work/`` that is deleted after every
iteration.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 runs the workload once untraced and once under ``tracer.py`` and
reports the per-layer split; see README.md for every metric's definition.

The inputs are fixed bundled topologies: ``--seed`` is recorded but selects
nothing, so every seed runs the same inputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "systolicsim"
DATA = PACKAGE / "data"
WORK = ROOT / ".perfbench_work"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("resnet50_traces", "conv1_8x8", "memory_ladder")
SRAM_LADDER_KB = "32,64,128,256,512,1024,2048"
SETUP_STARTS = 9
DEADLINE_S = 170.0          # every child is killed past this point of the run
SRAM_COLUMNS = ("sram_rd_ifmap", "sram_rd_filter", "sram_wr_ofmap")
# counts that must repeat exactly between traced runs of the same code
EXACT_COUNTS = ("engine.sram_events", "mapping.folds", "memory.epochs",
                "memory.dram_events", "trace.sorts", "sweeps.cells")

SETUP_PROBE = (
    "import sys, systolicsim, systolicsim.cli\n"
    "systolicsim.load_config(sys.argv[1])\n"
    "for p in sys.argv[2:]: systolicsim.load_topology(p)\n"
    "print(systolicsim.__file__)\n"
)


@dataclass
class Step:
    label: str                  # prefix of this step's keys in reference.json
    argv: list[str]             # systolicsim CLI arguments
    out_dir: Path               # where the step's CSVs land
    outputs: tuple[str, ...]    # glob patterns digested after the step


@dataclass
class Plan:
    config: Path
    topologies: list[Path]
    steps: list[Step]


@dataclass
class Iteration:
    wall_s: float = 0.0
    step_walls: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    sram_events: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    engine_keys: int = 0
    absent: set[str] = field(default_factory=set)


def _first_rows(src: Path, dst: Path, names: tuple[str, ...] | None, n: int) -> Path:
    """Copy the header and the first n (or the named) layers of a topology."""
    header, *rows = src.read_text().splitlines()
    if names is not None:
        rows = [r for r in rows if r.split(",", 1)[0] in names]
    dst.write_text("\n".join([header] + rows[:n]) + "\n")
    return dst


def make_plan(workload: str, tmp: Path) -> Plan:
    config = DATA / "configs" / "default.cfg"
    topo_dir = DATA / "topologies"
    inputs = tmp / "inputs"
    inputs.mkdir()
    out = tmp / "out"
    base = ["--config", str(config)]
    if workload == "resnet50_traces":
        run_dir = out / "r50"
        return Plan(config, [topo_dir / "w5_resnet50.csv"], [
            Step("run", ["run", *base, "--jobs", "1", "--out", str(out),
                         "--run-id", "r50"], run_dir, ("*.csv",)),
            Step("report", ["report", str(run_dir)], run_dir,
                 ("summary.csv", "network.csv")),
        ])
    if workload == "conv1_8x8":
        topo = _first_rows(topo_dir / "w5_resnet50.csv", inputs / "conv1.csv", ("conv1",), 1)
        return Plan(config, [topo], [
            Step(df, ["run", *base, "--topology", str(topo), "--rows", "8", "--cols", "8",
                      "--dataflow", df, "--no-traces", "--jobs", "1", "--out", str(out),
                      "--run-id", df], out / df, ("summary.csv", "network.csv"))
            for df in ("os", "ws")
        ])
    if workload == "memory_ladder":
        topos = [_first_rows(topo_dir / f"{tag}.csv", inputs / f"{tag}.csv", None, 2)
                 for tag in ("w7_transformer", "w2_deepspeech2")]
        return Plan(config, topos, [
            Step("sweep", ["sweep", "memory", *base, "--workloads", *map(str, topos),
                           "--sram-sizes", SRAM_LADDER_KB, "--out", str(out)],
                 out, ("sweep_memory.csv",)),
        ])
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SYSTOLICSIM_OUT")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Runner:
    """Starts one child at a time and reaps it with its own resource usage."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S
        self.n = 0

    def run(self, cmd: list[str]) -> tuple[int, float, float, str]:
        """(exit code, wall seconds, max RSS in MB, output) of one child."""
        self.n += 1
        log = self.tmp / f"child{self.n}.log"
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.tmp, env=self.env,
                                    stdout=fh, stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return code, wall, usage.ru_maxrss / 1024, log.read_text(errors="replace").strip()


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def summary_sram_events(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(int(row[c]) for row in csv.DictReader(fh) for c in SRAM_COLUMNS)


def flagged_cells(path: Path) -> int:
    with open(path, newline="") as fh:
        return sum(row["status"] != "ok" for row in csv.DictReader(fh))


def run_iteration(workload: str, plan: Plan, runner: Runner, reference: dict | None,
                  traced: bool) -> Iteration:
    """Run every step of the workload once; time only the child processes."""
    it = Iteration()
    spans_dir = runner.tmp / "spans"
    spans_dir.mkdir(exist_ok=True)
    for n, step in enumerate(plan.steps):
        if traced:
            spans = spans_dir / f"{n}.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(SRC), str(spans),
                   step.label, "--", *step.argv]
        else:
            cmd = [sys.executable, "-m", "systolicsim.cli", *step.argv]
        code, wall, rss, output = runner.run(cmd)
        it.attempted += 1
        it.wall_s += wall
        it.step_walls[step.label] = wall
        it.peak_rss_mb = max(it.peak_rss_mb, rss)
        # everything below is outside the timed window
        problems = []
        if code:
            problems.append(f"{step.label}: exit {code}: {output[-400:]}")
        for pattern in step.outputs:
            for path in sorted(step.out_dir.glob(pattern)):
                it.digests[f"{step.label}/{path.name}"] = sha256(path)
                if path.name == "summary.csv" and step.label != "report":
                    it.sram_events += summary_sram_events(path)
                if path.name.startswith("sweep_") and (bad := flagged_cells(path)):
                    problems.append(f"{step.label}: {bad} flagged sweep cells")
        if reference is not None:
            want = {k: v for k, v in reference["digests"][workload].items()
                    if k.startswith(step.label + "/")}
            got = {k: v for k, v in it.digests.items() if k.startswith(step.label + "/")}
            wrong = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
            if wrong:
                problems.append(f"{step.label}: {len(wrong)} outputs differ from the "
                                f"reference digests, e.g. {wrong[0]}")
        if traced:
            merge_trace(it, spans, problems)
        it.failed += bool(problems)
        it.problems += problems
    if workload == "memory_ladder" and reference is not None:
        # the sweep CSV carries no SRAM counts; its digest pins the model, so
        # the count recorded with it holds whenever the digest matches
        it.sram_events = reference["sram_events"][workload]
    shutil.rmtree(runner.tmp / "out", ignore_errors=True)
    shutil.rmtree(spans_dir, ignore_errors=True)
    return it


def merge_trace(it: Iteration, spans_path: Path, problems: list[str]) -> None:
    try:
        data = json.loads(spans_path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"no spans written: {exc}")
        return
    offset = len(it.spans)
    for name, start, end, parent, run_id in data["spans"]:
        it.spans.append([name, start, end, None if parent is None else parent + offset,
                         run_id])
    for key, value in data["counts"].items():
        if key == "engine.rss_hwm_mb":
            it.counts[key] = max(it.counts.get(key, 0), value)
        else:
            it.counts[key] = it.counts.get(key, 0) + value
    it.engine_keys += data["engine_keys"]
    it.absent.update(data["absent"])
    problems += [f"tracer hook failed: {e}" for e in data["hook_errors"]]


def measure_setup(plan: Plan, runner: Runner, starts: int) -> tuple[list[float], list[str]]:
    """Seconds for a fresh interpreter to import the package and load the
    workload's config and topologies, `starts` times after one untimed
    warm-up start that also checks which package the children import."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(plan.config), *map(str, plan.topologies)]
    times, problems = [], []
    code, _, _, output = runner.run(cmd)
    if code:
        problems.append(f"setup probe: exit {code}: {output[-400:]}")
    elif Path(output.splitlines()[-1]).resolve().parent != PACKAGE.resolve():
        problems.append(f"setup probe imported systolicsim from {output}, not {PACKAGE}")
    for _ in range(starts):
        code, wall, _, output = runner.run(cmd)
        if code:
            problems.append(f"setup probe: exit {code}: {output[-400:]}")
        times.append(wall)
    return times, problems


# ---- per-layer split ------------------------------------------------------

# metric -> (unit, spans that must have run for the metric to be present)
LAYER_METRICS = {
    "config.load_s": ("s", ("config.load_config", "config.load_topology")),
    "mapping.folds": ("count", ("engine.generate_traces",)),
    "engine.generate_traces_s": ("s", ("engine.generate_traces",)),
    "engine.calls": ("count", ("engine.generate_traces",)),
    "engine.sram_events": ("count", ("engine.generate_traces",)),
    "engine.rss_hwm_mb": ("MB", ("engine.generate_traces",)),
    "trace.init_s": ("s", ("trace.init",)),
    "trace.sorts": ("count", ("trace.init",)),
    "trace.sorted_events": ("count", ("trace.init",)),
    "trace.write_csv_s": ("s", ("trace.write_csv",)),
    "trace.read_csv_s": ("s", ("trace.read_csv",)),
    "trace.csv_mb": ("MB", ("trace.write_csv", "trace.read_csv")),
    "memory.epochize_s": ("s", ("memory.epochize",)),
    "memory.epochize_calls": ("count", ("memory.epochize",)),
    "memory.multi_epoch_calls": ("count", ("memory.epochize",)),
    "memory.epochs": ("count", ("memory.epochize",)),
    "memory.dram_read_trace_s": ("s", ("memory.dram_read_trace",)),
    "memory.dram_write_trace_s": ("s", ("memory.dram_write_trace",)),
    "memory.bandwidth_report_s": ("s", ("memory.bandwidth_report",)),
    "memory.dram_events": ("count", ("memory.bandwidth_report",)),
    "memory.refetch_ratio": ("ratio", ("memory.epochize",)),
    "metrics.report_s": ("s", ("metrics.layer_report", "metrics.summarize_network")),
    "simulate.self_s": ("s", ("simulate.simulate_layer",)),
    "sweeps.self_s": ("s", ("sweeps.run_sweep",)),
    "sweeps.cells": ("count", ("sweeps.run_sweep",)),
    "sweeps.flagged_cells": ("count", ("sweeps.run_sweep",)),
    "sweeps.cell_s": ("s", ("sweeps.run_sweep",)),
    "sweeps.trace_reuse": ("ratio", ("sweeps.run_sweep",)),
    "cli.self_s": ("s", ()),
    "bench.hook_s": ("s", ()),
    "bench.traced_wall_s": ("s", ()),
    "bench.trace_overhead_s": ("s", ()),
}
# self-time metrics, each summed over its spans; together with bench.hook_s
# and cli.self_s they add up to the traced wall time
SELF_TIME = ("config.load_s", "engine.generate_traces_s", "trace.init_s",
             "trace.write_csv_s", "trace.read_csv_s", "memory.epochize_s",
             "memory.dram_read_trace_s", "memory.dram_write_trace_s",
             "memory.bandwidth_report_s", "metrics.report_s", "simulate.self_s",
             "sweeps.self_s")


def self_times(spans: list) -> tuple[dict[str, float], dict[str, float]]:
    """Per span name: (self seconds, total seconds).  A span's self time is
    its duration minus the durations of its direct children."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    own, total = defaultdict(float), defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        own[name] += end - start - child[i]
        total[name] += end - start
    return own, total


def layer_metrics(it: Iteration, untraced_wall: float) -> tuple[dict[str, float], list[str]]:
    own, total = self_times(it.spans)
    c = it.counts
    m = {key: sum(own[n] for n in LAYER_METRICS[key][1]) for key in SELF_TIME}
    for key in ("mapping.folds", "engine.calls", "engine.sram_events", "engine.rss_hwm_mb",
                "trace.sorts", "trace.sorted_events", "memory.epochize_calls",
                "memory.multi_epoch_calls", "memory.epochs", "memory.dram_events",
                "sweeps.cells", "sweeps.flagged_cells"):
        m[key] = c.get(key, 0)
    m["trace.csv_mb"] = c.get("trace.csv_bytes", 0) / 2**20
    m["memory.refetch_ratio"] = (c["memory.epoch_bytes"] / c["memory.footprint_bytes"]
                                 if c.get("memory.footprint_bytes") else 0.0)
    m["sweeps.cell_s"] = total["sweeps.run_sweep"] / c["sweeps.cells"] if c.get("sweeps.cells") else 0.0
    m["sweeps.trace_reuse"] = (it.engine_keys / c["engine.calls"]
                               if total["sweeps.run_sweep"] and c.get("engine.calls") else 0.0)
    m["bench.hook_s"] = own["bench.hook"]
    m["cli.self_s"] = it.wall_s - sum(own.values())
    m["bench.traced_wall_s"] = it.wall_s
    m["bench.trace_overhead_s"] = it.wall_s - untraced_wall
    ran = {span[0] for span in it.spans}
    absent = [key for key, (_, needs) in LAYER_METRICS.items()
              if needs and not any(n in ran and n not in it.absent for n in needs)]
    for key in absent:
        m[key] = 0.0
    return m, absent


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_counts(workload: str, it: Iteration, sram_events: int,
                 cli_self: float) -> list[str]:
    problems = []
    if it.counts.get("engine.sram_events") != sram_events:
        problems.append(f"engine.sram_events {it.counts.get('engine.sram_events')} != "
                        f"{sram_events} SRAM events in the workload's summary output")
    counts = {k: it.counts.get(k, 0) for k in EXACT_COUNTS}
    path = WORK / "counts" / f"{workload}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        changed = sorted(k for k in EXACT_COUNTS if before.get(k) != counts[k])
        if changed:
            problems.append(f"counts differ from an earlier run of this code: {changed}")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True) + "\n")
    if cli_self < 0:
        problems.append(f"span self times exceed the traced wall time by {-cli_self:.3f} s")
    return problems


def median_and_high(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4f} max {max(values):.4f} "
            f"(n={len(values)})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (PACKAGE / "cli.py").is_file():
        print(f"systolicsim sources not found under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return measure(args, reference, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, reference: dict, tmp: Path) -> int:
    plan = make_plan(args.workload, tmp)
    runner = Runner(tmp)
    print(f"workload {args.workload} seed {args.seed} (inputs are fixed; the seed "
          f"selects nothing)")
    setup, problems = measure_setup(plan, runner, 0 if args.trace else SETUP_STARTS)
    if args.trace:
        base = run_iteration(args.workload, plan, runner, reference, traced=False)
        traced = run_iteration(args.workload, plan, runner, reference, traced=True)
        iters = [base, traced]
        metrics, absent = layer_metrics(traced, base.wall_s)
        problems += check_counts(args.workload, traced, base.sram_events,
                                 metrics["cli.self_s"])
        (WORK / f"spans-{args.workload}.json").write_text(json.dumps(traced.spans) + "\n")
        units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        print(f"traced wall {traced.wall_s:.3f} s, untraced {base.wall_s:.3f} s, "
              f"overhead {traced.wall_s - base.wall_s:.3f} s")
        print(f"absent on this workload: {', '.join(absent) or 'none'}")
    else:
        iters, t0 = [], time.perf_counter()
        while True:
            start = time.perf_counter()
            iters.append(run_iteration(args.workload, plan, runner, reference, traced=False))
            now = time.perf_counter()
            if now - t0 + (now - start) > args.seconds:
                break
        wall = statistics.median(i.wall_s for i in iters)
        events = statistics.median(i.sram_events for i in iters)
        metrics = {
            "wall_s": wall,
            "sram_events_per_s": statistics.median(i.sram_events / i.wall_s for i in iters),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in iters),
            "setup_s": statistics.median(setup),
        }
        units = {"wall_s": "s", "sram_events_per_s": "1/s", "peak_rss_mb": "MB",
                 "setup_s": "s"}
        for i in iters:
            print("iteration: " + ", ".join(f"{k} {v:.3f} s" for k, v in i.step_walls.items()))
        print(f"wall_s {median_and_high([i.wall_s for i in iters])}; "
              f"setup_s {median_and_high(setup)}; SRAM events {events:.0f}")
    # a failed setup probe or count check counts as one more failed command
    attempted = sum(i.attempted for i in iters) + bool(problems)
    failed = sum(i.failed for i in iters) + bool(problems)
    for it in iters:
        problems += it.problems
    for p in problems:
        print(f"FAILED: {p}")
    print(f"error rate {failed}/{attempted} commands")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
