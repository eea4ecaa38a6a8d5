"""Command-line entry point.

Subcommands:
    run     simulate a topology, writing trace CSVs and summary CSVs
    sweep   run one of the design-space studies
    report  recompute the summary CSVs of a finished run from its traces

Exit codes: 0 success, 2 config error, 3 topology error, 4 simulation error,
5 I/O error.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

from . import trace
from .bundled import bundled_workloads, default_config_path
from .config import (ALL_DATAFLOWS, ArchConfig, Dataflow, LayerSpec,
                     load_config, load_topology)
from .errors import ConfigError, SimulationError, TopologyError
from .mapping import fold_plan, regions, workload_counts
from .metrics import (EnergyCostTable, LayerReport, layer_report, load_energy_table,
                      ofmap_figures, summarize_network, summary_csv)
from .simulate import EVENT_BYTES, layer_peak_bytes, simulate_layer
from .sweeps import STUDIES, SweepSpec, run_sweep, trend_lines, write_sweep_csv
from .trace import Trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOPOLOGY = 3
EXIT_SIM = 4
EXIT_IO = 5

OUT_ENV_VAR = "SYSTOLICSIM_OUT"

TRACE_KINDS = ("ifmap_sram_read", "filter_sram_read", "ofmap_sram_write",
               "dram_read", "dram_write")

# per study, the one axis flag it takes, that flag's help, and the architecture
# flags its cells all override; --dataflows replaces --dataflow in every study
SWEEP_AXIS_FLAGS = {
    "dataflow": ("--sizes", "square array sizes, comma list", ("--rows", "--cols")),
    "memory": ("--sram-sizes", "buffer KB ladder, comma list",
               ("--sram-ifmap", "--sram-filter")),
    "aspect": ("--total-pes", "one PE budget", ("--rows", "--cols")),
    "scale": ("--pe-ladder", "PE counts, comma list", ("--rows", "--cols")),
}

MAX_DEFAULT_JOBS = 8
# what a worker holds besides its layer's data: interpreter, numpy, package
WORKER_BASE_BYTES = 64 << 20
# _report_layer holds at most this many times the bytes of a layer's SRAM
# traces, plus trace.CHUNK_EVENTS events of temporaries;
# tests/test_memory_bound.py checks it
REPORT_TRACE_FACTOR = 1.3


def _default_out_root() -> Path:
    return Path(os.environ.get(OUT_ENV_VAR, "runs"))


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name) or "layer"


def _layer_stems(layers: list[LayerSpec]) -> list[str]:
    """One distinct file stem per layer: a repeated name gets the next free
    ``_2``, ``_3``, ... suffix."""
    stems, taken, suffix = [], set(), {}
    for layer in layers:
        name = stem = _sanitize(layer.name)
        while stem in taken:
            suffix[name] = suffix.get(name, 1) + 1
            stem = f"{name}_{suffix[name]}"
        taken.add(stem)
        stems.append(stem)
    return stems


def _arch_to_dict(arch: ArchConfig) -> dict:
    d = asdict(arch)
    d["dataflow"] = arch.dataflow.value
    return d


def _arch_from_dict(d: dict) -> ArchConfig:
    d = dict(d)
    d["dataflow"] = Dataflow.parse(d["dataflow"])
    return ArchConfig(**d)


def default_jobs(cpus: int | None, mem_available: int | None, per_worker: int) -> int:
    """Workers for ``run`` and ``report`` without ``--jobs``: no more than
    the CPUs or ``MAX_DEFAULT_JOBS``, nor, when the available memory is
    known, than fit in it at ``per_worker`` bytes each; always at least
    one."""
    jobs = min(cpus or 1, MAX_DEFAULT_JOBS)
    if mem_available is not None:
        jobs = min(jobs, max(1, mem_available // per_worker))
    return jobs


def mem_available(meminfo: str = "/proc/meminfo") -> int | None:
    """The kernel's MemAvailable estimate in bytes, or None where the
    meminfo file cannot be read or lacks it."""
    try:
        with open(meminfo) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_jobs(jobs: int | None) -> None:
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, not {jobs}")


def _jobs(jobs: int | None, layers: list[LayerSpec], arch: ArchConfig,
          peak_bytes=layer_peak_bytes) -> int:
    """``--jobs`` if given, else ``default_jobs`` for a worker that holds the
    largest of these layers, at ``peak_bytes(layer, arch)`` each."""
    if jobs is not None:
        return jobs
    per_worker = WORKER_BASE_BYTES + max(peak_bytes(l, arch) for l in layers)
    return default_jobs(os.cpu_count(), mem_available(), per_worker)


def report_peak_bytes(layer: LayerSpec, arch: ArchConfig) -> int:
    """The most memory ``_report_layer`` needs for this layer: it parses
    whole trace files, one at a time, so this is a margin over the SRAM
    traces' bytes, from their closed-form event count."""
    events = sum(fold_plan(workload_counts(layer), arch).sram_event_counts)
    return (int(REPORT_TRACE_FACTOR * EVENT_BYTES * events)
            + EVENT_BYTES * trace.CHUNK_EVENTS)


def _map_layers(fn, work: list[tuple], jobs: int) -> list:
    """``[fn(*w) for w in work]``, in ``jobs`` worker processes when both
    ``jobs`` and ``work`` are more than one.  The error of the first layer
    to fail, in ``work`` order, is raised as the serial loop would raise
    it; the layers not yet started are then cancelled, and no worker
    outlives the call."""
    if jobs < 2 or len(work) < 2:
        return [fn(*w) for w in work]
    # the default start method (fork on Linux): the CLI starts no thread, and
    # spawn's fresh imports cost about 0.3 s of a 2.5 s ResNet-50 report
    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        futures = [pool.submit(fn, *w) for w in work]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _trace_paths(run_dir: str | Path, stem: str) -> list[Path]:
    """A layer's five trace files, in ``TRACE_KINDS`` order."""
    return [Path(run_dir) / f"{stem}_{kind}.csv" for kind in TRACE_KINDS]


def _run_one_layer(layer: LayerSpec, arch: ArchConfig, table: EnergyCostTable,
                   run_dir: str, stem: str, write_traces: bool) -> LayerReport:
    """Simulate one layer and, with ``write_traces``, write its five trace
    files (``simulate_layer``)."""
    return simulate_layer(layer, arch, table,
                          _trace_paths(run_dir, stem) if write_traces else None).report


def _arch_and_table(args, **overrides) -> tuple[ArchConfig, EnergyCostTable]:
    """The config with the architecture flags applied, and the energy table."""
    arch = load_config(args.config).with_overrides(
        array_rows=args.rows, array_cols=args.cols, dataflow=args.dataflow,
        ifmap_sram_kb=args.sram_ifmap, filter_sram_kb=args.sram_filter,
        ofmap_sram_kb=args.sram_ofmap, **overrides)
    table = load_energy_table(args.energy_table) if args.energy_table else EnergyCostTable()
    return arch, table


def cmd_run(args) -> int:
    _check_jobs(args.jobs)
    arch, table = _arch_and_table(
        args, topology_path=str(args.topology) if args.topology else None)
    if not arch.topology_path:
        raise ConfigError("no topology: set Topology in the config or pass --topology")
    layers = load_topology(arch.topology_path)
    if not layers:
        raise TopologyError(f"topology {arch.topology_path} has no layers")
    for layer in layers:    # each layer's regions, checked before anything is written
        regions(layer, arch, workload_counts(layer))

    config_text = Path(args.config).read_text() + Path(arch.topology_path).read_text()
    digest = hashlib.sha256(config_text.encode()).hexdigest()[:8]
    run_id = args.run_id or time.strftime("%Y%m%d-%H%M%S") + "-" + digest
    run_dir = Path(args.out) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    stems = _layer_stems(layers)
    write_traces = not args.no_traces
    files = ["summary.csv", "network.csv"]
    if write_traces:
        files += [p.name for stem in stems for p in _trace_paths(run_dir, stem)]
    manifest = {
        "run_id": run_id,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config_path": str(args.config),
        "arch": _arch_to_dict(arch),
        "layers": [asdict(l) for l in layers],
        "layer_stems": stems,
        "traces_written": write_traces,
        "files": files,
        "energy_table": asdict(table),
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    work = [(layer, arch, table, str(run_dir), stem, write_traces)
            for layer, stem in zip(layers, stems)]
    _write_summaries(run_dir, _map_layers(_run_one_layer, work,
                                          _jobs(args.jobs, layers, arch)))
    print(run_dir)
    return EXIT_OK


def _write_summaries(run_dir: Path, reports: list[LayerReport]) -> None:
    (run_dir / "summary.csv").write_text(summary_csv(reports))
    (run_dir / "network.csv").write_text(summary_csv(reports + [summarize_network(reports)]))


def _report_layer(layer: LayerSpec, arch: ArchConfig, table: EnergyCostTable,
                  run_dir: Path, stem: str) -> LayerReport:
    """Rebuild one layer's report purely from its trace files, read in
    ``TRACE_KINDS`` order.  The SRAM reads enter as counts and the ofmap
    writes as ``ofmap_figures``, so each of those three files is dropped
    before the next one is read."""
    ifmap, filt, writes, dram_rd, dram_wr = _trace_paths(run_dir, stem)
    ifmap_reads = len(Trace.read_csv(ifmap))
    filter_reads = len(Trace.read_csv(filt))
    ofmap = ofmap_figures(layer, arch, Trace.read_csv(writes))
    return layer_report(layer, arch, table, ifmap_reads, filter_reads, ofmap,
                        [Trace.read_csv(dram_rd).cycles], [Trace.read_csv(dram_wr).cycles])


def cmd_report(args) -> int:
    _check_jobs(args.jobs)
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {run_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
        arch = _arch_from_dict(manifest["arch"])
        layers = [LayerSpec(**d) for d in manifest["layers"]]
        stems = manifest["layer_stems"]
        table = EnergyCostTable(**manifest.get("energy_table", {}))
        if len(stems) != len(layers) or len(set(stems)) != len(stems):
            raise SimulationError(f"manifest {manifest_path} does not give each of its "
                                  f"{len(layers)} layers its own stem")
    except json.JSONDecodeError as exc:
        raise SimulationError(f"manifest {manifest_path} is not JSON: {exc}") from None
    except KeyError as exc:
        raise SimulationError(f"manifest {manifest_path} has no {exc} entry") from None
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"manifest {manifest_path} is malformed: {exc}") from None
    if not layers:
        raise SimulationError(f"manifest {manifest_path} lists no layers")
    if not manifest.get("traces_written", True):
        raise SimulationError("run was executed with --no-traces; nothing to reparse")
    # every trace file, checked before any is read: a missing one fails as
    # reading it would, naming the first missing file in manifest order
    for path in (p for stem in stems for p in _trace_paths(run_dir, stem)):
        if not path.exists():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    work = [(layer, arch, table, run_dir, stem) for layer, stem in zip(layers, stems)]
    _write_summaries(run_dir, _map_layers(_report_layer, work,
                                          _jobs(args.jobs, layers, arch, report_peak_bytes)))
    print(run_dir / "summary.csv")
    return EXIT_OK


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} takes a comma list of integers, not {text!r}") from None


def _name_list(text: str, flag: str) -> tuple[str, ...]:
    names = tuple(text.split(","))
    if not all(names):
        raise ConfigError(f"{flag} takes a comma list of names, not {text!r}")
    return names


def cmd_sweep(args) -> int:
    axis, _, flags = SWEEP_AXIS_FLAGS[args.study]
    for flag, use in (("--dataflow", "--dataflows"), *((f, axis) for f in flags)):
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ConfigError(f"sweep {args.study} sets {flag} in every cell; "
                              f"use {use} instead")
    given = {flag: getattr(args, flag[2:].replace("-", "_"))
             for flag, _, _ in SWEEP_AXIS_FLAGS.values()}
    for other, text in given.items():
        if other != axis and text is not None:
            raise ConfigError(f"sweep {args.study} takes {axis}, not {other}")
    base, table = _arch_and_table(args)
    workloads = args.workloads or [str(p) for p in bundled_workloads().values()]
    axes = {}
    if args.dataflows is not None:
        axes["dataflows"] = _name_list(args.dataflows, "--dataflows")
    if given[axis] is not None:
        axes["axis"] = _int_list(given[axis], axis)
    spec = SweepSpec(study=args.study, workloads=workloads, **axes)

    rows = run_sweep(spec, base, table)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"sweep_{spec.study}.csv"
    write_sweep_csv(rows, out_path)
    print(out_path)
    for line in trend_lines(spec.study, rows):
        print(line, file=sys.stderr)
    ok = [r for r in rows if r["status"] == "ok"]
    bad = [r for r in rows if r["status"] != "ok"]
    if bad:
        print(f"{len(bad)} of {len(rows)} cells flagged", file=sys.stderr)
    if not ok:
        raise SimulationError("sweep produced no valid cells")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="systolicsim",
        description="Cycle-accurate systolic-array accelerator simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_arch_flags(p):
        p.add_argument("--config", default=str(default_config_path()),
                       help="architecture config file (INI key=value)")
        p.add_argument("--dataflow", choices=list(ALL_DATAFLOWS), default=None)
        p.add_argument("--rows", type=int, default=None)
        p.add_argument("--cols", type=int, default=None)
        p.add_argument("--sram-ifmap", type=int, default=None, metavar="KB")
        p.add_argument("--sram-filter", type=int, default=None, metavar="KB")
        p.add_argument("--sram-ofmap", type=int, default=None, metavar="KB")
        p.add_argument("--energy-table", default=None,
                       help="cost table file (e_mac/e_sram_read/e_sram_write/e_dram_access)")

    def add_jobs_flag(p, what):
        p.add_argument("--jobs", type=int, default=None,
                       help=f"parallel layer {what} (default: cpu count, max 8, "
                            "fewer if the largest layer's workers would not fit in "
                            "available memory)")

    run = sub.add_parser("run", help="simulate one topology")
    add_arch_flags(run)
    run.add_argument("--topology", default=None, help="topology CSV (overrides config)")
    run.add_argument("--out", default=str(_default_out_root()),
                     help=f"output root (default ${OUT_ENV_VAR} or ./runs)")
    run.add_argument("--run-id", default=None, help="fixed run directory name")
    run.add_argument("--no-traces", action="store_true", help="summaries only")
    add_jobs_flag(run, "simulations")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run a design-space study")
    sweep.add_argument("study", choices=STUDIES)
    add_arch_flags(sweep)
    sweep.add_argument("--workloads", nargs="+", default=None,
                       help="topology CSVs (default: all bundled workloads)")
    sweep.add_argument("--dataflows", default=None, help="comma list, e.g. os,ws")
    for study, (flag, what, _) in SWEEP_AXIS_FLAGS.items():
        sweep.add_argument(flag, default=None, help=f"sweep {study} only: {what}")
    sweep.add_argument("--out", default=str(_default_out_root()))
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser("report", help="recompute summaries from traces")
    report.add_argument("run_dir")
    add_jobs_flag(report, "reports")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TopologyError as exc:
        print(f"topology error: {exc}", file=sys.stderr)
        return EXIT_TOPOLOGY
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
