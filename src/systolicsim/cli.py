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
import hashlib
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

from .bundled import bundled_workloads, default_config_path
from .config import (ALL_DATAFLOWS, ArchConfig, Dataflow, LayerSpec,
                     load_config, load_topology)
from .errors import ConfigError, SimulationError, TopologyError
from .mapping import fold_schedule, mapping_efficiency, workload_counts
from .memory import in_run_peak
from .metrics import (EnergyCostTable, LayerReport, energy, load_energy_table,
                      network_csv, summarize_network, summary_csv)
from .simulate import simulate_layer
from .sweeps import STUDIES, SweepSpec, run_sweep, write_sweep_csv
from .trace import Trace

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOPOLOGY = 3
EXIT_SIM = 4
EXIT_IO = 5

OUT_ENV_VAR = "SYSTOLICSIM_OUT"

TRACE_KINDS = ("ifmap_sram_read", "filter_sram_read", "ofmap_sram_write",
               "dram_read", "dram_write")


def _default_out_root() -> Path:
    return Path(os.environ.get(OUT_ENV_VAR, "runs"))


def _sanitize(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name) or "layer"


def _layer_stems(layers: list[LayerSpec]) -> list[str]:
    stems, seen = [], {}
    for layer in layers:
        stem = _sanitize(layer.name)
        seen[stem] = seen.get(stem, 0) + 1
        stems.append(stem if seen[stem] == 1 else f"{stem}_{seen[stem]}")
    return stems


def _arch_to_dict(arch: ArchConfig) -> dict:
    d = asdict(arch)
    d["dataflow"] = arch.dataflow.value
    return d


def _arch_from_dict(d: dict) -> ArchConfig:
    d = dict(d)
    d["dataflow"] = Dataflow.parse(d["dataflow"])
    return ArchConfig(**d)


def _run_one_layer(layer: LayerSpec, arch: ArchConfig, table: EnergyCostTable,
                   run_dir: str, stem: str, write_traces: bool) -> LayerReport:
    res = simulate_layer(layer, arch, table)
    if write_traces:
        run_dir = Path(run_dir)
        res.traces.ifmap_reads.write_csv(run_dir / f"{stem}_ifmap_sram_read.csv")
        res.traces.filter_reads.write_csv(run_dir / f"{stem}_filter_sram_read.csv")
        res.traces.ofmap_writes.write_csv(run_dir / f"{stem}_ofmap_sram_write.csv")
        res.dram.read_trace.write_csv(run_dir / f"{stem}_dram_read.csv")
        res.dram.write_trace.write_csv(run_dir / f"{stem}_dram_write.csv")
    return res.report


def cmd_run(args) -> int:
    arch = load_config(args.config)
    arch = arch.with_overrides(
        array_rows=args.rows, array_cols=args.cols, dataflow=args.dataflow,
        ifmap_sram_kb=args.sram_ifmap, filter_sram_kb=args.sram_filter,
        ofmap_sram_kb=args.sram_ofmap,
        topology_path=str(args.topology) if args.topology else None)
    if not arch.topology_path:
        raise ConfigError("no topology: set Topology in the config or pass --topology")
    layers = load_topology(arch.topology_path)
    if not layers:
        raise TopologyError(f"topology {arch.topology_path} has no layers")
    table = load_energy_table(args.energy_table) if args.energy_table else EnergyCostTable()

    config_text = Path(args.config).read_text() + Path(arch.topology_path).read_text()
    digest = hashlib.sha256(config_text.encode()).hexdigest()[:8]
    run_id = args.run_id or time.strftime("%Y%m%d-%H%M%S") + "-" + digest
    run_dir = Path(args.out) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    stems = _layer_stems(layers)
    write_traces = not args.no_traces
    files = ["summary.csv", "network.csv"]
    if write_traces:
        files += [f"{stem}_{kind}.csv" for stem in stems for kind in TRACE_KINDS]
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

    jobs = args.jobs if args.jobs else min(os.cpu_count() or 1, 8)
    work = [(layer, arch, table, str(run_dir), stem, write_traces)
            for layer, stem in zip(layers, stems)]
    if jobs > 1 and len(layers) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_run_one_layer_star, work))
    else:
        reports = [_run_one_layer(*w) for w in work]

    net = summarize_network(reports)
    (run_dir / "summary.csv").write_text(summary_csv(net.layers))
    (run_dir / "network.csv").write_text(network_csv(net))
    print(run_dir)
    return EXIT_OK


def _run_one_layer_star(work):
    return _run_one_layer(*work)


def _report_layer(layer: LayerSpec, arch: ArchConfig, table: EnergyCostTable,
                  run_dir: Path, stem: str) -> LayerReport:
    """Rebuild one layer's report purely from its trace files."""
    ifmap = Trace.read_csv(run_dir / f"{stem}_ifmap_sram_read.csv")
    filt = Trace.read_csv(run_dir / f"{stem}_filter_sram_read.csv")
    writes = Trace.read_csv(run_dir / f"{stem}_ofmap_sram_write.csv")
    dram_rd = Trace.read_csv(run_dir / f"{stem}_dram_read.csv")
    dram_wr = Trace.read_csv(run_dir / f"{stem}_dram_write.csv")
    if not len(writes):
        raise SimulationError(f"layer {layer.name!r}: empty ofmap write trace")
    word = arch.word_bytes
    cycles = writes.max_cycle + 1
    counts = workload_counts(layer)
    plan = fold_schedule(counts, arch)
    partial_reads = len(writes) - len(writes.distinct_addresses())
    sram_reads = len(ifmap) + len(filt) + partial_reads
    dram_rd_bytes = len(dram_rd) * word
    dram_wr_bytes = len(dram_wr) * word

    return LayerReport(
        name=layer.name,
        dataflow=arch.dataflow.value,
        rows=arch.array_rows,
        cols=arch.array_cols,
        total_cycles=cycles,
        macs_total=counts.macs_total,
        mapping_efficiency=mapping_efficiency(plan, arch),
        compute_utilization=counts.macs_total / (cycles * arch.array_rows * arch.array_cols),
        sram_reads_ifmap=len(ifmap),
        sram_reads_filter=len(filt),
        sram_writes_ofmap=len(writes),
        sram_reads_ofmap_partials=partial_reads,
        dram_read_bytes=dram_rd_bytes,
        dram_write_bytes=dram_wr_bytes,
        avg_read_bw=dram_rd_bytes / cycles,
        peak_read_bw=in_run_peak(dram_rd, cycles, word),
        avg_write_bw=dram_wr_bytes / cycles,
        peak_write_bw=in_run_peak(dram_wr, cycles, word),
        energy=energy(counts.macs_total, sram_reads, len(writes),
                      dram_rd_bytes + dram_wr_bytes, table),
        active_pe_folds=sum(f.rows_used * f.cols_used for f in plan.folds),
        fold_pe_area=plan.num_folds * arch.array_rows * arch.array_cols,
    )


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {run_dir}")
    manifest = json.loads(manifest_path.read_text())
    if not manifest.get("traces_written", True):
        raise SimulationError("run was executed with --no-traces; nothing to reparse")
    arch = _arch_from_dict(manifest["arch"])
    table = EnergyCostTable(**manifest.get("energy_table", {}))
    layers = [LayerSpec(**d) for d in manifest["layers"]]
    reports = [_report_layer(layer, arch, table, run_dir, stem)
               for layer, stem in zip(layers, manifest["layer_stems"])]
    net = summarize_network(reports)
    (run_dir / "summary.csv").write_text(summary_csv(net.layers))
    (run_dir / "network.csv").write_text(network_csv(net))
    print(run_dir / "summary.csv")
    return EXIT_OK


def cmd_sweep(args) -> int:
    base = load_config(args.config)
    base = base.with_overrides(
        array_rows=args.rows, array_cols=args.cols, dataflow=args.dataflow,
        ifmap_sram_kb=args.sram_ifmap, filter_sram_kb=args.sram_filter,
        ofmap_sram_kb=args.sram_ofmap)
    workloads = args.workloads or [str(p) for p in bundled_workloads().values()]
    dataflows = tuple(args.dataflows.split(",")) if args.dataflows else ALL_DATAFLOWS
    spec = SweepSpec(study=args.study, workloads=workloads, dataflows=dataflows)
    if args.sizes:
        spec.array_sizes = tuple(int(s) for s in args.sizes.split(","))
    if args.sram_sizes:
        spec.sram_sizes_kb = tuple(int(s) for s in args.sram_sizes.split(","))
    if args.total_pes:
        spec.total_pes = args.total_pes
    if args.pe_ladder:
        spec.pe_ladder = tuple(int(s) for s in args.pe_ladder.split(","))
    table = load_energy_table(args.energy_table) if args.energy_table else EnergyCostTable()

    rows = run_sweep(spec, base, table)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"sweep_{spec.study}.csv"
    write_sweep_csv(rows, out_path)
    print(out_path)
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

    run = sub.add_parser("run", help="simulate one topology")
    add_arch_flags(run)
    run.add_argument("--topology", default=None, help="topology CSV (overrides config)")
    run.add_argument("--out", default=str(_default_out_root()),
                     help=f"output root (default ${OUT_ENV_VAR} or ./runs)")
    run.add_argument("--run-id", default=None, help="fixed run directory name")
    run.add_argument("--no-traces", action="store_true", help="summaries only")
    run.add_argument("--jobs", type=int, default=None,
                     help="parallel layer simulations (default: cpu count, max 8)")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run a design-space study")
    sweep.add_argument("study", choices=STUDIES)
    add_arch_flags(sweep)
    sweep.add_argument("--workloads", nargs="*", default=None,
                       help="topology CSVs (default: all bundled workloads)")
    sweep.add_argument("--dataflows", default=None, help="comma list, e.g. os,ws")
    sweep.add_argument("--sizes", default=None, help="square array sizes, comma list")
    sweep.add_argument("--sram-sizes", default=None, help="buffer KB ladder, comma list")
    sweep.add_argument("--total-pes", type=int, default=None)
    sweep.add_argument("--pe-ladder", default=None, help="PE counts, comma list")
    sweep.add_argument("--out", default=str(_default_out_root()))
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser("report", help="recompute summaries from traces")
    report.add_argument("run_dir")
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
