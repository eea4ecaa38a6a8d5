import csv
import hashlib
import json
import multiprocessing
import time

import pytest

from helpers import format_topology, in_file_order, write_config, write_topology
from systolicsim import cli, engine, trace
from systolicsim.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SIM, EXIT_TOPOLOGY,
                             TRACE_KINDS, default_jobs, main, mem_available)
from systolicsim.config import LayerSpec, load_config, load_topology
from systolicsim.simulate import simulate_layer


@pytest.fixture
def workdir(tmp_path):
    write_topology(tmp_path / "topo.csv", [("layer0", 6, 6, 3, 3, 2, 4, 1)])
    write_config(tmp_path / "arch.cfg", rows=4, cols=4, dataflow="os")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_emits_five_traces_and_two_summaries(workdir):
    assert run_cli("run", "--config", workdir / "arch.cfg", "--out",
                   workdir / "out", "--run-id", "r1", "--jobs", "1") == EXIT_OK
    run_dir = workdir / "out" / "r1"
    traces = [p.name for p in run_dir.glob("layer0_*.csv")]
    assert sorted(traces) == sorted(f"layer0_{k}.csv" for k in TRACE_KINDS)
    assert (run_dir / "summary.csv").exists()
    assert (run_dir / "network.csv").exists()
    assert (run_dir / "manifest.json").exists()


def test_run_dataflow_override_reported(workdir):
    run_cli("run", "--config", workdir / "arch.cfg", "--dataflow", "ws",
            "--out", workdir / "out", "--run-id", "r1", "--jobs", "1")
    rows = (workdir / "out" / "r1" / "summary.csv").read_text().strip().split("\n")[1:]
    assert all(r.split(",")[1] == "ws" for r in rows)


def test_rerun_is_byte_identical(workdir):
    for rid in ("a", "b"):
        run_cli("run", "--config", workdir / "arch.cfg", "--out",
                workdir / "out", "--run-id", rid, "--jobs", "1")

    def digest(rid):
        h = hashlib.sha256()
        for p in sorted((workdir / "out" / rid).glob("*.csv")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()

    assert digest("a") == digest("b")


def test_no_traces_writes_summaries_only(workdir):
    run_cli("run", "--config", workdir / "arch.cfg", "--no-traces",
            "--out", workdir / "out", "--run-id", "r1", "--jobs", "1")
    run_dir = workdir / "out" / "r1"
    assert not list(run_dir.glob("layer0_*.csv"))
    assert (run_dir / "summary.csv").exists()


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_run_trace_files_are_in_file_order(workdir, monkeypatch, dataflow):
    # under OS and WS the engine leaves some cycles' ifmap reads out of
    # address order (under IS this layer's traces come out in file order);
    # the trace writer sorts them one chunk at a time.  Every bounded walk
    # (engine, epochize, report, CSV writer and reader) is cut to 7-event
    # chunks here, and the 1 KB buffers of 16-byte words close several
    # ifmap and filter epochs, so that epochize's windows cross epoch edges
    write_config(workdir / "arch.cfg", rows=4, cols=4, dataflow=dataflow, ifmap_kb=1,
                 filter_kb=1, ofmap_kb=1, word_bytes=16)
    layer = load_topology(workdir / "topo.csv")[0]
    arch = load_config(workdir / "arch.cfg")
    ifmap = engine.generate_traces(layer, arch).ifmap_reads
    assert (in_file_order(ifmap) == ifmap) == (dataflow == "is")
    dram = simulate_layer(layer, arch).dram
    assert len(dram.ifmap.bursts) > 1 and len(dram.filter.bursts) > 1
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "whole", "--jobs", "1")
    monkeypatch.setattr(trace, "CHUNK_EVENTS", 7)
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "sliced", "--jobs", "1")
    whole_dir, sliced_dir = workdir / "out" / "whole", workdir / "out" / "sliced"
    traces = [f"layer0_{kind}.csv" for kind in TRACE_KINDS]
    summaries = ["summary.csv", "network.csv"]
    for name in traces + summaries:
        assert (sliced_dir / name).read_bytes() == (whole_dir / name).read_bytes(), name
    for name in traces:
        trace.Trace.read_csv(sliced_dir / name)  # rejects rows out of (cycle, address) order
    # report rebuilds the summaries from the 7-event run's traces, also in
    # 7-event chunks
    for name in summaries:
        (sliced_dir / name).unlink()
    assert run_cli("report", sliced_dir, "--jobs", "1") == EXIT_OK
    for name in summaries:
        assert (sliced_dir / name).read_bytes() == (whole_dir / name).read_bytes(), name


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_run_dram_traces_are_the_api_s(workdir, dataflow):
    # small buffers, so that reads and drains split into several bursts;
    # the ifmap reads of some cycles are out of address order under OS and
    # WS (previous test), which must not move an address to another cycle
    write_config(workdir / "arch.cfg", rows=4, cols=4, dataflow=dataflow, ifmap_kb=1,
                 filter_kb=1, ofmap_kb=1, word_bytes=16)
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "r1", "--jobs", "1")
    layer = load_topology(workdir / "topo.csv")[0]
    dram = simulate_layer(layer, load_config(workdir / "arch.cfg")).dram
    for kind, bursts in (("dram_read", dram.read_trace), ("dram_write", dram.write_trace)):
        bursts.trace().write_csv(workdir / "api.csv")
        run_file = workdir / "out" / "r1" / f"layer0_{kind}.csv"
        assert run_file.read_bytes() == (workdir / "api.csv").read_bytes(), kind


@pytest.mark.parametrize("word_bytes", [1, 2])
@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_report_reproduces_summaries(workdir, dataflow, word_bytes):
    # 4 rows under a window of 18 elements: WS/IS re-read partial sums
    write_config(workdir / "arch.cfg", rows=4, cols=4, dataflow=dataflow,
                 word_bytes=word_bytes)
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "r1", "--jobs", "1")
    run_dir = workdir / "out" / "r1"
    before = {n: (run_dir / n).read_bytes() for n in ("summary.csv", "network.csv")}
    (run_dir / "summary.csv").unlink()
    (run_dir / "network.csv").unlink()
    assert run_cli("report", run_dir) == EXIT_OK
    after = {n: (run_dir / n).read_bytes() for n in ("summary.csv", "network.csv")}
    assert before == after


def test_quoted_layer_names_keep_summary_rows_whole(workdir):
    # the topology reader takes quoted CSV fields, so a layer name may hold a
    # comma or a quote; the summaries must quote it back
    names = ["a,b", 'q"x']
    (workdir / "topo.csv").write_text(format_topology(
        [LayerSpec(name, 6, 6, 3, 3, 2, 4, 1) for name in names]))
    assert '"a,b"' in (workdir / "topo.csv").read_text()
    write_config(workdir / "arch.cfg", rows=4, cols=4, dataflow="ws")
    assert run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
                   "--run-id", "r1", "--jobs", "1") == EXIT_OK
    run_dir = workdir / "out" / "r1"
    files = ("summary.csv", "network.csv")
    before = {n: (run_dir / n).read_bytes() for n in files}
    for n, layers in zip(files, (names, names + ["total"])):
        rows = list(csv.reader((run_dir / n).read_text().splitlines()))
        assert [len(r) for r in rows] == [17] * (1 + len(layers))
        assert [r[0] for r in rows[1:]] == layers
        (run_dir / n).unlink()
    assert run_cli("report", run_dir) == EXIT_OK
    assert {n: (run_dir / n).read_bytes() for n in files} == before


def test_report_empty_dir_fails(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("report", empty) != EXIT_OK


def test_report_refuses_traceless_run(workdir):
    run_cli("run", "--config", workdir / "arch.cfg", "--no-traces",
            "--out", workdir / "out", "--run-id", "r1", "--jobs", "1")
    assert run_cli("report", workdir / "out" / "r1") == EXIT_SIM


def _last_row_first(text):
    header, *rows = text.splitlines(keepends=True)
    return b"".join([header, rows[-1], *rows[:-1]])


def _first_row(edit):
    """Damage that rewrites the first row, given its two fields, as
    ``edit(cycle, address)``; each edit below still parses to the same
    numbers, so only the check of the canonical form can catch it."""
    def damage(text):
        header, row, rest = text.split(b"\n", 2)
        return header + b"\n" + edit(*row.split(b",")) + rest
    return damage


def _minus_zero(cycle, address):
    assert cycle == b"0"    # every layer's first ifmap read is at cycle 0
    return b"-0," + address + b"\n"


# a run of three layers, so that a damaged later layer meets the pool
THREE_LAYERS = [("a", 6, 6, 3, 3, 2, 4, 1), ("b", 8, 8, 3, 3, 1, 2, 2),
                ("c", 5, 1, 1, 1, 7, 3, 1)]


@pytest.mark.parametrize("damage", [
    pytest.param(lambda text: text[:text.rindex(b",") + 2], id="truncated-mid-row"),
    pytest.param(lambda text: text + b"foo,3\n", id="non-integer-row"),
    pytest.param(lambda text: text[text.index(b"\n") + 1:], id="missing-header"),
    pytest.param(_last_row_first, id="moved-last-row"),
    pytest.param(_first_row(lambda c, a: b"+" + c + b"," + a + b"\n"), id="plus-sign"),
    pytest.param(_first_row(lambda c, a: b"0" + c + b"," + a + b"\n"), id="leading-zero"),
    pytest.param(_first_row(lambda c, a: b" " + c + b"," + a + b"\n"), id="leading-space"),
    pytest.param(_first_row(lambda c, a: c + b", " + a + b"\n"), id="space-after-comma"),
    pytest.param(_first_row(_minus_zero), id="minus-zero"),
    pytest.param(_first_row(lambda c, a: c + b"," + a + b"\r\n"), id="crlf"),
    pytest.param(_first_row(lambda c, a: c + b"," + a + b"#x\n"), id="comment"),
    # as long as the canonical row, but np.loadtxt ends a line at a bare CR
    pytest.param(_first_row(lambda c, a: c + b"," + a + b"\r"), id="bare-cr"),
])
def test_report_rejects_damaged_trace(workdir, damage, capsys):
    write_topology(workdir / "topo.csv", THREE_LAYERS)
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "r1", "--jobs", "1")
    run_dir = workdir / "out" / "r1"
    # the first layer, a later one, and both: the first in manifest order
    # is named, with or without the pool
    for stems in (["a"], ["c"], ["a", "c"]):
        traces = [run_dir / f"{stem}_ifmap_sram_read.csv" for stem in stems]
        intact = [trace.read_bytes() for trace in traces]
        for trace, text in zip(traces, intact):
            trace.write_bytes(damage(text))
        errors = []
        for jobs in ("1", "2"):
            capsys.readouterr()
            assert run_cli("report", run_dir, "--jobs", jobs) == EXIT_SIM
            errors.append(capsys.readouterr().err)
        assert str(traces[0]) in errors[0]
        assert errors[0] == errors[1]
        for trace, text in zip(traces, intact):
            trace.write_bytes(text)
    assert not multiprocessing.active_children()


def test_word_larger_than_a_buffer_exits_config(workdir, capsys):
    write_config(workdir / "arch.cfg", rows=4, cols=4, ifmap_kb=1, word_bytes=2048)
    capsys.readouterr()
    assert run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
                   "--run-id", "r1", "--jobs", "1") == EXIT_CONFIG
    assert "ifmap buffer of 1 KB cannot hold one 2048-byte word" in capsys.readouterr().err


def _manifest_entry(key, value=None):
    """Damage that drops one manifest entry, or sets it to value."""
    def damage(text):
        manifest = json.loads(text)
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
        return json.dumps(manifest).encode()
    return damage


def _two_layers(stems):
    """Damage that lists the run's one layer twice, with these stems."""
    def damage(text):
        manifest = json.loads(text)
        manifest["layers"] *= 2
        manifest["layer_stems"] = stems
        return json.dumps(manifest).encode()
    return damage


@pytest.mark.parametrize("damage", [
    pytest.param(lambda text: b"{not json", id="not-json"),
    pytest.param(lambda text: b"[]", id="not-an-object"),
    pytest.param(_manifest_entry("layer_stems"), id="no-layer-stems"),
    pytest.param(_manifest_entry("arch"), id="no-arch"),
    pytest.param(_manifest_entry("arch", ["abc"]), id="arch-not-an-object"),
    pytest.param(_manifest_entry("layers", []), id="empty-layers"),
    pytest.param(_two_layers(["layer0"]), id="stems-short"),
    pytest.param(_two_layers(["layer0", "layer0"]), id="stems-duplicate"),
])
def test_report_rejects_damaged_manifest(workdir, damage, capsys):
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "r1", "--jobs", "1")
    manifest = workdir / "out" / "r1" / "manifest.json"
    manifest.write_bytes(damage(manifest.read_bytes()))
    capsys.readouterr()
    assert run_cli("report", workdir / "out" / "r1") == EXIT_SIM
    assert str(manifest) in capsys.readouterr().err


def test_exit_code_config_error(workdir):
    bad = workdir / "bad.cfg"
    bad.write_text((workdir / "arch.cfg").read_text().replace("DataFlow = os",
                                                              "DataFlow = rs"))
    assert run_cli("run", "--config", bad, "--out", workdir / "out") == EXIT_CONFIG


def test_exit_code_topology_error(workdir):
    (workdir / "topo.csv").write_text("Layer Name,IFMAP Height\nx,1\n")
    assert run_cli("run", "--config", workdir / "arch.cfg",
                   "--out", workdir / "out") == EXIT_TOPOLOGY


# each ends in the flag that takes the topology file
ENERGY_COMMANDS = {
    "run": ("run", "--run-id", "r1", "--jobs", "1", "--topology"),
    "sweep": ("sweep", "dataflow", "--sizes", "4", "--dataflows", "os", "--workloads"),
}


@pytest.mark.parametrize("command", list(ENERGY_COMMANDS))
@pytest.mark.parametrize("value, message", [
    pytest.param("abc", "line 2: e_mac = 'abc' is not a number", id="not-a-number"),
    pytest.param("nan", "e_mac must be finite and non-negative, not nan", id="nan"),
    pytest.param("inf", "e_mac must be finite and non-negative, not inf", id="inf"),
    pytest.param("-1", "e_mac must be finite and non-negative, not -1.0", id="negative"),
])
def test_bad_energy_cost_is_a_config_error(workdir, capsys, command, value, message):
    table = workdir / "energy.txt"
    table.write_text(f"# costs\ne_mac = {value}\n")
    assert run_cli(*ENERGY_COMMANDS[command], workdir / "topo.csv", "--config",
                   workdir / "arch.cfg", "--energy-table", table,
                   "--out", workdir / "out") == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", list(ENERGY_COMMANDS))
def test_energy_table_reaches_the_summaries(workdir, command):
    table = workdir / "energy.txt"
    table.write_text("e_mac = 0\ne_sram_read = 0\ne_sram_write = 0\ne_dram_access = 0\n")
    energies = []
    for out, extra in (("default", ()), ("free", ("--energy-table", table))):
        assert run_cli(*ENERGY_COMMANDS[command], workdir / "topo.csv", "--config",
                       workdir / "arch.cfg", *extra, "--out", workdir / out) == EXIT_OK
        path = workdir / out / ("r1/network.csv" if command == "run" else "sweep_dataflow.csv")
        rows = list(csv.DictReader(path.read_text().splitlines()))
        energies.append(float(rows[-1]["energy"]))
    assert energies[0] > 0 and energies[1] == 0


def test_exit_code_missing_config(tmp_path):
    assert run_cli("run", "--config", tmp_path / "nope.cfg",
                   "--out", tmp_path) == 5


def test_out_env_var_honored(workdir, monkeypatch):
    monkeypatch.setenv("SYSTOLICSIM_OUT", str(workdir / "envout"))
    monkeypatch.chdir(workdir)
    assert run_cli("run", "--config", workdir / "arch.cfg",
                   "--run-id", "r1", "--jobs", "1") == EXIT_OK
    assert (workdir / "envout" / "r1" / "summary.csv").exists()


def test_parallel_jobs_match_serial(workdir):
    write_topology(workdir / "topo.csv", [
        ("a", 6, 6, 3, 3, 2, 4, 1), ("b", 8, 8, 3, 3, 1, 2, 2),
        ("c", 5, 1, 1, 1, 7, 3, 1)])
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "serial", "--jobs", "1")
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "par", "--jobs", "3")
    for p in sorted((workdir / "out" / "serial").glob("*.csv")):
        assert p.read_bytes() == (workdir / "out" / "par" / p.name).read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_config_error(workdir, jobs, capsys):
    assert run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
                   "--run-id", "r1", "--jobs", jobs) == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert not (workdir / "out" / "r1").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_report_jobs_below_one_is_a_config_error(workdir, jobs, capsys):
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "r1", "--jobs", "1")
    (workdir / "out" / "r1" / "summary.csv").unlink()
    capsys.readouterr()
    assert run_cli("report", workdir / "out" / "r1", "--jobs", jobs) == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert not (workdir / "out" / "r1" / "summary.csv").exists()


@pytest.mark.parametrize("dataflow", ["os", "ws", "is"])
def test_report_jobs_match_serial(workdir, dataflow):
    write_topology(workdir / "topo.csv", THREE_LAYERS)
    write_config(workdir / "arch.cfg", rows=4, cols=4, dataflow=dataflow)
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "r1", "--jobs", "1")
    run_dir = workdir / "out" / "r1"
    files = ("summary.csv", "network.csv")
    written = {n: (run_dir / n).read_bytes() for n in files}
    for jobs in ("1", "2"):
        for n in files:
            (run_dir / n).unlink()
        assert run_cli("report", run_dir, "--jobs", jobs) == EXIT_OK
        assert {n: (run_dir / n).read_bytes() for n in files} == written, jobs
    assert not multiprocessing.active_children()


def test_report_checks_every_trace_file_before_it_starts(workdir, monkeypatch, capsys):
    write_topology(workdir / "topo.csv", THREE_LAYERS)
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "r1", "--jobs", "1")
    run_dir = workdir / "out" / "r1"
    first, later = run_dir / "b_dram_write.csv", run_dir / "c_ifmap_sram_read.csv"
    later.unlink()
    first.unlink()

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a trace file is missing, so no pool may start")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "_report_layer", no_pool)
    capsys.readouterr()
    assert run_cli("report", run_dir, "--jobs", "2") == EXIT_IO
    err = capsys.readouterr().err
    assert str(first) in err and str(later) not in err


def _fail_first(n, seen):
    if n == 0:
        raise ValueError("layer 0 fails")
    time.sleep(0.05)
    (seen / str(n)).touch()
    return n


def test_first_failure_cancels_pending_layers(tmp_path):
    # the pool queues at most a few layers ahead of the failed one
    work = [(n, tmp_path) for n in range(40)]
    with pytest.raises(ValueError, match="layer 0 fails"):
        cli._map_layers(_fail_first, work, 2)
    assert len(list(tmp_path.iterdir())) < 10
    assert not multiprocessing.active_children()
    assert cli._map_layers(_fail_first, work[1:4], 2) == [1, 2, 3]


GB = 1 << 30


@pytest.mark.parametrize("cpus, mem_available, per_worker, jobs", [
    (2, None, GB, 2),            # memory unknown: CPUs only
    (None, None, GB, 1),         # CPU count unknown
    (16, None, GB, 8),           # capped at 8
    (16, 100 * GB, GB, 8),
    (4, 3 * GB, GB, 3),          # memory holds three workers
    (4, 3 * GB - 1, GB, 2),
    (4, GB // 2, GB, 1),         # not even one fits: still one
    (1, 100 * GB, GB, 1),
])
def test_default_jobs(cpus, mem_available, per_worker, jobs):
    assert default_jobs(cpus, mem_available, per_worker) == jobs


@pytest.mark.parametrize("text, available", [
    ("MemTotal:  8000 kB\nMemFree:  100 kB\nMemAvailable:  2048 kB\n", 2048 * 1024),
    ("MemTotal:  8000 kB\nMemFree:  100 kB\n", None),
    ("MemAvailable:  lots\n", None),
    ("MemAvailable:\n", None),
])
def test_mem_available_parses_meminfo(tmp_path, text, available):
    (tmp_path / "meminfo").write_text(text)
    assert mem_available(str(tmp_path / "meminfo")) == available


def test_mem_available_unreadable(tmp_path):
    assert mem_available(str(tmp_path / "missing")) is None


def test_default_jobs_follow_available_memory(workdir, monkeypatch):
    write_topology(workdir / "topo.csv", [
        ("a", 6, 6, 3, 3, 2, 4, 1), ("b", 8, 8, 3, 3, 1, 2, 2)])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "mem_available", lambda: cli.WORKER_BASE_BYTES)

    def no_pool(*_args, **_kwargs):
        raise AssertionError("one worker fits, so no pool may start")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    assert run_cli("run", "--config", workdir / "arch.cfg", "--out",
                   workdir / "out", "--run-id", "r1") == EXIT_OK
    with pytest.raises(AssertionError, match="no pool"):
        run_cli("run", "--config", workdir / "arch.cfg", "--out",
                workdir / "out", "--run-id", "r2", "--jobs", "2")


def test_duplicate_layer_names_get_distinct_files(workdir):
    write_topology(workdir / "topo.csv", [
        ("twin", 6, 6, 3, 3, 1, 2, 1), ("twin", 6, 6, 3, 3, 1, 2, 1)])
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "r1", "--jobs", "1")
    manifest = json.loads((workdir / "out" / "r1" / "manifest.json").read_text())
    assert manifest["layer_stems"] == ["twin", "twin_2"]
    assert (workdir / "out" / "r1" / "twin_2_dram_read.csv").exists()

    # a name equal to another layer's suffixed stem gets a stem of its own
    write_topology(workdir / "topo.csv", [
        ("a", 6, 6, 3, 3, 1, 2, 1), ("a", 6, 6, 3, 3, 1, 2, 1), ("a_2", 8, 8, 3, 3, 2, 3, 1)])
    run_cli("run", "--config", workdir / "arch.cfg", "--out", workdir / "out",
            "--run-id", "r2", "--jobs", "1")
    run_dir = workdir / "out" / "r2"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["layer_stems"] == ["a", "a_2", "a_2_2"]
    traces = {p.name for p in run_dir.glob("*.csv")} - {"summary.csv", "network.csv"}
    assert len(traces) == 3 * len(TRACE_KINDS)
    summary = (run_dir / "summary.csv").read_bytes()
    (run_dir / "summary.csv").unlink()
    assert run_cli("report", run_dir) == EXIT_OK
    assert (run_dir / "summary.csv").read_bytes() == summary


def test_sweep_dataflow_default_axes(workdir):
    assert run_cli("sweep", "dataflow", "--config", workdir / "arch.cfg",
                   "--workloads", workdir / "topo.csv",
                   "--out", workdir / "out") == EXIT_OK
    lines = (workdir / "out" / "sweep_dataflow.csv").read_text().strip().split("\n")
    assert len(lines) - 1 == 15  # 5 sizes x 3 dataflows


def test_sweep_memory_single_size(workdir):
    run_cli("sweep", "memory", "--config", workdir / "arch.cfg",
            "--workloads", workdir / "topo.csv", "--sram-sizes", "64",
            "--dataflows", "os", "--out", workdir / "out")
    lines = (workdir / "out" / "sweep_memory.csv").read_text().strip().split("\n")
    assert len(lines) - 1 == 1


def test_sweep_scale_degenerate_ladder(workdir):
    run_cli("sweep", "scale", "--config", workdir / "arch.cfg",
            "--workloads", workdir / "topo.csv", "--pe-ladder", "64",
            "--dataflows", "os", "--out", workdir / "out")
    lines = (workdir / "out" / "sweep_scale.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    net = {r["mode"]: r for r in rows if r["layer"] == "network"}
    assert net["up"]["total_cycles"] == net["out"]["total_cycles"]


def test_sweep_cell_reproducible_from_cli(workdir):
    run_cli("sweep", "dataflow", "--config", workdir / "arch.cfg",
            "--workloads", workdir / "topo.csv", "--sizes", "4",
            "--dataflows", "ws", "--out", workdir / "out")
    lines = (workdir / "out" / "sweep_dataflow.csv").read_text().strip().split("\n")
    cell = dict(zip(lines[0].split(","), lines[1].split(",")))
    run_cli("run", "--config", workdir / "arch.cfg", "--rows", "4", "--cols", "4",
            "--dataflow", "ws", "--no-traces", "--out", workdir / "out",
            "--run-id", "solo", "--jobs", "1")
    net = (workdir / "out" / "solo" / "network.csv").read_text().strip().split("\n")
    total = dict(zip(net[0].split(","), net[-1].split(",")))
    assert cell["total_cycles"] == total["total_cycles"]
    assert float(cell["energy"]) == float(total["energy"])


@pytest.mark.parametrize("study,flag,value", [
    ("aspect", "--total-pes", "100"),
    ("scale", "--pe-ladder", "100"),
    ("scale", "--pe-ladder", "32"),
    ("dataflow", "--sizes", "a"),
    ("dataflow", "--dataflows", "xx"),
])
def test_sweep_rejects_bad_axis(workdir, study, flag, value):
    assert run_cli("sweep", study, "--config", workdir / "arch.cfg",
                   "--workloads", workdir / "topo.csv", flag, value,
                   "--out", workdir / "out") == EXIT_CONFIG
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("study,axis,trend", [
    ("dataflow", ["--sizes", "4"], "4x4    fastest: "),
    ("memory", ["--sram-sizes", "64"], "   64KB -> "),
    ("aspect", ["--total-pes", "64"], "best shape 8x8 "),
    ("scale", ["--pe-ladder", "64"], "64 PEs: up/out runtime ratio 1.000"),
])
def test_sweep_prints_trend_on_stderr(workdir, study, axis, trend, capsys):
    assert run_cli("sweep", study, "--config", workdir / "arch.cfg",
                   "--workloads", workdir / "topo.csv", "--dataflows", "os", *axis,
                   "--out", workdir / "out") == EXIT_OK
    out, err = capsys.readouterr()
    assert out == f"{workdir / 'out' / f'sweep_{study}.csv'}\n"
    assert trend in err


def test_sweep_without_valid_cells_fails(workdir):
    assert run_cli("sweep", "dataflow", "--config", workdir / "arch.cfg",
                   "--workloads", workdir / "nonexistent.csv",
                   "--out", workdir / "out") == EXIT_SIM


def test_cli_entrypoint_help():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
