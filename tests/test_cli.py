import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spikeflow
import spikeflow.bench as bench
import spikeflow.cli as cli
from spikeflow.cli import EXIT_GUARD, EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, main
from spikeflow.errors import UnknownNeuronError
from spikeflow.flow import FlowAssignment, format_dimacs, generate_random
from spikeflow.snn import SpikingNetwork
from spikeflow.tnfr import ReductionConfig, check_feasible, parse_tnfr


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ACCEPTING_VERDICT = """{
  "passed": true,
  "snn_accepts": true,
  "accept_step": 1,
  "spikes": 5,
  "flow_feasible": true,
  "witness_valid": true,
  "witness_value": 3,
  "details": []
}
"""
REJECTING_VERDICT = """{
  "passed": true,
  "snn_accepts": false,
  "accept_step": null,
  "spikes": 3,
  "flow_feasible": false,
  "witness_valid": null,
  "witness_value": null,
  "details": []
}
"""


def test_package_exports_resolve():
    assert [name for name in spikeflow.__all__ if not hasattr(spikeflow, name)] == []


def test_generate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.max"
    b = tmp_path / "b.max"
    assert main(["generate", "--nodes", "5", "--edges", "7", "--seed", "1", "--out", str(a)]) == EXIT_OK
    assert main(["generate", "--nodes", "5", "--edges", "7", "--seed", "1", "--out", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()
    assert a.read_text().startswith("c seed 1\np max 5 7\n")


def test_solve_chain_json(tmp_path, capsys):
    path = tmp_path / "chain.max"
    path.write_text("p max 3 2\nn 1 s\nn 3 t\na 1 2 3\na 2 3 5\n")
    code, out, _ = run_cli(capsys, "solve", str(path))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == 3
    assert payload["mode"] == "paper-faithful"
    code, out, _ = run_cli(capsys, "solve", str(path), "--mode", "residual")
    assert json.loads(out)["value"] == 3


def test_solve_residual_with_capacities_above_two_m_plus_one(tmp_path, capsys):
    path = tmp_path / "wide.max"
    path.write_text(format_dimacs(generate_random(12, 18, c_max=500, seed=12)))
    for mode in ("paper-faithful", "residual"):
        code, out, _ = run_cli(capsys, "solve", str(path), "--mode", mode)
        assert code == EXIT_OK, mode
        assert json.loads(out)["value"] == 131, mode


def test_simulate_outputs_trace(tmp_path, capsys):
    netlist = tmp_path / "net.snn"
    netlist.write_text("N 0 1 0 1 1 transmitter\n")
    code, out, _ = run_cli(capsys, "simulate", str(netlist), "--steps", "3")
    assert code == EXIT_OK
    assert out == "time,neuron_id\n0,0\n"

    # --stop-on halts the run at a known neuron's first fire
    netlist = tmp_path / "two.snn"
    netlist.write_text("N 0 1 0 1 1 transmitter\nN 1 1 0 1 0 standard\nS 0 1 1 1\n")
    code, out, _ = run_cli(capsys, "simulate", str(netlist), "--steps", "5")
    assert (code, out) == (EXIT_OK, "time,neuron_id\n0,0\n1,1\n")
    code, out, _ = run_cli(capsys, "simulate", str(netlist), "--steps", "5", "--stop-on", "0")
    assert (code, out) == (EXIT_OK, "time,neuron_id\n0,0\n")
    # an id the netlist does not have is a usage error that names it
    code, out, err = run_cli(capsys, "simulate", str(netlist), "--steps", "5", "--stop-on", "99")
    assert (code, out, err) == (EXIT_USAGE, "", "usage error: --stop-on: no neuron 99 in the netlist\n")
    # so is a token that is not an id at all
    code, out, err = run_cli(capsys, "simulate", str(netlist), "--steps", "5", "--stop-on", "0,x")
    assert (code, out, err) == (EXIT_USAGE, "", "usage error: --stop-on: 'x' is not a neuron id\n")
    # and a negative step count
    code, out, err = run_cli(capsys, "simulate", str(netlist), "--steps", "-1")
    assert (code, out, err) == (EXIT_USAGE, "", "usage error: --steps: -1 is negative\n")


def run_capped(*argv, cwd=None):
    """``spikeflow argv`` in a child whose address space is capped at 1 GiB,
    so a missing memory guard ends in a MemoryError, not in the host's memory."""

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = str(Path(spikeflow.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "spikeflow.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=cap_address_space,
        timeout=60,
    )


def test_generate_refuses_a_pool_over_the_guard():
    proc = run_capped("generate", "--nodes", "100000", "--edges", "100000")
    assert (proc.returncode, proc.stdout) == (EXIT_GUARD, "")
    assert proc.stderr == (
        "guard/budget: 100000 nodes need 4999950000 candidate pairs, over the pool guard 1000000\n"
    )


@pytest.mark.parametrize(
    "argv", [("solve", "huge.max"), ("decide-naive", "huge.max", "-d", "0"), ("tnfr-check", "huge.tnfr")]
)
def test_parsers_refuse_a_node_count_over_the_guard(tmp_path, argv):
    (tmp_path / "huge.max").write_text("p max 100000000 1\nn 1 s\nn 2 t\na 1 2 1\n")
    (tmp_path / "huge.tnfr").write_text("p tnfr 100000000 1 0\nn 1 s\nn 2 t\na 1 2 1 1\n")
    proc = run_capped(*argv, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (EXIT_GUARD, "")
    assert proc.stderr == "guard/budget: 100000000 nodes exceed the node guard 1000000\n"


def test_a_path_longer_than_the_recursion_limit_is_searched(tmp_path, capsys):
    n_arcs = 5000
    assert n_arcs > sys.getrecursionlimit()
    lines = [f"p tnfr {n_arcs + 1} {n_arcs} 0", "n 1 s", f"n {n_arcs + 1} t"]
    lines += [f"a {i} {i + 1} 0 1" for i in range(1, n_arcs + 1)]
    path = tmp_path / "path.tnfr"
    path.write_text("\n".join(lines) + "\n")
    assert check_feasible(parse_tnfr(path.read_text())) == (True, dict.fromkeys(range(n_arcs), 1))
    assert run_cli(capsys, "tnfr-check", str(path)) == (EXIT_OK, "yes\n", "")


def test_bench_usage_errors_come_before_the_sweep(tmp_path, capsys, monkeypatch):
    def no_sweep(config):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "run_bench", no_sweep)
    code, out, err = run_cli(capsys, "bench", "--sizes", "5,x", "--out-dir", str(tmp_path / "s"))
    assert (code, out, err) == (EXIT_USAGE, "", "usage error: --sizes: 'x' is not a size\n")
    assert not (tmp_path / "s").exists()
    for sizes, message in (("5,5", "sizes must not repeat"), ("1", "size 1 is too small for the sparse suite")):
        code, out, err = run_cli(capsys, "bench", "--sizes", sizes, "--out-dir", str(tmp_path / "s"))
        assert (code, out, err) == (EXIT_USAGE, "", f"usage error: --sizes: {message}\n")
        assert not (tmp_path / "s").exists()

    # so is a size whose candidate pairs exceed the generator's pool guard (exit 3)
    code, out, err = run_cli(capsys, "bench", "--sizes", "5,1500", "--out-dir", str(tmp_path / "g"))
    assert (code, out) == (EXIT_GUARD, "")
    assert err == "guard/budget: 1500 nodes need 1124250 candidate pairs, over the pool guard 1000000\n"
    assert not (tmp_path / "g").exists()

    # an output path that is, or lies under, an existing file
    taken = tmp_path / "taken"
    taken.write_text("")
    for out_dir in (taken, taken / "sub"):
        code, out, err = run_cli(capsys, "bench", "--sizes", "5", "--samples", "1", "--out-dir", str(out_dir))
        assert (code, out, err) == (EXIT_USAGE, "", f"usage error: --out-dir: {taken} is not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]  # no directory was made


def test_decide_naive_bit_and_report(tmp_path, capsys):
    path = tmp_path / "edge.max"
    path.write_text("p max 2 1\nn 1 s\nn 2 t\na 1 2 1\n")
    code, out, _ = run_cli(capsys, "decide-naive", str(path), "-d", "0")
    assert (code, out) == (EXIT_OK, "1\n")
    code, out, _ = run_cli(capsys, "decide-naive", str(path), "-d", "1")
    assert (code, out) == (EXIT_OK, "0\n")
    code, out, _ = run_cli(capsys, "decide-naive", str(path), "-d", "0", "--report")
    payload = json.loads(out)
    assert payload["bit"] == 1
    assert payload["accept_fire_time"] == payload["f_max"] + 5


def test_reduce_and_tnfr_check_and_verify(tmp_path, capsys, monkeypatch):
    netlist = tmp_path / "toy.snn"
    netlist.write_text(
        "N 0 1 0 1 1 input\n"
        "N 1 1 0 1 0 accept\n"
        "S 0 1 1 1\n"
    )
    tnfr_path = tmp_path / "toy.tnfr"
    code, out, _ = run_cli(
        capsys, "reduce", str(netlist), "--constant", "0", "--accept", "1",
        "-t", "3", "-e", "6", "--out", str(tnfr_path),
    )
    assert code == EXIT_OK
    assert tnfr_path.read_text().startswith("p tnfr ")

    witness_path = tmp_path / "w.csv"
    code, out, _ = run_cli(
        capsys, "tnfr-check", str(tnfr_path), "--witness", str(witness_path)
    )
    assert (code, out) == (EXIT_OK, "yes\n")
    assert witness_path.read_text().startswith("arc,flow\n")

    validations = []
    validate = ReductionConfig.validate
    monkeypatch.setattr(ReductionConfig, "validate", lambda cfg: validations.append(cfg) or validate(cfg))
    code, out, _ = run_cli(
        capsys, "verify-reduction", str(netlist), "--constant", "0",
        "--accept", "1", "-t", "3", "-e", "6",
    )
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True
    assert out == ACCEPTING_VERDICT
    assert len(validations) == 1


def test_tnfr_check_writes_no_verdict_when_the_witness_cannot_be_written(tmp_path, capsys):
    netlist = tmp_path / "d.snn"
    netlist.write_text("N 0 1 0 1 1 input\nN 1 1 0 1 0 accept\nS 0 1 1 1\n")
    tnfr_path = tmp_path / "d.tnfr"
    code, _, _ = run_cli(
        capsys, "reduce", str(netlist), "--constant", "0", "--accept", "1",
        "-t", "3", "-e", "6", "--out", str(tnfr_path),
    )
    assert code == EXIT_OK
    witness = str(tmp_path / "nodir" / "w.csv")
    verdict = tmp_path / "v.txt"
    for out in ((), ("--out", str(verdict))):
        code, stdout, err = run_cli(capsys, "tnfr-check", str(tnfr_path), "--witness", witness, *out)
        assert (code, stdout) == (EXIT_USAGE, "")
        assert err.startswith("usage error: ")
    assert not verdict.exists()


def test_bench_command_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    code, out, _ = run_cli(
        capsys, "bench", "--suite", "sparse", "--sizes", "5,8", "--samples", "2",
        "--seed", "3", "--out-dir", str(out_dir),
    )
    assert code == EXIT_OK
    assert (out_dir / "bench_sparse_paper-faithful.csv").exists()
    assert (out_dir / "bench_sparse_paper-faithful.dat").exists()
    summary = json.loads((out_dir / "bench_sparse_paper-faithful.summary.json").read_text())
    assert summary["total_instances"] == 4


def test_bench_json_rows_match_the_csv(tmp_path, capsys):
    sweep = ("bench", "--suite", "sparse", "--sizes", "5,8", "--samples", "2", "--seed", "3")
    for fmt in ("csv", "json"):
        code, _, _ = run_cli(capsys, *sweep, "--format", fmt, "--out-dir", str(tmp_path / fmt))
        assert code == EXIT_OK, fmt
    with open(tmp_path / "csv" / "bench_sparse_paper-faithful.csv", newline="") as fh:
        header, *csv_rows = csv.reader(fh)
    json_rows = json.loads((tmp_path / "json" / "bench_sparse_paper-faithful.rows.json").read_text())
    assert header == bench.CSV_COLUMNS
    assert [list(row) for row in json_rows] == [bench.CSV_COLUMNS] * 4
    assert [[str(v) for v in row.values()] for row in json_rows] == csv_rows


def test_exit_codes(tmp_path, capsys, monkeypatch):
    # usage: unknown flag
    code, _, err = run_cli(capsys, "generate", "--bogus")
    assert code == EXIT_USAGE

    # input error: malformed DIMACS
    bad = tmp_path / "bad.max"
    bad.write_text("p max oops\n")
    code, _, err = run_cli(capsys, "solve", str(bad))
    assert code == EXIT_INPUT
    assert "input error" in err

    # missing file is an input error too
    code, _, _ = run_cli(capsys, "solve", str(tmp_path / "nope.max"))
    assert code == EXIT_INPUT

    # input error: a neuron leak other than 0 or 1
    for leak in ("-1", "2", "1/2", "1.5"):
        netlist = tmp_path / "leak.snn"
        netlist.write_text(f"N 1 5 0 {leak} 0 standard\n")
        code, _, err = run_cli(capsys, "simulate", str(netlist), "--steps", "3")
        assert code == EXIT_INPUT, leak
        assert "line 1" in err and "leak" in err, leak

    # usage: an output path that cannot be written
    chain = tmp_path / "chain.max"
    chain.write_text("p max 3 2\nn 1 s\nn 3 t\na 1 2 3\na 2 3 5\n")
    toy = tmp_path / "toy.tnfr"
    toy.write_text("p tnfr 2 1 0\nn 1 s\nn 2 t\na 1 2 1 1\n")
    for argv in (
        ("solve", str(chain), "--out", str(tmp_path / "nodir" / "out.json")),
        ("tnfr-check", str(toy), "--witness", str(tmp_path / "nodir" / "w.csv")),
        ("bench", "--sizes", "5", "--samples", "1", "--out-dir", str(chain)),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith("usage error: ") and err.count("\n") == 1, argv

    # usage: a repeated bench size would solve the same seeded instances twice
    code, _, err = run_cli(capsys, "bench", "--sizes", "5,5", "--samples", "1", "--out-dir", str(tmp_path / "r"))
    assert (code, err) == (EXIT_USAGE, "usage error: --sizes: sizes must not repeat\n")
    assert not (tmp_path / "r").exists()

    # usage: a size whose suite edge count no instance can have, named as given
    for suite, size in (("sparse", "1"), ("sparse", "2"), ("sparse", "3"), ("dense", "1")):
        out_dir = tmp_path / f"small-{suite}-{size}"
        code, _, err = run_cli(
            capsys, "bench", "--suite", suite, "--sizes", size, "--samples", "1", "--out-dir", str(out_dir)
        )
        assert (code, err) == (EXIT_USAGE, f"usage error: --sizes: size {size} is too small for the {suite} suite\n")
        assert not out_dir.exists(), (suite, size)

    # guard: naive decider on an oversized instance
    big = tmp_path / "big.max"
    lines = ["p max 7 10", "n 1 s", "n 7 t"]
    for i in range(2, 7):
        lines.append(f"a 1 {i} 9")
        lines.append(f"a {i} 7 9")
    big.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "decide-naive", str(big), "-d", "0")
    assert code == EXIT_GUARD

    # guard: a TNFR arc whose flow domain is too large to search
    wide = tmp_path / "wide.tnfr"
    wide.write_text("p tnfr 2 1 0\nn 1 s\nn 2 t\na 1 2 0 200\n")
    code, out, err = run_cli(capsys, "tnfr-check", str(wide))
    assert (code, out) == (EXIT_GUARD, "")
    assert "domain too large" in err

    # usage: a negative search limit is named, not reported as a limit exceeded
    code, out, err = run_cli(capsys, "tnfr-check", str(toy), "--budget", "-1")
    assert (code, out, err) == (EXIT_USAGE, "", "usage error: --budget: -1 is negative\n")

    # usage: an out-of-range number is named by its option, before any work
    for argv, message in (
        (("generate", "--nodes", "1", "--edges", "1"), "--nodes: 1 is below 2"),
        (("generate", "--nodes", "5", "--edges", "3"), "--edges: 3 is outside [4, 10]"),
        (("generate", "--nodes", "5", "--edges", "4", "--cmax", "0"), "--cmax: 0 is below 1"),
        (("bench", "--sizes", "5", "--samples", "0", "--out-dir", str(tmp_path / "s")), "--samples: 0 is below 1"),
        (("bench", "--sizes", "5", "--cmax", "0", "--out-dir", str(tmp_path / "c")), "--cmax: 0 is below 1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n"), argv
    assert not (tmp_path / "s").exists() and not (tmp_path / "c").exists()

    # input error: an arc back into the master source, where a flow could cycle
    cycle = tmp_path / "cycle.tnfr"
    cycle.write_text("p tnfr 3 2 0\nn 1 s\nn 3 t\na 1 2 1 1\na 2 1 1 1\n")
    code, out, err = run_cli(capsys, "tnfr-check", str(cycle))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("input error: ") and "line 5" in err

    # invariant: a neuron id that a constructed network lacks is a bug, not an
    # input error (the parsers report their own unknown ids as ParseError)
    def missing_neuron(net, mode):
        raise UnknownNeuronError("no neuron 7")

    monkeypatch.setattr(cli, "solve", missing_neuron)
    code, out, err = run_cli(capsys, "solve", str(chain))
    assert (code, out, err) == (EXIT_INVARIANT, "", "invariant violation: no neuron 7\n")

    # invariant: bench checks each solved flow, here a negative one
    solve = bench.solve
    monkeypatch.setattr(
        bench, "solve", lambda net, mode: replace(solve(net, mode), assignment=FlowAssignment({0: -1}, 0))
    )
    code, _, err = run_cli(capsys, "bench", "--sizes", "5", "--samples", "1", "--out-dir", str(tmp_path / "b"))
    assert code == EXIT_INVARIANT
    assert err.startswith("invariant violation: ") and err.count("\n") == 1
    assert not (tmp_path / "b").exists()  # a failed sweep leaves no directory behind
    monkeypatch.undo()

    # a rejecting network is not a failed verification
    netlist = tmp_path / "reject.snn"
    netlist.write_text(
        "N 0 1 0 1 1 input\nN 1 5 0 1 0 accept\nS 0 1 1 1\n"
    )
    code, out, _ = run_cli(
        capsys, "verify-reduction", str(netlist), "--constant", "0",
        "--accept", "1", "-t", "3", "-e", "6",
    )
    # a rejecting network still verifies (both directions agree): exit 0
    assert code == EXIT_OK
    assert json.loads(out)["passed"] is True
    assert out == REJECTING_VERDICT

    # input error: a netlist that breaks a reduction assumption (delay 0)
    delay0 = tmp_path / "delay0.snn"
    delay0.write_text("N 0 1 0 1 1 input\nN 1 1 0 1 0 accept\nS 0 1 0 1\n")
    for command in ("reduce", "verify-reduction"):
        code, _, err = run_cli(
            capsys, command, str(delay0), "--constant", "0", "--accept", "1", "-t", "3", "-e", "6",
        )
        assert code == EXIT_INPUT, command
        assert "assumption 3" in err

    # guard: a run carries more potential than a chain can hold.  The
    # accepting run ends its horizon with the accept neuron holding 1; the
    # rejecting one leaves neuron 1 holding 2 after its second firing.
    fin = tmp_path / "fin.snn"
    fin.write_text("N 0 1 0 1 1 input\nN 1 1 0 1 0 accept\nS 0 1 2 2\nS 1 1 1 1\n")
    held = tmp_path / "held.snn"
    held.write_text("N 0 1 0 1 1 input\nN 1 2 0 1 0 standard\nN 2 3 0 1 0 accept\nS 0 1 1 3\nS 1 2 1 1\n")
    for netlist, accept, energy in ((fin, "1", "4"), (held, "2", "8")):
        for command in ("reduce", "verify-reduction"):
            code, out, err = run_cli(
                capsys, command, str(netlist), "--constant", "0", "--accept", accept, "-t", "3", "-e", energy,
            )
            assert (code, out) == (EXIT_GUARD, ""), (netlist.name, command)
            assert err.startswith("guard/budget: ") and "carries potential" in err, (netlist.name, command)

    # guard: a time bound whose instance may exceed the node guard is refused
    # before the network is copied or run; this one's bound is 13t + 16 nodes
    accepting = tmp_path / "accepting.snn"
    accepting.write_text("N 0 1 0 1 1 input\nN 1 1 0 1 0 accept\nS 0 1 1 1\n")
    monkeypatch.setattr(SpikingNetwork, "copy", lambda net: pytest.fail("the network was copied"))
    for command in ("reduce", "verify-reduction"):
        code, out, err = run_cli(
            capsys, command, str(accepting), "--constant", "0", "--accept", "1", "-t", "76922", "-e", "1",
        )
        assert (code, out) == (EXIT_GUARD, ""), command
        assert err == "guard/budget: the instance may lay out 1000002 nodes, more than the node guard 1000000\n"


def test_usage_error_for_missing_subcommand(capsys):
    assert main([]) == EXIT_USAGE


# --- fuzzing the command line ------------------------------------------------

NUMBER = st.sampled_from(["-1", "0", "1", "2", "3", "x", "1.5"])
LARGE = st.sampled_from(["-1", "0", "1", "2", "3", "x", "1.5", "100000"])  # bounded by a guard or a skip
REDUCTION_OPTIONS = [("--constant", NUMBER), ("--accept", NUMBER), ("-t", LARGE), ("-e", NUMBER)]
# command -> (whether it reads a file, required options, optional options); None marks a flag
COMMANDS = {
    "simulate": (True, [("--steps", LARGE)], [("--stop-on", NUMBER)]),
    "solve": (True, [], [("--mode", st.sampled_from(["paper-faithful", "residual"]))]),
    "decide-naive": (True, [("-d", NUMBER)], [("--report", None)]),
    "reduce": (True, REDUCTION_OPTIONS, []),
    "verify-reduction": (True, REDUCTION_OPTIONS, []),
    "tnfr-check": (True, [], [("--budget", NUMBER)]),
    "generate": (False, [("--nodes", LARGE), ("--edges", LARGE)], [("--cmax", NUMBER), ("--seed", NUMBER)]),
}
FUZZ_FILES = {
    "chain.max": "p max 3 2\nn 1 s\nn 3 t\na 1 2 3\na 2 3 5\n",
    "toy.snn": "N 0 1 0 1 1 input\nN 1 1 0 1 0 accept\nS 0 1 1 1\n",
    "toy.tnfr": "p tnfr 3 2 0\nn 1 s\nn 3 t\na 1 2 1 2\na 2 3 0 2\n",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / name).write_text(text)
    return root


@st.composite
def command_lines(draw, root):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    reads_file, required, optional = COMMANDS[command]
    argv = [command]
    if reads_file:
        argv.append(str(root / draw(st.sampled_from([*FUZZ_FILES, "missing.max"]))))
    for option, values in required + [opt for opt in optional if draw(st.booleans())]:
        argv += [option] if values is None else [option, draw(values)]
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_command_line_ends_in_an_exit_code_and_one_line(fuzz_dir, data):
    argv = data.draw(command_lines(fuzz_dir))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_GUARD, EXIT_INVARIANT), argv
    if code == EXIT_OK:
        assert err.getvalue() == "", argv
    else:
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
