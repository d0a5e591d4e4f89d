"""Command-line entry point.

Exit codes: 0 success, 1 usage error (including an output path that cannot
be written), 2 malformed input, 3 guard, search budget or working-memory
capacity exceeded, or an undecided decider (``UndecidedError``: neither
accept nor reject fired), 4 internal invariant violation (including a
neuron id that a constructed network lacks).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .bench import (
    CSV_COLUMNS,
    BenchConfig,
    run_bench,
    write_csv,
    write_divergence_counterexamples,
    write_gnuplot_dat,
    write_summary,
)
from .errors import (
    ConstructionBugError,
    GuardExceeded,
    ParseError,
    SearchBudgetExceeded,
    UndecidedError,
    UnknownNeuronError,
    WorkingMemoryExceeded,
)
from .flow import POOL_GUARD, format_dimacs, generate_random, max_feasible_edges, parse_dimacs
from .maxflow import PAPER_FAITHFUL, RESIDUAL, solve
from .naive import decide_naive
from .snn import format_trace_csv, parse_netlist, run
from .tnfr import (
    ReductionConfig,
    check_feasible,
    format_tnfr,
    format_witness_csv,
    parse_tnfr,
    reduce_network,
    simulate_constrained,
    verify_reduction,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_GUARD = 3
EXIT_INVARIANT = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _read_in(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _check_range(option: str, value: int, low: int, high: int | None = None) -> None:
    """Raise a usage error naming ``option`` when ``value`` lies outside [low, high]."""
    if high is None and value < low:
        raise UsageError(f"{option}: {value} is below {low}")
    if high is not None and not low <= value <= high:
        raise UsageError(f"{option}: {value} is outside [{low}, {high}]")


def cmd_generate(args) -> int:
    _check_range("--nodes", args.nodes, 2)
    _check_range("--edges", args.edges, args.nodes - 1, max_feasible_edges(args.nodes))
    _check_range("--cmax", args.cmax, 1)
    net = generate_random(args.nodes, args.edges, args.cmax, args.seed)
    _write_out(format_dimacs(net, comment=f"seed {args.seed}"), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    net = parse_dimacs(_read_in(args.input))
    result = solve(net, args.mode)
    _write_out(result.to_json() + "\n", args.out)
    return EXIT_OK


def _int_list(option: str, text: str, role: str) -> list[int]:
    """The comma-separated integers given to ``option``; a token that is not one is named."""
    values = []
    for tok in text.split(","):
        try:
            values.append(int(tok))
        except ValueError:
            raise UsageError(f"{option}: {tok!r} is not {role}") from None
    return values


def cmd_simulate(args) -> int:
    if args.steps < 0:
        raise UsageError(f"--steps: {args.steps} is negative")
    net = parse_netlist(_read_in(args.netlist))
    stop = None
    if args.stop_on:
        stop = set(_int_list("--stop-on", args.stop_on, "a neuron id"))
        unknown = stop - net.neurons.keys()
        if unknown:
            raise UsageError(f"--stop-on: no neuron {min(unknown)} in the netlist")
    _write_out(format_trace_csv(run(net, args.steps, stop_on_fire=stop)), args.out)
    return EXIT_OK


def cmd_decide_naive(args) -> int:
    net = parse_dimacs(_read_in(args.input))
    outcome = decide_naive(net, args.threshold)
    bit = 1 if outcome.accepted else 0
    if args.report:
        payload = {
            "bit": bit,
            "accept_fire_time": outcome.accept_fire_time,
            "f_max": outcome.layout.f_max,
            "candidates": outcome.layout.n_candidates,
            "neurons": outcome.layout.n_neurons,
            "report": outcome.report.to_dict(),
        }
        _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _write_out(f"{bit}\n", args.out)
    return EXIT_OK


def _reduction_config_from_args(args) -> ReductionConfig:
    """The configuration as given, not yet validated."""
    # the netlist format carries structure only; the reduction's semantics
    # always use overflow resets, a flag read only when a neuron fires
    net = parse_netlist(_read_in(args.netlist))
    net.overflow_reset = True
    return ReductionConfig(
        net=net,
        constant_id=args.constant,
        accept_id=args.accept,
        time_bound=args.time_bound,
        energy_bound=args.energy_bound,
    )


def _validated(fn, cfg: ReductionConfig):
    """``fn(cfg)``, where ``fn`` validates first; a broken assumption raises ParseError."""
    try:
        return fn(cfg)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def cmd_reduce(args) -> int:
    cfg = _reduction_config_from_args(args)
    _write_out(format_tnfr(reduce_network(cfg, _validated(simulate_constrained, cfg))), args.out)
    return EXIT_OK


def cmd_tnfr_check(args) -> int:
    if args.budget < 0:
        raise UsageError(f"--budget: {args.budget} is negative")
    feasible, witness = check_feasible(parse_tnfr(_read_in(args.input)), budget=args.budget)
    # the witness first: a witness path that cannot be written leaves no verdict
    if feasible and args.witness:
        Path(args.witness).write_text(format_witness_csv(witness))
    _write_out("yes\n" if feasible else "no\n", args.out)
    return EXIT_OK


def cmd_verify_reduction(args) -> int:
    cfg = _reduction_config_from_args(args)
    verdict = _validated(verify_reduction, cfg)
    _write_out(json.dumps({"passed": verdict.passed, **asdict(verdict)}, indent=2) + "\n", args.out)
    return EXIT_OK if verdict.passed else EXIT_INVARIANT


def cmd_bench(args) -> int:
    _check_range("--samples", args.samples, 1)
    _check_range("--cmax", args.cmax, 1)
    sizes = _int_list("--sizes", args.sizes, "a size") if args.sizes else []
    out_dir = Path(args.out_dir)
    # the sweep can run for minutes: refuse an output path under a file first
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"--out-dir: {existing} is not a directory")
    try:
        config = BenchConfig(
            suite=args.suite,
            sizes=sizes,
            samples=args.samples,
            c_max=args.cmax,
            seed=args.seed,
            mode=args.mode,
        )
    except ValueError as exc:  # the other fields are checked above or by their choices
        raise UsageError(f"--sizes: {exc}") from None
    rows, summary = run_bench(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"bench_{config.suite}_{config.mode}"
    if args.format == "csv":
        write_csv(rows, out_dir / f"{stem}.csv")
    else:
        payload = [dict(zip(CSV_COLUMNS, r.as_csv_values())) for r in rows]
        (out_dir / f"{stem}.rows.json").write_text(json.dumps(payload, indent=2))
    write_gnuplot_dat(rows, out_dir / f"{stem}.dat")
    write_summary(summary, out_dir / f"{stem}.summary.json")
    counterexamples = write_divergence_counterexamples(rows, out_dir)
    sys.stdout.write(
        f"{len(rows)} instances; {summary['total_divergent']} divergent"
        f" ({len(counterexamples)} counterexample files); results in {out_dir}\n"
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="spikeflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate",
        help="emit a random DIMACS instance",
        description="Emit a random connected DAG instance. The generator holds all"
        f" n(n-1)/2 candidate pairs, at most {POOL_GUARD:,}; a larger --nodes exits 3.",
    )
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--cmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("solve", help="run the spiking max-flow controller")
    p.add_argument("input", help="DIMACS max-flow file")
    p.add_argument("--mode", choices=[PAPER_FAITHFUL, RESIDUAL], default=PAPER_FAITHFUL)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="run a netlist and emit its spike trace")
    p.add_argument("netlist")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--stop-on", help="comma-separated neuron ids that halt the run")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("decide-naive", help="single-consultation exponential decider")
    p.add_argument("input", help="DIMACS max-flow file")
    p.add_argument("-d", "--threshold", type=int, required=True)
    p.add_argument("--report", action="store_true", help="emit a JSON report instead of the bit")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_decide_naive)

    for name, fn, summary in (
        ("reduce", cmd_reduce, "unroll a constrained netlist into a TNFR instance"),
        ("verify-reduction", cmd_verify_reduction, "check the reduction biconditional"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("netlist")
        p.add_argument("--constant", type=int, required=True, help="always-firing input neuron id")
        p.add_argument("--accept", type=int, required=True, help="acceptance neuron id")
        p.add_argument("-t", "--time-bound", type=int, required=True)
        p.add_argument("-e", "--energy-bound", type=int, required=True)
        p.add_argument("--out")
        p.set_defaults(fn=fn)

    p = sub.add_parser("tnfr-check", help="decide a TNFR instance exactly")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=10**8, help="node expansions the search may make before it"
                   " exits 3 (default %(default)s; a rejecting instance of ~1,000 arcs can take minutes to spend it)")
    p.add_argument("--witness", help="write the feasible flow as CSV here")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tnfr_check)

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("--suite", choices=["sparse", "dense"], default="sparse")
    p.add_argument("--sizes", help="comma-separated node counts (default: suite range)")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--cmax", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=[PAPER_FAITHFUL, RESIDUAL, "classical"], default=PAPER_FAITHFUL)
    p.add_argument("--out-dir", default="bench-out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (UsageError, OSError) as exc:
        # input files are read through _read_in, so an OSError is an output path
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except ParseError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except (GuardExceeded, SearchBudgetExceeded, UndecidedError, WorkingMemoryExceeded) as exc:
        sys.stderr.write(f"guard/budget: {exc}\n")
        return EXIT_GUARD
    except (ConstructionBugError, UnknownNeuronError) as exc:
        # the parsers turn an unknown neuron id into a ParseError, so one that
        # reaches here came from a construction
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
