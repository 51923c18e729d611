"""Command-line front end.

Subcommands: solve, analyze, trace, generate, simulate.  ``analyze`` maps
its verdict onto the exit code (0 converges, 2 diverges, 3 inconclusive)
so CI scripts can gate on it; every command exits 1 on a usage, file or
validation problem.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from pathlib import Path

from . import analysis, engine, generate, network
from .model import InvalidModelError, build_factor_graph, load_model, save_model
from .oracle import dense_posterior

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGES = 2
EXIT_INCONCLUSIVE = 3

_INIT_CHOICES = {
    "zero": engine.InitStrategy.zero,
    "L": engine.InitStrategy.lower_bound,
    "U": engine.InitStrategy.upper_bound,
}


def _fmt(value: float) -> str:
    return format(value, ".12g")


_SHARED_FLAGS = {
    "--model": dict(type=Path, help="model file to read"),
    "--tol": dict(type=float, default=engine.DEFAULT_TOLERANCE, help="convergence tolerance"),
    "--max-iters": dict(type=int, default=engine.DEFAULT_MAX_ITERS, help="sweep/tick budget"),
    "--init": dict(choices=sorted(_INIT_CHOICES), default="zero",
                   help="initial message precisions"),
    "--seed": dict(type=int, help="seed for randomized commands"),
    "--out": dict(type=Path, help="output file path"),
    "--oracle": dict(action="store_true", help="also print the exact posterior and deviations"),
}


def _shared_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbpkit",
        description="Gaussian belief propagation with convergence certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run message passing and print beliefs")
    _shared_flags(p, "--model", "--tol", "--max-iters", "--init", "--oracle")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="print a convergence certificate")
    _shared_flags(p, "--model", "--tol")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("trace", help="write per-sweep convergence-rate CSV")
    _shared_flags(p, "--model", "--tol", "--max-iters", "--init", "--out")
    p.add_argument("--compare-inits", action="store_true",
                   help="write one trace per init in {zero, L, U}")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("generate", help="write a random model file")
    _shared_flags(p, "--seed", "--out")
    p.add_argument("--kind", choices=generate.KINDS, required=True)
    p.add_argument("--size", type=int, required=True, help="number of variables")
    p.add_argument("--coeff-range", type=float, nargs=2, default=(-2.0, 2.0),
                   metavar=("LOW", "HIGH"))
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="run the agent network")
    _shared_flags(p, "--model", "--tol", "--max-iters", "--seed", "--oracle")
    p.add_argument("--schedule", choices=(network.SCHEDULE_SYNCHRONOUS,
                                          network.SCHEDULE_RANDOM_SEQUENTIAL),
                   default=network.SCHEDULE_SYNCHRONOUS)
    p.add_argument("--log", type=Path, help="write the per-message event log CSV")
    p.set_defaults(func=cmd_simulate)
    return parser


def _require_model(args):
    if args.model is None:
        raise ValueError(f"{args.command}: --model is required")
    return load_model(args.model)


def _print_beliefs(beliefs: engine.BeliefSet, posterior=None) -> None:
    oracle = "" if posterior is None else f" {'oracle_mean':>20} {'oracle_var':>20}"
    print(f"{'variable':<12} {'mean':>20} {'variance':>20}{oracle}")
    worst_mean = 0.0
    worst_var = 0.0
    for vid in beliefs.means:
        mean, variance = beliefs.means[vid], beliefs.variances[vid]
        if posterior is not None:
            exact_mean, exact_var = posterior.mean_of(vid), posterior.variance_of(vid)
            worst_mean = max(worst_mean, abs(mean - exact_mean))
            worst_var = max(worst_var, abs(variance - exact_var))
            oracle = f" {_fmt(exact_mean):>20} {_fmt(exact_var):>20}"
        print(f"{vid:<12} {_fmt(mean):>20} {_fmt(variance):>20}{oracle}")
    if posterior is not None:
        print(f"max |mean - oracle_mean|: {_fmt(worst_mean)}")
        print(f"max |variance - oracle_var|: {_fmt(worst_var)}")


def cmd_solve(args) -> int:
    model = _require_model(args)
    # Before the run, so a model over the oracle's size cap fails fast.
    posterior = dense_posterior(model) if args.oracle else None
    graph = build_factor_graph(model)
    result = engine.run(
        graph, model,
        strategy=_INIT_CHOICES[args.init](),
        tolerance=args.tol,
        max_iters=args.max_iters,
    )
    _print_beliefs(result.beliefs, posterior)
    print(f"status: {result.status} after {result.state.iteration} sweeps")
    return EXIT_OK


def cmd_analyze(args) -> int:
    model = _require_model(args)
    graph = build_factor_graph(model)
    cert = analysis.certify(graph, model, tolerance=args.tol)
    # Computed before the first line, so a model it refuses prints nothing.
    walk = cert.walk_summability
    cycles = ", ".join(str(c) for c in cert.topology.component_cycles)
    print(f"topology: {cert.topology.kind} (cycles per component: {cycles})")
    print(f"graph: {len(graph.variable_ids)} variables, {len(graph.factor_ids)} factors, "
          f"{len(graph.edge_var)} edges")
    if cert.bounds.lower:
        lo, hi = cert.bounds.lower.array, cert.bounds.upper.array
        print(f"precision bounds: lower in [{_fmt(lo.min())}, {_fmt(lo.max())}], "
              f"upper in [{_fmt(hi.min())}, {_fmt(hi.max())}]")
    print(f"fixed point reached in {cert.fixed_point.iterations} iterations")
    print(f"mean-update spectral radius: {_radius_line(cert)}")
    kind = {True: "walk-summable", False: "not walk-summable", None: "undecided"}
    print(f"walk-summability radius: {_fmt(walk.radius)} in [{_fmt(walk.lower)}, "
          f"{_fmt(walk.upper)}] ({kind[walk.is_walk_summable]})")
    print(f"verdict: {cert.describe()}")
    if cert.verdict == analysis.VERDICT_CONVERGES:
        return EXIT_OK
    if cert.verdict == analysis.VERDICT_DIVERGES:
        return EXIT_DIVERGES
    return EXIT_INCONCLUSIVE


def _radius_line(cert: analysis.ConvergenceCertificate) -> str:
    """The path that decided the verdict, without computing a radius it did not need."""
    if cert.basis == analysis.BASIS_TOPOLOGY:
        return "not computed (topology decides)"
    bound = cert.mean_radius_bound
    if bound is not None and bound < 1.0 - analysis.SPECTRAL_MARGIN:
        return f"<= {_fmt(bound)} (Collatz-Wielandt bound)"
    return f"{_fmt(cert.mean_spectral_radius)} (dense eigensolve)"


def cmd_trace(args) -> int:
    model = _require_model(args)
    graph = build_factor_graph(model)
    out = args.out if args.out is not None else Path("trace.csv")
    if args.compare_inits:
        paths = {name: out.with_name(f"{out.stem}_{name}{out.suffix or '.csv'}")
                 for name in ("zero", "L", "U")}
    else:
        paths = {args.init: out}
    # Every output is opened before the first trace, in append mode so that
    # nothing is truncated yet, and written after the last: a failure leaves
    # the files that were there as they were and removes the ones it created.
    created = []
    try:
        with ExitStack() as stack:
            files = {}
            for name, path in paths.items():
                if not path.exists():
                    created.append(path)
                files[name] = stack.enter_context(path.open("a", encoding="utf-8"))
            traces = {name: analysis.rate_trace(graph, model, _INIT_CHOICES[name](),
                                                tolerance=args.tol, max_iters=args.max_iters)
                      for name in paths}
            for name, file in files.items():
                file.truncate(0)
                file.write(analysis.trace_to_csv(traces[name]))
    except BaseException:
        for path in created:
            path.unlink(missing_ok=True)
        raise
    for name, points in traces.items():
        print(f"wrote {paths[name]} ({len(points)} rows, init {name}, "
              f"final distance {_fmt(points[-1].distance)})")
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.seed is None:
        raise ValueError("generate: --seed is required")
    if args.out is None:
        raise ValueError("generate: --out is required")
    model = generate.generate_model(args.kind, args.size, args.seed, tuple(args.coeff_range))
    save_model(model, args.out)
    print(f"wrote {args.out} (kind {args.kind}, {len(model.variables)} variables, "
          f"{len(model.factors)} factors, seed {args.seed})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = _require_model(args)
    if args.schedule == network.SCHEDULE_RANDOM_SEQUENTIAL:
        if args.seed is None:
            raise ValueError("simulate: --seed is required for the random-sequential schedule")
        schedule = network.Schedule.random_sequential(args.seed)
    else:
        schedule = network.Schedule.synchronous()
    # Before the run, so a model over the oracle's size cap fails fast.
    posterior = dense_posterior(model) if args.oracle else None
    result = network.simulate(
        model, schedule, tolerance=args.tol, max_ticks=args.max_iters,
        log_path=args.log,
    )
    _print_beliefs(result.beliefs, posterior)
    print(f"status: {result.status} after {result.ticks} ticks "
          f"({result.messages_sent} messages)")
    if args.log is not None:
        print(f"wrote {args.log}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits 2 on a usage error, which is analyze's certified-diverges code.
        return EXIT_OK if not stop.code else EXIT_ERROR
    try:
        return args.func(args)
    except InvalidModelError as err:
        print("error: invalid model", file=sys.stderr)
        for violation in err.violations:
            print(f"  - {violation}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


def run_main() -> None:
    raise SystemExit(main())
