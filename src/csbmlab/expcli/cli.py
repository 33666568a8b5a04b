"""Command-line surface.

Subcommands: ``gen`` (sample and dump a graph), ``forward`` (run a layer
schedule over a dumped graph), ``moments`` (closed-form one-layer moments,
optionally Monte Carlo checked), ``oversmooth`` (similarity-measure
axioms), ``exp1``..``exp4`` (the synthetic experiments), ``validate``
(closed-form vs Monte Carlo sweep), ``plot`` (CSV to SVG).

Exit codes: 0 success, 2 configuration/parameter error, 3 numerical
consistency error.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..csbm import CsbmParams, dump_graph, load_graph, sample_csbm
from ..errors import ConfigError, CsbmLabError, NumericalConsistencyError
from ..moments import MomentInputs, closed_form_moments, monte_carlo_moments
from ..network import LayerSchedule, run_network
from ..oversmoothing import gamma
from .config import build_config
from .runners import (run_experiment1, run_experiment2, run_experiment3,
                      run_experiment4, run_moment_validation,
                      run_oversmooth_axioms)
from .svgplot import emit_plot

_EXPERIMENT_RUNNERS = {
    "exp1": run_experiment1,
    "exp2": run_experiment2,
    "exp3": run_experiment3,
    "exp4": run_experiment4,
    "validate": run_moment_validation,
    "oversmooth-axioms": run_oversmooth_axioms,
}


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"cannot parse grid {text!r}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="sectioned key-value config file")
    parser.add_argument("--seed", type=int, help="base seed (trial i uses seed XOR i)")
    parser.add_argument("--trials", type=int, help="number of independent trials")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--as-printed", action="store_true", default=None,
                        help="keep the a/b constants in their published order "
                             "instead of swapping to the homophilic order")
    parser.add_argument("--t-grid", help="comma-separated attention intensities")
    parser.add_argument("--n", type=int, help="node count")
    parser.add_argument("--sigma", type=float, help="feature standard deviation")
    parser.add_argument("--workers", type=int, help="parallel trial workers (default: cores)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csbmlab",
        description="Two-community featured-graph simulation laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a featured graph and dump it as text")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, help="p = a log^2(n)/n")
    p.add_argument("--b", type=float, help="q = b log^2(n)/n")
    p.add_argument("--p", type=float, help="explicit same-class edge probability")
    p.add_argument("--q", type=float, help="explicit cross-class edge probability")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("forward", help="run a layer schedule over a dumped graph")
    p.add_argument("--graph", required=True, help="graph file from 'gen'")
    p.add_argument("--intensities", required=True,
                   help="comma-separated per-layer attention intensities (0 = uniform)")
    p.add_argument("--out", help="directory for the per-layer trace CSV")

    p = sub.add_parser("moments", help="closed-form one-layer moments for one cell")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--deg-p", type=int, required=True)
    p.add_argument("--deg-q", type=int, required=True)
    p.add_argument("--mc-trials", type=int, help="also run the Monte Carlo oracle")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("oversmooth", help="verify the similarity-measure axioms")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", dest="out_dir", default="out")

    for name in ("exp1", "exp2", "exp3", "exp4"):
        p = sub.add_parser(name, help=f"run synthetic experiment {name[-1]}")
        _add_common(p)

    p = sub.add_parser("validate", help="closed-form vs Monte Carlo moment sweep")
    _add_common(p)

    p = sub.add_parser("plot", help="render an experiment CSV as an SVG line plot")
    p.add_argument("--csv", required=True)
    p.add_argument("--kind", required=True, choices=("exp1", "exp2", "exp3", "exp4"))
    p.add_argument("--out", help="output SVG path")
    p.add_argument("--log-scale", action="store_true")
    p.add_argument("--marker", type=float,
                   help="vertical marker position (exp4); defaults to the "
                        "snr_threshold recorded in the manifest next to the CSV")
    return parser


def _cmd_gen(args) -> int:
    if (args.p is None) != (args.q is None):
        raise ConfigError("give both --p and --q, or neither")
    if args.p is not None:
        params = CsbmParams(n=args.n, p=args.p, q=args.q, mu=args.mu, sigma=args.sigma)
    else:
        if args.a is None or args.b is None:
            raise ConfigError("give either --a/--b or --p/--q")
        params = CsbmParams.from_ab(args.n, args.a, args.b, args.mu, args.sigma)
    graph = sample_csbm(params, args.seed)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"graph-{args.seed}.txt")
    dump_graph(graph, path)
    print(f"wrote {path} ({graph.n} nodes, {graph.edges.shape[0]} edges)")
    return 0


def _cmd_forward(args) -> int:
    graph = load_graph(args.graph)
    schedule = LayerSchedule.from_intensities(_parse_grid(args.intensities))
    trace, result = run_network(graph, schedule)
    for note in result.warnings:
        print(f"note: {note}")
    print(f"layers={len(schedule)} accuracy={result.accuracy:.6f} "
          f"perfect={str(result.perfect).lower()}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "forward.csv")
        with open(path, "w", newline="\n") as fh:
            fh.write("layer,gamma\n")
            for layer, snapshot in enumerate(trace.snapshots):
                fh.write(f"{layer},{format(gamma(snapshot), '.12g')}\n")
        print(f"wrote {path}")
    return 0


def _cmd_moments(args) -> int:
    inputs = MomentInputs(mu=args.mu, sigma=args.sigma, t=args.t,
                          deg_p=args.deg_p, deg_q=args.deg_q)
    pair = closed_form_moments(inputs)
    print(f"closed_mean={pair.mu_prime:.12g}")
    print(f"closed_var={pair.var_prime:.12g}")
    if args.mc_trials:
        mc = monte_carlo_moments(inputs, trials=args.mc_trials, seed=args.seed)
        print(f"mc_mean={mc.mean:.12g}")
        print(f"mc_se_mean={mc.se_mean:.12g}")
        print(f"mc_var={mc.var:.12g}")
        print(f"mc_se_var={mc.se_var:.12g}")
        z = max(abs(pair.mu_prime - mc.mean) / mc.se_mean,
                abs(pair.var_prime - mc.var) / mc.se_var)
        print(f"z_score={z:.12g}")
    return 0


def _cmd_oversmooth(args) -> int:
    config = build_config("oversmooth-axioms", samples=args.samples,
                          seed=args.seed, out_dir=args.out_dir)
    path = run_oversmooth_axioms(config)
    print(f"wrote {path}")
    return 0


def _cmd_experiment(args) -> int:
    experiment = "validate-moments" if args.command == "validate" else args.command
    overrides = {
        "seed": args.seed,
        "out_dir": args.out_dir,
        "as_printed": args.as_printed,
        "n": args.n,
        "sigma": args.sigma,
        "workers": args.workers,
    }
    if args.t_grid is not None:
        overrides["t_grid"] = _parse_grid(args.t_grid)
    if args.command == "validate":
        overrides["mc_trials"] = args.trials
    else:
        overrides["trials"] = args.trials
    config = build_config(experiment, config_path=args.config, **overrides)
    runner = _EXPERIMENT_RUNNERS[args.command]
    path = runner(config)
    print(f"wrote {path}")
    return 0


def _cmd_plot(args) -> int:
    marker = args.marker
    if marker is None and args.kind == "exp4":
        manifest = os.path.join(os.path.dirname(args.csv) or ".", "exp4_manifest.txt")
        if os.path.exists(manifest):
            with open(manifest) as fh:
                for line in fh:
                    if line.startswith("snr_threshold="):
                        marker = float(line.split("=", 1)[1])
                        break
    path = emit_plot(args.csv, args.kind, out_path=args.out,
                     log_scale=args.log_scale, marker=marker)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "forward": _cmd_forward,
        "moments": _cmd_moments,
        "oversmooth": _cmd_oversmooth,
        "plot": _cmd_plot,
    }
    handler = handlers.get(args.command, _cmd_experiment)
    try:
        return handler(args)
    except NumericalConsistencyError as exc:
        print(f"numerical consistency error: {exc}", file=sys.stderr)
        return 3
    except (CsbmLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
