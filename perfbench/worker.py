"""Runs the timed rounds of one workload in a process of its own.

    python3 perfbench/worker.py --workload sweep --seed 0 --seconds 10 \
        --trace 0 --out .perfbench/sweep-0

``run.py`` starts it with ``src`` on PYTHONPATH. It repeats whole rounds
until ``--seconds`` have passed, timing each round's wall-clock and CPU
time, and writes ``worker.json`` into ``--out``: the rounds, what the
checks need of each, and the process's peak resident memory, read when the
last round ends. With ``--trace 1`` rounds alternate untraced and traced
(at least three), and it adds the per-layer figures of the traced rounds,
the tracemalloc peaks and the tracing overhead; the spans go to
``spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc

import reference
import tracing
import workloads as wl


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def call_cli(argv: list[str]) -> dict:
    """One CLI invocation in this process: exit code and captured output."""
    from csbmlab.expcli import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _prepare(workload: str, seed: int, out_dir: str) -> dict:
    """Inputs of one round, made before its clock starts."""
    os.makedirs(out_dir, exist_ok=True)
    if workload == "moments":
        p, q = reference.edge_probabilities(wl.N, wl.MOMENTS_A, wl.MOMENTS_B)
        return {"pairs": reference.realized_degree_pairs(wl.N, p, q, seed).tolist()}
    if workload == "roundtrip":
        wl.write_bad_graphs(out_dir)
        return {"ops": wl.roundtrip_ops(seed, out_dir)}
    return {}


def _work(workload: str, seed: int, out_dir: str, inputs: dict, tracer) -> dict:
    """The timed part of one round; returns what the checks need."""
    from csbmlab import moments
    from csbmlab.expcli import config, runners

    def span(name, **kwargs):
        return tracer.span(name, **kwargs) if tracer else contextlib.nullcontext()

    if workload == "roundtrip":
        results = []
        for op in inputs["ops"]:
            name = "expcli.cli.gen" if op["kind"] == "gen" else "expcli.cli.forward"
            with span(name, op=f"cli{len(results)}"):
                results.append(call_cli(op["argv"]))
        return {"ops": [dict(op, **r) for op, r in zip(inputs["ops"], results)]}
    experiment, kwargs = wl.experiment_args(workload, seed, out_dir)
    cfg = config.build_config(experiment, **kwargs)
    runner = {"sweep": runners.run_experiment4, "resample": runners.run_experiment1,
              "moments": runners.run_moment_validation}[workload]
    with span("expcli.runner", root=True):
        csv_path = runner(cfg)
    out = {"csv": csv_path}
    if workload == "moments":
        cells = []
        for t in wl.MOMENTS_T:
            for dp, dq in inputs["pairs"]:
                pair = moments.closed_form_moments(moments.MomentInputs(
                    mu=wl.MOMENTS_MU, sigma=wl.SIGMA, t=t, deg_p=dp, deg_q=dq))
                cells.append((dp, dq, t, pair.mu_prime, pair.var_prime))
        out["cells"] = cells
    return out


def run_rounds(workload: str, seed: int, seconds: float, out_dir: str,
               tracer=None, min_rounds: int = 1) -> list[dict]:
    """Whole rounds until ``seconds`` have passed (at least ``min_rounds``).

    With a tracer, rounds alternate untraced and traced, starting untraced.
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        rseed = wl.round_seed(seed, k)
        rdir = os.path.join(out_dir, f"round{k}")
        inputs = _prepare(workload, rseed, rdir)
        traced = tracer is not None and k % 2 == 1
        record = {"index": k, "seed": rseed, "dir": rdir, "traced": traced}
        with tracer.installed() if traced else contextlib.nullcontext():
            if traced:
                tracer.round = k
            w0, c0 = time.perf_counter(), _cpu()
            try:
                record.update(_work(workload, rseed, rdir, inputs, tracer if traced else None))
                record["error"] = None
            except Exception:
                record["error"] = traceback.format_exc()
            record["wall_s"] = time.perf_counter() - w0
            record["cpu_s"] = _cpu() - c0
        if workload == "moments":
            record["pairs"] = inputs["pairs"]
        rounds.append(record)
        k += 1
        if time.perf_counter() >= deadline and k >= min_rounds:
            return rounds


def _peak_alloc_mb(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def alloc_peaks(workload: str, seed: int) -> dict[str, float]:
    """tracemalloc peaks of one sampler call and one Monte Carlo call, on the
    workloads that make them (0 elsewhere)."""
    from csbmlab import csbm, moments
    peaks = {"csbm.sample_csbm.peak_alloc_mb": 0.0,
             "moments.monte_carlo_moments.peak_alloc_mb": 0.0}
    ab_mu = {"sweep": (wl.SWEEP_A, wl.SWEEP_B, wl.sweep_snr_grid()[0] * wl.SIGMA),
             "resample": (max(wl.RESAMPLE_A), wl.RESAMPLE_B, wl.resample_mu()),
             "roundtrip": (wl.ROUNDTRIP_A, wl.ROUNDTRIP_B, wl.ROUNDTRIP_MU)}
    if workload in ab_mu:
        a, b, mu = ab_mu[workload]
        params = csbm.CsbmParams.from_ab(wl.N, a, b, mu, wl.SIGMA)
        peaks["csbm.sample_csbm.peak_alloc_mb"] = _peak_alloc_mb(
            csbm.sample_csbm, params, seed)
    if workload == "moments":
        # the largest cell of the validation grid, at the workload's count
        inputs = moments.MomentInputs(mu=1.0, sigma=1.0, t=1.0, deg_p=100, deg_q=40)
        peaks["moments.monte_carlo_moments.peak_alloc_mb"] = _peak_alloc_mb(
            moments.monte_carlo_moments, inputs, trials=wl.MOMENTS_MC_TRIALS, seed=seed)
    return peaks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import csbmlab
    src = os.path.abspath("src")
    if not os.path.abspath(csbmlab.__file__).startswith(src + os.sep):
        print(f"csbmlab was imported from {csbmlab.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    result: dict = {}
    if args.trace:
        tracer = tracing.Tracer()
        rounds = run_rounds(args.workload, args.seed, args.seconds, args.out, tracer,
                            min_rounds=3)
        result["rounds"] = rounds
        result["peak_rss_mb"] = _peak_rss_mb()
        layers = tracing.median_round_metrics(tracer.spans)
        layers.update(alloc_peaks(args.workload, args.seed))
        # round 0 is untraced and pays the process's first-call costs: left out
        plain = [r["wall_s"] for r in rounds[2::2]]
        traced = [r["wall_s"] for r in rounds[1::2]]
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["per_layer"] = layers
        tracer.dump(os.path.join(args.out, "spans.json"))
    else:
        result["rounds"] = run_rounds(args.workload, args.seed, args.seconds, args.out)
        result["peak_rss_mb"] = _peak_rss_mb()
    with open(os.path.join(args.out, "worker.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
