"""csbmlab benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

A run repeats whole rounds of the workload's fixed work for ``--seconds``
seconds, then checks every output (see ``checks.py``). With ``--trace 0``
it reports wall_s, cpu_s and peak_rss_mb (medians over rounds) and
setup_s (median of several fresh interpreters); with ``--trace 1`` the
per-layer figures from spans and ``python -X importtime``, and the tracing
overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Run output goes to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import checks
import tracing
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = ".perfbench"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 5
CHILD_TIMEOUT_S = 120
CHECK_THREADS = 2

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.abspath("src"), HERE])
    return env


def measure_setup(workload: str) -> float:
    """Seconds from starting a fresh interpreter until the CLI is imported and
    the workload's config is built (the child reads the same monotonic clock)."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", wl.setup_snippet(workload)],
                          env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip()) - start


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds of the csbm, moments and expcli layers
    (``python -X importtime``), medians over a few fresh interpreters."""
    samples: dict[str, list[float]] = {"csbm.import_s": [], "moments.import_s": [],
                                       "expcli.import_s": []}
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import csbmlab.expcli.cli"],
                              env=_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        cumulative = {}
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and \
                    fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        samples["csbm.import_s"].append(cumulative["csbmlab.csbm"])
        samples["moments.import_s"].append(cumulative["csbmlab.moments"])
        # the expcli modules, without the core package they import first
        samples["expcli.import_s"].append(cumulative["csbmlab.expcli.cli"]
                                          - cumulative["csbmlab"])
    return {k: statistics.median(v) for k, v in samples.items()}


def run_cli_process(argv: list[str], log_prefix: str) -> dict:
    """One CLI invocation in a fresh process; its rusage comes from wait4."""
    with open(log_prefix + ".out", "w+") as out, open(log_prefix + ".err", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "csbmlab.expcli.cli", *argv],
                                env=_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"code": proc.returncode, "stdout": out.read(), "stderr": err.read(),
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_mb": usage.ru_maxrss / 1024.0}


def roundtrip_rounds(seed: int, seconds: float, out_dir: str) -> tuple[list[dict], float]:
    """Whole roundtrip rounds, each CLI invocation in a fresh process."""
    rounds, peak = [], 0.0
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        rseed = wl.round_seed(seed, k)
        rdir = os.path.join(out_dir, f"round{k}")
        os.makedirs(rdir)
        wl.write_bad_graphs(rdir)
        ops = wl.roundtrip_ops(rseed, rdir)
        w0 = time.perf_counter()
        results = [run_cli_process(op["argv"], os.path.join(rdir, f"op{i}"))
                   for i, op in enumerate(ops)]
        wall = time.perf_counter() - w0
        peak = max([peak] + [r["maxrss_mb"] for r in results])
        rounds.append({"index": k, "seed": rseed, "dir": rdir, "error": None,
                       "wall_s": wall, "cpu_s": sum(r["cpu_s"] for r in results),
                       "ops": [dict(op, **r) for op, r in zip(ops, results)]})
        k += 1
        if time.perf_counter() >= deadline:
            return rounds, peak


def run_worker(workload: str, seed: int, seconds: float, trace: int, out_dir: str) -> dict:
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", repr(seconds), "--trace", str(trace), "--out", out_dir],
                   env=_env(), timeout=seconds * 4 + CHILD_TIMEOUT_S, check=True)
    with open(os.path.join(out_dir, "worker.json")) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    metrics: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = statistics.median(
            measure_setup(workload) for _ in range(SETUP_REPEATS))
    if workload == "roundtrip" and not trace:
        rounds, peak = roundtrip_rounds(seed, seconds, out_dir)
        worker = {"rounds": rounds, "peak_rss_mb": peak}
    else:
        worker = run_worker(workload, seed, seconds, trace, out_dir)
    rounds = worker["rounds"]
    metrics["wall_s"] = statistics.median(r["wall_s"] for r in rounds)
    metrics["cpu_s"] = statistics.median(r["cpu_s"] for r in rounds)
    metrics["peak_rss_mb"] = worker["peak_rss_mb"]

    with ThreadPoolExecutor(max_workers=CHECK_THREADS) as pool:
        verdict = checks.check(workload, rounds, pool)

    if trace:
        layers = dict(worker["per_layer"])
        layers.update(import_breakdown())
        shown = {name: {"value": layers[name], "unit": unit}
                 for name, unit in tracing.PER_LAYER}
    else:
        shown = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": verdict.correct, "attempted": verdict.attempted,
              "failed": verdict.failed, "metrics": shown}

    for r in rounds:
        shutil.rmtree(r["dir"], ignore_errors=True)
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(dict(result, workload=workload, seed=seed, rounds=len(rounds),
                       round_wall_s=[r["wall_s"] for r in rounds],
                       wrong=verdict.wrong, notes=verdict.notes), fh, indent=1)

    print(f"workload {workload}: seed {seed}, {len(rounds)} rounds, "
          f"trace {'on' if trace else 'off'}")
    for name, m in shown.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  operations: {verdict.attempted} attempted, {verdict.failed} failed; "
          f"outputs {'correct' if verdict.correct else 'WRONG'}")
    for why in verdict.notes[:4] + verdict.wrong[:8]:
        print(f"  - {why[:300]}")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "csbmlab", "__init__.py")):
        print("run from the root of a csbmlab checkout: src/csbmlab is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    results = {w: run_workload(w, args.seed, args.seconds, args.trace)
               for w in wl.WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
