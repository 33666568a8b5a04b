"""The four workloads: their fixed sizes, per-round seeds and CLI operations.

Every workload runs at n = 3000 and sigma = 10. A run repeats whole
rounds of the same operations; round k of a run with seed S uses the base
seed ``S * 4096 + 16 k``, so rounds, runs and the studies' own per-trial
seeds (``seed XOR trial``, trial < 16) do not collide while k < 256.
"""

from __future__ import annotations

import math
import os

N = 3000
SIGMA = 10.0

WORKLOADS = ("sweep", "resample", "moments", "roundtrip")

# sweep: the model-comparison study (exp4: a = 4, b = 2, 4 layers, 20 SNR
# points x gcn/gat/gatstar), two trials per round on two trial workers.
SWEEP_TRIALS = 2
SWEEP_WORKERS = 2
SWEEP_A, SWEEP_B = 4.0, 2.0
SWEEP_SNR_POINTS, SWEEP_SNR_LO, SWEEP_SNR_HI = 20, 0.1, 10.0
SWEEP_MODELS = (("gcn", (0.0, 0.0, 0.0, 0.0)),
                ("gat", (5.0, 5.0, 5.0, 5.0)),
                ("gatstar", (0.0, 0.5, 0.5, 5.0)))

# resample: the intensity study (exp1: a in {2.1, 2.5, 3}, b = 2,
# mu = 2 sigma sqrt(log n), t in {0, 1, 2, 4, 8}, 4 layers), one trial per
# round on one worker: a fresh graph for every (a, trial).
RESAMPLE_TRIALS = 1
RESAMPLE_A = (2.1, 2.5, 3.0)
RESAMPLE_B = 2.0
RESAMPLE_T = (0.0, 1.0, 2.0, 4.0, 8.0)
RESAMPLE_LAYERS = 4

# moments: the 24-cell closed form vs Monte Carlo sweep at a reduced Monte
# Carlo count, then the closed form at every realized (deg_p, deg_q) pair of
# one graph (a = 3, b = 2) at three intensities.
MOMENTS_MC_TRIALS = 10_000
MOMENTS_A, MOMENTS_B = 3.0, 2.0
MOMENTS_MU = 10.0
MOMENTS_T = (0.0, 1.0, 4.0)

# roundtrip: per round, `gen` then `forward --out` for one graph (a = 3,
# b = 2, mu = 4), then `forward` on each of two malformed graph files.
ROUNDTRIP_GRAPHS = 1
ROUNDTRIP_A, ROUNDTRIP_B, ROUNDTRIP_MU = 3.0, 2.0, 4.0
ROUNDTRIP_INTENSITIES = (0.0, 0.5, 0.5, 5.0)
# Header, then three 'label feature' lines, then edges; p > q keeps the
# header's parameters in the homophilic regime, so no warning is printed.
BAD_GRAPHS = {
    "bad-feature-line.txt": "3 0.9 0.5 1.0 1.0 0\n0 -1.5\n1 1.25\nx 2.0\n0 1\n1 2\n",
    "bad-label.txt": "3 0.9 0.5 1.0 1.0 0\n7 -1.5\n0 1.25\n1 2.0\n0 1\n1 2\n",
}


def round_seed(seed: int, k: int) -> int:
    return seed * 4096 + 16 * k


def experiment_args(workload: str, seed: int, out_dir: str) -> tuple[str, dict]:
    """The study and the config values one round of ``workload`` runs."""
    if workload == "sweep":
        return "exp4", dict(n=N, sigma=SIGMA, a=SWEEP_A, b=SWEEP_B,
                            snr_points=SWEEP_SNR_POINTS, snr_lo=SWEEP_SNR_LO,
                            snr_hi=SWEEP_SNR_HI, trials=SWEEP_TRIALS,
                            workers=SWEEP_WORKERS, seed=seed, out_dir=out_dir)
    if workload == "resample":
        return "exp1", dict(n=N, sigma=SIGMA, a_list=RESAMPLE_A, b=RESAMPLE_B,
                            t_grid=RESAMPLE_T, layers=RESAMPLE_LAYERS,
                            trials=RESAMPLE_TRIALS, workers=1, seed=seed,
                            out_dir=out_dir)
    if workload == "moments":
        return "validate-moments", dict(mc_trials=MOMENTS_MC_TRIALS, seed=seed,
                                        out_dir=out_dir)
    raise ValueError(f"{workload} runs no study config")


def setup_snippet(workload: str) -> str:
    """Python source a fresh interpreter runs to import the CLI and build the
    workload's config; it prints the monotonic clock when done."""
    if workload == "roundtrip":
        build = ("from csbmlab.csbm import CsbmParams\n"
                 f"CsbmParams.from_ab({N}, {ROUNDTRIP_A!r}, {ROUNDTRIP_B!r}, "
                 f"{ROUNDTRIP_MU!r}, {SIGMA!r})\n")
    else:
        experiment, kwargs = experiment_args(workload, 0, "unused")
        build = ("from csbmlab.expcli.config import build_config\n"
                 f"build_config({experiment!r}, **{kwargs!r})\n")
    return "import time\nimport csbmlab.expcli.cli\n" + build + "print(repr(time.monotonic()))\n"


def roundtrip_ops(seed: int, out_dir: str) -> list[dict]:
    """CLI operations of one roundtrip round: argv and the exit code expected."""
    intensities = ",".join(f"{t:g}" for t in ROUNDTRIP_INTENSITIES)
    ops = []
    for j in range(ROUNDTRIP_GRAPHS):
        graph_seed = seed + j
        graph = os.path.join(out_dir, f"graph-{graph_seed}.txt")
        ops.append({"kind": "gen", "seed": graph_seed, "graph": graph, "expect": 0,
                    "argv": ["gen", "--n", str(N), "--a", repr(ROUNDTRIP_A),
                             "--b", repr(ROUNDTRIP_B), "--mu", repr(ROUNDTRIP_MU),
                             "--sigma", repr(SIGMA), "--seed", str(graph_seed),
                             "--out", out_dir]})
        ops.append({"kind": "forward", "seed": graph_seed, "graph": graph, "expect": 0,
                    "trace_dir": os.path.join(out_dir, f"forward-{graph_seed}"),
                    "argv": ["forward", "--graph", graph, "--intensities", intensities,
                             "--out", os.path.join(out_dir, f"forward-{graph_seed}")]})
    for name in BAD_GRAPHS:
        path = os.path.join(out_dir, name)
        ops.append({"kind": "bad", "graph": path, "expect": 2,
                    "argv": ["forward", "--graph", path, "--intensities", intensities]})
    return ops


def write_bad_graphs(out_dir: str) -> None:
    for name, text in BAD_GRAPHS.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)


def sweep_snr_grid() -> list[float]:
    """exp4's SNR points: log-spaced over [lo, hi] * sqrt(log n) / n^(1/3)."""
    unit = math.sqrt(math.log(N)) / N ** (1.0 / 3.0)
    lo, hi = math.log10(SWEEP_SNR_LO), math.log10(SWEEP_SNR_HI)
    step = (hi - lo) / (SWEEP_SNR_POINTS - 1)
    return [unit * 10.0 ** (lo + i * step) for i in range(SWEEP_SNR_POINTS)]


def resample_mu() -> float:
    """exp1's feature mean: 2 sigma sqrt(log n)."""
    return 2.0 * SIGMA * math.sqrt(math.log(N))
