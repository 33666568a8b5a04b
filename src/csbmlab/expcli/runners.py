"""Experiment runners: deterministic CSV/manifest writers for each study.

The four studies share one trial engine, ``_per_trial``: trial i samples a
graph with seed ``seed XOR i``, runs each of the study's schedules once over
it, and reduces each run to a measure (the accuracy, or exp3's gamma per
layer). Whole parameter grids are evaluated against the same trial graph
wherever the model allows it (topology never depends on mu, so a feature
sweep runs as the columns of one feature block through ``run_network``),
and trial results are reduced in index order. Rerunning with the same
config yields byte-identical CSVs; only the manifest's wall-clock line
differs.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .. import moments as mm
from ..csbm import CsbmParams, sample_csbm, with_feature_params
from ..errors import ConfigError, NumericalConsistencyError
from ..network import GATSTAR_RAMP_INTENSITIES, LayerSchedule, run_network
from ..oversmoothing import SimilarityTrace, check_similarity_axioms, fit_decay, gamma
from .config import ExperimentConfig

__all__ = [
    "RunManifest",
    "run_experiment1",
    "run_experiment2",
    "run_experiment3",
    "run_experiment4",
    "run_moment_validation",
    "run_oversmooth_axioms",
    "EXP4_MODELS",
    "snr_unit",
]

# 0.2.0: a sign-attention layer sums agreeing and disagreeing neighbours
# separately (one sparse product per layer), a summation order that moves
# floating-point results in the last digits; exp1, exp2 and exp4 CSVs of the
# demo configs are unchanged, exp3's gamma values are not.
# 0.3.0: the exact moment law sums over the positive-neighbour count k and
# the Monte Carlo oracle reduces each neighbour block in place, so validate's
# closed-form and Monte Carlo columns move in the last digits; the decay fit
# stops where gamma falls to 1e-12 of its first value, which moves exp3's
# fitted rates.
TOOL_VERSION = "0.4.0"

EXP4_MODELS: tuple[tuple[str, tuple[float, ...]], ...] = (
    ("gcn", (0.0, 0.0, 0.0, 0.0)),
    ("gat", (5.0, 5.0, 5.0, 5.0)),
    ("gatstar", GATSTAR_RAMP_INTENSITIES),
)


def snr_unit(n: int) -> float:
    """The SNR scale sqrt(log n) / n^(1/3) that the model-comparison sweep spans."""
    return math.sqrt(math.log(n)) / n ** (1.0 / 3.0)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _write_csv(path: str, columns: tuple[str, ...], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _trial_seeds(config: ExperimentConfig) -> list[int]:
    return [config.seed ^ i for i in range(config.trials)]


def _map_trials(fn, seeds, workers: int):
    """Apply fn to every trial seed; results come back in trial order."""
    if workers <= 0:
        workers = os.cpu_count() or 1
    if workers == 1 or len(seeds) <= 1:
        return [fn(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, seeds))


@dataclass
class RunManifest:
    """Reproducibility record written next to each CSV."""

    experiment: str
    config: ExperimentConfig
    trial_seeds: list[int]
    artifacts: list[str]
    wall_clock_s: float
    extra: dict[str, str]

    def write(self, path: str) -> None:
        lines = [
            f"experiment={self.experiment}",
            f"tool_version={TOOL_VERSION}",
        ]
        for name in ("n", "sigma", "a", "b", "mu", "mu_rule", "layers", "trials",
                     "seed", "as_printed", "out_dir"):
            lines.append(f"{name}={_fmt(getattr(self.config, name))}")
        lines.append("t_grid=" + ",".join(_fmt(t) for t in self.config.t_grid))
        lines.append("trial_seeds=" + ",".join(str(s) for s in self.trial_seeds))
        lines.append("artifacts=" + ",".join(self.artifacts))
        for key in sorted(self.extra):
            lines.append(f"{key}={self.extra[key]}")
        lines.append(f"wall_clock_s={self.wall_clock_s:.3f}")
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")


def _finish(config: ExperimentConfig, name: str, columns, rows,
            started: float, extra: dict[str, str] | None = None) -> str:
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = os.path.join(config.out_dir, f"{name}.csv")
    _write_csv(csv_path, columns, rows)
    manifest = RunManifest(
        experiment=config.experiment,
        config=config,
        trial_seeds=_trial_seeds(config),
        artifacts=[os.path.basename(csv_path)],
        wall_clock_s=time.monotonic() - started,
        extra=extra or {},
    )
    manifest.write(os.path.join(config.out_dir, f"{name}_manifest.txt"))
    return csv_path


def _accuracy_stats(per_trial: np.ndarray) -> tuple[float, float]:
    mean = float(per_trial.mean())
    if per_trial.size > 1:
        stderr = float(per_trial.std(ddof=1) / math.sqrt(per_trial.size))
    else:
        stderr = 0.0
    return mean, stderr


def _accuracy_rows(outer, inner, per_trial: np.ndarray) -> list[tuple]:
    """One (outer, inner, mean, stderr) row per cell of per_trial[trial, outer, inner]."""
    return [(o, x, *_accuracy_stats(per_trial[:, i, j]))
            for i, o in enumerate(outer) for j, x in enumerate(inner)]


def _feature_block(graph, mus, sigma: float) -> np.ndarray:
    """(n, len(mus)) block: column i holds the graph's features redrawn at mus[i]."""
    return np.stack([with_feature_params(graph, mu, sigma).features for mu in mus],
                    axis=1)


@contextmanager
def _study_notes():
    """Record a study's warnings into the yielded manifest entries.

    On exit it holds ``notes``, each distinct message once in first-seen
    order, if any warning was raised: a heterophilic study warns once per
    parameter set it builds, which is once per trial and feature column.
    """
    extra: dict[str, str] = {}
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        yield extra
    notes = "; ".join(dict.fromkeys(str(w.message) for w in record))
    if notes:
        extra["notes"] = notes


def _per_trial(config: ExperimentConfig, params: CsbmParams, schedules, measure,
               mus=None) -> np.ndarray:
    """Every trial of a study, as an array indexed [trial, schedule, ...].

    Trial i samples a graph at ``params`` with seed ``seed XOR i`` and takes
    its own features or, given ``mus``, the block of them redrawn at each
    mean. Each schedule then runs once over those features, and
    ``measure(trace, result)`` reduces the run.
    """
    def one_trial(trial_seed):
        graph = sample_csbm(params, trial_seed)
        block = None if mus is None else _feature_block(graph, mus, config.sigma)
        return [measure(*run_network(graph, schedule, block)) for schedule in schedules]

    return np.array(_map_trials(one_trial, _trial_seeds(config), config.workers))


def _accuracy(trace, result):
    return result.accuracy


def _snapshot_gammas(trace, result):
    return [gamma(x) for x in trace.snapshots]


def _intensity_schedules(config: ExperimentConfig) -> list[LayerSchedule]:
    """One schedule per t in the grid: ``config.layers`` layers at intensity t."""
    return [LayerSchedule.from_intensities([t] * config.layers) for t in config.t_grid]


def run_experiment1(config: ExperimentConfig) -> str:
    """Accuracy versus attention intensity at high feature SNR, one row per (a, t)."""
    started = time.monotonic()
    mu = config.resolved_mu()
    schedules = _intensity_schedules(config)
    with _study_notes() as extra:
        per_trial = np.stack([
            _per_trial(config, CsbmParams.from_ab(config.n, a, config.b, mu, config.sigma),
                       schedules, _accuracy)
            for a in config.a_list], axis=1)
    rows = _accuracy_rows(config.a_list, config.t_grid, per_trial)
    return _finish(config, "exp1", ("a", "t", "mean_accuracy", "stderr"),
                   rows, started, extra)


def run_experiment2(config: ExperimentConfig) -> str:
    """Accuracy versus attention intensity at low SNR, one row per (mu, t)."""
    started = time.monotonic()
    a, b = config.ab()
    mus = config.mu_list
    with _study_notes() as extra:
        params = CsbmParams.from_ab(config.n, a, b, mus[0], config.sigma)
        per_trial = _per_trial(config, params, _intensity_schedules(config),
                               _accuracy, mus)
    rows = _accuracy_rows(mus, config.t_grid, per_trial.transpose(0, 2, 1))
    return _finish(config, "exp2", ("mu", "t", "mean_accuracy", "stderr"),
                   rows, started, extra)


def run_experiment3(config: ExperimentConfig) -> str:
    """Similarity trace through a deep network, one row per (t, layer)."""
    started = time.monotonic()
    a, b = config.ab()
    with _study_notes() as extra:
        params = CsbmParams.from_ab(config.n, a, b, config.resolved_mu(), config.sigma)
        per_trial = _per_trial(config, params, _intensity_schedules(config),
                               _snapshot_gammas)
    mean_gamma = per_trial.mean(axis=0)
    rows = []
    for k, t in enumerate(config.t_grid):
        for layer in range(config.layers + 1):
            rows.append((t, layer, mean_gamma[k, layer]))
        trace = SimilarityTrace(tuple(mean_gamma[k]), f"t={t:g}", config.n)
        fit = fit_decay(trace)
        extra[f"decay_rate_t{t:g}"] = _fmt(fit.decay_rate)
        extra[f"oversmoothing_t{t:g}"] = _fmt(fit.oversmoothing)
    return _finish(config, "exp3", ("t", "layer", "gamma"), rows, started, extra)


def run_experiment4(config: ExperimentConfig) -> str:
    """Model comparison across an SNR sweep, one row per (model, snr)."""
    started = time.monotonic()
    a, b = config.ab()
    unit = snr_unit(config.n)
    snr_grid = unit * np.logspace(math.log10(config.snr_lo), math.log10(config.snr_hi),
                                  config.snr_points)
    schedules = [LayerSchedule.from_intensities(ts) for _, ts in EXP4_MODELS]
    with _study_notes() as extra:
        params = CsbmParams.from_ab(config.n, a, b, snr_grid[0] * config.sigma,
                                    config.sigma)
        per_trial = _per_trial(config, params, schedules, _accuracy,
                               snr_grid * config.sigma)
    rows = _accuracy_rows([model for model, _ in EXP4_MODELS], snr_grid, per_trial)
    extra["snr_threshold"] = _fmt(unit)
    return _finish(config, "exp4", ("model", "snr", "mean_accuracy", "stderr"),
                   rows, started, extra)


# (mu/sigma, t, deg_p, deg_q) cells of the moment-validation sweep.
VALIDATION_GRID: tuple[tuple[float, float, int, int], ...] = tuple(
    (ms, t, dp, dq)
    for ms in (0.2, 1.0, 3.0)
    for t in (0.0, 0.5, 1.0, 2.0)
    for dp, dq in ((20, 10), (100, 40))
)


def run_moment_validation(config: ExperimentConfig,
                          grid=VALIDATION_GRID) -> str:
    """Closed-form one-layer moments against the Monte Carlo oracle, per cell.

    ``z_score`` is the worse of the mean and variance discrepancies in
    standard-error units. Rows with t = 0 are additionally checked against
    the plain-averaging values (mean (deg_p-deg_q)/deg * mu, variance
    sigma^2/deg); a relative error above 1e-10 there aborts the run as a
    numerical inconsistency.
    """
    started = time.monotonic()
    grid = tuple(grid)
    if len(grid) == 0:
        raise ConfigError("moment-validation grid is empty")
    sigma = 1.0
    rows = []
    for index, (ms, t, dp, dq) in enumerate(grid):
        inputs = mm.MomentInputs(mu=ms * sigma, sigma=sigma, t=t, deg_p=dp, deg_q=dq)
        pair = mm.closed_form_moments(inputs)
        mc = mm.monte_carlo_moments(inputs, trials=config.mc_trials,
                                    seed=config.seed ^ index)
        if t == 0.0:
            deg = dp + dq
            exact_mean = (dp - dq) / deg * inputs.mu
            exact_var = sigma * sigma / deg
            if (abs(pair.mu_prime - exact_mean) > 1e-10 * max(abs(exact_mean), 1e-300)
                    or abs(pair.var_prime - exact_var) > 1e-10 * exact_var):
                raise NumericalConsistencyError(
                    f"t=0 reduction violated at cell {inputs}")
        z_mean = abs(pair.mu_prime - mc.mean) / mc.se_mean
        z_var = abs(pair.var_prime - mc.var) / mc.se_var
        rows.append((inputs.mu, sigma, t, dp, dq, pair.mu_prime, mc.mean,
                     mc.se_mean, pair.var_prime, mc.var, max(z_mean, z_var)))
    columns = ("mu", "sigma", "t", "deg_p", "deg_q", "closed_mean", "mc_mean",
               "mc_se", "closed_var", "mc_var", "z_score")
    return _finish(config, "validate", columns, rows, started,
                   {"mc_trials": str(config.mc_trials)})


def run_oversmooth_axioms(config: ExperimentConfig) -> str:
    """Randomised verification of the similarity-measure axioms."""
    started = time.monotonic()
    report = check_similarity_axioms(config.samples, config.seed)
    rows = [
        ("zero_iff_constant", report.zero_iff_constant_ok, 0.0),
        ("triangle", report.triangle_ok, report.worst_triangle_violation),
        ("translation", report.translation_ok, report.worst_translation_error),
    ]
    return _finish(config, "oversmooth_axioms", ("axiom", "ok", "worst_violation"),
                   rows, started, {"samples": str(report.samples)})
