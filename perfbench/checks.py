"""Checks of each workload's outputs, run after the timed rounds.

The figures a check compares against come from ``reference``, which shares
no code with the package, or from properties of the model; none is a
stored copy of an earlier output. The package is called here only to
make a check's inputs again: ``sample_csbm`` redraws the graph a trial
used (a seed gives the same graph every time), and ``load_graph`` is the
half of the dump/load round trip under test.

An operation that raised or exited with the wrong code counts as failed.
One whose output is wrong counts as failed and also makes the run
incorrect.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

import reference
import workloads as wl

# CSV cells carry 12 significant digits; an accuracy is a multiple of 1/n.
CSV_TOL = 1e-9
VALIDATE_SE = 4.0          # closed form vs the package's Monte Carlo
VALIDATE_MIN_WITHIN = 23   # of 24 validation cells
EXACT_TOL = 1e-10          # t = 0 reductions
OWN_MC_TRIALS = 40_000
OWN_MC_SE = 5.0


class Verdict:
    """Operations attempted and failed, and what was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []      # wrong outputs: the run is incorrect
        self.notes: list[str] = []      # operations that raised or exited wrongly

    def fail(self, count: int, why: str, wrong: bool) -> None:
        self.failed += count
        (self.wrong if wrong else self.notes).append(why)

    @property
    def correct(self) -> bool:
        return not self.wrong


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _signed(labels) -> np.ndarray:
    return 2 * np.asarray(labels, dtype=np.int64) - 1


def _accuracy(final, labels, degrees, tol) -> tuple[list[int], list[int]]:
    correct, ambiguous = reference.accuracy_counts(final, _signed(labels), degrees, tol)
    return correct.tolist(), ambiguous.tolist()


def _run_columns(graph_edges, n, columns, intensities) -> tuple[list, list, list]:
    table, mask, degrees = reference.neighbour_table(n, graph_edges)
    snapshots = reference.dense_forward(table, mask, columns, intensities)
    return snapshots, degrees, reference.ambiguity_tolerance(columns)


# --- per-graph tasks, run on a thread pool -----------------------------------

def sweep_trial(seed: int) -> dict:
    """Redraw one exp4 trial's graph, check it, and read out every
    (model, SNR) column of the reference."""
    from csbmlab.csbm import CsbmParams, sample_csbm
    grid = np.array(wl.sweep_snr_grid())
    mu0 = grid[0] * wl.SIGMA
    g = sample_csbm(CsbmParams.from_ab(wl.N, wl.SWEEP_A, wl.SWEEP_B, mu0, wl.SIGMA), seed)
    p, q = reference.edge_probabilities(wl.N, wl.SWEEP_A, wl.SWEEP_B)
    problems = reference.sampler_problems(wl.N, p, q, mu0, wl.SIGMA,
                                          g.labels, g.features, g.edges)
    # exp4 keeps each trial's noise and moves the class means: x = s mu + sigma z
    s = _signed(g.labels)
    noise = (g.features - s * mu0) / wl.SIGMA
    x = s[:, None] * (grid * wl.SIGMA)[None, :] + wl.SIGMA * noise[:, None]
    columns = np.tile(x, (1, len(wl.SWEEP_MODELS)))
    intensities = np.array([np.repeat([ts[layer] for _, ts in wl.SWEEP_MODELS], grid.size)
                            for layer in range(len(wl.SWEEP_MODELS[0][1]))])
    snapshots, degrees, tol = _run_columns(g.edges, wl.N, columns, intensities)
    correct, ambiguous = _accuracy(snapshots[-1], g.labels, degrees, tol)
    return {"seed": seed, "problems": problems, "correct": correct, "ambiguous": ambiguous}


def resample_trial(a: float, seed: int) -> dict:
    """Redraw one exp1 (a, trial) graph, check it, and read out each t."""
    from csbmlab.csbm import CsbmParams, sample_csbm
    mu = wl.resample_mu()
    g = sample_csbm(CsbmParams.from_ab(wl.N, a, wl.RESAMPLE_B, mu, wl.SIGMA), seed)
    p, q = reference.edge_probabilities(wl.N, a, wl.RESAMPLE_B)
    problems = reference.sampler_problems(wl.N, p, q, mu, wl.SIGMA,
                                          g.labels, g.features, g.edges)
    columns = np.tile(np.asarray(g.features)[:, None], (1, len(wl.RESAMPLE_T)))
    intensities = np.tile(np.array(wl.RESAMPLE_T), (wl.RESAMPLE_LAYERS, 1))
    snapshots, degrees, tol = _run_columns(g.edges, wl.N, columns, intensities)
    correct, ambiguous = _accuracy(snapshots[-1], g.labels, degrees, tol)
    return {"a": a, "seed": seed, "problems": problems, "correct": correct,
            "ambiguous": ambiguous}


def roundtrip_graph(path: str, seed: int) -> dict:
    """Parse a dumped graph, check it against a fresh draw bit for bit (also
    through ``load_graph``), and run the reference over it."""
    from csbmlab.csbm import CsbmParams, load_graph, sample_csbm
    parsed = reference.parse_graph_text(path)
    p, q = reference.edge_probabilities(wl.N, wl.ROUNDTRIP_A, wl.ROUNDTRIP_B)
    problems = []
    header = (parsed["n"], parsed["p"], parsed["q"], parsed["mu"], parsed["sigma"],
              parsed["seed"])
    if header != (wl.N, p, q, wl.ROUNDTRIP_MU, wl.SIGMA, seed):
        problems.append(f"{path}: header {header}")
    drawn = sample_csbm(CsbmParams.from_ab(wl.N, wl.ROUNDTRIP_A, wl.ROUNDTRIP_B,
                                           wl.ROUNDTRIP_MU, wl.SIGMA), seed)
    loaded = load_graph(path)
    for name, g in (("parsed", parsed), ("load_graph", {
            "labels": loaded.labels, "features": loaded.features, "edges": loaded.edges})):
        same = (np.array_equal(np.asarray(g["labels"]), drawn.labels)
                and np.asarray(g["features"]).tobytes() == drawn.features.tobytes()
                and np.array_equal(np.asarray(g["edges"]), drawn.edges))
        if not same:
            problems.append(f"{path}: {name} graph differs from the sampled one")
    problems += reference.sampler_problems(wl.N, p, q, wl.ROUNDTRIP_MU, wl.SIGMA,
                                           parsed["labels"], parsed["features"],
                                           parsed["edges"])
    intensities = np.array(wl.ROUNDTRIP_INTENSITIES)[:, None]
    snapshots, degrees, tol = _run_columns(parsed["edges"], wl.N,
                                           parsed["features"][:, None], intensities)
    correct, ambiguous = _accuracy(snapshots[-1], parsed["labels"], degrees, tol)
    return {"problems": problems, "edges": int(parsed["edges"].shape[0]),
            "correct": correct[0], "ambiguous": ambiguous[0],
            "gammas": [float(np.std(x[:, 0])) for x in snapshots]}


def own_monte_carlo(dp: int, dq: int, t: float, seed: int) -> dict:
    return dict(reference.monte_carlo_cell(wl.MOMENTS_MU, wl.SIGMA, t, dp, dq,
                                           OWN_MC_TRIALS, seed), dp=dp, dq=dq, t=t)


# --- per-workload checks -----------------------------------------------------

def _study_rows_problem(rows, expected, trials) -> str | None:
    """Compare a study CSV's mean accuracy and stderr columns with the
    reference; ``expected`` lists, per row, (correct, ambiguous) per trial."""
    for row, per_trial in zip(rows, expected):
        lo = np.array([c for c, _ in per_trial]) / wl.N
        hi = np.array([c + a for c, a in per_trial]) / wl.N
        mean, stderr = float(row[-2]), float(row[-1])
        bad = not lo.mean() - CSV_TOL <= mean <= hi.mean() + CSV_TOL
        if not bad and (hi == lo).all():
            want = lo.std(ddof=1) / math.sqrt(trials) if trials > 1 else 0.0
            bad = abs(stderr - want) > CSV_TOL
        if bad:
            return f"row {row} vs reference accuracies {lo.tolist()}..{hi.tolist()}"
    return None


def check_study(workload: str, rounds, pool) -> Verdict:
    """sweep (exp4) and resample (exp1): every trial's graph and every CSV row.

    An operation is one trial of the study: one graph, read out at every
    (model, SNR) for exp4 and every t for exp1. A wrong CSV fails all the
    round's trials.
    """
    if workload == "sweep":
        trials, header = wl.SWEEP_TRIALS, ["model", "snr", "mean_accuracy", "stderr"]
        keys = [(model, snr) for model, _ in wl.SWEEP_MODELS for snr in wl.sweep_snr_grid()]

        def submit(seed):
            return [pool.submit(sweep_trial, seed ^ i) for i in range(trials)]

        def expected(results):
            return [[(t["correct"][k], t["ambiguous"][k]) for t in results]
                    for k in range(len(keys))]

        def key_ok(row, key):
            return row[0] == key[0] and abs(float(row[1]) - key[1]) <= CSV_TOL * key[1]
    else:
        trials, header = wl.RESAMPLE_TRIALS, ["a", "t", "mean_accuracy", "stderr"]
        keys = [(a, t) for a in wl.RESAMPLE_A for t in wl.RESAMPLE_T]

        def submit(seed):
            return [pool.submit(resample_trial, a, seed ^ i)
                    for a in wl.RESAMPLE_A for i in range(trials)]

        def expected(results):
            return [[(t["correct"][k], t["ambiguous"][k]) for t in results if t["a"] == a]
                    for a in wl.RESAMPLE_A for k in range(len(wl.RESAMPLE_T))]

        def key_ok(row, key):
            return (float(row[0]), float(row[1])) == key

    ops = trials if workload == "sweep" else trials * len(wl.RESAMPLE_A)
    v = Verdict()
    jobs = []
    for r in rounds:
        v.attempted += ops
        if r["error"]:
            v.fail(ops, f"round {r['index']} raised: {r['error']}", wrong=False)
        else:
            jobs.append((r, submit(r["seed"])))
    for r, futures in jobs:
        results = [f.result() for f in futures]
        problems = [f"graph {t['seed']}: {t['problems']}" for t in results if t["problems"]]
        got_header, rows = _read_csv(r["csv"])
        if got_header != header or len(rows) != len(keys) or not all(
                key_ok(row, key) for row, key in zip(rows, keys)):
            problems.append("header or row keys differ")
        else:
            problems.append(_study_rows_problem(rows, expected(results), trials))
        problems = [p for p in problems if p]
        if problems:
            v.fail(ops, f"{r['csv']}: {'; '.join(problems)}", wrong=True)
    return v


_FORWARD_LINE = re.compile(r"^layers=(\d+) accuracy=([0-9.]+) perfect=(true|false)$", re.M)


def check_roundtrip(rounds, pool) -> Verdict:
    v = Verdict()
    futures = {}
    for r in rounds:
        for op in r["ops"]:
            v.attempted += 1
            if op["kind"] == "bad":
                if op["code"] != op["expect"] or "Traceback" in op["stderr"]:
                    v.fail(1, f"forward on {os.path.basename(op['graph'])} exited "
                           f"{op['code']}, expected 2 and no traceback", wrong=False)
            elif op["code"] != op["expect"]:
                v.fail(1, f"{op['kind']} {op['argv']} exited {op['code']}: "
                       f"{op['stderr'][-400:]}", wrong=False)
            elif op["kind"] == "gen":
                futures[op["graph"]] = pool.submit(roundtrip_graph, op["graph"], op["seed"])
    for r in rounds:
        for op in r["ops"]:
            if op["kind"] == "bad" or op["code"] != op["expect"]:
                continue
            if op["graph"] not in futures:
                v.fail(1, f"forward on {op['graph']}, which gen did not write", wrong=True)
                continue
            ref = futures[op["graph"]].result()
            if op["kind"] == "gen":
                if ref["problems"] or f"{wl.N} nodes, {ref['edges']} edges" not in op["stdout"]:
                    v.fail(1, f"gen {op['seed']}: {ref['problems']} {op['stdout']!r}",
                           wrong=True)
                continue
            why = _forward_problem(op, ref)
            if why:
                v.fail(1, f"forward {op['seed']}: {why}", wrong=True)
    return v


def _forward_problem(op, ref) -> str | None:
    m = _FORWARD_LINE.search(op["stdout"])
    if not m:
        return f"no result line in {op['stdout']!r}"
    layers, accuracy, perfect = int(m[1]), float(m[2]), m[3] == "true"
    lo, hi = ref["correct"] / wl.N, (ref["correct"] + ref["ambiguous"]) / wl.N
    if layers != len(wl.ROUNDTRIP_INTENSITIES) or not lo - 5e-7 <= accuracy <= hi + 5e-7:
        return f"printed {m[0]!r}, reference accuracy {lo}..{hi}"
    if ref["ambiguous"] == 0 and perfect != (ref["correct"] == wl.N):
        return f"printed {m[0]!r}, reference has {ref['correct']} of {wl.N} correct"
    header, rows = _read_csv(os.path.join(op["trace_dir"], "forward.csv"))
    gammas = [float(row[1]) for row in rows]
    if header != ["layer", "gamma"] or len(gammas) != len(ref["gammas"]) or any(
            abs(g - e) > CSV_TOL * max(e, 1e-300) for g, e in zip(gammas, ref["gammas"])):
        return f"forward.csv gammas {gammas} vs reference {ref['gammas']}"
    return None


VALIDATE_GRID = [(ms, t, dp, dq) for ms in (0.2, 1.0, 3.0) for t in (0.0, 0.5, 1.0, 2.0)
                 for dp, dq in ((20, 10), (100, 40))]


def check_moments(rounds, pool) -> Verdict:
    """An operation is one cell: a row of the 24-cell validation CSV, or the
    closed form at one realized (deg_p, deg_q) pair and intensity."""
    v = Verdict()
    jobs = []
    for r in rounds:
        ops = len(VALIDATE_GRID) + len(r["pairs"]) * len(wl.MOMENTS_T)
        v.attempted += ops
        if r["error"]:
            v.fail(ops, f"round {r['index']} raised: {r['error']}", wrong=False)
            continue
        # the benchmark's own Monte Carlo at three realized cells with t > 0
        by_degree = sorted(r["pairs"], key=lambda pq: (pq[0] + pq[1], pq[0]))
        picks = [(*by_degree[len(by_degree) // 2], wl.MOMENTS_T[1]),
                 (*by_degree[0], wl.MOMENTS_T[-1]), (*by_degree[-1], wl.MOMENTS_T[-1])]
        jobs.append((r, [pool.submit(own_monte_carlo, *cell, r["seed"]) for cell in picks]))
    for r, futures in jobs:
        bad: dict[tuple, str] = _validate_csv_problems(r["csv"])
        closed = {}
        for dp, dq, t, mean, var in r["cells"]:
            closed[(dp, dq, t)] = (mean, var)
            if not (math.isfinite(mean) and math.isfinite(var) and var >= 0.0):
                bad[(dp, dq, t)] = f"mean {mean}, var {var}"
            elif t == 0.0:
                exact_mean = (dp - dq) / (dp + dq) * wl.MOMENTS_MU
                exact_var = wl.SIGMA ** 2 / (dp + dq)
                if (abs(mean - exact_mean) > EXACT_TOL * wl.MOMENTS_MU
                        or abs(var - exact_var) > EXACT_TOL * exact_var):
                    bad[(dp, dq, t)] = f"{mean}, {var} vs t=0 law {exact_mean}, {exact_var}"
        if len(closed) != len(r["pairs"]) * len(wl.MOMENTS_T):
            bad["cells"] = f"{len(closed)} distinct cells returned"
        for f in futures:
            mc = f.result()
            mean, var = closed[(mc["dp"], mc["dq"], mc["t"])]
            if (abs(mean - mc["mean"]) > OWN_MC_SE * mc["se_mean"]
                    or abs(var - mc["var"]) > OWN_MC_SE * mc["se_var"]):
                bad[(mc["dp"], mc["dq"], mc["t"])] = f"{mean}, {var} vs Monte Carlo {mc}"
        if bad:
            v.fail(len(bad), f"round {r['index']}: " + "; ".join(
                f"{cell}: {why}" for cell, why in list(bad.items())[:5]), wrong=True)
    return v


def _validate_csv_problems(path: str) -> dict[tuple, str]:
    """Wrong rows of the 24-cell validation CSV, keyed by cell."""
    header, rows = _read_csv(path)
    col = {name: i for i, name in enumerate(header)}
    try:
        cells = [(float(row[col["mu"]]), float(row[col["t"]]), int(row[col["deg_p"]]),
                  int(row[col["deg_q"]])) for row in rows]
    except (KeyError, IndexError, ValueError) as exc:
        return {("validate",): f"{path}: unreadable ({exc!r})"}
    if cells != VALIDATE_GRID:
        return {("validate",): f"{path}: cells differ from the 24-cell grid"}
    bad = {}
    beyond = [cell for cell, row in zip(cells, rows)
              if not float(row[col["z_score"]]) <= VALIDATE_SE]
    if len(beyond) > len(cells) - VALIDATE_MIN_WITHIN:
        bad.update({cell: f"beyond {VALIDATE_SE} SE" for cell in beyond})
    for (mu, t, dp, dq), row in zip(cells, rows):
        if t != 0.0:
            continue
        sigma = float(row[col["sigma"]])
        exact_mean, exact_var = (dp - dq) / (dp + dq) * mu, sigma * sigma / (dp + dq)
        mean, var = float(row[col["closed_mean"]]), float(row[col["closed_var"]])
        if (abs(mean - exact_mean) > EXACT_TOL * abs(exact_mean)
                or abs(var - exact_var) > EXACT_TOL * exact_var):
            bad[(mu, t, dp, dq)] = f"{mean}, {var} vs t=0 law {exact_mean}, {exact_var}"
    return bad


def check(workload: str, rounds: list[dict], pool) -> Verdict:
    if workload in ("sweep", "resample"):
        return check_study(workload, rounds, pool)
    if workload == "moments":
        return check_moments(rounds, pool)
    return check_roundtrip(rounds, pool)
