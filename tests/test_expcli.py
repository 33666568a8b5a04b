"""Config layering, runner determinism and schemas, plots, CLI surface."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import csbmlab
from csbmlab import (ConfigError, CsbmParams, LayerSchedule, PlotDataError, run_network,
                     sample_csbm, with_feature_params)
from csbmlab.expcli import (build_config, emit_plot, read_csv,
                            run_experiment1, run_experiment2, run_experiment3,
                            run_experiment4, run_moment_validation,
                            run_oversmooth_axioms)
from csbmlab.expcli.cli import main
from csbmlab.expcli.runners import EXP4_MODELS, snr_unit


def tiny(experiment, out_dir, **kw):
    defaults = dict(n=200, trials=3, seed=5, out_dir=str(out_dir), workers=1)
    defaults.update(kw)
    return build_config(experiment, **defaults)


# --- config --------------------------------------------------------------

def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "# comment\n"
        "[exp1]\n"
        "trials = 7\n"
        "t_grid = 0, 2, 4\n"
        "seed = 11\n"
        "\n"
        "[exp3]\n"
        "as-printed = true\n"
    )
    config = build_config("exp1", config_path=str(cfg))
    assert config.trials == 7
    assert config.t_grid == (0.0, 2.0, 4.0)
    assert config.seed == 11
    # flags win over the file
    config = build_config("exp1", config_path=str(cfg), trials=2)
    assert config.trials == 2
    config3 = build_config("exp3", config_path=str(cfg))
    assert config3.as_printed is True
    assert config3.ab() == (2.0, 3.0)


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        build_config("exp9")
    with pytest.raises(ConfigError):
        build_config("exp1", trials=0)
    with pytest.raises(ConfigError):
        build_config("exp1", t_grid=())
    bad = tmp_path / "bad.cfg"
    bad.write_text("[exp1]\ntrials = soon\n")
    with pytest.raises(ConfigError):
        build_config("exp1", config_path=str(bad))
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("[exp1]\nflux = 3\n")
    with pytest.raises(ConfigError):
        build_config("exp1", config_path=str(unknown))


def test_experiment_defaults():
    c1 = build_config("exp1")
    assert c1.n == 3000 and c1.sigma == 10.0 and c1.trials == 100
    assert c1.a_list == (2.1, 2.5, 3.0) and c1.b == 2.0
    assert c1.mu_rule == "2-sigma-sqrt-log-n"
    c2 = build_config("exp2")
    assert (c2.a, c2.b, c2.layers) == (6.0, 2.0, 3)
    assert c2.mu_list == (2.0, 5.0, 10.0)
    c3 = build_config("exp3")
    assert (c3.a, c3.b, c3.mu, c3.layers, c3.trials) == (3.0, 2.0, 10.0, 100, 1)
    c4 = build_config("exp4")
    assert (c4.a, c4.b) == (4.0, 2.0)
    assert c4.ab() == (4.0, 2.0)
    assert build_config("exp4", as_printed=True).ab() == (2.0, 4.0)


# --- runners ----------------------------------------------------------------

def run_twice_identical(runner, make_config, tmp_path):
    paths = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        paths.append(runner(make_config(out)))
    a, b = (open(p, "rb").read() for p in paths)
    assert a == b
    return paths[0]


def test_exp1_schema_and_determinism(tmp_path):
    path = run_twice_identical(
        run_experiment1,
        lambda out: tiny("exp1", out, a_list=(2.5,), t_grid=(0.0, 2.0), layers=2),
        tmp_path)
    header, rows = read_csv(path)
    assert header == ["a", "t", "mean_accuracy", "stderr"]
    assert len(rows) == 2
    assert os.path.exists(os.path.join(os.path.dirname(path), "exp1_manifest.txt"))


def test_exp2_schema(tmp_path):
    path = run_experiment2(tiny("exp2", tmp_path, mu_list=(2.0, 5.0),
                                t_grid=(0.0, 1.0), layers=2))
    header, rows = read_csv(path)
    assert header == ["mu", "t", "mean_accuracy", "stderr"]
    assert len(rows) == 4
    accs = [float(r[2]) for r in rows]
    assert all(0.0 <= a <= 1.0 for a in accs)


def test_exp3_schema_and_verdicts(tmp_path):
    config = tiny("exp3", tmp_path, t_grid=(0.0, 8.0), layers=12, trials=2, mu=3.0)
    path = run_experiment3(config)
    header, rows = read_csv(path)
    assert header == ["t", "layer", "gamma"]
    assert len(rows) == 2 * 13
    manifest = open(os.path.join(os.path.dirname(path), "exp3_manifest.txt")).read()
    # uniform averaging over-smooths; strong attention does not
    assert "oversmoothing_t0=true" in manifest
    assert "oversmoothing_t8=false" in manifest
    # layer-0 row carries gamma of the raw features, near sqrt(mu^2 + sigma^2)
    assert float(rows[0][2]) == pytest.approx(math.sqrt(3.0**2 + 10.0**2), rel=0.15)


def test_exp2_noiseless_features_saturate(tmp_path):
    # with mu far above sigma the readout is exact at every intensity
    path = run_experiment2(tiny("exp2", tmp_path, mu_list=(200.0,),
                                t_grid=(0.0, 5.0), layers=3, trials=2))
    _, rows = read_csv(path)
    assert all(float(r[2]) == 1.0 for r in rows)


def test_exp3_as_printed_is_recorded(tmp_path):
    config = tiny("exp3", tmp_path / "exp3", t_grid=(8.0,), layers=3, trials=1,
                  mu=3.0, as_printed=True)
    path = run_experiment3(config)
    manifest = open(os.path.join(os.path.dirname(path), "exp3_manifest.txt")).read()
    assert "as_printed=true" in manifest
    assert "notes=" in manifest   # heterophilic warning captured
    # exp4 warns once per trial and SNR column; the manifest keeps one copy
    config = tiny("exp4", tmp_path / "exp4", snr_points=3, snr_lo=0.5, snr_hi=2.0,
                  as_printed=True)
    path = run_experiment4(config)
    manifest = open(os.path.join(os.path.dirname(path), "exp4_manifest.txt")).read()
    notes = [line for line in manifest.splitlines() if line.startswith("notes=")]
    assert len(notes) == 1
    assert notes[0].count("outside the homophilic dense regime") == 1


def test_exp4_schema_and_threshold(tmp_path):
    config = tiny("exp4", tmp_path, snr_points=3, snr_lo=0.5, snr_hi=2.0)
    path = run_experiment4(config)
    header, rows = read_csv(path)
    assert header == ["model", "snr", "mean_accuracy", "stderr"]
    models = {r[0] for r in rows}
    assert models == {"gcn", "gat", "gatstar"}
    assert len(rows) == 9
    manifest = open(os.path.join(os.path.dirname(path), "exp4_manifest.txt")).read()
    assert "snr_threshold=" in manifest


def mean_and_stderr_cells(per_trial):
    """The runner's (mean, stderr) of per-trial accuracies, as CSV cells."""
    per_trial = np.asarray(per_trial)
    stderr = per_trial.std(ddof=1) / math.sqrt(per_trial.size)
    return [format(float(per_trial.mean()), ".12g"), format(float(stderr), ".12g")]


def test_exp4_block_equals_per_snr_runs(tmp_path):
    config = tiny("exp4", tmp_path, snr_points=4, snr_lo=0.3, snr_hi=3.0)
    _, rows = read_csv(run_experiment4(config))
    a, b = config.ab()
    snr_grid = snr_unit(config.n) * np.logspace(math.log10(0.3), math.log10(3.0), 4)
    accs = {}
    for i in range(config.trials):
        params = CsbmParams.from_ab(config.n, a, b, snr_grid[0] * config.sigma, config.sigma)
        graph = sample_csbm(params, config.seed ^ i)
        for snr in snr_grid:
            g = with_feature_params(graph, snr * config.sigma, config.sigma)
            for model, intensities in EXP4_MODELS:
                _, result = run_network(g, LayerSchedule.from_intensities(intensities))
                accs.setdefault((model, float(snr)), []).append(result.accuracy)
    want = [[model, format(snr, ".12g")] + mean_and_stderr_cells(accs[model, snr])
            for model, _ in EXP4_MODELS for snr in map(float, snr_grid)]
    assert rows == want


def test_exp2_block_equals_per_mu_runs(tmp_path):
    config = tiny("exp2", tmp_path, mu_list=(0.5, 2.0, 5.0), t_grid=(0.0, 1.0, 5.0),
                  layers=2)
    _, rows = read_csv(run_experiment2(config))
    a, b = config.ab()
    want = []
    for mu in config.mu_list:
        for t in config.t_grid:
            accs = []
            for i in range(config.trials):
                params = CsbmParams.from_ab(config.n, a, b, config.mu_list[0], config.sigma)
                g = with_feature_params(sample_csbm(params, config.seed ^ i), mu, config.sigma)
                _, result = run_network(g, LayerSchedule.from_intensities([t] * 2))
                accs.append(result.accuracy)
            want.append([format(mu, ".12g"), format(t, ".12g")] + mean_and_stderr_cells(accs))
    assert rows == want


def test_validate_runner_small_grid(tmp_path):
    config = tiny("validate-moments", tmp_path, mc_trials=20_000)
    grid = ((1.0, 0.0, 8, 4), (1.0, 1.0, 8, 4))
    path = run_moment_validation(config, grid=grid)
    header, rows = read_csv(path)
    assert header == ["mu", "sigma", "t", "deg_p", "deg_q", "closed_mean",
                      "mc_mean", "mc_se", "closed_var", "mc_var", "z_score"]
    assert len(rows) == 2
    assert all(float(r[-1]) < 6.0 for r in rows)
    with pytest.raises(ConfigError):
        run_moment_validation(config, grid=())


def test_oversmooth_axioms_runner(tmp_path):
    config = tiny("oversmooth-axioms", tmp_path, samples=50)
    path = run_oversmooth_axioms(config)
    header, rows = read_csv(path)
    assert header == ["axiom", "ok", "worst_violation"]
    assert [r[1] for r in rows] == ["true", "true", "true"]


def test_reduced_trials_only_widen_stderr(tmp_path):
    base = run_experiment1(tiny("exp1", tmp_path / "a", a_list=(2.5,),
                                t_grid=(2.0,), layers=1, trials=8))
    small = run_experiment1(tiny("exp1", tmp_path / "b", a_list=(2.5,),
                                 t_grid=(2.0,), layers=1, trials=3))
    h1, r1 = read_csv(base)
    h2, r2 = read_csv(small)
    assert h1 == h2
    assert len(r1) == len(r2) == 1


# --- plots --------------------------------------------------------------------

def test_emit_plot_byte_stable(tmp_path):
    path = run_experiment1(tiny("exp1", tmp_path, a_list=(2.1, 3.0),
                                t_grid=(0.0, 1.0, 4.0), layers=2))
    svg1 = emit_plot(path, "exp1", out_path=str(tmp_path / "p1.svg"))
    svg2 = emit_plot(path, "exp1", out_path=str(tmp_path / "p2.svg"))
    a, b = open(svg1, "rb").read(), open(svg2, "rb").read()
    assert a == b
    text = a.decode()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert text.count("<polyline") == 2


def test_emit_plot_log_scale_and_marker(tmp_path):
    path = run_experiment3(tiny("exp3", tmp_path, t_grid=(0.0,), layers=6,
                                trials=1, mu=3.0))
    svg = emit_plot(path, "exp3", log_scale=True)
    assert svg.endswith("exp3.svg")
    path4 = run_experiment4(tiny("exp4", tmp_path, snr_points=2,
                                 snr_lo=0.5, snr_hi=2.0, trials=2))
    svg4 = emit_plot(path4, "exp4", marker=0.19)
    assert "stroke-dasharray" in open(svg4).read()


def test_emit_plot_reports_bad_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,t,mean_accuracy,stderr\n2.1,0,0.5,0.01\n2.1,broken\n")
    with pytest.raises(PlotDataError) as err:
        emit_plot(str(bad), "exp1")
    assert err.value.line_number == 3
    worse = tmp_path / "worse.csv"
    worse.write_text("a,t,mean_accuracy,stderr\n2.1,zero,0.5,0.01\n")
    with pytest.raises(PlotDataError) as err:
        emit_plot(str(worse), "exp1")
    assert err.value.line_number == 2


# --- CLI ------------------------------------------------------------------------

def test_cli_gen_and_forward(tmp_path, capsys):
    rc = main(["gen", "--n", "200", "--a", "3", "--b", "2", "--mu", "5",
               "--sigma", "1", "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    graph_path = tmp_path / "graph-4.txt"
    assert graph_path.exists()
    rc = main(["forward", "--graph", str(graph_path),
               "--intensities", "0,0.5,5", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out
    assert (tmp_path / "forward.csv").exists()


def test_cli_moments_with_oracle(capsys):
    rc = main(["moments", "--mu", "1", "--sigma", "1", "--t", "1",
               "--deg-p", "8", "--deg-q", "4", "--mc-trials", "20000"])
    assert rc == 0
    out = capsys.readouterr().out
    values = dict(line.split("=") for line in out.strip().splitlines())
    assert float(values["z_score"]) < 6.0


def assert_reproduces_demo_csv(argv, tmp_path, seed="1", artifact=None):
    """Run a demos/05 command into tmp_path; its output must equal out/demo's byte for byte.

    The output is ``artifact``, by default the study's CSV ``<command>.csv``.
    """
    artifact = artifact or f"{argv[0]}.csv"
    committed = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "out", "demo", artifact)
    assert main([*argv, "--seed", seed, "--out", str(tmp_path)]) == 0
    with open(committed, "rb") as fh:
        assert (tmp_path / artifact).read_bytes() == fh.read()


def test_cli_validate_reproduces_the_demo_csv(tmp_path):
    # the committed demo CSV pins the law's and the Monte Carlo's summation
    # order: a change that moves a digit must regenerate it and bump
    # TOOL_VERSION
    assert_reproduces_demo_csv(["validate", "--trials", "20000"], tmp_path)


@pytest.mark.parametrize("argv", [["exp1", "--trials", "10"], ["exp2", "--trials", "10"],
                                  ["exp3"], ["exp4", "--trials", "10"]],
                         ids=lambda argv: argv[0])
def test_cli_study_reproduces_the_demo_csv(argv, tmp_path):
    # the studies' trial engine, seeds and reductions are pinned the same way
    assert_reproduces_demo_csv(argv, tmp_path)


def test_cli_gen_reproduces_the_demo_graph(tmp_path):
    # the committed graph pins the sampler's streams: labels, features and
    # every edge block; a change that moves an edge must regenerate it and
    # bump TOOL_VERSION
    assert_reproduces_demo_csv(["gen", "--n", "1000", "--a", "3", "--b", "2",
                                "--mu", "20", "--sigma", "10"], tmp_path,
                               seed="5", artifact="graph-5.txt")


def test_cli_exp_runner_and_plot(tmp_path):
    rc = main(["exp1", "--n", "200", "--trials", "2", "--seed", "1",
               "--t-grid", "0,4", "--out", str(tmp_path), "--workers", "1"])
    assert rc == 0
    rc = main(["plot", "--csv", str(tmp_path / "exp1.csv"), "--kind", "exp1"])
    assert rc == 0
    assert (tmp_path / "exp1.svg").exists()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["exp1", "--trials", "0", "--out", str(tmp_path)]) == 2
    assert main(["gen", "--n", "200", "--mu", "1", "--sigma", "1"]) == 2
    assert main(["plot", "--csv", str(tmp_path / "missing.csv"), "--kind", "exp1"]) == 2
    capsys.readouterr()


def test_cli_exp1_as_printed_exits_2(tmp_path, capsys):
    # exp1 sweeps a_list against b, so the flag would change nothing the
    # manifest claims it changed
    rc = main(["exp1", "--as-printed", "--n", "200", "--trials", "1", "--workers", "1",
               "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "as_printed" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "exp1.csv").exists()
    with pytest.raises(ConfigError):
        build_config("validate-moments", as_printed=True)


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("[exp1]\nn = 200\ntrials = 2\nt_grid = 0,2\nworkers = 1\n"
                   f"out_dir = {tmp_path}\n")
    assert main(["exp1", "--config", str(cfg)]) == 0
    assert (tmp_path / "exp1.csv").exists()


@pytest.mark.parametrize("name, text, line", [
    ("bad-feature-line.txt", "3 0.9 0.5 1.0 1.0 0\n0 -1.5\n1 1.25\nx 2.0\n0 1\n1 2\n", 4),
    ("bad-label.txt", "3 0.9 0.5 1.0 1.0 0\n7 -1.5\n0 1.25\n1 2.0\n0 1\n1 2\n", 2),
])
def test_cli_forward_on_bad_graph_exits_2(tmp_path, capsys, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    rc = main(["forward", "--graph", str(path), "--intensities", "0,0.5,0.5,5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"line {line}:" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_cli_start_up_loads_no_scipy(tmp_path):
    # importing the CLI, `gen`, and `forward` on a file that fails to parse
    # never need scipy; it is imported where a layer or the moment law runs
    bad = tmp_path / "bad.txt"
    bad.write_text("3 0.9 0.5 1.0 1.0 0\n7 -1.5\n0 1.25\n1 2.0\n")
    script = (
        "import sys\n"
        "import csbmlab.expcli.cli as cli\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print('import', scipy_loaded())\n"
        f"assert cli.main(['gen', '--n', '60', '--a', '3', '--b', '2', '--mu', '1',"
        f" '--sigma', '1', '--out', {str(tmp_path)!r}]) == 0\n"
        "print('gen', scipy_loaded())\n"
        f"assert cli.main(['forward', '--graph', {str(bad)!r}, '--intensities', '1']) == 2\n"
        "print('forward', scipy_loaded())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(csbmlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines() if line.endswith("]")]
    assert lines == ["import []", "gen []", "forward []"]
