"""The benchmark's tracer still finds the functions it wraps.

perfbench/tracing.py swaps the package's public functions, in the modules
that call them, for span-recording wrappers. A renamed function or a call
that bypasses the module global would make `--trace 1` report nothing for
that layer; a tiny exp4 under the tracer shows it.
"""

import os
import sys

from csbmlab import network
from csbmlab.expcli import build_config, runners

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import tracing  # noqa: E402


def test_tiny_exp4_records_network_spans(tmp_path):
    config = build_config("exp4", n=200, trials=2, seed=3, snr_points=3, snr_lo=0.5,
                          snr_hi=2.0, workers=1, out_dir=str(tmp_path))
    original = network.forward_layer
    tracer = tracing.Tracer()
    tracer.round = 0
    with tracer.installed():
        runners.run_experiment4(config)
    assert network.forward_layer is original
    names = {span["name"] for span in tracer.spans}
    assert {"network.forward_layer", "network.run_network", "csbm.sample_csbm",
            "csbm.with_feature_params", "csbm.from_edges"} <= names
    metrics = tracing.round_metrics(tracer.spans)
    # one run_network call per model and trial, each with the model's 4 layers
    layers = sum(len(intensities) for _, intensities in runners.EXP4_MODELS)
    assert metrics["network.forward_layer.calls"] == config.trials * layers
    assert metrics["network.forward_layer.s"] > 0.0
    runs = [s for s in tracer.spans if s["name"] == "network.run_network"]
    assert len(runs) == config.trials * len(runners.EXP4_MODELS)
