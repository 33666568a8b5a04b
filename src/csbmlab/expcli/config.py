"""Experiment configuration: defaults, flat config files, flag overrides.

A config file is a flat key-value text file with one section per
experiment id::

    [exp1]
    trials = 100
    t_grid = 0, 1, 2, 4, 8
    seed = 7

Values are coerced by the target field's type; lists are comma separated.
Precedence is CLI flags > config file > built-in defaults.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigError

__all__ = ["ExperimentConfig", "EXPERIMENTS", "parse_config_file", "build_config"]

EXPERIMENTS = (
    "exp1", "exp2", "exp3", "exp4", "validate-moments", "oversmooth-axioms",
)

# the studies whose graphs use the a/b constants that ``ab()`` may swap
_AB_EXPERIMENTS = ("exp2", "exp3", "exp4")


@dataclass
class ExperimentConfig:
    """One experiment run, fully pinned: model sizes, grids, seeding, output."""

    experiment: str
    n: int = 3000
    sigma: float = 10.0
    a: float = 3.0
    b: float = 2.0
    a_list: tuple[float, ...] = (2.1, 2.5, 3.0)        # exp1 sweeps a
    mu: float | None = None                           # None -> mu_rule
    mu_list: tuple[float, ...] = (2.0, 5.0, 10.0)      # exp2 sweeps mu
    mu_rule: str = "fixed"                             # or "2-sigma-sqrt-log-n"
    t_grid: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0)
    layers: int = 4
    trials: int = 100
    seed: int = 0
    out_dir: str = "out"
    as_printed: bool = False
    snr_points: int = 20
    snr_lo: float = 0.1                                # in units of sqrt(log n)/n^(1/3)
    snr_hi: float = 10.0
    mc_trials: int = 100_000                           # validate-moments
    samples: int = 1000                                # oversmooth-axioms
    workers: int = 0                                   # 0 -> os.cpu_count()

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if len(self.t_grid) == 0:
            raise ConfigError("t_grid must not be empty")
        if self.layers < 1:
            raise ConfigError("layers must be >= 1")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if self.as_printed and self.experiment not in _AB_EXPERIMENTS:
            # exp1 sweeps a_list against b and validate samples no graph, so
            # the flag would be recorded in the manifest without effect
            raise ConfigError(f"as_printed applies to {', '.join(_AB_EXPERIMENTS)} only, "
                              f"not {self.experiment}")

    def resolved_mu(self) -> float:
        if self.mu is not None:
            return self.mu
        if self.mu_rule == "2-sigma-sqrt-log-n":
            return 2.0 * self.sigma * math.sqrt(math.log(self.n))
        raise ConfigError(f"mu not set and mu_rule is {self.mu_rule!r}")

    def ab(self) -> tuple[float, float]:
        """Edge-probability constants, swapped back if the printed order is kept."""
        if self.as_printed:
            return self.b, self.a
        return self.a, self.b


# Per-experiment defaults layered on top of the dataclass defaults.
_DEFAULTS: dict[str, dict[str, Any]] = {
    "exp1": {"b": 2.0, "mu_rule": "2-sigma-sqrt-log-n", "layers": 4,
             "t_grid": (0.0, 1.0, 2.0, 4.0, 8.0)},
    "exp2": {"a": 6.0, "b": 2.0, "layers": 3,
             "t_grid": (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)},
    "exp3": {"a": 3.0, "b": 2.0, "mu": 10.0, "layers": 100, "trials": 1,
             "t_grid": (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)},
    "exp4": {"a": 4.0, "b": 2.0, "layers": 4},
    "validate-moments": {},
    "oversmooth-axioms": {},
}


def _coerce(name: str, raw: Any, target_type: Any) -> Any:
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if target_type is int or name in ("n", "trials", "seed", "layers",
                                          "snr_points", "mc_trials", "samples",
                                          "workers"):
            return int(text)
        if name in ("t_grid", "a_list", "mu_list"):
            return tuple(float(v) for v in text.replace(",", " ").split())
        if name == "as_printed":
            if text.lower() in ("1", "true", "yes", "on"):
                return True
            if text.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(text)
        if name in ("experiment", "out_dir", "mu_rule"):
            return text
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse config value {name} = {raw!r}") from exc


def parse_config_file(path: str) -> dict[str, dict[str, str]]:
    """Read the sectioned key-value file into {section: {key: raw value}}."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if text.startswith("[") and text.endswith("]"):
                name = text[1:-1].strip()
                current = sections.setdefault(name, {})
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if current is None:
                current = sections.setdefault("", {})
            current[key.replace("-", "_")] = value
    return sections


def build_config(experiment: str, config_path: str | None = None,
                 **flag_overrides: Any) -> ExperimentConfig:
    """Layer defaults, the config file section, then explicit flags."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    values: dict[str, Any] = dict(_DEFAULTS[experiment])
    if config_path is not None:
        sections = parse_config_file(config_path)
        values.update(sections.get("", {}))
        values.update(sections.get(experiment, {}))
    for key, value in flag_overrides.items():
        if value is not None:
            values[key] = value
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(values) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    coerced = {name: _coerce(name, raw, fields[name].type) for name, raw in values.items()}
    return ExperimentConfig(experiment=experiment, **coerced)
