"""Experiment configuration: defaults, strict validation, hashing.

The config file is JSON with sections mirroring the module split.  Every
field has a default; unknown keys are a hard error naming the dotted path, so
typos cannot silently fall back to defaults.  The fully resolved config is
echoed into every report and hashed (sha256 of its canonical JSON), so the
hash covers every semantically significant field.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import operator

from .fiber import SystemSpec, make_system


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "system": {
        "weights": [0.5, 0.5],
        "branch_count": [2, 3],
        "nonlinearity": [0.05, 0.04],
        "potential_t": 1.0,
        "potential_amp": [0.0, 0.0],
        "obs_offset": [0.2, -0.1],
        "obs_amplitude": 1.0,
        "obs_phase": [0.0, 0.3],
        "alpha": 1.0,
        "eta": None,
        "xi": None,
        "h_tilde": None,
    },
    "numerics": {
        "n_points": 1024,
        "interp": "cubic",
        "pullback_depth": 40,
        "depth_max": 160,
        "duality_tol": 1e-6,
        "sample_depth": 24,
        "epsilon0": 1.0,
        "newton_tol": 1e-13,
    },
    "statistics": {
        "seed": 42,
        "trials": 2000,
        "n": 10000,
        "m": 12,
        "n_base_samples": 600,
        "tail_tol": 1e-4,
        "m_max": 48,
    },
    "experiment": {
        "thermo": {"stream": 0, "chain_length": 8, "n_probe": 50},
        "gap": {"n_x": 8, "n_u": 4, "n_min": 1, "n_max": 20, "battery": "lipschitz"},
        "bounds": {"n_x": 4, "r_grid": [0.0, 0.5, 1.0], "n_max": 12,
                   "uniform_n_x": 100, "uniform_n_max": 30},
        "encoding": {"r_sequence": [0.4, -0.3, 0.2]},
        "condition_h": {"block_n": 1, "block_m": 1, "boundaries": [0, 1, 2],
                        "frequencies": [0.4, 0.4], "k_list": [0, 1, 2, 3, 4, 5, 6]},
        "assumption6": {"n_list": [2, 4, 8], "r_draws": 5,
                        "pair_depths": [2, 4, 6, 8, 12], "pair_reps": 1},
        "decay_base": {"n_list": [0, 1, 2, 3, 4, 5, 6, 7, 8], "n_samples": 100000,
                       "f_window": [0, 2], "g_window": [0, 3]},
        "sigma2": {},
        "clt": {"observable": "default"},
        "lil": {"n_max": 100000, "trials": 200},
        "coboundary": {"n_list": [100, 1000, 10000], "trials": 1000,
                       "observable": "coboundary", "coboundary_const": 0.25},
        "all": {},
    },
}

# Integer settings and their floors: below a floor a run dies inside numpy or
# returns a verdict that means nothing.
INTEGER_FLOORS = {
    "numerics.n_points": 4,  # the widest interpolation stencil (cubic)
    "numerics.pullback_depth": 2,  # conformal_pullback compares depths K and K - 2
    "numerics.sample_depth": 1,  # ensembles need at least one level behind x
    "statistics.n_base_samples": 2,  # base-sample standard errors use ddof = 1
    "statistics.trials": 2,  # orbit-sum variances use ddof = 1
    "statistics.m": 1,  # the covariance series needs s_0 and one lag
    "experiment.gap.n_x": 1,  # a conformal window needs at least one base point
    "experiment.gap.n_min": 1,  # residuals start after one transfer step
    "experiment.gap.n_max": 1,
    "experiment.bounds.n_x": 1,
    "experiment.bounds.uniform_n_x": 1,
    "experiment.lil.n_max": 100,  # the iterated-logarithm probe's shortest horizon
}

# Integer list settings and the number of distinct values each needs.
LIST_SIZES = {
    "experiment.condition_h.k_list": 1,  # the block gap lengths to sample
    "experiment.assumption6.n_list": 2,  # uniformity is a growth trend over n
    "experiment.coboundary.n_list": 2,  # the growth slope is a fit over n
}

SUBCOMMANDS = ("thermo", "gap", "bounds", "encoding", "condition-h", "assumption6",
               "decay-base", "sigma2", "clt", "lil", "coboundary", "all")


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    out = {}
    for key, dval in defaults.items():
        if key in user:
            uval = user[key]
            if isinstance(dval, dict):
                out[key] = _merge(dval, uval, f"{path}{key}.")
            else:
                out[key] = copy.deepcopy(uval)
        else:
            out[key] = copy.deepcopy(dval)
    unknown = set(user) - set(defaults)
    if unknown:
        name = sorted(unknown)[0]
        raise ConfigError(f"unknown config key: {path}{name}")
    return out


def resolve_config(user: dict | None = None) -> dict:
    """Merge a user config over the defaults; unknown keys and out-of-range values are fatal."""
    config = _merge(DEFAULTS, user or {})
    for path, floor in INTEGER_FLOORS.items():
        value = functools.reduce(operator.getitem, path.split("."), config)
        if isinstance(value, bool) or not isinstance(value, int) or value < floor:
            raise ConfigError(f"{path} must be an integer >= {floor}, got {value!r}")
    gap = config["experiment"]["gap"]
    if gap["n_max"] < gap["n_min"]:
        raise ConfigError(f"experiment.gap.n_max must be an integer >= experiment.gap.n_min "
                          f"= {gap['n_min']}, got {gap['n_max']!r}")
    for path, size in LIST_SIZES.items():
        value = functools.reduce(operator.getitem, path.split("."), config)
        if (not isinstance(value, list) or len(value) < size
                or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
                or len(set(value)) < size):
            raise ConfigError(f"{path} must be a list of at least {size} distinct integers, "
                              f"got {value!r}")
    return config


def load_config(path: str | None) -> dict:
    if path is None:
        return resolve_config({})
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed config {path}: line {e.lineno}: {e.msg}") from e
    return resolve_config(user)


def apply_overrides(config: dict, sets) -> dict:
    """Apply KEY=VALUE overrides with dotted paths; values parsed as JSON."""
    out = copy.deepcopy(config)
    for item in sets or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for p in parts[:-1]:
            if p not in node or not isinstance(node[p], dict):
                raise ConfigError(f"unknown config key: {key}")
            node = node[p]
        if parts[-1] not in node:
            raise ConfigError(f"unknown config key: {key}")
        node[parts[-1]] = value
    return resolve_config(out)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def system_from_config(config: dict) -> SystemSpec:
    s = config["system"]
    return make_system(
        weights=tuple(s["weights"]),
        branch_count=tuple(s["branch_count"]),
        nonlinearity=tuple(s["nonlinearity"]),
        potential_t=s["potential_t"],
        potential_amp=tuple(s["potential_amp"]),
        obs_offset=tuple(s["obs_offset"]),
        obs_amplitude=s["obs_amplitude"],
        obs_phase=tuple(s["obs_phase"]),
        alpha=s["alpha"],
        eta=s["eta"],
        xi=s["xi"],
        H_tilde=s["h_tilde"],
    )
