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
import math
import operator

from .base import SpecError
from .fiber import INTERP_ORDERS, PER_SYMBOL, SystemSpec, make_system


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
    "experiment.condition_h.block_n": 1,  # condition (H) couples two nonempty block groups
    "experiment.condition_h.block_m": 1,
}

# Integer list settings: values needed, all distinct (a fit counts a repeat twice), and least value.
LIST_SIZES = {
    "experiment.condition_h.k_list": (1, 0),  # the block gap lengths to sample
    "experiment.assumption6.n_list": (2, 1),  # uniformity is a growth trend over n
    "experiment.coboundary.n_list": (2, 1),  # the growth slope is a fit over log n
    "experiment.decay_base.n_list": (1, 0),  # the separations to sample
}

# Model fields whose config path is not system.<field>.
SYSTEM_PATHS = {"alphabet_size": "system.weights", "H_tilde": "system.h_tilde",
                "gamma_star": "system.branch_count and system.nonlinearity"}

# Tolerances and the frequency radius: at or below zero their checks can never pass.
POSITIVE = ("numerics.duality_tol", "numerics.newton_tol", "statistics.tail_tol", "numerics.epsilon0")

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


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_system_types(s: dict):
    """The JSON types make_system takes on trust; SystemSpec and its parts check the values."""
    for name in ("weights",) + PER_SYMBOL:
        v = s[name]
        if not (isinstance(v, list) and v and all(_real(a) for a in v)):
            raise ConfigError(f"system.{name} must be a nonempty list of numbers, got {v!r}")
    if any(type(d) is not int for d in s["branch_count"]):
        raise ConfigError(f"system.branch_count must hold integers, got {s['branch_count']!r}")
    for name in ("potential_t", "obs_amplitude", "alpha"):
        if not _real(s[name]):
            raise ConfigError(f"system.{name} must be a number, got {s[name]!r}")
    for name in ("eta", "xi", "h_tilde"):
        if s[name] is not None and not _real(s[name]):
            raise ConfigError(f"system.{name} must be null or a number, got {s[name]!r}")


def disjoint_from(decay: dict) -> int:
    """Least separation n at which decay-base's windows F and G o shift^-n share no coordinate."""
    return decay["g_window"][1] - decay["f_window"][0] + 1


def resolve_config(user: dict | None = None) -> dict:
    """Merge a user config over the defaults; unknown keys and out-of-range values are fatal."""
    config = _merge(DEFAULTS, user or {})
    _check_system_types(config["system"])
    try:
        system_from_config(config)
    except SpecError as e:
        raise ConfigError(f"{SYSTEM_PATHS.get(e.field, f'system.{e.field}')}: {e}") from e
    if config["numerics"]["interp"] not in INTERP_ORDERS:
        raise ConfigError(f"numerics.interp must be one of {sorted(INTERP_ORDERS)}, "
                          f"got {config['numerics']['interp']!r}")
    for path in POSITIVE:
        value = functools.reduce(operator.getitem, path.split("."), config)
        if not (_real(value) and value > 0):
            raise ConfigError(f"{path} must be a positive number, got {value!r}")
    for path, floor in INTEGER_FLOORS.items():
        value = functools.reduce(operator.getitem, path.split("."), config)
        if isinstance(value, bool) or not isinstance(value, int) or value < floor:
            raise ConfigError(f"{path} must be an integer >= {floor}, got {value!r}")
    gap = config["experiment"]["gap"]
    if gap["n_max"] < gap["n_min"]:
        raise ConfigError(f"experiment.gap.n_max must be an integer >= experiment.gap.n_min "
                          f"= {gap['n_min']}, got {gap['n_max']!r}")
    for path, (size, least) in LIST_SIZES.items():
        value = functools.reduce(operator.getitem, path.split("."), config)
        if (not isinstance(value, list) or len(value) < size
                or any(isinstance(v, bool) or not isinstance(v, int) or v < least for v in value)
                or len(set(value)) < len(value)):
            raise ConfigError(f"{path} must be a list of at least {size} distinct integers "
                              f">= {least}, got {value!r}")
    eps, ch = config["numerics"]["epsilon0"], config["experiment"]["condition_h"]
    n_blocks = ch["block_n"] + ch["block_m"]
    for path, size in (("experiment.encoding.r_sequence", None),  # one per step
                       ("experiment.condition_h.frequencies", n_blocks)):  # one per block
        rs = functools.reduce(operator.getitem, path.split("."), config)
        if not (isinstance(rs, list) and rs and len(rs) == (size or len(rs))
                and all(_real(v) and abs(v) <= eps for v in rs)):
            raise ConfigError(f"{path} must be a list of {size or 'one or more'} numbers "
                              f"within numerics.epsilon0 = {eps} of 0, got {rs!r}")
    b = ch["boundaries"]
    if not (isinstance(b, list) and len(b) == n_blocks + 1 and all(type(v) is int for v in b)
            and b[0] >= 0 and all(v < w for v, w in zip(b, b[1:]))):
        raise ConfigError(f"experiment.condition_h.boundaries must be {n_blocks + 1} strictly "
                          f"increasing nonnegative integers, got {b!r}")
    decay = config["experiment"]["decay_base"]
    for name in ("f_window", "g_window"):
        w = decay[name]
        if not (isinstance(w, list) and len(w) == 2 and all(type(v) is int for v in w)
                and w[0] <= w[1]):
            raise ConfigError(f"experiment.decay_base.{name} must be a window [lo, hi] of "
                              f"integers with lo <= hi, got {w!r}")
    if max(decay["n_list"]) < disjoint_from(decay):  # else the verdict checks no row
        raise ConfigError(f"experiment.decay_base.n_list must hold an n >= {disjoint_from(decay)}"
                          f" (disjoint windows), got {decay['n_list']!r}")
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
