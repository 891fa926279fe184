"""Experiment configuration: one table of defaults and rules, validation, hashing.

JSON sections mirror the module split.  DEFAULTS is the schema: each leaf holds
its default and its rule (type; range or least value; for a list its length,
distinctness and order).  resolve_config checks every leaf, lets the model
constructors judge the system, then checks the rules tying keys together, all
before any computation: a broken rule or unknown key is a ConfigError naming the
dotted path.  The resolved config, a plain dict, is echoed and hashed in reports.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import operator
import sys
from typing import NamedTuple

from .base import SpecError
from .fiber import INTERP_ORDERS, SystemSpec, make_system


class ConfigError(ValueError):
    pass


INT_LIMIT = 2**63  # numpy's int64 holds [-INT_LIMIT, INT_LIMIT); the models compute in it


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int64(v) -> bool:
    return _is_int(v) and -INT_LIMIT <= v < INT_LIMIT


def _is_real(v) -> bool:
    """A finite number; an integer too large for a float is not one."""
    return isinstance(v, float) and math.isfinite(v) or _is_int(v) and abs(v) <= sys.float_info.max


class Int(NamedTuple):
    """An integer in [least, below); below defaults to INT_LIMIT."""
    default: int
    least: int
    below: int | None = None

    def fits(self, v) -> bool:
        return _is_int(v) and self.least <= v < (self.below or INT_LIMIT)

    def describe(self) -> str:
        return f"an integer in [{self.least}, {self.below or INT_LIMIT})"


class Real(NamedTuple):
    """A finite number, positive if asked; also null when null is the default."""
    default: float | None
    positive: bool = False

    def fits(self, v) -> bool:
        return self.default is None if v is None else _is_real(v) and (v > 0 or not self.positive)

    def describe(self) -> str:
        kind = f"a {'positive ' if self.positive else ''}number"
        return kind if self.default is not None else f"null or {kind}"


class Choice(NamedTuple):
    """A string from a fixed set."""
    default: str
    options: tuple

    def fits(self, v) -> bool:
        return isinstance(v, str) and v in self.options

    def describe(self) -> str:
        return f"one of {list(self.options)}"


class List(NamedTuple):
    """At least (if exact, exactly) `size` values: 64-bit integers >= least, or finite numbers."""
    default: list
    item: type  # int, or float for any finite number
    size: int = 1
    least: int | None = None
    exact: bool = False
    distinct: bool = False
    order: str = ""  # "increasing" (strictly) or "nondecreasing"

    def fits(self, v) -> bool:
        item_ok = _is_int64 if self.item is int else _is_real
        cmp = {"increasing": operator.lt, "nondecreasing": operator.le}.get(self.order)
        return (isinstance(v, list) and (len(v) == self.size if self.exact else len(v) >= self.size)
                and all(item_ok(a) and (self.least is None or a >= self.least) for a in v)
                and (not self.distinct or len(set(v)) == len(v))
                and (cmp is None or all(map(cmp, v, v[1:]))))

    def describe(self) -> str:
        return (f"a list of {'exactly' if self.exact else 'at least'} {self.size} "
                f"{'distinct ' if self.distinct else ''}"
                f"{'64-bit integers' if self.item is int else 'numbers'}"
                f"{'' if self.least is None else f' >= {self.least}'}"
                f"{f' in {self.order} order' if self.order else ''}")


# Below a floor a run dies inside numpy or returns a verdict that rests on no evidence.
DEFAULTS = {
    "system": {  # the JSON types; the model constructors check the values
        "weights": List([0.5, 0.5], float), "branch_count": List([2, 3], int),
        "nonlinearity": List([0.05, 0.04], float), "potential_amp": List([0.0, 0.0], float),
        "obs_offset": List([0.2, -0.1], float), "obs_phase": List([0.0, 0.3], float),
        "potential_t": Real(1.0), "obs_amplitude": Real(1.0), "alpha": Real(1.0),
        "eta": Real(None), "xi": Real(None), "h_tilde": Real(None)},
    "numerics": {
        "n_points": Int(1024, 4),  # the widest interpolation stencil (cubic)
        "interp": Choice("cubic", tuple(INTERP_ORDERS)),
        "pullback_depth": Int(40, 2),  # conformal_pullback compares depths K and K - 2
        "depth_max": Int(160, 2),  # and at least pullback_depth
        "sample_depth": Int(24, 1),  # ensembles need at least one level behind x
        "epsilon0": Real(1.0, positive=True),  # the radius of the frequencies r of L_r
        # at or below 0 no tolerance check can ever pass
        "duality_tol": Real(1e-6, positive=True), "newton_tol": Real(1e-13, positive=True)},
    "statistics": {
        "seed": Int(42, 0, 2**64),  # random keys are unsigned 64-bit integers
        "trials": Int(2000, 2),  # orbit-sum variances use ddof = 1
        "n": Int(10000, 2),  # Var(S_1) = s_0 holds no lag of the covariance series
        "m": Int(12, 1),  # the covariance series needs s_0 and one lag
        "n_base_samples": Int(600, 2),  # base-sample standard errors use ddof = 1
        "tail_tol": Real(1e-4, positive=True),
        "m_max": Int(48, 1)},  # and at least m
    "experiment": {
        "thermo": {"stream": Int(0, 0),  # base-point streams are numbered from 0
                   "chain_length": Int(8, 1),  # the reported lambda chain
                   "n_probe": Int(50, 1)},  # the duality residual is a max over the probes
        "gap": {"n_x": Int(8, 1),  # a conformal window needs at least one base point
                "n_u": Int(4, 1),  # the residuals are means over the test functions
                "n_min": Int(1, 1),  # residuals start after one transfer step
                "n_max": Int(20, 1),  # and at least n_min
                "battery": Choice("lipschitz", ("lipschitz", "smooth"))},
        "bounds": {"n_x": Int(4, 1), "uniform_n_x": Int(100, 1),
                   "r_grid": List([0.0, 0.5, 1.0], float),  # within epsilon0
                   "n_max": Int(12, 1),  # the norm bounds start after one transfer step
                   "uniform_n_max": Int(30, 1)},  # the envelope of L_0^n 1 needs one step
        "encoding": {"r_sequence": List([0.4, -0.3, 0.2], float)},  # one per step, within epsilon0
        "condition_h": {
            "block_n": Int(1, 1), "block_m": Int(1, 1),  # (H) couples two nonempty block groups
            "boundaries": List([0, 1, 2], int, 3, least=0, order="increasing"),  # the block edges
            "frequencies": List([0.4, 0.4], float, 2),  # one per block, within epsilon0
            "k_list": List([0, 1, 2, 3, 4, 5, 6], int, least=0, distinct=True)},  # gap lengths
        "assumption6": {
            "n_list": List([2, 4, 8], int, 2, least=1, distinct=True),  # uniformity is a trend in n
            "r_draws": Int(5, 1),  # the norm at each n is a max over the draws
            "pair_depths": List([2, 4, 6, 8, 12], int, least=0),  # the pinned margins D
            "pair_reps": Int(1, 1)},  # pairs per margin
        "decay_base": {
            "n_list": List([0, 1, 2, 3, 4, 5, 6, 7, 8], int, least=0, distinct=True),  # separations
            "n_samples": Int(100000, 2),  # standard errors use ddof = 1
            "f_window": List([0, 2], int, 2, exact=True, order="nondecreasing"),  # [lo, hi]
            "g_window": List([0, 3], int, 2, exact=True, order="nondecreasing")},
        "sigma2": {}, "clt": {"observable": Choice("default", ("default", "coboundary"))},
        "lil": {"n_max": Int(100000, 100),  # the iterated-logarithm probe's shortest horizon
                "trials": Int(200, 2)},  # sigma is estimated with ddof = 1
        "coboundary": {
            "n_list": List([100, 1000, 10000], int, 2, least=1, distinct=True),  # a slope in log n
            "trials": Int(1000, 2),  # one trial centres on itself: every norm reads 0
            "observable": Choice("coboundary", ("default", "coboundary")),
            "coboundary_const": Real(0.25)},
        "all": {}},
}

# Model fields whose config path is not system.<field>.
SYSTEM_PATHS = {"alphabet_size": "system.weights", "H_tilde": "system.h_tilde",
                "gamma_star": "system.branch_count and system.nonlinearity"}


def _resolve(table: dict, user, path: str) -> dict:
    """The user's values over the table's defaults, each checked against its rule."""
    if not isinstance(user, dict):
        raise ConfigError(f"section {path or '<root>'} must be an object")
    unknown = sorted(set(user) - set(table))
    if unknown:
        raise ConfigError(f"unknown config key: {path}{unknown[0]}")
    out = {}
    for key, rule in table.items():
        if isinstance(rule, dict):
            out[key] = _resolve(rule, user.get(key, {}), f"{path}{key}.")
            continue
        value = user.get(key, rule.default)
        if not rule.fits(value):
            raise ConfigError(f"{path}{key} must be {rule.describe()}, got {value!r}")
        out[key] = list(value) if isinstance(value, list) else value
    return out


def _check_cross(config: dict):
    """The rules that tie one key to others; each leaf already keeps its own."""
    def at(path):
        return functools.reduce(operator.getitem, path.split("."), config)
    for path, floor_path in (("numerics.depth_max", "numerics.pullback_depth"),
                             ("statistics.m_max", "statistics.m"),
                             ("experiment.gap.n_max", "experiment.gap.n_min")):
        value, floor = at(path), at(floor_path)
        if value < floor:
            raise ConfigError(f"{path} must be an integer >= {floor_path} = {floor}, got {value!r}")
    ch = config["experiment"]["condition_h"]
    n_blocks = ch["block_n"] + ch["block_m"]
    for name, size in (("frequencies", n_blocks), ("boundaries", n_blocks + 1)):
        if len(ch[name]) != size:
            raise ConfigError(f"experiment.condition_h.{name} must hold {size} values "
                              f"(block_n + block_m = {n_blocks} blocks), got {ch[name]!r}")
    eps = config["numerics"]["epsilon0"]  # the perturbed operators L_r need |r| <= epsilon0
    for path in ("experiment.encoding.r_sequence", "experiment.condition_h.frequencies",
                 "experiment.bounds.r_grid"):
        rs = at(path)
        if any(abs(r) > eps for r in rs):
            raise ConfigError(f"{path} must hold numbers within numerics.epsilon0 = {eps} "
                              f"of 0, got {rs!r}")
    decay = config["experiment"]["decay_base"]
    if max(decay["n_list"]) < disjoint_from(decay):  # else the verdict checks no row
        raise ConfigError(f"experiment.decay_base.n_list must hold an n >= {disjoint_from(decay)}"
                          f" (disjoint windows), got {decay['n_list']!r}")


def disjoint_from(decay: dict) -> int:
    """Least separation n at which decay-base's windows F and G o shift^-n share no coordinate."""
    return decay["g_window"][1] - decay["f_window"][0] + 1


def resolve_config(user: dict | None = None) -> dict:
    """Merge a user config over the defaults; an unknown key or a broken rule is fatal."""
    config = _resolve(DEFAULTS, {} if user is None else user, "")
    try:
        system_from_config(config)
    except SpecError as e:
        raise ConfigError(f"{SYSTEM_PATHS.get(e.field, f'system.{e.field}')}: {e}") from e
    _check_cross(config)
    return config


def load_config(path: str | None) -> dict:
    if path is None:
        return resolve_config({})
    with open(path) as fh:
        try:
            return resolve_config(json.load(fh))
        except json.JSONDecodeError as e:
            raise ConfigError(f"malformed config {path}: line {e.lineno}: {e.msg}") from e


def apply_overrides(config: dict, sets) -> dict:
    """Apply KEY=VALUE overrides with dotted paths; values parsed as JSON."""
    out = copy.deepcopy(config)
    for item in sets or []:
        key, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"override {item!r} is not KEY=VALUE")
        *sections, leaf = key.split(".")
        node = functools.reduce(lambda n, p: n.get(p) if isinstance(n, dict) else None,
                                sections, out)
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"unknown config key: {key}")
        try:
            node[leaf] = json.loads(raw)
        except json.JSONDecodeError:
            node[leaf] = raw
    return resolve_config(out)


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def system_from_config(config: dict) -> SystemSpec:
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in config["system"].items()}
    kwargs["H_tilde"] = kwargs.pop("h_tilde")
    return make_system(**kwargs)
