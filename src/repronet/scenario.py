"""Scenario configuration: YAML schema, validation, and object builders.

A scenario file is a YAML (or JSON) mapping; unknown keys are rejected and
validation errors name the offending field path.  Each key is a field of one
of the dataclasses below: its default is the key's default, and its metadata
holds the key's parser and optional range check (see ``_field``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .csvio import read_matrix_csv
from .exceptions import ConfigError
from .model import EpidemicState, ModelKind, TransmissionNetwork
from .privacy import PrivacySpec, amplified_epsilon
from .reproduction import DEFAULT_CLAMP, DEFAULT_INFECTION_FLOOR, Partition
from .seeding import StreamRole, stream

__all__ = [
    "RandomNetworkConfig",
    "NetworkConfig",
    "InitialStateConfig",
    "PrivacyConfig",
    "Scenario",
    "load_scenario",
    "save_scenario",
    "build_network",
    "build_initial_state",
    "build_partition",
    "build_privacy_spec",
]

_MAX_GENERATOR_ATTEMPTS = 100


# Value parsers: each returns the value of the key at ``path`` or raises a
# ConfigError that names ``path``.


def _exact(kind: type, noun: str):
    def parse(value, path: str):
        if type(value) is not kind:
            raise ConfigError(f"{path}: expected {noun}, got {value!r}")
        return value

    return parse


_int, _str, _bool = _exact(int, "an integer"), _exact(str, "a string"), _exact(bool, "true/false")


def _number(value, path: str) -> float:
    # The bound is False for nan, for +-inf and for integers beyond the float range.
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not finite:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _numbers(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
    return tuple(_number(item, f"{path}[{idx}]") for idx, item in enumerate(value))


def _scalar_or_list(value, path: str) -> float | tuple[float, ...]:
    return _numbers(value, path) if isinstance(value, (list, tuple)) else _number(value, path)


def _pair(value, path: str) -> tuple[float, float]:
    pair = _numbers(value, path)
    if len(pair) != 2:
        raise ConfigError(f"{path}: expected exactly two numbers, got {len(pair)}")
    if pair[0] > pair[1]:
        raise ConfigError(f"{path}: need lo <= hi, got {list(pair)}")
    return pair  # type: ignore[return-value]


def _optional(parse):
    return lambda value, path: None if value is None else parse(value, path)


def _square_matrix(value, path: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of rows")
    rows = tuple(_numbers(row, f"{path}[{idx}]") for idx, row in enumerate(value))
    if any(len(row) != len(rows) for row in rows):
        raise ConfigError(f"{path}: must be square ({len(rows)} rows)")
    return rows


def _index_lists(value, path: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list) or any(not isinstance(block, list) for block in value):
        raise ConfigError(f"{path}: expected a list of entity-index lists")
    for q, block in enumerate(value):
        for idx, index in enumerate(block):
            if type(index) is not int or index < 0:
                raise ConfigError(f"{path}[{q}][{idx}]: expected an entity index >= 0, got {index!r}")
    return tuple(map(tuple, value))


def _at_least(lo: int):
    return (lambda value: value >= lo, f"must be >= {lo}")


def _field(parse, default=MISSING, check=None):
    """A scenario key: ``parse(value, path)`` converts its raw value, and the
    optional ``check``, a ``(predicate, message)`` pair, bounds the result.
    A key whose default is None also takes null, meaning None."""
    if default is None:
        parse = _optional(parse)
    return field(default=default, metadata={"parse": parse, "check": check})


def _parse(cls, node, path: str):
    """``cls`` from one mapping (null reads as empty): its keys are the fields
    of ``cls``, and a key left out takes its field's default."""
    node = {} if node is None else node
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(node) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown} (allowed: {sorted(allowed)})")
    values = {}
    for f in fields(cls):
        key_path = f"{path}.{f.name}"
        if f.name not in node:
            if f.default is MISSING:
                raise ConfigError(f"{key_path}: required value missing")
            continue
        value = values[f.name] = f.metadata["parse"](node[f.name], key_path)
        check = f.metadata["check"]
        if check is not None and value is not None and not check[0](value):
            raise ConfigError(f"{key_path}: {check[1]}, got {value!r}")
    return cls(**values)


@dataclass(frozen=True)
class RandomNetworkConfig:
    n: int = _field(_int, check=(lambda n: n >= 2, "need at least 2 entities"))
    edge_density: float = _field(_number, 0.5, (lambda d: 0.0 < d <= 1.0, "must lie in (0, 1]"))
    beta_range: tuple[float, float] = _field(
        _pair, (0.05, 0.3), (lambda p: 0.0 <= p[0] and p[1] <= 1.0, "must satisfy 0 <= lo <= hi <= 1")
    )
    gamma_range: tuple[float, float] = _field(
        _pair, (0.1, 0.5), (lambda p: 0.0 < p[0] and p[1] <= 1.0, "must satisfy 0 < lo <= hi <= 1")
    )
    seed: int | None = _field(_int, None, _at_least(0))


@dataclass(frozen=True)
class NetworkConfig:
    """Exactly one source: inline matrices, CSV paths, or a generator."""

    matrix: tuple | None = _field(_square_matrix, None)
    gamma: tuple | None = _field(_scalar_or_list, None)  # per matrix row; 0.5 each when left out
    matrix_csv: str | None = _field(_str, None)
    gamma_csv: str | None = _field(_str, None)
    random: RandomNetworkConfig | None = _field(partial(_parse, RandomNetworkConfig), None)


@dataclass(frozen=True)
class InitialStateConfig:
    x: tuple | float = _field(_scalar_or_list, 0.01)
    r: tuple | float = _field(_scalar_or_list, 0.0)
    s: tuple | None = _field(_numbers, None)  # defaults to 1 - x - r


@dataclass(frozen=True)
class PrivacyConfig:
    enabled: bool = _field(_bool, False)
    epsilon0: float | None = _field(_number, None)  # 1.0 when enabled without target_epsilon
    target_epsilon: float | None = _field(_number, None)
    delta: float = _field(_number, PrivacySpec.delta)
    k: float = _field(_number, PrivacySpec.k)
    bounds: tuple[float, float] = _field(_pair, PrivacySpec.bounds)
    clamp: tuple[float, float] | None = _field(_optional(_pair), DEFAULT_CLAMP)  # null disables


@dataclass(frozen=True)
class Scenario:
    network: NetworkConfig = _field(partial(_parse, NetworkConfig))
    initial: InitialStateConfig = _field(partial(_parse, InitialStateConfig), InitialStateConfig())
    model: str = _field(_str, "sir", (lambda model: model in ("sis", "sir"), "expected 'sis' or 'sir'"))
    dt: float = _field(_number, 0.1, (lambda dt: dt > 0, "must be positive"))
    steps: int = _field(_int, 100, _at_least(0))
    rn_interval: int = _field(_int, 1, _at_least(1))
    partition: tuple = _field(_index_lists, ())  # empty means one whole-network cluster
    privacy: PrivacyConfig = _field(partial(_parse, PrivacyConfig), PrivacyConfig())
    infection_floor: float = _field(_number, DEFAULT_INFECTION_FLOOR, _at_least(0))
    output_dir: str = _field(_str, "out")
    seed: int = _field(_int, 0, _at_least(0))

    @property
    def model_kind(self) -> ModelKind:
        return ModelKind(self.model)

    def sampled_epochs(self) -> list[int]:
        return list(range(0, self.steps + 1, self.rn_interval))

    def to_dict(self) -> dict:
        raw = asdict(self)

        def clean(node):
            if isinstance(node, dict):
                return {k: clean(v) for k, v in node.items() if v is not None}
            if isinstance(node, tuple):
                return [clean(v) for v in node]
            return node

        out = clean(raw)
        # A disabled clamp is meaningful and must survive a round trip.
        if self.privacy.clamp is None:
            out["privacy"]["clamp"] = None
        return out


def scenario_from_dict(raw: dict, path: str = "scenario") -> Scenario:
    scenario = _parse(Scenario, raw, path)
    network = _network_source(scenario.network, f"{path}.network")
    privacy = scenario.privacy
    if privacy.epsilon0 is not None and privacy.target_epsilon is not None:
        raise ConfigError(f"{path}.privacy: give epsilon0 or target_epsilon, not both")
    if privacy.enabled and privacy.epsilon0 is None and privacy.target_epsilon is None:
        privacy = replace(privacy, epsilon0=1.0)  # reporting-pipeline preset
    # Fail fast on an inconsistent cluster layout (overlaps, gaps).
    if scenario.partition:
        try:
            Partition.from_blocks(scenario.partition)
        except ConfigError as exc:
            raise ConfigError(f"{path}.partition: {exc}") from None
    return replace(scenario, network=network, privacy=privacy)


def _network_source(cfg: NetworkConfig, path: str) -> NetworkConfig:
    """``cfg`` with one source and only that source's keys; inline gamma is filled per row."""
    sources = [key for key in ("matrix", "matrix_csv", "random") if getattr(cfg, key) is not None]
    if len(sources) != 1:
        raise ConfigError(f"{path}: specify exactly one of matrix, matrix_csv, random")
    for key, source in (("gamma", "matrix"), ("gamma_csv", "matrix_csv")):
        if getattr(cfg, key) is not None and sources != [source]:
            raise ConfigError(f"{path}.{key}: only allowed with {source}, not with {sources[0]}")
    if cfg.matrix_csv is not None and cfg.gamma_csv is None:
        raise ConfigError(f"{path}.gamma_csv: required when loading the matrix from CSV")
    if cfg.matrix is None:
        return cfg
    gamma = 0.5 if cfg.gamma is None else cfg.gamma
    return replace(cfg, gamma=gamma if isinstance(gamma, tuple) else (gamma,) * len(cfg.matrix))


# libyaml's parser where PyYAML was built with it: the same documents, parsed several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from None
    return scenario_from_dict(raw, path="scenario")


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(yaml.safe_dump(scenario.to_dict(), sort_keys=False))


def build_network(scenario: Scenario, base_dir=None) -> TransmissionNetwork:
    cfg = scenario.network
    if cfg.random is not None:
        return _generate_network(cfg.random, scenario.seed)
    if cfg.matrix_csv is not None:
        base = Path(base_dir) if base_dir is not None else Path(".")
        b = read_matrix_csv(base / cfg.matrix_csv)
        gamma = read_matrix_csv(base / cfg.gamma_csv).ravel()
        return TransmissionNetwork(b=b, gamma=gamma)
    return TransmissionNetwork(b=np.array(cfg.matrix), gamma=np.array(cfg.gamma))


def _generate_network(cfg: RandomNetworkConfig, scenario_seed: int) -> TransmissionNetwork:
    base_seed = cfg.seed if cfg.seed is not None else scenario_seed
    lo_b, hi_b = cfg.beta_range
    lo_g, hi_g = cfg.gamma_range
    for attempt in range(_MAX_GENERATOR_ATTEMPTS):
        rng = stream(base_seed, StreamRole.SCENARIO, ident=attempt)
        mask = rng.random((cfg.n, cfg.n)) < cfg.edge_density
        b = np.where(mask, rng.uniform(lo_b, hi_b, (cfg.n, cfg.n)), 0.0)
        gamma = rng.uniform(lo_g, hi_g, cfg.n)
        try:
            return TransmissionNetwork(b=b, gamma=gamma)
        except ConfigError:
            continue
    raise ConfigError(
        f"could not generate a strongly connected network in "
        f"{_MAX_GENERATOR_ATTEMPTS} attempts; raise edge_density"
    )


def build_initial_state(scenario: Scenario, net: TransmissionNetwork) -> EpidemicState:
    cfg = scenario.initial
    n = net.n

    def expand(value, name: str) -> np.ndarray:
        if isinstance(value, float):
            return np.full(n, value)
        arr = np.array(value, dtype=float)
        if arr.shape != (n,):
            raise ConfigError(f"initial.{name}: expected {n} entries, got {arr.size}")
        return arr

    x = expand(cfg.x, "x")
    r = expand(cfg.r, "r")
    s = 1.0 - x - r if cfg.s is None else expand(cfg.s, "s")
    try:
        return EpidemicState(t=0.0, s=s, x=x, r=r)
    except ConfigError as exc:
        raise ConfigError(f"initial state invalid: {exc}") from None


def build_partition(scenario: Scenario, net: TransmissionNetwork) -> Partition:
    if not scenario.partition:
        return Partition.whole(net.n)
    return Partition.from_blocks(scenario.partition, net.n)


def build_privacy_spec(scenario: Scenario, partition: Partition) -> PrivacySpec | None:
    """Privacy spec for the scenario, or None when privacy is off.

    A ``target_epsilon`` is translated into the largest per-authority
    epsilon0 whose shuffle-amplified level stays at or below the target for
    the smallest cluster.
    """
    cfg = scenario.privacy
    if not cfg.enabled:
        return None
    if cfg.epsilon0 is not None:
        epsilon0 = cfg.epsilon0
    else:
        sizes = [int(np.sum(partition.assignment == q)) for q in range(partition.m)]
        epsilon0 = _invert_amplification(cfg.target_epsilon, cfg.delta, min(sizes))
    return PrivacySpec(epsilon0=epsilon0, delta=cfg.delta, k=cfg.k, bounds=cfg.bounds)


def _invert_amplification(target: float, delta: float, cluster_size: int) -> float:
    if target <= 0:
        raise ConfigError(f"target_epsilon must be positive, got {target}")
    headroom = cluster_size / (8.0 * math.log(2.0 / delta)) - 1.0
    if headroom <= 0:
        raise ConfigError(
            f"clusters of size {cluster_size} are too small for shuffle "
            f"amplification at delta={delta}"
        )
    hi = math.log(headroom)
    if amplified_epsilon(hi, delta, cluster_size) <= target:
        return hi
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if amplified_epsilon(mid, delta, cluster_size) <= target:
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise ConfigError(
            f"no positive epsilon0 reaches target epsilon {target} for "
            f"cluster size {cluster_size}"
        )
    return lo
