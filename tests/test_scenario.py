import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import repronet as rn
from repronet import scenario as sc
from repronet.cli import main
from repronet.exceptions import ConfigError


def write_config(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    return path


MINIMAL = """
network:
  matrix:
    - [0.1, 0.2]
    - [0.3, 0.1]
"""


def test_minimal_config_fills_defaults(tmp_path):
    scenario = sc.load_scenario(write_config(tmp_path, MINIMAL))
    assert scenario.dt == 0.1
    assert scenario.privacy.k == 1e-5
    assert scenario.privacy.delta == 0.01
    assert scenario.privacy.clamp == (0.0, 14.0)
    assert scenario.model == "sir"
    net = sc.build_network(scenario)
    assert net.n == 2
    np.testing.assert_array_equal(net.gamma, [0.5, 0.5])
    state = sc.build_initial_state(scenario, net)
    np.testing.assert_allclose(state.x, 0.01)
    partition = sc.build_partition(scenario, net)
    assert partition.m == 1


def test_round_trip_preserves_scenario(tmp_path):
    config = """
network:
  matrix: [[0.1, 0.2], [0.3, 0.1]]
  gamma: [0.4, 0.5]
initial:
  x: [0.02, 0.05]
model: sis
dt: 0.05
steps: 42
rn_interval: 7
partition: [[0], [1]]
privacy:
  enabled: true
  epsilon0: 2.0
  clamp: null
seed: 9
"""
    scenario = sc.load_scenario(write_config(tmp_path, config))
    assert scenario.privacy.clamp is None
    out = tmp_path / "resaved.yaml"
    sc.save_scenario(scenario, out)
    again = sc.load_scenario(out)
    assert again == scenario


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys"):
        sc.load_scenario(write_config(tmp_path, MINIMAL + "typo_key: 1\n"))
    nested = MINIMAL + "privacy:\n  enabled: false\n  sigma: 1.0\n"
    with pytest.raises(ConfigError, match="scenario.privacy"):
        sc.load_scenario(write_config(tmp_path, nested))


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        sc.load_scenario(tmp_path / "nope.yaml")
    with pytest.raises(ConfigError, match="invalid YAML"):
        sc.load_scenario(write_config(tmp_path, "network: [unbalanced\n"))


YAML_FILES = sorted(
    path
    for folder in ("scripts", "tests")
    for pattern in ("*.yaml", "*.yml")
    for path in (Path(__file__).resolve().parents[1] / folder).rglob(pattern)
)


@pytest.mark.parametrize("path", YAML_FILES, ids=lambda path: path.name)
@pytest.mark.parametrize("loader", [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)])
def test_scenario_same_with_either_yaml_loader(monkeypatch, tmp_path, path, loader):
    expected = sc.scenario_from_dict(yaml.load(path.read_text(), Loader=yaml.SafeLoader), path="scenario")
    monkeypatch.setattr(sc, "_YAML_LOADER", loader)
    assert sc.load_scenario(path) == expected
    with pytest.raises(ConfigError, match="invalid YAML"):
        sc.load_scenario(write_config(tmp_path, "network: [unbalanced\n"))


def test_overlapping_clusters_rejected(tmp_path):
    config = MINIMAL + "partition: [[0, 1], [1]]\n"
    with pytest.raises(ConfigError, match="clusters"):
        sc.load_scenario(write_config(tmp_path, config))


def test_cluster_layout_errors_name_the_field(tmp_path):
    with pytest.raises(ConfigError, match=r"scenario\.partition: clusters must cover entities"):
        sc.load_scenario(write_config(tmp_path, MINIMAL + "partition: [[0], [2]]\n"))


def test_invalid_initial_state(tmp_path):
    config = MINIMAL + "initial:\n  x: 0.8\n  r: 0.4\n"
    scenario = sc.load_scenario(write_config(tmp_path, config))
    net = sc.build_network(scenario)
    with pytest.raises(ConfigError, match="initial state"):
        sc.build_initial_state(scenario, net)


def test_non_square_matrix_rejected(tmp_path):
    config = """
network:
  matrix: [[0.1, 0.2, 0.3], [0.3, 0.1, 0.0]]
"""
    with pytest.raises(ConfigError, match="square"):
        sc.load_scenario(write_config(tmp_path, config))


def test_random_network_generation_deterministic(tmp_path):
    config = """
network:
  random:
    n: 8
    edge_density: 0.4
    beta_range: [0.05, 0.3]
    gamma_range: [0.1, 0.4]
seed: 5
"""
    scenario = sc.load_scenario(write_config(tmp_path, config))
    net_a = sc.build_network(scenario)
    net_b = sc.build_network(scenario)
    np.testing.assert_array_equal(net_a.b, net_b.b)
    np.testing.assert_array_equal(net_a.gamma, net_b.gamma)
    assert net_a.n == 8


def test_random_network_generation_gives_up(tmp_path):
    config = """
network:
  random:
    n: 6
    edge_density: 0.000000001
"""
    scenario = sc.load_scenario(write_config(tmp_path, config))
    with pytest.raises(ConfigError, match="attempts"):
        sc.build_network(scenario)


def test_csv_network_source(tmp_path):
    from repronet import csvio

    b = np.array([[0.1, 0.2], [0.3, 0.05]])
    csvio.write_matrix_csv(tmp_path / "b.csv", b)
    csvio.write_matrix_csv(tmp_path / "gamma.csv", np.array([[0.2, 0.4]]))
    config = """
network:
  matrix_csv: b.csv
  gamma_csv: gamma.csv
"""
    scenario = sc.load_scenario(write_config(tmp_path, config))
    net = sc.build_network(scenario, base_dir=tmp_path)
    np.testing.assert_array_equal(net.b, b)
    np.testing.assert_array_equal(net.gamma, [0.2, 0.4])


def test_csv_network_zero_row_rejected_downstream(tmp_path):
    from repronet import csvio

    csvio.write_matrix_csv(tmp_path / "b.csv", np.array([[0.0, 0.0], [0.3, 0.1]]))
    csvio.write_matrix_csv(tmp_path / "gamma.csv", np.array([[0.2, 0.4]]))
    config = """
network:
  matrix_csv: b.csv
  gamma_csv: gamma.csv
"""
    scenario = sc.load_scenario(write_config(tmp_path, config))
    with pytest.raises(ConfigError, match="strongly connected"):
        sc.build_network(scenario, base_dir=tmp_path)


def test_privacy_spec_with_epsilon0(tmp_path):
    config = MINIMAL + "partition: [[0], [1]]\nprivacy:\n  enabled: true\n  epsilon0: 1.5\n"
    scenario = sc.load_scenario(write_config(tmp_path, config))
    net = sc.build_network(scenario)
    spec = sc.build_privacy_spec(scenario, sc.build_partition(scenario, net))
    assert spec.epsilon0 == 1.5


def test_privacy_budget_defaults_to_one(tmp_path):
    config = MINIMAL + "privacy:\n  enabled: true\n"
    scenario = sc.load_scenario(write_config(tmp_path, config))
    assert scenario.privacy.epsilon0 == 1.0


def test_privacy_spec_with_target_epsilon():
    blocks = [list(range(0, 600)), list(range(600, 1200))]
    partition = rn.Partition.from_blocks(blocks)
    scenario = sc.Scenario(
        network=sc.NetworkConfig(matrix=((0.1,),), gamma=(0.5,)),
        privacy=sc.PrivacyConfig(enabled=True, target_epsilon=0.3, delta=0.01),
    )
    spec = sc.build_privacy_spec(scenario, partition)
    amplified = rn.amplified_epsilon(spec.epsilon0, 0.01, 600)
    assert amplified <= 0.3
    assert amplified > 0.25  # close to the target, not wildly conservative


def test_privacy_spec_target_epsilon_small_clusters():
    partition = rn.Partition.from_blocks([[0, 1], [2, 3]])
    scenario = sc.Scenario(
        network=sc.NetworkConfig(matrix=((0.1,),), gamma=(0.5,)),
        privacy=sc.PrivacyConfig(enabled=True, target_epsilon=0.5),
    )
    with pytest.raises(ConfigError, match="too small"):
        sc.build_privacy_spec(scenario, partition)


def test_privacy_disabled_returns_none(tmp_path):
    scenario = sc.load_scenario(write_config(tmp_path, MINIMAL))
    net = sc.build_network(scenario)
    assert sc.build_privacy_spec(scenario, sc.build_partition(scenario, net)) is None


def test_sampled_epochs():
    scenario = sc.Scenario(
        network=sc.NetworkConfig(matrix=((0.1,),), gamma=(0.5,)), steps=10, rn_interval=4
    )
    assert scenario.sampled_epochs() == [0, 4, 8]


def test_yaml_dump_is_plain_types(tmp_path):
    scenario = sc.load_scenario(write_config(tmp_path, MINIMAL))
    dumped = yaml.safe_dump(scenario.to_dict())
    assert "!!python" not in dumped


def random_network(**keys):
    return "network:\n  random:\n    n: 4\n" + "".join(f"    {k}: {v}\n" for k, v in keys.items())


NON_FINITE = [  # (command, config, field path)
    ("simulate", MINIMAL + "dt: .nan\n", "scenario.dt"),
    ("cluster-rn", MINIMAL + "infection_floor: .nan\n", "scenario.infection_floor"),
    ("accuracy", MINIMAL + "privacy:\n  k: .nan\n", "scenario.privacy.k"),
    ("pipeline", MINIMAL + "privacy:\n  epsilon0: .inf\n", "scenario.privacy.epsilon0"),
    ("cluster-rn", MINIMAL + "privacy:\n  clamp: [0.0, .inf]\n", "scenario.privacy.clamp[1]"),
    ("simulate", MINIMAL + "initial:\n  x: [0.01, .nan]\n", "scenario.initial.x[1]"),
    ("simulate", "network:\n  matrix: [[0.1, -.inf], [0.3, 0.1]]\n", "scenario.network.matrix[0][1]"),
    ("simulate", random_network(beta_range="[.nan, 0.3]"), "scenario.network.random.beta_range[0]"),
    ("simulate", random_network(edge_density=".nan"), "scenario.network.random.edge_density"),
]


@pytest.mark.parametrize("command, config, field_path", NON_FINITE, ids=[case[2] for case in NON_FINITE])
def test_non_finite_numbers_rejected_at_load(tmp_path, capsys, command, config, field_path):
    path = write_config(tmp_path, config + f"output_dir: {(tmp_path / 'out').as_posix()}\n")
    assert main([command, "--config", str(path)]) == 2
    assert f"error: {field_path}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


BAD_PAIRS = [  # (config, field path, message)
    (MINIMAL + "privacy:\n  clamp: [14, 0]\n", "scenario.privacy.clamp", "need lo <= hi"),
    (MINIMAL + "privacy:\n  bounds: [1.0, 0.0]\n", "scenario.privacy.bounds", "need lo <= hi"),
    (random_network(beta_range="[0.3, 0.1]"), "scenario.network.random.beta_range", "need lo <= hi"),
    (random_network(gamma_range="[0.5, 0.1]"), "scenario.network.random.gamma_range", "need lo <= hi"),
    (
        random_network(beta_range="[0.1, 1.5]"),
        "scenario.network.random.beta_range",
        "must satisfy 0 <= lo <= hi <= 1",
    ),
    (
        random_network(gamma_range="[0.0, 0.5]"),
        "scenario.network.random.gamma_range",
        "must satisfy 0 < lo <= hi <= 1",
    ),
]


@pytest.mark.parametrize(
    "config, field_path, message", BAD_PAIRS, ids=[f"{path} {message}" for _, path, message in BAD_PAIRS]
)
def test_pairs_checked_at_load(tmp_path, config, field_path, message):
    with pytest.raises(ConfigError, match=re.escape(f"{field_path}: {message}")):
        sc.load_scenario(write_config(tmp_path, config))


@pytest.mark.parametrize(
    "network, key",
    [
        ("  matrix: [[0.1, 0.2], [0.3, 0.1]]\n  gamma_csv: gamma.csv\n", "gamma_csv"),
        ("  matrix_csv: b.csv\n  gamma_csv: gamma.csv\n  gamma: [0.2, 0.4]\n", "gamma"),
        ("  random: {n: 4}\n  gamma: 0.3\n", "gamma"),
    ],
    ids=["gamma_csv-with-matrix", "gamma-with-matrix_csv", "gamma-with-random"],
)
def test_keys_of_unselected_network_source_rejected(tmp_path, network, key):
    with pytest.raises(ConfigError, match=f"scenario.network.{key}: only allowed with"):
        sc.load_scenario(write_config(tmp_path, "network:\n" + network))


def test_readme_schema_example_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Scenario schema.*?```yaml\n(.*?)```", readme, re.S).group(1)
    scenario = sc.scenario_from_dict(yaml.safe_load(block))
    net = sc.build_network(scenario)
    assert sc.build_initial_state(scenario, net).x.shape == (net.n,)
    assert sc.build_partition(scenario, net).m == len(scenario.partition)
    # Every key is documented, the commented-out ones included.
    for cls in (
        sc.Scenario,
        sc.NetworkConfig,
        sc.RandomNetworkConfig,
        sc.InitialStateConfig,
        sc.PrivacyConfig,
    ):
        for field in dataclasses.fields(cls):
            assert re.search(rf"\b{field.name}:", block), field.name


def test_null_values(tmp_path):
    # Null leaves out a key whose default is None, empties a section and disables the clamp.
    config = MINIMAL + "  gamma: null\ninitial:\nprivacy:\n  epsilon0: null\n  clamp: null\n"
    scenario = sc.load_scenario(write_config(tmp_path, config))
    assert scenario.network.gamma == (0.5, 0.5)
    assert scenario.initial == sc.InitialStateConfig()
    assert scenario.privacy == sc.PrivacyConfig(clamp=None)
    with pytest.raises(ConfigError, match="scenario.dt: expected a finite number, got None"):
        sc.load_scenario(write_config(tmp_path, MINIMAL + "dt: null\n"))
