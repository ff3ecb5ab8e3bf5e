import json

import pytest
import yaml

import oracles
from conftest import run_fresh
from repronet import csvio
from repronet.cli import main
from repronet.scenario import build_network, load_scenario

SCALAR_SIS = """
network:
  matrix: [[0.3]]
  gamma: [0.1]
initial:
  x: 0.01
model: sis
dt: 0.1
steps: 3000
rn_interval: 500
output_dir: "{out}"
"""

CLUSTERED = """
network:
  random:
    n: 8
    edge_density: 0.5
    beta_range: [0.05, 0.3]
    gamma_range: [0.2, 0.5]
initial:
  x: 0.05
model: sis
dt: 0.05
steps: 80
rn_interval: 40
partition: [[0, 1, 2], [3, 4], [5, 6, 7]]
privacy:
  enabled: true
  epsilon0: 1.0
output_dir: "{out}"
seed: 3
"""


# Two clusters of eight: from eight members up, an unordered sum's rounding
# can differ from the pipeline's, so byte-identity needs the shared kernels.
EIGHT_MEMBER_CLUSTERS = """
network:
  random:
    n: 16
    edge_density: 0.5
    beta_range: [0.02, 0.15]
    gamma_range: [0.2, 0.5]
initial:
  x: 0.05
model: sis
dt: 0.05
steps: 80
rn_interval: 40
partition: [[0, 1, 2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 13, 14, 15]]
output_dir: "{out}"
seed: 3
"""


def write_config(tmp_path, template, name="scenario.yaml", out="out"):
    path = tmp_path / name
    path.write_text(template.format(out=(tmp_path / out).as_posix()))
    return path


def test_simulate_reproduces_scalar_endemic_level(tmp_path):
    config = write_config(tmp_path, SCALAR_SIS)
    assert main(["simulate", "--config", str(config)]) == 0
    states = csvio.read_states_csv(tmp_path / "out" / "states.csv")
    assert states[-1].x[0] == pytest.approx(1.0 - 0.1 / 0.3, abs=1e-3)


@pytest.mark.parametrize(
    "template", [CLUSTERED, EIGHT_MEMBER_CLUSTERS], ids=["clustered", "eight_member_clusters"]
)
def test_pipeline_no_privacy_byte_matches_cluster_rn(tmp_path, template):
    config = write_config(tmp_path, template)
    assert main(["cluster-rn", "--config", str(config), "--output-dir", str(tmp_path / "a")]) == 0
    assert (
        main(
            [
                "pipeline",
                "--no-privacy",
                "--config",
                str(config),
                "--output-dir",
                str(tmp_path / "b"),
            ]
        )
        == 0
    )
    direct = (tmp_path / "a" / "cluster_rn.csv").read_bytes()
    piped = (tmp_path / "b" / "cluster_rn.csv").read_bytes()
    assert direct == piped


def test_pipeline_with_privacy_marks_kind(tmp_path):
    config = write_config(tmp_path, CLUSTERED)
    assert main(["pipeline", "--config", str(config)]) == 0
    records = csvio.read_rn_csv(tmp_path / "out" / "cluster_rn.csv")
    assert records and all(rec[4] == "cluster_private" for rec in records)


@pytest.mark.parametrize(
    "command, name",
    [
        (["compute-rn"], "local_rn.csv"),
        (["cluster-rn"], "cluster_rn.csv"),
        (["pipeline"], "cluster_rn.csv"),
        (["pipeline", "--no-privacy"], "cluster_rn.csv"),
    ],
    ids=["compute-rn", "cluster-rn", "private-pipeline", "pipeline-no-privacy"],
)
def test_rn_files_equal_csv_writer_reference(tmp_path, command, name):
    config = write_config(tmp_path, CLUSTERED)
    assert main([*command, "--config", str(config)]) == 0
    written, reference = tmp_path / "out" / name, tmp_path / "reference.csv"
    oracles.write_rn_csv_reference(reference, csvio.read_rn_csv(written))
    assert written.read_bytes() == reference.read_bytes()


def test_pipeline_trace_records_flow(tmp_path):
    config = write_config(tmp_path, CLUSTERED)
    trace = tmp_path / "trace.jsonl"
    assert main(["pipeline", "--config", str(config), "--trace", str(trace)]) == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines and {"step", "from", "to", "payload_digest"} == set(lines[0])


@pytest.mark.parametrize(
    "epsilon0, output_dir, code",
    [("1.0e-9", "out", 4), ("1.0", "file/out", 2)],  # infeasible calibration; NotADirectoryError
    ids=["infeasible", "unusable-output-dir"],
)
def test_failed_pipeline_leaves_no_trace(tmp_path, capsys, epsilon0, output_dir, code):
    # the trace is opened first, and an empty one would read as a run that sent no messages
    config = write_config(tmp_path, CLUSTERED.replace("epsilon0: 1.0", f"epsilon0: {epsilon0}"))
    (tmp_path / "file").write_text("")
    trace = tmp_path / "trace.jsonl"
    args = ["--config", str(config), "--trace", str(trace), "--output-dir", str(tmp_path / output_dir)]
    assert main(["pipeline", *args]) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not trace.exists()


def test_same_seed_byte_identical_outputs(tmp_path):
    config = write_config(tmp_path, CLUSTERED)
    for sub in ("run1", "run2"):
        assert (
            main(["pipeline", "--config", str(config), "--output-dir", str(tmp_path / sub)]) == 0
        )
    assert (tmp_path / "run1" / "cluster_rn.csv").read_bytes() == (
        tmp_path / "run2" / "cluster_rn.csv"
    ).read_bytes()
    # different seed changes the private values
    assert (
        main(
            [
                "pipeline",
                "--config",
                str(config),
                "--seed",
                "99",
                "--output-dir",
                str(tmp_path / "run3"),
            ]
        )
        == 0
    )
    assert (tmp_path / "run1" / "cluster_rn.csv").read_bytes() != (
        tmp_path / "run3" / "cluster_rn.csv"
    ).read_bytes()


def test_compute_rn_outputs(tmp_path):
    config = write_config(tmp_path, CLUSTERED)
    assert main(["compute-rn", "--config", str(config)]) == 0
    records = csvio.read_rn_csv(tmp_path / "out" / "local_rn.csv")
    assert all(rec[4] == "effective" for rec in records)
    assert all(rec[3] <= 14.0 for rec in records)  # configured clamp respected
    network = (tmp_path / "out" / "network_rn.csv").read_text().splitlines()
    assert network[0] == "t,r0,rt"
    assert len(network) == 1 + 3  # epochs 0, 40, 80


def test_failed_compute_rn_leaves_no_local_rn(tmp_path, capsys):
    # matrices are written as they are built, so the header is out when the first one fails
    config = tmp_path / "zero.yaml"
    config.write_text(
        """
network:
  matrix: [[0.3, 0.2], [0.1, 0.3]]
  gamma: [0.1, 0.2]
initial:
  x: [0.1, 0.0]
model: sis
dt: 0.1
steps: 4
infection_floor: 0.0
output_dir: "%s"
"""
        % (tmp_path / "out").as_posix()
    )
    assert main(["compute-rn", "--config", str(config)]) == 3
    assert "x[1] is zero with flooring disabled" in capsys.readouterr().err
    assert not (tmp_path / "out" / "local_rn.csv").exists()
    assert not (tmp_path / "out" / "network_rn.csv").exists()


def test_accuracy_emits_row_per_epsilon(tmp_path, capsys):
    config = write_config(tmp_path, CLUSTERED)
    assert (
        main(
            [
                "accuracy",
                "--config",
                str(config),
                "--eps",
                "1,2,3",
                "--trials",
                "5",
            ]
        )
        == 0
    )
    summary = (tmp_path / "out" / "accuracy_summary.csv").read_text().splitlines()
    assert summary[0].startswith("eps,")
    assert len(summary) == 4
    header = (tmp_path / "out" / "accuracy.csv").read_text().splitlines()[0]
    assert header == "epoch,eps,q,r,exact,mean_private,var_private,rmse,pct_error"


def test_report_outputs(tmp_path):
    config = write_config(tmp_path, CLUSTERED)
    assert main(["report", "--config", str(config)]) == 0
    nodes = (tmp_path / "out" / "threshold_nodes.csv").read_text().splitlines()
    assert nodes[0] == "node,first_crossing_t,peak_t,agreement_rate,samples"
    assert len(nodes) == 1 + 8
    clusters = (tmp_path / "out" / "threshold_clusters.csv").read_text().splitlines()
    assert len(clusters) == 1 + 3


def test_config_error_exit_code(tmp_path):
    missing = tmp_path / "missing.yaml"
    assert main(["simulate", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("network:\n  matrix: [[0.1, 0.2]]\n")
    assert main(["simulate", "--config", str(bad)]) == 2


@pytest.mark.filterwarnings("ignore::repronet.model.StabilityWarning")
def test_numeric_error_exit_code(tmp_path):
    config = tmp_path / "unstable.yaml"
    config.write_text(
        """
network:
  matrix: [[0.9, 0.9], [0.9, 0.9]]
  gamma: [0.9, 0.9]
initial:
  x: 0.5
model: sir
dt: 50.0
steps: 50
output_dir: "%s"
"""
        % (tmp_path / "out").as_posix()
    )
    assert main(["simulate", "--config", str(config)]) == 3


def test_calibration_infeasible_exit_code(tmp_path):
    config = tmp_path / "infeasible.yaml"
    config.write_text(
        """
network:
  matrix: [[0.1, 0.2], [0.3, 0.1]]
  gamma: [0.5, 0.5]
initial:
  x: 0.1
model: sis
dt: 0.1
steps: 2
partition: [[0], [1]]
privacy:
  enabled: true
  epsilon0: 0.000001
  k: 50.0
  bounds: [0.0, 1.0]
  clamp: [0.0, 1.0]
output_dir: "%s"
"""
        % (tmp_path / "out").as_posix()
    )
    assert main(["pipeline", "--config", str(config)]) == 4


def test_accuracy_all_zero_exact_matrix_exit_code(tmp_path, capsys):
    config = tmp_path / "zero.yaml"
    config.write_text(
        """
network:
  matrix: [[0.3]]
  gamma: [0.1]
initial:
  s: [0.0]
  x: 0.4
  r: 0.6
model: sir
dt: 0.1
steps: 4
rn_interval: 2
privacy:
  enabled: true
  epsilon0: 1.0
output_dir: "%s"
"""
        % (tmp_path / "out").as_posix()
    )
    assert main(["accuracy", "--config", str(config), "--trials", "3"]) == 3
    assert "every exact cluster entry is zero" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["1,x", "nan", "1,inf", "", " , "])
def test_accuracy_invalid_eps_grid_exit_code(tmp_path, capsys, eps):
    config = write_config(tmp_path, SCALAR_SIS)
    assert main(["accuracy", "--config", str(config), "--eps", eps, "--trials", "1"]) == 2
    assert "--eps" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "option, path",
    [
        ("--trace", "missing/t.jsonl"),  # FileNotFoundError
        ("--output-dir", "file/out"),  # NotADirectoryError
        ("--config", "."),  # IsADirectoryError: the last --config wins
    ],
)
def test_unusable_path_exit_code(tmp_path, capsys, option, path):
    config = write_config(tmp_path, CLUSTERED)
    (tmp_path / "file").write_text("")
    assert main(["pipeline", "--config", str(config), option, str(tmp_path / path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()  # the path fails before the output directory is made


# no subcommand needs scipy: the normal CDF is the package's own
SCIPY_AFTER_MAIN = """
import sys
from repronet.cli import main
code = main(sys.argv[1:])
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

NUMPY_MA_AFTER_MAIN = """
import sys
from repronet.cli import main
code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize(
    "template, command",
    [(CLUSTERED, ["pipeline"]), (EIGHT_MEMBER_CLUSTERS, ["accuracy", "--trials", "5"])],
    ids=["private-pipeline", "accuracy"],
)
def test_noise_commands_never_import_numpy_ma(tmp_path, template, command):
    # numpy.ma (which np.unique imports) would add about 0.7 MiB to the command's peak RSS
    config = write_config(tmp_path, template)
    printed = run_fresh(NUMPY_MA_AFTER_MAIN, *command, "--config", str(config))
    assert printed.splitlines()[-1] == "0 False"


NUMPY_RANDOM_AFTER_MAIN = """
import sys
from repronet.cli import main
code = main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""


def write_file_network_config(tmp_path, template):
    """``template``'s scenario with its random network read from matrix CSVs instead, as the
    benchmark's scenarios read theirs: generating a network draws from numpy.random."""
    config = write_config(tmp_path, template)
    net = build_network(load_scenario(config), tmp_path)
    csvio.write_matrix_csv(tmp_path / "b.csv", net.b)
    csvio.write_matrix_csv(tmp_path / "gamma.csv", net.gamma[None, :])
    scenario = yaml.safe_load(config.read_text())
    scenario["network"] = {"matrix_csv": "b.csv", "gamma_csv": "gamma.csv"}
    config.write_text(yaml.safe_dump(scenario))
    return config


@pytest.mark.parametrize(
    "template, command",
    [
        (CLUSTERED, ["simulate"]),
        (CLUSTERED, ["cluster-rn"]),
        (CLUSTERED, ["pipeline"]),
        (EIGHT_MEMBER_CLUSTERS, ["accuracy", "--trials", "5"]),
    ],
    ids=["simulate", "cluster-rn", "private-pipeline", "accuracy"],
)
def test_commands_never_import_numpy_random(tmp_path, template, command):
    # the noise draws through seeding.StreamBank; numpy.random would add about 2 MiB of peak RSS
    config = write_file_network_config(tmp_path, template)
    printed = run_fresh(NUMPY_RANDOM_AFTER_MAIN, *command, "--config", str(config))
    assert printed.splitlines()[-1] == "0 False"


HASHLIB_AFTER_MAIN = """
import sys
from repronet.cli import main
code = main(sys.argv[1:])
print(code, "hashlib" in sys.modules)
"""


def test_untraced_pipeline_never_imports_hashlib(tmp_path):
    # only a trace digests messages; hashlib's import costs every other run about 2 ms (numpy.random
    # imports it too, so the network comes from matrix CSVs)
    config = write_file_network_config(tmp_path, CLUSTERED)
    printed = run_fresh(HASHLIB_AFTER_MAIN, "pipeline", "--config", str(config))
    assert printed.splitlines()[-1] == "0 False"
    traced = run_fresh(HASHLIB_AFTER_MAIN, "pipeline", "--config", str(config), "--trace", str(tmp_path / "t.jsonl"))
    assert traced.splitlines()[-1] == "0 True"


SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # importing scipy now raises ImportError
from repronet.cli import main
print(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "command",
    [["simulate"], ["compute-rn"], ["cluster-rn"], ["report"], ["pipeline", "--no-privacy"]],
    ids=" ".join,
)
def test_privacy_off_commands_never_import_scipy(tmp_path, command):
    config = write_config(tmp_path, EIGHT_MEMBER_CLUSTERS)
    printed = run_fresh(SCIPY_AFTER_MAIN, *command, "--config", str(config))
    assert printed.splitlines()[-1] == "0 []"


@pytest.mark.parametrize(
    "template, command",
    [
        pytest.param(CLUSTERED, ["pipeline", "--trace", "{out}/trace.jsonl"], id="private-pipeline"),
        # the sweep draws noise whatever the scenario says
        pytest.param(EIGHT_MEMBER_CLUSTERS, ["accuracy", "--trials", "5"], id="accuracy"),
        pytest.param(CLUSTERED, ["pipeline", "--no-privacy"], id="no-privacy-pipeline"),
        pytest.param(CLUSTERED, ["simulate"], id="private-simulate"),
        pytest.param(CLUSTERED, ["compute-rn"], id="private-compute-rn"),
        pytest.param(CLUSTERED, ["cluster-rn"], id="private-cluster-rn"),
        pytest.param(CLUSTERED, ["report"], id="private-report"),
    ],
)
def test_commands_run_with_scipy_blocked(tmp_path, template, command):
    """Each subcommand runs where importing scipy fails, and writes the bytes it writes here."""
    config = write_config(tmp_path, template)
    written = []
    for side in ("fresh", "here"):
        out = tmp_path / side
        out.mkdir()
        args = [arg.format(out=out) for arg in command] + ["--config", str(config), "--output-dir", str(out)]
        if side == "fresh":
            assert run_fresh(SCIPY_BLOCKED, *args).splitlines()[-1] == "0"
        else:
            assert main(args) == 0
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert written[0] and written[0] == written[1]
