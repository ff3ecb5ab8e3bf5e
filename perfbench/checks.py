"""Output checks of one round against the reference computations.

``CHECKS[workload](commands, outs, codes, sigmas)`` takes the round's
commands and, keyed by command label, their output directories, exit codes
and the noise scales read back from their calibration caches.  It returns
(name, passed, detail) triples.  The checks test the outputs against
independent computations (``reference``) or required properties of the
method, never against a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

import reference as ref
from workloads import ACCURACY_EPS, ACCURACY_TRIALS, CLAMP, FLOOR, Instance

REL_EXACT = 1e-12  # dense-formula agreement for exactly computed matrices
TRAJECTORY_TOL = 1e-6  # sampled states against solve_ivp
NETWORK_REL = 1e-9  # network numbers and row sums against LAPACK / dense sums
Z_LIMIT = 5.0  # private means against the truncated-Gaussian expectation


def _result(name: str, passed: bool, detail: str = "") -> tuple[str, bool, str]:
    return name, bool(passed), detail


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _rel_error(values: np.ndarray, exact: np.ndarray) -> float:
    """Largest relative error; an exact zero must be matched exactly."""
    zero = exact == 0.0
    if np.any(values[zero] != 0.0):
        return math.inf
    if np.all(zero):
        return 0.0
    return float(np.max(np.abs(values[~zero] - exact[~zero]) / np.abs(exact[~zero])))


def _cluster_series(path: Path, m: int) -> tuple[np.ndarray, list[str]]:
    """(epochs, m, m) values and the kinds of a cluster rn CSV."""
    rows = _read_rows(path)
    values = np.array([float(row[3]) for row in rows])
    return values.reshape(-1, m, m), [row[4] for row in rows]


def _reference_states(inst: Instance) -> dict:
    return ref.rk4_states(
        inst.b, inst.gamma, inst.x0, inst.model, inst.dt, inst.steps, inst.sampled_epochs
    )


def _rk4_against_ode(inst: Instance, states: dict) -> tuple[str, bool, str]:
    """The fixed-step reference itself is within tolerance of solve_ivp."""
    epochs = sorted(states)
    times = np.array([epoch * inst.dt for epoch in epochs])
    ode = ref.ode_states(inst.b, inst.gamma, inst.x0, inst.model, times)
    err = max(float(np.max(np.abs(np.stack(states[e]) - ode[k]))) for k, e in enumerate(epochs))
    return _result("reference RK4 within 1e-6 of solve_ivp", err <= TRAJECTORY_TOL, f"{err:.2e}")


def support_patterns(inst: Instance) -> list[list[bool]]:
    """Distinct report support patterns: entry r is positive iff row i has an
    edge into cluster r (s, x and gamma are positive on every sampled state)."""
    edges = inst.b > 0.0
    patterns = {tuple(bool(edges[i, list(block)].any()) for block in inst.blocks) for i in range(inst.n)}
    return [list(p) for p in sorted(patterns)]


def sigma_queries(command) -> list[dict]:
    """The (spec, pattern) pairs whose sigma the checks need from the command."""
    privacy = command.instance.privacy
    return [
        {
            "epsilon0": eps,
            "delta": privacy["delta"],
            "k": privacy["k"],
            "bounds": privacy["bounds"],
            "patterns": support_patterns(command.instance),
        }
        for eps in command.sigma_eps
    ]


def _weights(inst: Instance, x) -> np.ndarray:
    return inst.gamma * ref.floored(x, FLOOR)


def check_private_pipeline(commands, outs: dict, codes: dict, sigmas: dict) -> list:
    inst, out = commands[0].instance, outs["pipeline"]
    m = len(inst.blocks)
    results = []
    values, kinds = _cluster_series(out / "cluster_rn.csv", m)
    epochs = inst.sampled_epochs
    results.append(
        _result(
            "cluster_rn.csv has one cluster_private row per entry and epoch",
            len(kinds) == len(epochs) * m * m and set(kinds) == {"cluster_private"},
            f"{len(kinds)} rows",
        )
    )
    states = _reference_states(inst)
    results.append(_rk4_against_ode(inst, states))
    zeros_ok = bound_ok = True
    for k, epoch in enumerate(epochs):
        s, x, _ = states[epoch]
        exact = ref.cluster_matrix(inst.b, inst.gamma, s, x, inst.blocks, FLOOR, CLAMP)
        private = values[k]
        zeros_ok &= bool(np.all((private == 0.0) == (exact == 0.0)) and np.all(private >= 0.0))
        positive = ref.report_matrix(inst.b, inst.gamma, s, x, inst.blocks, FLOOR, CLAMP) > 0.0
        weight = _weights(inst, x)
        for q, block in enumerate(inst.blocks):
            members = list(block)
            cap = CLAMP[1] * positive[members].sum(axis=0) / weight[members].sum()
            # the weights come from the reference trajectory, hence the slack
            bound_ok &= bool(np.all(private[q] <= cap * (1.0 + 1e-9)))
    results.append(_result("private entry is 0 exactly where the exact entry is 0", zeros_ok))
    results.append(_result("private entry <= 14 * active members / sum(gamma x)", bound_ok))
    results.append(_calibration_check(inst, inst.privacy["epsilon0"], sigmas["pipeline"][0]))
    return results


def _calibration_check(inst: Instance, epsilon0: float, sigmas: list) -> tuple[str, bool, str]:
    patterns = support_patterns(inst)
    width = inst.privacy["bounds"][1] - inst.privacy["bounds"][0]
    failures = [
        sum(p)
        for p, sigma in zip(patterns, sigmas)
        if not ref.calibration_holds(sigma, epsilon0, inst.privacy["k"], [width] * sum(p))
    ]
    return _result(
        f"calibrated sigma meets the inequality at c = k/sqrt(d) (eps0={epsilon0:g})",
        not failures,
        f"{len(patterns)} patterns" + (f", fails for d={failures}" if failures else ""),
    )


def check_accuracy(commands, outs: dict, codes: dict, sigmas: dict) -> list:
    inst, out, by_eps = commands[0].instance, outs["accuracy"], sigmas["accuracy"]
    m = len(inst.blocks)
    results = []
    rows = _read_rows(out / "accuracy.csv")
    expected_rows = len(ACCURACY_EPS) * len(inst.sampled_epochs) * m * m
    results.append(
        _result("accuracy.csv has one row per eps, epoch and entry", len(rows) == expected_rows, f"{len(rows)} rows")
    )
    states = _reference_states(inst)
    results.append(_rk4_against_ode(inst, states))
    patterns = [tuple(p) for p in support_patterns(inst)]
    width = (inst.privacy["bounds"][0], inst.privacy["bounds"][1])
    worst_rel, worst_z = 0.0, 0.0
    for row in rows:
        epoch_index, eps, q, r = int(row[0]), float(row[1]), int(row[2]), int(row[3])
        exact_csv, mean_private, var_private = (float(v) for v in row[4:7])
        s, x, _ = states[inst.sampled_epochs[epoch_index]]
        exact = ref.cluster_matrix(inst.b, inst.gamma, s, x, inst.blocks, FLOOR, CLAMP)[q, r]
        worst_rel = max(worst_rel, _rel_error(np.array([exact_csv]), np.array([exact])))
        reports = ref.report_matrix(inst.b, inst.gamma, s, x, inst.blocks, FLOOR, CLAMP)
        sigma_of = dict(zip(patterns, by_eps[ACCURACY_EPS.index(eps)]))
        members = list(inst.blocks[q])
        expected = sum(
            ref.trunc_gauss_mean(reports[i, r], sigma_of[tuple(bool(v) for v in reports[i] > 0.0)], *width)
            for i in members
            if reports[i, r] > 0.0
        ) / _weights(inst, x)[members].sum()
        if var_private == 0.0:
            z = 0.0 if mean_private == expected else math.inf
        else:
            z = (mean_private - expected) / math.sqrt(var_private / ACCURACY_TRIALS)
        worst_z = max(worst_z, abs(z))
    results.append(_result("exact entries match the dense formula to 1e-12", worst_rel <= REL_EXACT, f"{worst_rel:.2e}"))
    results.append(
        _result("private means within 5 standard errors of the expectation", worst_z <= Z_LIMIT, f"worst |z| {worst_z:.2f}")
    )
    summary = _read_rows(out / "accuracy_summary.csv")
    rmse = {float(row[0]): float(row[2]) for row in summary if row[1] == "1"}
    ordered = [rmse.get(eps, math.nan) for eps in ACCURACY_EPS]
    results.append(
        _result(
            "rmse falls strictly as eps grows",
            all(a > b for a, b in zip(ordered, ordered[1:])),
            ", ".join(f"{v:.4g}" for v in ordered),
        )
    )
    for eps, eps_sigmas in zip(ACCURACY_EPS, by_eps):
        results.append(_calibration_check(inst, eps, eps_sigmas))
    return results


def check_sir_scan(commands, outs: dict, codes: dict, sigmas: dict) -> list:
    inst = next(c.instance for c in commands if c.label == "simulate")
    n, m = inst.n, len(inst.blocks)
    results = []
    table = np.loadtxt(outs["simulate"] / "states.csv", delimiter=",", skiprows=1)
    table = table.reshape(inst.steps + 1, n, 5)
    fractions = table[:, :, 2:5]
    in_range = bool(np.all((fractions >= 0.0) & (fractions <= 1.0)))
    drift = float(np.max(np.abs(fractions.sum(axis=2) - 1.0)))
    nodes_ok = bool(np.all(table[:, :, 1] == np.arange(n)))
    results.append(
        _result("states.csv: fractions in [0, 1], s+x+r within 1e-9 of 1", in_range and nodes_ok and drift <= 1e-9, f"drift {drift:.1e}")
    )
    times = table[:, 0, 0]
    ode = ref.ode_states(inst.b, inst.gamma, inst.x0, inst.model, times)
    err = float(np.max(np.abs(np.transpose(fractions, (0, 2, 1)) - ode)))
    results.append(_result("states within 1e-6 of solve_ivp (DOP853)", err <= TRAJECTORY_TOL, f"{err:.2e}"))

    values, kinds = _cluster_series(outs["cluster-rn"] / "cluster_rn.csv", m)
    worst = 0.0
    for k, epoch in enumerate(inst.sampled_epochs):
        s, x = fractions[epoch, :, 0], fractions[epoch, :, 1]
        exact = ref.cluster_matrix(inst.b, inst.gamma, s, x, inst.blocks, FLOOR, CLAMP)
        worst = max(worst, _rel_error(values[k], exact))
    results.append(
        _result(
            "cluster-rn matches the dense formula to 1e-12",
            worst <= REL_EXACT and len(kinds) == len(inst.sampled_epochs) * m * m,
            f"{worst:.2e}",
        )
    )

    rates = []
    for name in ("threshold_nodes.csv", "threshold_clusters.csv"):
        rates += [row[3] for row in _read_rows(outs["report"] / name) if int(row[4]) > 0]
    agree = bool(rates) and all(float(rate) == 1.0 for rate in rates)
    results.append(_result("every node and cluster with samples has agreement_rate 1", agree, f"{len(rates)} rows"))

    if codes["compute-rn"] == 0:
        fixed = next(c.instance for c in commands if c.label == "compute-rn")
        results += _check_compute_rn(fixed, outs["compute-rn"])
    return results


def _check_compute_rn(inst: Instance, out: Path) -> list:
    states = _reference_states(inst)
    epochs = inst.sampled_epochs
    network = _read_rows(out / "network_rn.csv")
    worst_network = 0.0
    for row, epoch in zip(network, epochs):
        r0, rt = ref.network_numbers(inst.b, inst.gamma, states[epoch][0])
        worst_network = max(worst_network, abs(float(row[1]) / r0 - 1.0), abs(float(row[2]) / rt - 1.0))
    local = np.loadtxt(out / "local_rn.csv", delimiter=",", skiprows=1, usecols=3)
    sums = local.reshape(-1, inst.n, inst.n).sum(axis=2)
    worst_rows = 0.0
    for k, epoch in enumerate(epochs):
        s, x, _ = states[epoch]
        lern = ref.lern(inst.b, inst.gamma, s, x, FLOOR, CLAMP)
        worst_rows = max(worst_rows, float(np.max(np.abs(sums[k] / lern - 1.0))))
    return [
        _result(
            "network_rn.csv r0 and rt within 1e-9 of eigvals",
            len(network) == len(epochs) and worst_network <= NETWORK_REL,
            f"{worst_network:.2e}",
        ),
        _result(
            "local_rn.csv row sums match the reference lern",
            sums.shape[0] == len(epochs) and worst_rows <= NETWORK_REL,
            f"{worst_rows:.2e}",
        ),
    ]


CHECKS = {
    "private-pipeline": check_private_pipeline,
    "accuracy-sweep": check_accuracy,
    "sir-scan": check_sir_scan,
}
