import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import repronet as rn

settings.register_profile("repronet", deadline=None)
settings.load_profile("repronet")


def run_fresh(program: str, *args: str) -> str:
    """Stdout of ``program`` run in a new interpreter that imports this repronet."""
    env = dict(os.environ)
    src = str(Path(rn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", program, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def make_network(rng, n, density=0.4, beta=(0.02, 0.3), gamma=(0.08, 0.3), ring=True):
    """Random transmission network; a ring backbone guarantees strong connectivity."""
    b = np.where(rng.random((n, n)) < density, rng.uniform(*beta, (n, n)), 0.0)
    if ring and n > 1:
        for i in range(n):
            b[i, (i + 1) % n] = rng.uniform(max(beta[0], 0.02), beta[1])
    np.fill_diagonal(b, rng.uniform(max(beta[0], 0.02), beta[1], n))
    return rn.TransmissionNetwork(b=b, gamma=rng.uniform(*gamma, n))


def make_state(rng, n, t=0.0, x=(0.01, 0.2), with_r=False):
    xv = rng.uniform(*x, n)
    rv = rng.uniform(0.0, 0.2, n) if with_r else np.zeros(n)
    sv = 1.0 - xv - rv
    return rn.EpidemicState(t=t, s=sv, x=xv, r=rv)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def small_instance(rng):
    net = make_network(rng, 6)
    state = make_state(rng, 6, with_r=True)
    partition = rn.Partition.from_blocks([[0, 1], [2, 3], [4, 5]])
    return net, state, partition
