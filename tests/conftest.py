import os

# Run the suite the way the benchmark runs the program: BLAS reads its thread
# count when numpy first loads it, so pin it before numpy is imported. With
# BLAS at one thread, `triplet_gradients` runs triplets on one thread per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from convprune.dataset import generate_dataset  # noqa: E402
from convprune.network import init_network  # noqa: E402


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped
    (`split_descriptors` forks workers and must reap every one)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid returned pid {pid})")


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """12 instances x 8 images: big enough to train, small enough for CI."""
    root = tmp_path_factory.mktemp("smallds")
    return generate_dataset(root, instances=12, images_per_instance=8, seed=5)


@pytest.fixture(scope="session")
def small_arch():
    """Two-block net on the synthetic 3x32x32 images, much lighter than tinynet."""
    return {
        "input_shape": [3, 32, 32],
        "layers": [
            {"kind": "conv", "channels": 6, "kernel": 3, "stride": 1, "padding": 1},
            {"kind": "relu"},
            {"kind": "maxpool2"},
            {"kind": "conv", "channels": 8, "kernel": 3, "stride": 1, "padding": 1},
            {"kind": "relu"},
            {"kind": "maxpool2"},
        ],
    }


@pytest.fixture()
def small_model(small_arch):
    return init_network(small_arch, seed=0)
