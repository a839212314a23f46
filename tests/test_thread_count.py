"""Training across BLAS thread counts: the same metric, parameters within 1e-12.

A checkpoint is bit-identical for a fixed BLAS thread count.  Across counts
BLAS may block a product differently, so a context variant's parameters can
differ in the last bits (docs/formats.md, Checkpoints).  Each training here
runs in its own process, because BLAS reads its thread count when it loads.

The sizes are the smallest found to show a difference on two cores with
OpenBLAS 0.3.31: 56-d vectors, hidden size 25 and three epochs over 25
turns, where 20 of the 27 parameters differed, by at most 2.8e-17.  With
48-d vectors, or hidden size 24, the two counts gave identical bits there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nbestslu

TOLERANCE = 1e-12

TRAIN = """
import json
import sys

import numpy as np

from nbestslu.config import RunConfig
from nbestslu.training import train_step1
from _synth import synthetic_dataset, synthetic_table

config = RunConfig(model="cnn_lstm_w4", embedding_dim=56, filter_windows=(2,), filters_per_window=4,
                   hidden_size=25, batch_size=5, dropout=0.2, patience=0, max_epochs=3, seed=5)
model, log = train_step1(synthetic_dataset(5, 5, seed=33), config, synthetic_table(dim=56))
np.savez(sys.argv[1], **{name: tensor.data for name, tensor in model.parameters().items()})
print(json.dumps([epoch["val_metric"] for epoch in log.epochs]))
"""


def train_with_threads(threads: int, path: Path):
    """Per-epoch validation metrics and trained parameters of a run on ``threads`` BLAS threads."""
    paths = [str(Path(nbestslu.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
           **{name: str(threads) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", TRAIN, str(path)],
                          env=env, capture_output=True, text=True, check=True)
    with np.load(path) as params:
        return json.loads(done.stdout), dict(params)


def test_one_and_two_blas_threads_agree_within_the_tolerance(tmp_path):
    metrics_one, params_one = train_with_threads(1, tmp_path / "one.npz")
    metrics_two, params_two = train_with_threads(2, tmp_path / "two.npz")
    assert metrics_one == metrics_two
    assert params_one.keys() == params_two.keys()
    for name, value in params_one.items():
        np.testing.assert_allclose(params_two[name], value, rtol=0, atol=TOLERANCE, err_msg=name)
