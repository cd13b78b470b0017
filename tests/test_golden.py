"""Golden bytes: the five CLI stages reproduce recorded output digests.

Each stage runs in its own process with one BLAS/OpenMP thread, the way the
benchmark runs it, and the sha256 of every byte-compared output (acceptance
criterion 8) must equal the digest recorded for it. A change that is meant to
keep every output byte must leave this test passing; a change that moves
numbers on purpose records new digests here and says why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
STAGES = ("gen-data", "train", "calibrate", "eval", "report")
NUMPY = "2.4.6"

# The CLI defaults of patt-lab 0.1.0 with every key written out, so that a
# later change of a default does not move these digests.
SMALL = """\
n_classes = 10
feature_dim = 8
imbalance_ratio = 100.0
max_per_class = 500
within_kappa = 80.0
ood_kappa = 20.0
val_per_class = 20
test_per_class = 40
ood_train_clusters = 2
ood_test_clusters = 3
ood_train_size = 600
ood_test_size = 400
max_direction_dot = 0.9
features_direct = false
input_dim = 0
epochs = 30
batch_size = 128
ood_batch_size = 128
learning_rate = 0.001
optimizer = adam
sgd_momentum = 0.9
vmf_momentum = 0.9
vmf_update = batch
encoder_widths = 64,64
oe_gamma = 0.5
tau = 0.1
epsilon = 0.7
alpha = 0.5
beta = 0.1
per_class = 0
tail_fraction = 0.3333333333333333
seed = 0
"""

PATT = "method = patt\nscore = energy\nuse_calibration = auto\n"

CONFIGS = {
    "small": SMALL + PATT,
    # the same data trained and scored as the outlier-exposure baseline
    "oe-baseline": SMALL + "method = oe-baseline\nscore = msp\nuse_calibration = off\n",
    # a second data draw. Like seed 0 (62 of its 300 steps), it takes the
    # mixed-branch path of the contrastive normalizer: on 43 of its 300 steps
    # some concentration falls below the asymptotic cut (its smallest is 5.4)
    "small-seed4": SMALL.replace("seed = 0\n", "seed = 4\n") + PATT,
}

DATA = {
    "train.csv": "a22068939b91a27bf72248d5f34affbed825713ca37927db7b9fed0109da67cd",
    "val_id.csv": "d0c63a201df56eac266417d14f35fbc46dabc3bd89e68495008c2be93322dcd2",
    "test_id.csv": "d576c01492267593904c4615388505859bcec7be3acb11b93b1670a19443f2b1",
    "train_ood.csv": "ce8ab88f36538272a85e8b138ce64d042473bbd2de9e8deae055585828e48d5d",
    "test_ood.csv": "65fe323dc40261a44730d552e07aa8ddab782535d734e52a22f3e2d7d741cdf2",
    "manifest.txt": "8d5d98ca765d0f7f80afaa658782adf021240eb4dddfe4e162142860d37912db",
}

DIGESTS = {
    "small": {
        **DATA,
        "model.ckpt": "b9ee4208ac2a95e0c0fca20fd92bb61c6b3b82d3f7936b2f285e98294a4fc02b",
        "history.csv": "b68c214a833f6c01053cf3cc5b32fd01304236540d75afcc3e5a8f31aa14da95",
        "attention.csv": "cccf5498e2679c2df69e374a98ff1b3f8447040f5087e00e12302bccbc0203ba",
        "scores.csv": "b04e3244c3a53184aa0f8f5841c2df95f38afbb5734bd15c911d4f9a40333a49",
        "report.csv": "49ea50806ba1ab7d1fb2c24ea1d97538522ba3c492c8e74c06d54d00ba16fb84",
        "hist.csv": "7eb25f5f9be911fc460ce4411c7aa2ea42299e42cc81857a0eb40f4c2430480b",
        "acc_table.csv": "c13e33548f50e777573f9a6406dddc4e936ee6845405e9531a6f308fe2508a8c",
    },
    "oe-baseline": {
        **DATA,
        "model.ckpt": "77d2b2bbf8417a4dd6ae5142d844e47a2810ad809e43aae7da509cfa9b746470",
        "history.csv": "706ebd38422df2326683039db96abc6f45550ee40419651345ab06964f5eae97",
        "attention.csv": "a17a1961082ae37dfd5d7cdec5e5fe74a34a301102f975d78f25a3128414e34b",
        "scores.csv": "1005f3ffc2bc0366db2c3ce517ba7a6ff56dad21f91d2c1b7bbf526140c25a92",
        "report.csv": "96b9d87671e02ecb8c56e98453e11929d3be2f6072eea0cf712672f078c53287",
        "hist.csv": "e3c7f10945e9e906e5cbf769fe376ae8f361ab1a49674b45e39eec5102c156dd",
        "acc_table.csv": "65d6abb396e4a40891bf3e2578dadef4a0ef04be58dd63cc8001d01b87e08e4e",
    },
    "small-seed4": {
        "train.csv": "36e75dcc31f24eb11a1ff6e7ca7f31d53b9c355bb97b5a3f77563e8f01cc0a11",
        "val_id.csv": "0cbc94948ebe51df86cbf0574f5dc05e3b96d37df1019d87f53c682865ae8fc1",
        "test_id.csv": "dc395327db8b163a3386689f3f78733c84e11d1353fe2af2137cb5f1ab80e8c2",
        "train_ood.csv": "7f44bf92b6103319af7b715e8f5ec0d3bfef785b81cbfa2bf5033bbd7e320ad9",
        "test_ood.csv": "b566c1fa11aa9d0e6dbb2baa5992e197b8d559494b939df18583c7175278def1",
        "manifest.txt": "2554e0002533b5c4bbaaa66bb76d5e5da2dbc0e220b0a8ce9e29b998145413ee",
        "model.ckpt": "3bb3f2a4804736fc768a17e213cab564fdc1cccb51df1c3ecc57a017f20438f5",
        "history.csv": "867a62d73fb7d3b89db44c3e06a7b3f9b07b674b47791bca8b334a6c8d4fecdd",
        "attention.csv": "36d58e84e4eb47e3bf0ea689445ed254cd6b60fc0aaea777ae163ba3b30bcb54",
        "scores.csv": "b16f2095a65d902c538d5783eab9ae86b055f3fe73c6af494fb120861d6bc37e",
        "report.csv": "1fadbde0cdf3d0fa70f8c74d230679cdd15eff400d8dd70f1ea001218ba1d935",
        "hist.csv": "50b503f36495870ab8ed624bab69aadf1e845753bb40a517abb6b10c99bdc01b",
        "acc_table.csv": "d7de644a9189608aa06a04c05cb782450791df9e78c7b86ba96a387dd5a65a0e",
    },
}


@pytest.mark.skipif(np.__version__ != NUMPY,
                    reason=f"digests were recorded with numpy {NUMPY} and its bundled "
                           f"OpenBLAS; numpy {np.__version__} may round differently")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pipeline_outputs_match_recorded_digests(tmp_path, name):
    config = tmp_path / "run.cfg"
    config.write_text(CONFIGS[name] + f"out_dir = {tmp_path / 'out'}\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for stage in STAGES:
        done = subprocess.run(
            [sys.executable, "-c", "from patt_lab.cli import entry; entry()",
             stage, "--config", str(config)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0 and not done.stderr, (stage, done.stderr)
    got = {out: hashlib.sha256((tmp_path / "out" / out).read_bytes()).hexdigest()
           for out in DIGESTS[name]}
    changed = {out: got[out] for out, digest in sorted(DIGESTS[name].items()) if got[out] != digest}
    assert not changed, "outputs whose bytes changed, with their new digests:\n" + "".join(
        f'        "{out}": "{digest}",\n' for out, digest in changed.items())
