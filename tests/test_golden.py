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
    # a second data draw; like seed 0, every concentration it trains on is
    # at or above the asymptotic cut (its smallest is 38.3)
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
        "model.ckpt": "65dfe600937e9c4d7eca71e05c8c50e8c75f4fc40cef554f7930ca4f78b6bf94",
        "history.csv": "8c8dea7ce2921d8f0ceca6bb49891e00b06fae0a755de464bf515ab0ab8d7348",
        "attention.csv": "0baa71a7155d8858e1507058b9e1dea547e1f51d4a09ee4f4b0e52fe0ff7523c",
        "scores.csv": "8b8cd6c5cd81d8b562231c1c1423e1635402327a927d089dd45410acc6484d5c",
        "report.csv": "5080347179daf2e704b88868127056544cadcf947a25cfdf85710e2188e5f937",
        "hist.csv": "95f55308a819c4571c184c81d86f8ee639c50f65b4e20d4186d62cd61bdb6112",
        "acc_table.csv": "6c184aa37509ad4f8a0e819bf43bdaeb5a182d46f232c9dae58fe3a5bed369b5",
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
        "model.ckpt": "e28691db72ac3e204e0a0e3e6b06526fe0253109d62f99a3a9df00c4c6d2bd9f",
        "history.csv": "8e3991d0fbbce846630cf91d3dab3af820a25228bf562429f736eaa34f67e481",
        "attention.csv": "4b7a5b9fc06b942a2c4bfe1f5179238c968f24587d8b6d20fae6bbfcb22de14c",
        "scores.csv": "ba0e9b64e62ad23a9462ae1f03d70ee8589fa518826eb4944e90a2bf0887f020",
        "report.csv": "9aa92cbbd4b2e59defa13e6840992cc0eb99f7fef82b9871ae26a9535ff668d4",
        "hist.csv": "078e3d1bfbfc16ee7efa705ccffff3e7b038dbfa8f4050a7f0d675c76da801e3",
        "acc_table.csv": "62d6329b3a17d545bc34929e0843989f93df619a86de513e1a7f2e271538d586",
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
    changed = sorted(out for out, digest in DIGESTS[name].items() if got[out] != digest)
    assert not changed, f"outputs whose bytes changed: {changed}"
