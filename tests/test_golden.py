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
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads"
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
    # a second data draw. Like seed 0 (62 of its 300 steps), it has steps
    # where some concentration falls below the asymptotic cut (43 of its 300;
    # its smallest is 5.4): those lanes of the contrastive normalizer take
    # the series, and the others keep the quotient of the asymptotic sums
    "small-seed4": SMALL.replace("seed = 0\n", "seed = 4\n") + PATT,
    # plain cross-entropy training, the baseline with no outlier stream
    "ce-baseline": SMALL + "method = ce-baseline\nscore = msp\nuse_calibration = off\n",
    # the criterion-6 settings: per-epoch vMF refresh at a larger step
    "small-epoch": SMALL.replace("learning_rate = 0.001\n", "learning_rate = 0.003\n")
                        .replace("vmf_update = batch\n", "vmf_update = epoch\n") + PATT,
    # K = 20 classes in d = 32, one epoch (the d = 32 config of
    # tests/test_reachability.py). The Bessel orders 15 and 16 have their
    # cuts at 450 and 512, and both of its 2 training steps hold
    # concentrations in [300, 512) (1,054 of their 4,800 lanes), where the
    # series rescales its sums as they pass its bound
    "d32": SMALL.replace("n_classes = 10\n", "n_classes = 20\n")
                .replace("feature_dim = 8\n", "feature_dim = 32\n")
                .replace("imbalance_ratio = 100.0\n", "imbalance_ratio = 10.0\n")
                .replace("max_per_class = 500\n", "max_per_class = 30\n")
                .replace("epochs = 30\n", "epochs = 1\n")
           + PATT.replace("use_calibration = auto\n", "use_calibration = on\n"),
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
        "model.ckpt": "4d79bf7f7c51b4b7e7070102011f253e06b39768815d32657e5afbdd3119bed9",
        "history.csv": "7b04c8e8c481a252878204904c3246fe02e49fc241b626f8467f9def26fd00d3",
        "attention.csv": "63d4448581bf7d8286d662050a387624f871984c87fb7a942664597584668636",
        "scores.csv": "e40135b789bda349f1a7282d1ff17a1e8e4c8a8de81dc119be18c1c7c24a2b34",
        "report.csv": "49ea50806ba1ab7d1fb2c24ea1d97538522ba3c492c8e74c06d54d00ba16fb84",
        "hist.csv": "b6744e0abe06c47627fd6f4661caa207b26c0473384c1d6c82ffa6a7eb418b65",
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
        "model.ckpt": "7e8015861fba023bea7b8bbb7e9424fc7a9e8f45c3b6e0983452a290a9c3314b",
        "history.csv": "62357a6202255eb2d1c55074d55662f7e25e641a7628bcdcc6d444515e602d99",
        "attention.csv": "300d403e23dc3257b1c8d028d2ebd49afbb28121364831b17398065f6f102913",
        "scores.csv": "807bed6574296009bec7b9765dbb9ed3e8c49e8e29f726bdea69b49dcc4eecf3",
        "report.csv": "1fadbde0cdf3d0fa70f8c74d230679cdd15eff400d8dd70f1ea001218ba1d935",
        "hist.csv": "616051186702de8d7e0ad7dd0419e226181a91a21a27d609181626f7bf30b853",
        "acc_table.csv": "d7de644a9189608aa06a04c05cb782450791df9e78c7b86ba96a387dd5a65a0e",
    },
    "ce-baseline": {
        **DATA,
        "model.ckpt": "f03a10cd5b24a77858affa14ae5641f9dfcfd58c18170437ee487f76051d20e8",
        "history.csv": "d225576faf6fb04246d750d60bd49870d94513cc3293e66cc80822b8c95494fe",
        "attention.csv": "ace4f3eed12b232c19f5d161846041c3918d197a7a909cf0c5fd42645d27c2c0",
        "scores.csv": "7ebf33ecabc25c8a0cf8c86575f2ab5c288f4f90e436b79fbe289ee05ba49b2a",
        "report.csv": "956880fb133b7d8e9e00f8750ce630a91e3d4c5bea939c63f0c130554159474d",
        "hist.csv": "804f2009f23292f7fbc0656ec39e0460fddff1dd7e4fa4e9b9427c62fdde8649",
        "acc_table.csv": "9f7f5676831d76ade4eff7d2007541514a56f3429ae087351c08128e0a76dfb7",
    },
    "small-epoch": {
        **DATA,
        "model.ckpt": "4a09692224c021f52e6da70c3ef3316e73ff2bd23ec19eea79ef7cee0f5549e1",
        "history.csv": "c81ad47ad9eb4650885410ec1cdc6ad345b10e5d9ffb6e83ab51de70c8e2bba8",
        "attention.csv": "317c92286af3ee55e921342faf575b668c60705441a0bd597b8f8b38969833cf",
        "scores.csv": "728d5ce0db146d42c73ddfa911fe217e1e27d5b31230a17157228eac02b5e76a",
        "report.csv": "6406bc4d084a86f31d5e53c1912e8bfb2177c051329ba411a19809f2063e2efe",
        "hist.csv": "ce923960bc6d8af19e72e98784cf4f51b8967f162109867f7578e9308e7c666a",
        "acc_table.csv": "c28223f8bcf0f0e5a8aeb3e4d5a81b8c1146655a4dcfd9f3458a3f6e80cbf378",
    },
    "d32": {
        "train.csv": "b4714fa9fc6f6b93475fd4b5dba83e7f64c11ebdea7945e790d05618b2764890",
        "val_id.csv": "205c8b88763f1e4666f308486f2a635f7c98d38af06a56be4fcb7983eea68b93",
        "test_id.csv": "48770e4526746fc00aaa2d015d693ec79e1c6a9154aa4f77a33d0c2cbcceea6a",
        "train_ood.csv": "53d05887965d7debcedd2b705c6e6676d3bae21a03dc0cb7e5b0dfadb9857ec5",
        "test_ood.csv": "4ce40f19234985ac1012b7d5e57a7434dd5f686d2ad505d30f8489a8b485c328",
        "manifest.txt": "2477a8adbb098340fecde7e8976361f478394a5ee51f4a2d37cb049a7dcf3ad7",
        "model.ckpt": "9a70e6fd95e7d117e534d27fa0caf4210d63cea5275696d5c7b71b0df04b5708",
        "history.csv": "18c48a180ed75d5859ba1b3a9ca2c27872ebce2fc23c79dfce4de6dc9ac93250",
        "attention.csv": "f0c0597e9ef7ed33f7904b6fd7a672a85167a02925ada72283955268954ef995",
        "scores.csv": "44f20ea4edd642adb4e399940e7219c0b8a94033ef1b0a515d7f3c70bc00dc55",
        "report.csv": "851761f41df09170b0323c9a898dcc09a6869212244bfe8b2c228736d1378f47",
        "hist.csv": "36d5a7fd5744544966db3a703391b7361d4765f6f042bec81ac620688c312bf9",
        "acc_table.csv": "f8dba340a621e330be9b5830c5b599ffaaea21acc5af95864bd50a0ea1c0ce3c",
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


@pytest.mark.parametrize("name, workload", [("small", "small"), ("oe-baseline", "baseline")])
def test_golden_config_is_the_benchmarked_workload(tmp_path, name, workload):
    # the benchmark's workload files are only read; both sides resolve every
    # key through the CLI's own loader, and only the seed may differ
    from patt_lab.cli import load_config
    config = tmp_path / "run.cfg"
    config.write_text(CONFIGS[name])
    golden, bench = (load_config(str(path)) for path in (config, WORKLOADS / f"{workload}.cfg"))
    del golden["seed"], bench["seed"]
    assert golden == bench
