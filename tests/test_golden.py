"""Golden outputs: SHA-256 digests of every artifact of a fixed set of CLI runs.

Each run writes into its own directory; every CSV and ``.dat`` file is
hashed as written, and ``report.json`` with its ``timestamp`` line removed.
The digests pin ENGINE_VERSION 0.1.0 as computed with numpy 2.4.6 and
scipy 1.17.1 on x86-64 Linux. A change that alters any byte here changes
seeded output and needs an ENGINE_VERSION bump; a mismatch on another
numpy/scipy build or CPU means that platform's transcendental functions
round differently, which the message's digest table shows file by file.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import abcfuzz
from abcfuzz import ENGINE_VERSION
from abcfuzz.cli import main

# Run name -> CLI arguments. Paths are relative to one shared working
# directory so report.json echoes the same --prior path on every machine.
RUNS = {
    "gen-prior": ["gen-prior"],
    "smc-default": ["run", "smc"],
    "smc-small": ["run", "smc", "--n", "7", "--dims", "5", "--step-std", "2"],
    # one step needs 300 * 1000 normals, more than any single draw block holds
    "smc-wide": ["run", "smc", "--n", "300", "--dims", "1000", "--steps", "3"],
    "mcmc-random-start": ["run", "mcmc"],
    "mcmc-trace-all": ["run", "mcmc", "--initial-index", "2", "--trace-all"],
    "mcmc-prior-file": ["run", "mcmc", "--prior", "gen-prior/prior.csv", "--steps", "300",
                        "--burn-in", "50"],
    "compare": ["compare", "--budget", "500"],
    # 3000x100 = 300000 cells: each CSV spans five chunks of report.CHUNK_CELLS
    # cells, and smc-pooled's posterior reuses the sink's one chunk buffer. The
    # names, kept as the digests' keys, are those of a former writer pool.
    "smc-pooled": ["run", "smc", "--steps", "3000"],
    "mcmc-pooled": ["run", "mcmc", "--steps", "3100", "--burn-in", "100"],
    # a wide proposal rejects about three steps in four, so most rows of this
    # five-chunk chain repeat the row before them
    "mcmc-pooled-repeats": ["run", "mcmc", "--steps", "3100", "--burn-in", "100",
                            "--step-std", "5"],
    # reads smc-pooled's 3000x100 posterior.csv, parsed in process on any host;
    # the file is past report.CACHE_MIN_BYTES, so a second read loads the cache
    "mcmc-pooled-prior": ["run", "mcmc", "--prior", "smc-pooled/posterior.csv",
                          "--steps", "300", "--burn-in", "50"],
    # CONFIG_FILE sets every key of every section; one flag overrides it per run
    "config-smc": ["run", "smc", "--config", "all-keys.json", "--steps", "30"],
    "config-mcmc-exec": ["run", "mcmc", "--config", "all-keys.json", "--oracle", "exec:true"],
    # compare derives its prior seed from --seed and rejects prior.seed
    "config-compare": ["compare", "--budget", "60", "--config", "compare-keys.json"],
    "config-gen-prior": ["gen-prior", "--config", "all-keys.json", "--seed", "21"],
    # alpha 0 scores by distance alone, toward a nonzero target read from a CSV
    "smc-alpha0-target": ["run", "smc", "--n", "9", "--dims", "3", "--alpha", "0",
                          "--target", "target.csv", "--steps", "200"],
}

# Int-valued reals ("mean": 0, "alpha": 1, "timeout": 5) must be echoed as
# given, and "scale": null derives the scale from the prior std.
CONFIG_FILE = {
    "prior": {"n_particles": 6, "n_dims": 4, "mean": 0, "std_dev": 2,
              "zero_fraction": 0.5, "seed": 11},
    "likelihood": {"target": [0, 0.25, 0, -0.25], "alpha": 1, "scale": None},
    "smc": {"n_steps": 40, "step_std": 1, "seed": 3},
    "mcmc": {"n_steps": 20, "burn_in": 5, "step_std": 1, "initial_index": 0, "seed": 4},
    "oracle": {"kind": "range", "low": -1, "high": 1, "dimension": 0,
               "command": "true", "timeout": 5},
}
# Every key compare reads: CONFIG_FILE without prior.seed.
COMPARE_CONFIG_FILE = {**CONFIG_FILE, "prior": {
    key: value for key, value in CONFIG_FILE["prior"].items() if key != "seed"}}
# The one particle smc-alpha0-target scores against.
TARGET_CSV = "x0,x1,x2\n0.5,-1.25,2.0\n"

GOLDEN = {
    "gen-prior": {
        "plot-prior-histogram.dat":
            "a1705a50bd2bc39fa8e371c698590e62f4365d20ccaa06500700defa1c60b64e",
        "plot-prior-surface.dat":
            "7679ec245c45f6b2fd72e0086b09eec4a5be01e2ac1709d880665b39cf24dfa6",
        "prior.csv":
            "123195fb424334441ee3429fd8ef403cb7905477ae2488a007c8f0141051188f",
        "report.json":
            "368eb243e1e3cb83e25690dc5d5411c98eb591a67a85c573668f06d714321447",
        "slice-indices.csv":
            "119bffa102f35b4135a3a06b431f5925f488ec62beff12e31c31561946b8f8b3",
    },
    "smc-default": {
        "diagnostics.csv":
            "fd1989e64efab768778b89c91458300d5dda0339fe2e30f46fff8bb9eb5b1c57",
        "plot-smc-weights.dat":
            "d36c8c146c97ef01cf982c7102e91862a86ae1e7d19d89a4e412927beb9bae7d",
        "posterior.csv":
            "56198de9bb4633b71db95e072972f0fcc8620ccab90341e1b923fbe34da82526",
        "report.json":
            "0a69696e716eefd27e9ea26f48321ecc8a0960a3db6dd1682653edb6a1e63ed9",
    },
    "smc-small": {
        "diagnostics.csv":
            "5222f0a03409e6a473215095ae2191aa40b7736df9b60433c9b8178ba37b8b07",
        "plot-smc-weights.dat":
            "8b3e1e484526effa8b4c1203563972c561009002be18f5035adaf8db77b72bd3",
        "posterior.csv":
            "52646daaddfc8274e9910ca4e1f6b20bd990c5201c965d0cb2d9a9942aec69f9",
        "report.json":
            "1fc8550c2c765e760e13fa172e8ce6e81ecc7f9d07bc5144fb248c27fce2d7fe",
    },
    "smc-wide": {
        "diagnostics.csv":
            "4839cfa5183cb1e48f1387518442252c164b66f8e24cfdec7d712947616b0628",
        "plot-smc-weights.dat":
            "07c29f86b891c56c561d0efa01c6a95d3316c449917582237bb9908d87adeece",
        "posterior.csv":
            "c2170e882fb4b52314c44e66da513826d3eb2c5fdde9b51c42c374375180d7ba",
        "report.json":
            "9e3827134247ab0d918cb6c478252c03ba27ae1289c909072310ada45344ca75",
    },
    "mcmc-random-start": {
        "diagnostics.csv":
            "6cfd099a9561e94e9fb0c659b0c862bc7b46672a360f17b48c6b3a328c911ad7",
        "plot-mcmc-trace.dat":
            "66f6012f299fd11184862c6d4699692195c6181046bf779269a666cf2a881cc9",
        "posterior.csv":
            "5790b1a912b1489a0ea478a310508eb9adacabb5216cd82449b64bee0daace9c",
        "report.json":
            "3dc450da4a2b4f258b14a455b902bc268a3f0c92a6fdcdca42cf9aeef5518966",
    },
    "mcmc-trace-all": {
        "diagnostics.csv":
            "12950d3ec47c2b904177de2924cbe4d7449bfa852b09c6a9f04d13abc48e51d5",
        "plot-mcmc-trace.dat":
            "0f3537ef82f7f1ce13830a146cf022aa980ce04634cef352edbc0bc31a4d0d87",
        "posterior.csv":
            "6fc98c941998eea01f4dce5538e488f5507acdaa248e2a7846e18d987f383350",
        "report.json":
            "d4128fa2ef5008b68f961f7544966420ceda5a91bc9080c198122b94048ab122",
        "trace-full.csv":
            "33ee45bfe857b797ed3a502e242442e8ac3933066adb532f5b45756004a713e8",
    },
    "mcmc-prior-file": {
        "diagnostics.csv":
            "472fd2c7f68399aa3953459add1502a1958913fd72bc1a6b3e845634ffcc1f3e",
        "plot-mcmc-trace.dat":
            "5a9e537bbad48d1511246b4d4d96092c0b8d0c58cbeadaf8dd6e2f6af5de72cf",
        "posterior.csv":
            "9c9df9830157aa5deccca0aad7bb3135fda8dc2d0fde40d629ef4e5ec34cdf7c",
        "report.json":
            "2971e32a3207872cc20ed4bc37cc891dcfad0ce167d51a1884fa022ddf96db1b",
    },
    "compare": {
        "compare-table.csv":
            "13c1fc07d5e924dad62ae7fc1900cf577b980707ef837131766e36b8b33fe0e4",
        "report.json":
            "b0f075e51c97ef641d9793ea317dbb63e70baa46a1bd2bf0b85e8ee50e1dabda",
    },
    "smc-pooled": {
        "diagnostics.csv":
            "5065df9c3c99d3bc20ac8655b5f7d535014e6c47871ed3269ff68defee0de181",
        "plot-smc-weights.dat":
            "fa24259a191c5a9c8bb8b9d88c75c25b6d34456f04b158f4c907296bed881170",
        "posterior.csv":
            "7502f148b6545425ad210036713e820750dfb28da416e9d39d2543d99d2bc202",
        "report.json":
            "7ff158628109509b876352603121271ee58b25f4407dc3bf270fe1d56494e83e",
    },
    "mcmc-pooled": {
        "diagnostics.csv":
            "3d1a0e2e0780098233777118392f0c61358ec1dc145b603a2ebb9821f51ac3c1",
        "plot-mcmc-trace.dat":
            "2bc4e3fdf702a45573b26bf969e0f8d760fcb9feed4432123d6a81110e5ab4ae",
        "posterior.csv":
            "e15dcb0b90e4979186c228b44cbc6e1d46d8443a4b9bb82d33ebdf0668d5ec31",
        "report.json":
            "1c6f05d91ae0d79a170fdba8028e2e3ba17dad4274a0ea96e1d79c6fd8604c28",
    },
    "mcmc-pooled-repeats": {
        "diagnostics.csv":
            "5ea88f27555ecb033fe7ce4222d97fb79e33b0c2f5708bae07eba7a31edece51",
        "plot-mcmc-trace.dat":
            "4fbba87104d767fd6995633f4424c1dc6cb943624d43ee056953e74703c5e3e3",
        "posterior.csv":
            "d4d2d5118eae5670b77a17e2182c89e922e98efd2176b72d76e72fe125e254ae",
        "report.json":
            "d7f570b36d36e46e91e10fea0b11d294b6f7a44f7787c813f930dbccd176c1cb",
    },
    "mcmc-pooled-prior": {
        "diagnostics.csv":
            "6f3d9fe6451d0da49a6548d47c4a620709e729695cb11e7168ad400b6d321986",
        "plot-mcmc-trace.dat":
            "cb33f6ac53c20aa36ae938f8d82508fb7870a76004842a62580d4c9127403d72",
        "posterior.csv":
            "653f8daa941f5dd1b1fe9d83da705aea36e3ade802d21d00371468cb0c5c96bf",
        "report.json":
            "a36a5f7f1f9ecfcfefac85c7ee69d59d8e935f8a778139f09ab6e21e8cb47361",
    },
    "config-smc": {
        "diagnostics.csv":
            "9077fddd8252dc858935eb2470199d7351e88f060f9a5bcd84630918f606157b",
        "plot-smc-weights.dat":
            "142b037a65301613f31f21678f2d3c8bfb7de7258aa2808f86adfbe64ddcbde3",
        "posterior.csv":
            "0829c48dc04a820e85f5bb0b5e0d9cb01c27f05ce40ce37dd5126c0075542c6e",
        "report.json":
            "9c72272940c6670f38156e56bda88b9e8acde396892d9817e6c1e0f9f129b6ab",
    },
    "config-mcmc-exec": {
        "diagnostics.csv":
            "f88597a2cd6dde2108de06ee8a73de0f980e716f174057529434415a9d29235f",
        "plot-mcmc-trace.dat":
            "65163efd4878ad0e2386fc739f06d09d87134b2c5e27f70f2f5ef49aba2370a5",
        "posterior.csv":
            "082aa9639872243ca1143ae712b54c2b9a0be18d93dd38906bbb08a15e61233b",
        "report.json":
            "ae0784876e06e13773d6e23fcadcc14edda276bdbe683e201901c1ef6cfa510b",
    },
    "config-compare": {
        "compare-table.csv":
            "c12a5ce9c3ae9f8af4787fe44c61ae9c21d63ba5c7a642bbd5ec1fc982f1b15e",
        "report.json":
            "15aab12e6faf02050814c0dbe5801b773088c8d346a7f0344000e2ddfe98215c",
    },
    "config-gen-prior": {
        "plot-prior-histogram.dat":
            "71747168738a829dd97f427f1d8d6d37dde818e20857e0bb13cd91a72fdd05c2",
        "plot-prior-surface.dat":
            "45f2e6e966c1aa51f2daee066ed3c85bf5ca8e51cfcef6da038ba21681d8fa1b",
        "prior.csv":
            "896bacb09f3b4e9a35ae321fc214ca0ab052f16ca0370b62662de9ae420f1cf1",
        "report.json":
            "66a55fe8722deb7033d112415fdcc80514c379d4c07856f3c869ad0d4d9240ed",
        "slice-indices.csv":
            "119bffa102f35b4135a3a06b431f5925f488ec62beff12e31c31561946b8f8b3",
    },
    "smc-alpha0-target": {
        "diagnostics.csv":
            "842f254aa4141b370d17c4ed6d73e2496cebf9c9e6c5430d6be5d59d96a59d19",
        "plot-smc-weights.dat":
            "495c84faa7ccde44c819f7a469afb30c7caaef0bef6e971ca8fa073fec6f618b",
        "posterior.csv":
            "d3036b24d75a2887e7c334dcaafa82708bc815aee8d635f079718f6db4e2e914",
        "report.json":
            "4fae627e5e87e3b2f2ec33a7c8c64429e6a1d28103a35a2f22a24c78b773519e",
    },
}

_TIMESTAMP_LINE = re.compile(rb'^  "timestamp": "[^"]*",?\n', re.MULTILINE)


def _digests(outdir):
    digests = {}
    for path in sorted(outdir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            data = _TIMESTAMP_LINE.sub(b"", data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """The one working directory every run of ``outputs`` writes into."""
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def outputs(root):
    """Digests of every run, executed in RUNS order inside one directory."""
    results = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        (root / "all-keys.json").write_text(json.dumps(CONFIG_FILE))
        (root / "compare-keys.json").write_text(json.dumps(COMPARE_CONFIG_FILE))
        (root / "target.csv").write_text(TARGET_CSV)
        for name, argv in RUNS.items():
            assert main([*argv, "--out", name]) == 0, name
            results[name] = _digests(root / name)
    return results


def test_engine_version_is_the_pinned_one():
    assert ENGINE_VERSION == "0.1.0"


@pytest.mark.parametrize("run", list(RUNS))
def test_artifacts_match_golden_digests(outputs, run):
    assert outputs[run] == GOLDEN[run]


def _child_env():
    """The environment of a child that imports the package this suite
    tests, from any directory."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(abcfuzz.__file__)),
         *filter(None, [os.environ.get("PYTHONPATH")])]))


def _copy_pooled_posterior(root, tmp_path):
    """smc-pooled's posterior, which mcmc-pooled-prior reads, into ``tmp_path``."""
    (tmp_path / "smc-pooled").mkdir()
    shutil.copy(root / "smc-pooled" / "posterior.csv", tmp_path / "smc-pooled")


def test_fresh_interpreter_matches_golden_digests(outputs, root, tmp_path):
    # main runs in-process above, after this suite imported scipy.special;
    # a new interpreter loads scipy's ufunc module alone, and must draw the
    # same bits. mcmc-pooled-prior reads smc-pooled's posterior, as above.
    _copy_pooled_posterior(root, tmp_path)
    for name in ("smc-default", "mcmc-pooled-prior"):
        proc = subprocess.run([sys.executable, "-m", "abcfuzz.cli", *RUNS[name], "--out", name],
                              cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert _digests(tmp_path / name) == GOLDEN[name], name


# main in a child that prints how often it called the --prior parser.
_COUNTING_MAIN = """
import sys
from abcfuzz import cli
calls, read = [], cli.read_particles_csv
cli.read_particles_csv = lambda path: calls.append(path) or read(path)
code = cli.main(sys.argv[1:])
print(len(calls))
sys.exit(code)
"""


def test_prior_read_through_the_cache_matches_golden_digests(outputs, root, tmp_path):
    # mcmc-pooled-prior's 3000x100 prior is past report.CACHE_MIN_BYTES: of
    # two new interpreters with one cache directory, the first parses it and
    # stores the matrix, the second loads it, and both write the pinned bytes
    _copy_pooled_posterior(root, tmp_path)
    env = dict(_child_env(), XDG_CACHE_HOME=str(tmp_path / "cache"))
    for out, parses in (("miss", "1"), ("hit", "0")):
        proc = subprocess.run([sys.executable, "-c", _COUNTING_MAIN,
                               *RUNS["mcmc-pooled-prior"], "--out", out],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == parses, out
        assert _digests(tmp_path / out) == GOLDEN["mcmc-pooled-prior"], out
    assert len(os.listdir(tmp_path / "cache" / "abc-fuzz")) == 1
