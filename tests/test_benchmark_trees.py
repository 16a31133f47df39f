"""Byte identity at the benchmark shapes.

The sha256 of every file that ``run`` writes under --out on seed 1 of the
``national_10x`` and ``threshold_sweep`` workloads, and of the
``invalid_10x`` seed-1 ``validate`` listing. The corpora come from the
benchmark's own generator (perfbench/workloads.py), whose bytes are pinned
by tests/test_synth_stream.py and a CI digest step. A change that alters
output on purpose updates these and says so in CHANGES.md.

analytics.json is compared parsed (spearman.matrix is exact in any BLAS
summation order), and manifest.json parsed without its input paths; the
layout of both is checked by test_json_writers.py. Seeds 2 and 3 are
pinned in ci/test_benchmark_trees_ci.py.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

from fieldstrength.cli import main

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
from perfbench import workloads  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode("utf-8")


def tree_digests(out: Path) -> dict[str, str]:
    """{relative path: sha256} of every file under out, the two JSON
    documents read as said in the module docstring."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        data = path.read_bytes()
        if name in ("analytics.json", "manifest.json"):
            value = json.loads(data)
            for entry in value.get("inputs", {}).values():
                del entry["path"]
            data = _canonical(value)
        digests[name] = _sha(data)
    return digests


def run_tree(name: str, seed: int, tmp: Path) -> dict[str, str]:
    """Build one workload's corpus under tmp, run it, and digest --out."""
    inputs = workloads.build(workloads.WORKLOADS[name], seed, tmp)
    assert main(["run", "--config", str(inputs.config_path), "--out", str(tmp / "out")]) == 0
    return tree_digests(tmp / "out")


def validate_listing(national: Path, seed: int, tmp: Path, capsys) -> str:
    """The invalid_10x validate listing: a copy of the national_10x corpus
    of the same seed, corrupted as invalid_10x corrupts it, with the
    corpus directory written as <corpus>."""
    shutil.copytree(national / "corpus", tmp / "corpus")
    shutil.copy(national / "config.json", tmp / "config.json")
    workloads.corrupt({n: tmp / "corpus" / f"{n}.csv" for n in workloads.INPUT_NAMES}, seed)
    capsys.readouterr()
    assert main(["validate", "--config", str(tmp / "config.json")]) == 1
    return capsys.readouterr().out.replace(str(tmp / "corpus"), "<corpus>")


PINNED = {
    "national_10x": {
        "analytics.json": "9a5b3845af6bf4938caf2bf2b8a35108d170c34477d7748a1cf88336081d1189",
        "hca_flags.csv": "969aff0640147076520c93544f43a154b13e58bbbc6cb303297c86319dad14a2",
        "manifest.json": "2b03675891d1a684163a2a8103499ddbd4202f559efc1bccfdc11d58bccecbc9",
        "reports/avg_rank.csv": "7fc080c56e97d6a7b65455f3901e205153bd767df5f1b990b706cc0e3c4b725b",
        "reports/avg_rank.json": "dfadaa72596bb2e6af0f3c0e69dd26672eef4efb33643b429513f03032d07583",
        "reports/avg_rank.md": "5a33bac2a2cdbd9bb7d17092e521641130d342ce113c35e649012400afaef471",
        "reports/correlations.csv": "dde8aa8dc3949966d5ec86e7fd06c49581ba98611242471f28b8ea51ea31e7ba",
        "reports/correlations.json": "37816c1097c3c4aca58e3f4253c2092560f6b2bf6742da61efa19977fd05459f",
        "reports/correlations.md": "2ee4de38222b70e0493e93f68dcfde373243d1fe3361205aefcafdd1110ad47b",
        "reports/disciplines.csv": "5db15d788c602f30768e2a570f3a23245b7d20abf267fbbc8beceaf2c35da0f3",
        "reports/disciplines.json": "2cfb825bd797d721bd2026eaf850a306fc409a3b868dbcfe120b6ba52b33afae",
        "reports/disciplines.md": "7d3d7e5d8e7487afd76730b815437b5d6fdd9da72b37754076b63c72fdc160c5",
        "reports/fields.csv": "e9f9b77dbe79a523d9d5e3f73c31039493ff27781be3a9ca0fc21989479510b7",
        "reports/fields.json": "25c38f6a88a66a5be69275844c9f6ec1260256c6faaa7d5e64cf2e48b05aa580",
        "reports/fields.md": "a61650dcd77def71cda3f026db018ce8c96850e41fb9c87ce5168db82df1ec0a",
        "reports/quadrants.csv": "429ad429df54ca34710d13e5fcdfb4691ad713ad16dcd177403beae344bd2771",
        "reports/quadrants.json": "1036a11d747255cbdbad8da4f70b8cc6a27ef23f30d96a5ee049a44d5a3aa051",
        "reports/quadrants.md": "d557beec793906f37933e4f397669b3eb4d48b5cda13ae696164a23d9929205d",
        "reports/summary.csv": "554d5295175e6bf3ace603507137417ebac2125a572efeb3290998e40c9836f4",
        "reports/summary.json": "225d7dbc998fea208a1280540b9a032973f0ed524f9cc39b3c29e0b820c560e2",
        "reports/summary.md": "a6d963ba808c41e72abb7d73b7b14d8d440359901e39b83435786dedf0a7bcd1",
        "researcher_scores.csv": "7e57ec85f5b4a5b91668f155fe2bd153c8b937bf8b797f77682b53cef914edcf",
        "scoreboard.csv": "721b5379a06285a4bfee7b006d45554beb1e4a46526d39689814dea7224ea416",
    },
    "threshold_sweep": {
        "analytics.json": "1fd2cb9357e78bd397db581feb12cc8916ad91d9baa4e8ec3bcd84f05f57bca1",
        "hca_flags.csv": "9e7a15208983b7d6f23e86ca6a3c10a8a8c7dcfdd5d5c853c4535ea462f03fe7",
        "manifest.json": "7ee5cf6b5e8a02eef5061c4e65e7895a1efbf0f1a604e3c14e069f6ef514a377",
        "reports/avg_rank.csv": "875833f9cfb1445bfab4cb266b7c33f65aaa5f761279efc357e3cddef3929678",
        "reports/avg_rank.json": "b638060dad641758c3df0c033f91452fd08c67f8722e409e0ad395fac01d0741",
        "reports/avg_rank.md": "40ed6eb8f4d6d2758376bf8acca882267fb113d79c05902207052ffe9069c0cb",
        "reports/correlations.csv": "7a535d5f21830c9241f2886c62d07fc681931a3a19ed3a8bc805b30f01fc60b2",
        "reports/correlations.json": "54632616ff36e57f4ae5c636363c5658714fef8e4dd8a73e04d25bfe6b772bf9",
        "reports/correlations.md": "777b439a7f1ab21e7f30c19536574f498358c02ee8f34f88cc3edb24a4cebca2",
        "reports/disciplines.csv": "b6950be374b76f9f0e97c313ae7eff3c1a1cc5c11fa286d7f3e9e532a28f6a79",
        "reports/disciplines.json": "a3574537a7e669cd36a4c960b9fc4a3a370368c4def6c1dcf38ce5d736ac5ce3",
        "reports/disciplines.md": "8638b9ff1556f8ca9337d5fdf742669b314d08ec15ec3b5451107f0a2ba1e41f",
        "reports/fields.csv": "ee5de19d47fc538f0148eb34fb2f2a03e4a773533e1fe741fd0dbc85e82d5bef",
        "reports/fields.json": "3db120f6399a7c8a0881fc11ef1f21eada7625b8f766c8da1d777da3ddf9913e",
        "reports/fields.md": "054fa2f81833268aa1eef6e29fb928788658f208e37bfdaab223e8b62ecde60a",
        "reports/quadrants.csv": "be19ae6a6aeeaffd2107ec308f5a69ea92fe0a776189f78fee34301866d3faad",
        "reports/quadrants.json": "3dac61c8243d59c9280c844f5a6d4f1d217c19c7e2ee06b7f7ef6ac9a889f152",
        "reports/quadrants.md": "e53d85d099a989548130c0d3a944c1a96ed09e62330e92e86c8887d03b7cab75",
        "reports/summary.csv": "854b807a90be67d089b740886e6168ebddefbf19fe5e3c023c4877c490f48e9a",
        "reports/summary.json": "4cb75ac8c0dac3c39483edbda805f41adbec15f5cfb0c32ca15a66e87db1f251",
        "reports/summary.md": "d0ef086d230aae79e9896411e4a5882dc1d3414e82fb159b3c480ca3bd724dc4",
        "researcher_scores.csv": "742789961730abdc7720c7c20777a493ce59657075cbcd67bb3b24135f405eb5",
        "scoreboard.csv": "7dd750b50966e46724e342887efa841cd5c3b84e7654c6d42b5840d6d5461e6b",
    },
}

PINNED_LISTING = "7dda7fa40372db1e26ccdb2e85733e6b396a670fbdc0ab8b43ded92fe1c917a2"


def test_national_and_sweep_trees_and_invalid_listing(tmp_path, capsys):
    for name in ("national_10x", "threshold_sweep"):
        assert run_tree(name, 1, tmp_path / name) == PINNED[name], name
    listing = validate_listing(tmp_path / "national_10x", 1, tmp_path / "invalid_10x", capsys)
    assert _sha(listing.encode("utf-8")) == PINNED_LISTING
