"""Byte identity at the benchmark shapes, seeds 2 and 3.

tests/test_benchmark_trees.py pins seed 1 in tier-1; this module pins the
next two seeds the same way. It lives outside the tier-1 testpaths because
it takes about 7 s, and CI runs it on every Python version, where a C JSON
encoder or csv quoting that differs from CPython 3.11's would show::

    PYTHONPATH=src python -m pytest -q ci
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_benchmark_trees import _sha, run_tree, validate_listing  # noqa: E402

# seed: ({workload: {path: sha256}}, sha256 of the invalid_10x validate listing)
PINNED = {
    2: ({
        "national_10x": {
            "analytics.json": "9c72c42f7d096dce0f52167b680cdcc147a4a4ee453e45e2bb095c3b3d0493df",
            "hca_flags.csv": "d56b66c74c7e4635938b8be4391548e983db49e34933a057c7dab30e898a4a50",
            "manifest.json": "9638375f44358be6759f4d97573362416151fc42924d908c5188fcaced8f9249",
            "reports/avg_rank.csv": "a43b80ce16e754a23e22f73a81b6ca75c072e1f12f96de1e75041b68f4250f78",
            "reports/avg_rank.json": "6930529362403074b6a69a04b64e46d98d20f6161c8a4434076b1af39d312de1",
            "reports/avg_rank.md": "9b0a4dfc8b4f0375d1b13838fad35cc42c6955b268c582072aac2fbfe60b8318",
            "reports/correlations.csv": "3704f28a2de617b7b1b3938e98bf3efd730183c8ac7a1dddafc7b27928a6e375",
            "reports/correlations.json": "4d3698dedb7abf90a8520495c9c6a487f591a62c53f347cb1109d21c5b035c39",
            "reports/correlations.md": "52344f2a223bcf98bb76332aaf59a1c5f9449d70c5eb4e3ecd84c74374706a84",
            "reports/disciplines.csv": "5d7b757d3e618b375bc85185f10ec9f79a88df98db929efc2ac3827a660f35f2",
            "reports/disciplines.json": "c2aa8f6f3187cff46e3b9dae1dec91f07e8f543c5ee521c47c232ad92612d05f",
            "reports/disciplines.md": "3560051ec34611a5d62ee015647ee07b550fec72d5f03826a33b9c7cdd5b1974",
            "reports/fields.csv": "3775acaad3b9af3bac3f9949478e7978ed71e930f5a88352e821ca84c7360a07",
            "reports/fields.json": "d48bd3b2228f0cb9a5d757e36fe1f08c72723cee43ce3a8a92ffa53ee7622977",
            "reports/fields.md": "f3c3c3eb516db1a037c1b350932d89edd1ecf4adbef43e60cc033ec91c2422df",
            "reports/quadrants.csv": "56caf46b6e24652f51cfd22cb4d3ef8004109970ecc28c12311d65afce0d0ae7",
            "reports/quadrants.json": "821d306a3f9bedfdc3608443364a855aa18eb9a885bd2ef709188e1bb159653e",
            "reports/quadrants.md": "0e09026a27f64c07817779e71c4533aa53a3ab38da774e438bbaaa83efffcbcf",
            "reports/summary.csv": "2a811bbcd4a2cb7446c66feb3a1136c774b5e899a4ef550f37c863e8a1cf95bb",
            "reports/summary.json": "1527a633a21e43218bf6b0a1f20b2ab07d6b3bc4c2637fa1c500ede56ce26bc1",
            "reports/summary.md": "0af3fb6ab563d7b585b6f53582450f322a2b3f45bf52cee85d811493f6d94d3a",
            "researcher_scores.csv": "6caac4f47dcacdb884c7977faaa8f6812e35740bf29f0e94ef13a82556c38977",
            "scoreboard.csv": "9a8c2bd429748a189f102a632ed79bb3d220a99490e3a69e1aafc4e5ce4ea2e2",
        },
        "threshold_sweep": {
            "analytics.json": "dde1a830d7e4a0d474be702c6cfa1e19749912e1b33f23243b4fe6a46504a3ce",
            "hca_flags.csv": "5b56fb073121235a66732464f7820ce6a4edbe51d4085bcc737aec30e26220f7",
            "manifest.json": "d7096290091280d8561770f1578ee500afe0e46d37405d785e7d2ee10b6e3ced",
            "reports/avg_rank.csv": "82d1cec5360f28f909ed9a9d3c7e1a1b96a97e941d776e65efbc970d9f346ad8",
            "reports/avg_rank.json": "5f326eb8c6167896c6b513c1679cd9b61d3a276fd6e373d267ec835b5f57af51",
            "reports/avg_rank.md": "efb197f50c026a7deda90d1e905afa8875184c48598311d97dc97e10655556e9",
            "reports/correlations.csv": "71dc05468dfc462f46cfd7cc3f1ddb8c5b82ff16ef64adbb9e4bb8e17435a27c",
            "reports/correlations.json": "90645750e9ae4535ebd70b8995e59cf8860df7ed18c455929c71dac2ffe6fc79",
            "reports/correlations.md": "3072223b48e0b272d25dc13caa1fbb3e69b6f757871ff7d34ecd72a0d8110c6c",
            "reports/disciplines.csv": "b471f81800eae8f8ab0032abb1b107d2f8342efe947242883e13725dab2922a9",
            "reports/disciplines.json": "73eb8033f681ef8ec918ea1c73616ec69f94993c90906972ec3bc15355e00b17",
            "reports/disciplines.md": "359d8419ef5856d41f9776bd5608cfed5ebd505c134e6fb535806a0c568f890b",
            "reports/fields.csv": "6c98eadd2736865186606bee24325e670a3fab92496080303dea6eee698acb64",
            "reports/fields.json": "89211c58bd208589d3bc3d080452f3f7425bb7d07b37429892bd77ef23af8d17",
            "reports/fields.md": "20876de87a83968b995e2042b8e3cdf6ba9eaf8e4c128c4cc1af06bd68771953",
            "reports/quadrants.csv": "0cb7cc4242e709430cc54d196e84971d95cda626ec5376673edd3aed4c38bcfd",
            "reports/quadrants.json": "f65071d9400edb6bc20a7767f2fa855afdf2e9b3825629f483ef74efed474a22",
            "reports/quadrants.md": "53b2dae775ccb54150ed12eec135afa194e3a2635e4b06a5af4494aaaba3681b",
            "reports/summary.csv": "68e0a7db03997a13ea3bdfd89e56fe45ce572a740299e1b6aa90fbb6f7bd64e5",
            "reports/summary.json": "158ee08c08cd4c16b02d31243224ff6dd8ad54146a9fc86b7fedcf3024d192dd",
            "reports/summary.md": "ebb720a9697dd56a9dae361d4207bacd287442bb0265233d69ea202d518b113b",
            "researcher_scores.csv": "8ce9e612a163b09b9151e1451b284dbff663379ebaf59c08932902784fbe4cf4",
            "scoreboard.csv": "61106e0d99feec6bf59de45154b355b1d1ea3c75e55a75653bad8fe2d5126464",
        },
    }, "ff77b55cba66caafd6476659c94415ff5c33023d7ec6c947438868aa6518a832"),
    3: ({
        "national_10x": {
            "analytics.json": "a853f15ea33d408c8786eb815344e09fbde4444a2d71f561f2ca508f3c5dc1dc",
            "hca_flags.csv": "c5a41241e57da67ede4321d3c0cd20bc9a9d35706beed3459c123e3639d24c60",
            "manifest.json": "07507b847c1aae7828c47061690ef3ee5059341f03ceb396c9ca163c2f7b7c69",
            "reports/avg_rank.csv": "c8990f5970e6efab35f5de93b26b226de12345f2b532451f1984087c34f46dc0",
            "reports/avg_rank.json": "95270d2aaa6d84d55886c2ebc4ed7125e2de343b057190f11fa38be14f2fe382",
            "reports/avg_rank.md": "8029ed68cb09d7c4b04c33601240abb41bef9bb462cec08002cb82655c50ab81",
            "reports/correlations.csv": "572e27f3f3c1f53d2df30991ed562b1e1d54bae8ac1b2b99486d842a43a78373",
            "reports/correlations.json": "6091807cb0685468468111c53fbc38f3746484e67c3156ae0ad3ce157606a4a0",
            "reports/correlations.md": "dde7e896ac46039e760c3f93bcbcc7d4174b0ab12c53a1aabfaa345f8161a4e5",
            "reports/disciplines.csv": "bf81444e8c2c6c06ffe504ccfc57c529d74e8c543f4f7db966e929fcd25c4c21",
            "reports/disciplines.json": "d10dadf4fabb340fd95485dcf53532e02e2ae95e8c530c99d83935d220fc6169",
            "reports/disciplines.md": "521703652856f87f81773d9918c6b896e52553fc5bba4a8f5bb1aee94dff86d0",
            "reports/fields.csv": "43e90fb1254534a425483330bdbb445ee5ccf7472fe73041f4ec5f46c63c698f",
            "reports/fields.json": "b983cf740cd556d0956e9518be2bac4170c2505df130c111a320f5598eda4a0d",
            "reports/fields.md": "51016d9d9d1c88407f060e2fa9ab1daa1e7cb209f15ecd6f9eb2d97f0b5c8dda",
            "reports/quadrants.csv": "ed2977b5a26df16e633afbb67f5dafb40c89bf32d88d4a152e37c8458418bf4b",
            "reports/quadrants.json": "dfa5d19c61de08c2b25b5f41481a557708774ecef0515a82a11a16e90e3cf09c",
            "reports/quadrants.md": "0d5c02bed48c3b45021fb99545014f8b54602c7b7ffef3a45fa043aa2750e4f5",
            "reports/summary.csv": "e7a5c36b5397a760ba9c48dcb7111a2092c7751503b4536bfa5cfdbb2524842f",
            "reports/summary.json": "fa79d12e7b9b68669d14c00510da5530622e603b979d68498192eedd5ece4f48",
            "reports/summary.md": "fa3ae6470b4a68ecc0f8a80e55827d7f03a0c3a595f25d3e6cae1cd3d19a4aa9",
            "researcher_scores.csv": "86af335386868e6b968f79115eef7a39523c639cbfec94f67791338f7cdf69ec",
            "scoreboard.csv": "ae235263d4e3b599737cc72676ae21b4b6fcf725265b51c1b7f4af6087572936",
        },
        "threshold_sweep": {
            "analytics.json": "8cd2f644b1773fc184c7121b51a2dd8a9695cba74761b3e0dfdc9e1b19c636f9",
            "hca_flags.csv": "1247269620598bc54dc84f20e09e313798953b8067d865915f9aeef5d98c1c38",
            "manifest.json": "3ac3e1d10d5d7e7b8983baec2b4db185c5083f001e7e7e0bc4dc832e69d1dcac",
            "reports/avg_rank.csv": "e26d647bc7812b56b65c4a2e34edaaebf5f6a6a903c7406fd064c25f6c723c50",
            "reports/avg_rank.json": "584b66f3187c1dfb81009fa4960b02f629bb1895f739e86c8a632892f386db7e",
            "reports/avg_rank.md": "1c2a8d2ae5313a02123335296d509adf12f3daa47ea437de0dea9cf3d0d042e1",
            "reports/correlations.csv": "6e34ed9d5776d34821c3c597defd5fae4452838ff8140bd8036c593bfdaa2751",
            "reports/correlations.json": "625156fcd7c182df79004f1528a44bf0ec65fe230b7edde5d93253f57150a444",
            "reports/correlations.md": "c871e45439b5e49b51dd5abb5534566a177cb24b658d5bd95df06021625e05ab",
            "reports/disciplines.csv": "06c01c7b81911235a87c63644d8b7f66ff643beacdf1b0f6fd2e7e487a12fbb3",
            "reports/disciplines.json": "b4d6c38e656fe3b6e0a41a693da0521c43d2e7761af4c4b3d7d1171fd1eeb519",
            "reports/disciplines.md": "b0267f2cccb28aa3a86ca9322e1c52dd9fcde95b70bec1ecd460a10903fffd75",
            "reports/fields.csv": "a7313ea5a323a6a254ded98d2700e160328dd5d4e6c00c574aa2381b4e8e2f18",
            "reports/fields.json": "738e0394073892e1036bfcb756b80a57a461c6b7799576d11ad1cb069a1b1f9c",
            "reports/fields.md": "48714c4881f091ebeec2d868e0b46e23b9711c9a7d10a1b0c47cadfa6b473848",
            "reports/quadrants.csv": "a84cdcdc27554110ab768ed4bf995090ceab275ccd56db0441f78810a3266bb2",
            "reports/quadrants.json": "7de60f3a66801dd002635fad87a6baddff26fff3ceceb4108eb36854aa9dc38b",
            "reports/quadrants.md": "be2c39657a82bb8ea07c58a0f44d0845bc4e3527d405bf01f2cb389840d2f435",
            "reports/summary.csv": "e739acbf665c96d6f4587c832108d7444bc38aa51e9c8ba574bc1b62f79333bd",
            "reports/summary.json": "b125ece37691684c52df7b2e896dad06f88389a280c146ba97d5bf718c1dd1cf",
            "reports/summary.md": "71d13d38110b4cb8c84bcc997da1b4a605fcf7a855f77ff68aedb27f412b7922",
            "researcher_scores.csv": "734d19c2d168c47aacffad4e6da3ccee7945f657ed4badf13a81a561df8bc57a",
            "scoreboard.csv": "73a486ed4da7b9d0fa6698ce59fe46e26ab57ba3514a7b101d5d17c568d33dce",
        },
    }, "e23f70b37292e0fd31dc42002865528b03aaf07393b21c1de2804eaa335a3fd8"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_trees_and_listing(seed, tmp_path, capsys):
    trees, listing = PINNED[seed]
    for name, digests in trees.items():
        assert run_tree(name, seed, tmp_path / name) == digests, name
    text = validate_listing(tmp_path / "national_10x", seed, tmp_path / "invalid_10x", capsys)
    assert _sha(text.encode("utf-8")) == listing
