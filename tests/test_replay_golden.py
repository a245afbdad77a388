"""Golden replay table: absolute values of the seeded stream and every artifact's bytes.

Every value here was recorded once with numpy 2.4.6 and must never be
edited to make a refactor pass.  A change that alters the seeded stream or
any pinned artifact byte fails these tests; a deliberate change of bytes
updates the table and says so once in CHANGES.md.
"""
import hashlib
from pathlib import Path

import pytest

from parcelwalk.cli import EXIT_OK, main
from parcelwalk.stochastic import increment_block

# increment_block(seed, trial, 1, 1000, 1.0).sum().hex()
STREAM_GOLDEN = {
    (0, 0): "-0x1.762ea6ddfa1f6p-2",
    (42, 0): "-0x1.87a0cec4f7772p-1",
    (42, 99999): "0x1.10e30f5703be8p-2",
    (2**64 - 1, 12345): "-0x1.a6af4cff27c00p-1",
}

# fig3 --seed 7 --trials 300 --steps 16; manifest.json is left out because
# it embeds the output directory.
FIG3_ARGS = ["--seed", "7", "--trials", "300", "--steps", "16"]
FIG3_GOLDEN = {
    "endpoints.csv": "d333ec7e6fdb2197df878a14579a7ef85c3e9d0d6ead1f242fa10f72f4b9b657",
    "hist_brownian_endpoints.csv":
        "6e71fffefc5c3957ea415fcb932deb6f8148224b989bd0caa62ad7402cb9fdf5",
    "hist_sqrt_real_channel.csv":
        "e057b8e0ac8007de58b5a82bf3cf78b4367cca46b390a2514bc1b41360578abe",
    "hist_sqrt_imag_channel.csv":
        "08e60a89de581137a8267f171b026b7f648ee4aac21e3847ff7ebe7e5fb13c18",
    "fig3_overlay.svg": "777f3d6988e80a105d663a66d4f76ab53c6635cee14d7f74b588c534d344e012",
    "verdict.json": "8a86e7005abe79f7ca3b2d1f6b8a3f6d9e39ea750f957603cb21fce21c5c86d0",
}

# sha256 of every file a triangle, geometry or kernels run writes, keyed by
# its path relative to the output directory; manifest.json is left out for
# the same reason as above.
TRIANGLE_40_BOTH_GOLDEN = {
    "modulus_residuals.csv": "21a8599201577d4632340ce4ecfe1763a4ca661a754c4ca27a0b21bee1793704",
    "rows/classical_n0000.csv": "39b3f9c59d7d0cb3c3fcff0271d1ef1ba99177a61bb6a981d85469aa79fdead4",
    "rows/classical_n0001.csv": "7704a22242d0904bfb9534296fc5229382f1f82236133fde8bfa91864f795489",
    "rows/classical_n0002.csv": "2e0643c03968bef2b9f0fc863d6eb44cda71218aab3a0621c0356623e4724101",
    "rows/classical_n0003.csv": "396e38e43c91f6ef8d4a6594318900ed426e064110d7c1359fe6c0aeea7bf5f7",
    "rows/classical_n0004.csv": "a50160fd0165568a1d4875a5a24a97c29a91446a1cd9500d01f003d8118fb000",
    "rows/classical_n0005.csv": "597778aa50f7b97d9cc14b5bc5612bda4b31755032d4d1db7f157333fcce60d6",
    "rows/classical_n0006.csv": "fd108af1c390303498b5550a1f5af6d68d37a71a6568a22dafd63b09081d981e",
    "rows/classical_n0007.csv": "de2b81ce02685f1ce4d79811a6b70b5edb85c95a5f795c2feeec84462cf87f20",
    "rows/classical_n0008.csv": "50b4ff22a06347b8bd168a7b7e51d26a725d2bafbac9ebd2d07c31b2e8906bfa",
    "rows/classical_n0009.csv": "c47ad2b5f7bc9b637829a393cf643b60c4f48306b3576bc8b59836a9ec0533de",
    "rows/classical_n0010.csv": "b9202a8647e2e419b494ffc08a3612e17b21cfbf8d7037018407bdb32329e1ab",
    "rows/classical_n0011.csv": "bdcbfcca8057a4728dde1275ac9151ce34bf8ccf12aa548738ec4661412ea5b5",
    "rows/classical_n0012.csv": "3590e309fb6756fd5aa67e6eaa1287b001d07dedeb78adef6e97e07f51d206e8",
    "rows/classical_n0013.csv": "2d59ab9a85442f3ad746061b885a321933cbc3f94f71cc4907da6e45a7c9901e",
    "rows/classical_n0014.csv": "42924833c5e7cff599ff82f22347ddc2f88280b3ec8b0eac93895cd79003396b",
    "rows/classical_n0015.csv": "a955817ad2ba1b9ae0c99c19516ad9bb1c51cfeafa51f4e6e55dbec78f21e7c1",
    "rows/classical_n0016.csv": "d533cc788e0ddf7b4c480447edf4ce4af73d58dca320b5aab9a64b59916aa0fe",
    "rows/classical_n0017.csv": "b3b37ab72cacd92ed5850ab7644363ead6727e004802162ec91b16c208458751",
    "rows/classical_n0018.csv": "63f4cee162134e395fd701cbd82699dd2b645b820112fcdce0f48fb2c516eff3",
    "rows/classical_n0019.csv": "d820593bfeb9ac4f884f29332055a741ee6a7d86fa9524737dec415f09448593",
    "rows/classical_n0020.csv": "60999910b05ff519a893d10bd1157377732251dcecadaea6a2476fed4f13b1c5",
    "rows/classical_n0021.csv": "54537f306457139e518a07553845ea95b48b5097e8db826dbf5f4ba057450921",
    "rows/classical_n0022.csv": "39c7bae4748afd8603835e95251aa689057e595e5348bf0bac89d48115a82ad6",
    "rows/classical_n0023.csv": "907ddaccf791951f4211bfabc43c8ad5deb3d3da1ae9f563a07d38e6dee3425e",
    "rows/classical_n0024.csv": "8259ae464fe83d93a4c81d76268a52d800ca9590c7f387cd0bda6cd10e7765e9",
    "rows/classical_n0025.csv": "62a6bb123648ed6f9b196056653b2ec1270e38c9f5631f6610ba2b284fa691fd",
    "rows/classical_n0026.csv": "1cda18e10193db276b4334f433fbba1d2c34d178388096750d947e74631046e6",
    "rows/classical_n0027.csv": "e281be9a4ad16d1785fcce4c10cf0f410fe923187019292c1dca7edce331f9ff",
    "rows/classical_n0028.csv": "4d59e239afc55d3427307e0d62e54db6c691d9419f0b4f60ab0285421bccef51",
    "rows/classical_n0029.csv": "5f37978fd28f010472341123eade8909d603e9a4dd975a5d0b4031a471c44b60",
    "rows/classical_n0030.csv": "98766f0b0468edfa8e7b64cfe5de8c05358d944bd65b4950030adebd339fbd56",
    "rows/classical_n0031.csv": "ce4c7545a193391d9ddcf851ce5728d57fa3aba02b9717bf48f4b34b162c8af0",
    "rows/classical_n0032.csv": "f7a10b7117c2fd46644ca48f4794de38160f7d3132b76b38c8fb428af7ab7ea9",
    "rows/classical_n0033.csv": "31ab9f92616fa66f33f1e7b462987c1646f29cd5a2f204e81ee1cc417dfa912a",
    "rows/classical_n0034.csv": "00c2c1d7199e37431a4131cd9081dfc3550cd54357112b9b9546ef2a447554b4",
    "rows/classical_n0035.csv": "63cbb1e9f17c063c3527bcc79bcd513b54bce4cf2671f165db10b2852d3794e5",
    "rows/classical_n0036.csv": "2bb17eecf37070f42553f3f757eb39e089ca673bd90baad2733dbff58ff2610c",
    "rows/classical_n0037.csv": "3f994bf7dc8baf464b126a9305d761967a361162d92c40440b3d4323b86183af",
    "rows/classical_n0038.csv": "76203959a48c64fc10da04e2b3967bf941c47d38d097edff99d37e29c0fe7ff3",
    "rows/classical_n0039.csv": "700a119a8f22cbf8a0eaeaebc7958d3c537edd0c63032602a0e767775a0747a0",
    "rows/classical_n0040.csv": "2bd86d5b1bae6fcb9dfd94ce3517772e1673ee6f2452ae2f615a9e84793ca24f",
    "rows/quantum_n0001.csv": "5cd7da18dc5f676ff9dd973651e351de55c8345bb63460691b97f138fc9a01c2",
    "rows/quantum_n0002.csv": "b34f5f5b027d761d2fb1f7637db767bad5100d4ca82c8f9dfca26f93fa5b5307",
    "rows/quantum_n0003.csv": "2e03134bf70583120722f91cc8d988db3e7ba66e4a2f6997a9fb9938035b8c6d",
    "rows/quantum_n0004.csv": "c96a1990104db632b3df61390d3888f097f8a919ddeaebf848102460fc07a8d2",
    "rows/quantum_n0005.csv": "05a3a7934c8ac25196ee6d95bec9cc876a3f0d06b5ac66688b7b800190c8b008",
    "rows/quantum_n0006.csv": "8b2acb65dec070c50c5d62c56ebf8d670f2af6a861a22d3663da6a98a43bcf8b",
    "rows/quantum_n0007.csv": "00f1ccb2b4a2a00ce02d83bfd4300659a51dd5ef8b52177ce49155f414065d9f",
    "rows/quantum_n0008.csv": "ab0e55f9e962204064759ac5c174c22989cc1416c986f5f802eed4e1170989ab",
    "rows/quantum_n0009.csv": "ef66e746f6cf6caed25bb9a1dc1db2575b4429544d5707c02d0d0bd31573c68c",
    "rows/quantum_n0010.csv": "d17ba8199ed0d155a289750464a37cfc06514b41b79fde9b5c8983833be0dc1f",
    "rows/quantum_n0011.csv": "766d5df34c8e3e57dca75b50c123a2d605d82361dc4a875222fe08938f87a9ca",
    "rows/quantum_n0012.csv": "f656f10fbd67950e1e0ddf154be5590b32d1a431a53cf77e6f088506c707b56f",
    "rows/quantum_n0013.csv": "cf452fbef572ecea6fc9153f3df46ae62ba0bda05d838f21aa5827084cc1c7e7",
    "rows/quantum_n0014.csv": "5e1fdc0c4d923c05f31a6bb9e060f9ccc016c169de168deebc936b1730a44185",
    "rows/quantum_n0015.csv": "1c55cac93ad25213aa0ffeb95081c904baa2b3b4a989ed4a3cf6f06e5c4eee70",
    "rows/quantum_n0016.csv": "57969cbe4205d887bff19cfed6d15e9f603db1149f808a71d9ff5294430e24ee",
    "rows/quantum_n0017.csv": "231304dd65569333cb01fbc815c1452be3d723ce0ff9e527cfbc480cdef1686e",
    "rows/quantum_n0018.csv": "f81f6f9e73eefdc6c7bb8b6a629c0d2276b7259e6e506e2d8cd60cf527276e90",
    "rows/quantum_n0019.csv": "18e4ca8eea9ee5a700e5354bb5c4ac3f1ec59f16d91744fd789abacdbe114bdb",
    "rows/quantum_n0020.csv": "d43eaad8f926790027ae3cd331ffbad69356c909ce5882bb07e135d9dd7f6baa",
    "rows/quantum_n0021.csv": "92e1601b67d454b19e7ca930d99cfeb6eb57fa83e678c2ce2b84440f0f44e57e",
    "rows/quantum_n0022.csv": "9100be1e26e925d2cd5e8c22abb20999832c619b705027db99e562b213ed1a48",
    "rows/quantum_n0023.csv": "ea8a8c2b3d7d2a3b3573d5399ff74f7fb09b50e13ea802f90673ca651f50e519",
    "rows/quantum_n0024.csv": "a1e6873e130698ace800dc7804a77399f4a08199c211a037a7c5b5fd2ac20793",
    "rows/quantum_n0025.csv": "d7d46a58fe9aef4c26735133c1a737cb327580b79bc617af7cb59e5c986fda7f",
    "rows/quantum_n0026.csv": "ff584acec49ac6b754d44b11abdd87a4341eb11b795792e0e66686d802008cf3",
    "rows/quantum_n0027.csv": "4f77a3032d6f65349a50711b7e054b9a07205c0359773b9863a82b6ff4160716",
    "rows/quantum_n0028.csv": "ab8261ba12163274d20a508ec4606c5d71b45333a90f2575b8e38599e55ff536",
    "rows/quantum_n0029.csv": "827bd446e0e637a15e52f53cae1d6c1e65cb5c72ca28c91247c3acc8b9542439",
    "rows/quantum_n0030.csv": "a00304f74573cb7261b5b6b059a731ba2dcc9de9bee1abdc31df6213cea3a187",
    "rows/quantum_n0031.csv": "37b0fa4e0dc02b51b8ef50f259dd7076a94b5f40a4a3086780b678b551be8314",
    "rows/quantum_n0032.csv": "d8a396df1ee5f3899cc2916b6c6ae1914a26d3d8d127f6f7c63d6865f03bf6fc",
    "rows/quantum_n0033.csv": "98d76ccdf77fb1064474b3bf480568e1d76d0cfaacd02541b2d235548225d020",
    "rows/quantum_n0034.csv": "f51e3912d82041597141ed33bbf333556e0abd9a9c8f957a5fb7a7694ca37543",
    "rows/quantum_n0035.csv": "5e043143bc363e32f3856482bc278aa4df488a03bd236e5ce969e825d50f000f",
    "rows/quantum_n0036.csv": "bbcf7e8612cc723d93938e7a3db2ae89a77cb1e5f8124083bc032f72d9f0608c",
    "rows/quantum_n0037.csv": "8f088c97bdac7e4576013ded5c8ffa49291fe9dad2d78c280e5f6a227896c07e",
    "rows/quantum_n0038.csv": "d1cb796fb664910d7f9d68ade888576aecb9e87f1ac947c6e696c7c72125697b",
    "rows/quantum_n0039.csv": "0441365615d58e072ad442830ba55fdef8d0f345b4f0d7002027680ef2451d14",
    "rows/quantum_n0040.csv": "ecf98d2a524bab3b1edc9d5515e5fa564a469dba4c14c6f69ff8b4cad449abda",
    "sup_error.csv": "625216786c953658ad73d5058fdd28b6ac79346d3f89969658f51a927c7c9e0c",
    "verdict.json": "1d07f7f28b5fb035b2121e972a8a552cbb7d4ff6949ac3dc076d5f21d9d1b9e4",
}

TRIANGLE_25_QUANTUM_GOLDEN = {
    "modulus_residuals.csv": "eeaecb6f461cba17d466978daa85071be602892f3e8e50b595635ba5d935fc05",
    "rows/quantum_n0001.csv": "5cd7da18dc5f676ff9dd973651e351de55c8345bb63460691b97f138fc9a01c2",
    "rows/quantum_n0002.csv": "b34f5f5b027d761d2fb1f7637db767bad5100d4ca82c8f9dfca26f93fa5b5307",
    "rows/quantum_n0003.csv": "2e03134bf70583120722f91cc8d988db3e7ba66e4a2f6997a9fb9938035b8c6d",
    "rows/quantum_n0004.csv": "c96a1990104db632b3df61390d3888f097f8a919ddeaebf848102460fc07a8d2",
    "rows/quantum_n0005.csv": "05a3a7934c8ac25196ee6d95bec9cc876a3f0d06b5ac66688b7b800190c8b008",
    "rows/quantum_n0006.csv": "8b2acb65dec070c50c5d62c56ebf8d670f2af6a861a22d3663da6a98a43bcf8b",
    "rows/quantum_n0007.csv": "00f1ccb2b4a2a00ce02d83bfd4300659a51dd5ef8b52177ce49155f414065d9f",
    "rows/quantum_n0008.csv": "ab0e55f9e962204064759ac5c174c22989cc1416c986f5f802eed4e1170989ab",
    "rows/quantum_n0009.csv": "ef66e746f6cf6caed25bb9a1dc1db2575b4429544d5707c02d0d0bd31573c68c",
    "rows/quantum_n0010.csv": "d17ba8199ed0d155a289750464a37cfc06514b41b79fde9b5c8983833be0dc1f",
    "rows/quantum_n0011.csv": "766d5df34c8e3e57dca75b50c123a2d605d82361dc4a875222fe08938f87a9ca",
    "rows/quantum_n0012.csv": "f656f10fbd67950e1e0ddf154be5590b32d1a431a53cf77e6f088506c707b56f",
    "rows/quantum_n0013.csv": "cf452fbef572ecea6fc9153f3df46ae62ba0bda05d838f21aa5827084cc1c7e7",
    "rows/quantum_n0014.csv": "5e1fdc0c4d923c05f31a6bb9e060f9ccc016c169de168deebc936b1730a44185",
    "rows/quantum_n0015.csv": "1c55cac93ad25213aa0ffeb95081c904baa2b3b4a989ed4a3cf6f06e5c4eee70",
    "rows/quantum_n0016.csv": "57969cbe4205d887bff19cfed6d15e9f603db1149f808a71d9ff5294430e24ee",
    "rows/quantum_n0017.csv": "231304dd65569333cb01fbc815c1452be3d723ce0ff9e527cfbc480cdef1686e",
    "rows/quantum_n0018.csv": "f81f6f9e73eefdc6c7bb8b6a629c0d2276b7259e6e506e2d8cd60cf527276e90",
    "rows/quantum_n0019.csv": "18e4ca8eea9ee5a700e5354bb5c4ac3f1ec59f16d91744fd789abacdbe114bdb",
    "rows/quantum_n0020.csv": "d43eaad8f926790027ae3cd331ffbad69356c909ce5882bb07e135d9dd7f6baa",
    "rows/quantum_n0021.csv": "92e1601b67d454b19e7ca930d99cfeb6eb57fa83e678c2ce2b84440f0f44e57e",
    "rows/quantum_n0022.csv": "9100be1e26e925d2cd5e8c22abb20999832c619b705027db99e562b213ed1a48",
    "rows/quantum_n0023.csv": "ea8a8c2b3d7d2a3b3573d5399ff74f7fb09b50e13ea802f90673ca651f50e519",
    "rows/quantum_n0024.csv": "a1e6873e130698ace800dc7804a77399f4a08199c211a037a7c5b5fd2ac20793",
    "rows/quantum_n0025.csv": "d7d46a58fe9aef4c26735133c1a737cb327580b79bc617af7cb59e5c986fda7f",
    "sup_error.csv": "ad77ef29a8fbff0ed6a798d3287c960181907a40fcb90e1dd88ae6ff20cb704c",
    "verdict.json": "699a67e4af3e40f0d00403888939355a13dc092a58d6b7afd4bda2f8d2dac84c",
}

GEOMETRY_ALL_GOLDEN = {
    "geometry_report.json": "13b7683c9b48fe9427bf78bfeb3326314e0a30dfa2ec8983fa64518d47612a21",
}

KERNELS_GOLDEN = {
    "heat_kernel_grid.csv": "1e25ff462f1f59f032e80b5456f8765f8c3278c5f1eca4b8116d2b2cd8f86c38",
    "schrodinger_kernel_grid.csv":
        "465491e60acce39e819a2ac0078b0f2589acb0cfd570460bf66bb304c7c60d9d",
    "verdict.json": "1ec0de26b593d6e103a7b295d00b67d23bc4f7d88c1b0bf3d78ca07de80258c9",
}

SUBCOMMAND_GOLDEN = {
    "triangle-40-both": (["triangle", "--n-max", "40", "--kind", "both"],
                         TRIANGLE_40_BOTH_GOLDEN),
    "triangle-25-quantum": (["triangle", "--n-max", "25", "--kind", "quantum"],
                            TRIANGLE_25_QUANTUM_GOLDEN),
    "geometry-all": (["geometry", "--report", "all", "--circle-n", "64",
                      "--sphere-samples", "2000", "--seed", "3"], GEOMETRY_ALL_GOLDEN),
    "kernels": (["kernels"], KERNELS_GOLDEN),
}


@pytest.mark.parametrize("seed, trial", sorted(STREAM_GOLDEN))
def test_seeded_stream_endpoint_is_pinned(seed, trial):
    endpoint = increment_block(seed, trial, 1, 1000, 1.0).sum()
    assert endpoint.hex() == STREAM_GOLDEN[(seed, trial)]


@pytest.fixture(scope="module")
def fig3_golden_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "fig3"
    return main(["fig3", *FIG3_ARGS, "--out", str(out)]), out


def test_fig3_golden_run_exits_ok(fig3_golden_run):
    code, _ = fig3_golden_run
    assert code == EXIT_OK


@pytest.mark.parametrize("name", sorted(FIG3_GOLDEN))
def test_fig3_artifact_bytes_are_pinned(fig3_golden_run, name):
    _, out = fig3_golden_run
    assert hashlib.sha256((out / name).read_bytes()).hexdigest() == FIG3_GOLDEN[name]


def _artifact_digests(out: Path) -> dict[str, str]:
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


@pytest.mark.parametrize("run", sorted(SUBCOMMAND_GOLDEN))
def test_subcommand_artifact_bytes_are_pinned(tmp_path, run):
    args, golden = SUBCOMMAND_GOLDEN[run]
    out = tmp_path / run
    assert main([*args, "--out", str(out)]) == EXIT_OK
    digests = _artifact_digests(out)
    assert sorted(digests) == sorted(golden)
    changed = [name for name in golden if digests[name] != golden[name]]
    assert changed == []
