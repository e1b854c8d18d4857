"""The word kernel pinned to its outputs at commit
e5b62c2e03649a2f82a990edae1b691b4ee2e6b0, before it tracked symbol spans:
same seeds, same dtype and shape, same bytes (by sha256).  The two-colour
kernel's stream changed on purpose when it came to draw K candidate steps
per round with immigration folded into the proposal rate; its outputs are
pinned as that kernel first gave them, in the change that followed commit
8af42d3a9de46fa0e59dcb8a9f707c1232f3191b.

The exact routes pinned to their laws at commit
c9297b1fde98efec2c898ce1579e299d59a351b4, before the schedule memo and the
integer total checks: the sha256 of repr(Pmf), so every Fraction and every
float bit counts.

The exact products P_s(10,000) pinned at commit
9e2f99cc6ba0a16aa5ede816a108b145280f98d3, when one gcd reduced them, before
the reduction through prime exponents: the sha256 of the reduced numerator
and denominator in hex.

The forest kernel pinned to its outputs at commit
85aba097db693dd6717e0b191de697d5e83cad2e, before the d-ary room was held in
float32: same seeds, same dtype and shape, same bytes (by sha256); and at
replicate counts on both sides of its block seams at commit
da5b9e8344923ef8bbb0350836e1f22687792c38, before it ran in blocks."""

import hashlib
from fractions import Fraction as F

import numpy as np
import pytest

from polyaurn.crp import CrpParams, table_count_urn
from polyaurn.moments import pmf_via_moments, product_ratio
from polyaurn.stirling import block_count_urn, simulate_block_counts
from polyaurn.trees import dary_family, gport_family, recursive_family, simulate_statistic_batch
from polyaurn.urns import (enumerate_histories, exact_pmf_dp, multicolor_polya_young,
                           polya_young, sequence_urn, simulate_white_batch, triangular,
                           with_white_immigration)

BLOCKS = {  # (d, p, t, N, n_reps, seed) -> sha256 of the int64 block counts
    (2, 2, 1, 8, 100_000, 1): "a368cd978d5eae7311f5b2895dd54702f3a105e484d0eb2c28e75dbb3751ee49",
    (3, 2, 2, 12, 50_000, 9): "f0677e234bc81ad9c2c5cb9dd48dafe996b03dc4b55a38dc4804e5e2ea6af497",
}

WHITE = {  # name -> (spec, checkpoints, n_reps, seed, sha256 of the stacked white counts)
    "std_tail_sum": (polya_young(2, 1, 1, 1, 1), [1000, 9000], 8192, 3,
                     "445817d940f2ac8e8393619633d5356a625b341a02b44a4c943b2c863bd47f56"),
    "q_1": (polya_young(2, 1, 1, 1, 0), [0, 50, 400], 4096, 5,
            "4508a255c1f394a919430e9a8c0ee0ff36397c6addf0fbea44877a2390a886e2"),
    "sigma_2": (triangular(2, 2, 1, 3, 2, 1), [10, 300], 4096, 7,
                "a6cbf1d53312c1b5e97567ba349006215d5b688f4675e77a5d9a7fa31f273fe8"),
    "immigration": (with_white_immigration(triangular(2, 1, 1, 2, 1, 1), [0, 1]), [7, 200],
                    4096, 11, "2a39b3bd102e27c1d5ae1ac83aa7854d9d82a81e494b9befb023cd65c03ee234"),
}


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.mark.parametrize("args", list(BLOCKS), ids=lambda a: "_".join(map(str, a)))
def test_block_counts_golden(args):
    counts = simulate_block_counts(*args)
    assert counts.dtype == np.int64 and counts.shape == (args[4],)
    assert _sha256(counts) == BLOCKS[args]


@pytest.mark.parametrize("name", list(WHITE))
def test_white_batch_golden(name):
    spec, checkpoints, n_reps, seed, digest = WHITE[name]
    out = np.stack(simulate_white_batch(spec, checkpoints, n_reps, seed))
    assert out.dtype == np.float64 and out.shape == (len(checkpoints), n_reps)
    assert _sha256(out) == digest


EXACT_SPECS = {
    "std": polya_young(2, 1, 1, 1, 1),
    "std_float": polya_young(2, 1.0, 1, 1, 1),
    "py_offset": polya_young(3, F(1, 2), F(2, 3), F(3, 4), F(1, 5), offset=1),
    "tri": triangular(3, 1, F(1, 2), F(5, 3), 1, 2),
    "thue_morse": sequence_urn("thue_morse", 1, (1, 2), 1, 1),
    "blocks": block_count_urn(2, 2, 1),
    "tables": table_count_urn(CrpParams(F(1, 2), F(1, 2), 2)),
    "multicolor": multicolor_polya_young(2, 1, 1, (2, 1, 1)),
    "multicolor_float": multicolor_polya_young(2, 1.0, 1, (2, 1, 1)),
}

EXACT_ROUTES = {
    "dp_exact": lambda spec, N: exact_pmf_dp(spec, N, "exact"),
    "dp_float": lambda spec, N: exact_pmf_dp(spec, N, "float"),
    "enumerate": enumerate_histories,
    "moments": pmf_via_moments,
}

EXACT = {  # (route, spec, N) -> sha256 of repr(Pmf); each route on the specs it accepts
    ("dp_exact", "std", 0): "6f7720dab327d72a17367a95a56e57bfed607b7e7aa564bfeafd10af55a6d7fc",
    ("dp_exact", "std", 1): "5fdc91a71827fd7c8ac2551162c9a816062c26188db5a82cd91688dc887e8569",
    ("dp_exact", "std", 9): "9a89ae177a8d981cf9742746e80fb6feef619d9f18bcfbd7d850bb09ab8b201d",
    ("dp_exact", "std", 10): "d69f92ab9fecd41d213e93c3bf031569b5feb0f086d64dfc51694d9065a29d37",
    ("dp_exact", "std", 60): "5b6da85a5a5449aa0f9b6ee93688ad9a21d86da9383e27994297acd887832a06",
    ("dp_exact", "std", 200): "4d231fe6f7925f3e9842ee4a06f7ff6e0eda1adfb9558fa215937576d3fa9f3a",
    ("dp_exact", "py_offset", 0): "6fd71b2b8933c882b5fa39a571cb8be24aa7b4d309ddc20103750eb94fda00f6",
    ("dp_exact", "py_offset", 1): "6e73790283895927f0547d7567a5ceef83c443db1425889f2af68f0e64ec7362",
    ("dp_exact", "py_offset", 9): "f5475f3a43c4fb0bb3716b2cb4e00609a66db7bf71ef8858258ddca4f95ad49d",
    ("dp_exact", "py_offset", 10): "51bf32f319dc2fbf4b213b88a008ab211463bc4bbd228df239e7b74aaff99149",
    ("dp_exact", "py_offset", 60): "48648372305284aea0749103af404aeed697f0e56c978e1dbd1e82746f3c3b3e",
    ("dp_exact", "py_offset", 200): "5109847f2c86b82854733f6135ba8fb53261add5272dc3788fe632dd5b923bfc",
    ("dp_exact", "tri", 0): "6f7720dab327d72a17367a95a56e57bfed607b7e7aa564bfeafd10af55a6d7fc",
    ("dp_exact", "tri", 1): "a72ae5c6efa00aa367a5640acde5db986266cdc24efbd2100a3647f5106c4de5",
    ("dp_exact", "tri", 9): "d591b92e331104c2bdb2c1529fbdeb777a7cf3d002d698186522f42afe3eff0e",
    ("dp_exact", "tri", 10): "abcea858c79f0aba4af3f47100069d390747231504876907aca7ec1ece43a520",
    ("dp_exact", "tri", 60): "b6b086df1732b01b89fd05d71c8e31d122e1428ab7e236c7ec98ea3096681c10",
    ("dp_exact", "tri", 200): "ba612226b14c53f5756dc2662da65f42b1e6af1632ea195cde0364ab521bd426",
    ("dp_exact", "thue_morse", 0): "6f7720dab327d72a17367a95a56e57bfed607b7e7aa564bfeafd10af55a6d7fc",
    ("dp_exact", "thue_morse", 1): "5fdc91a71827fd7c8ac2551162c9a816062c26188db5a82cd91688dc887e8569",
    ("dp_exact", "thue_morse", 9): "c8f0714526542bd69d76f7c6d29bde3e49817b60da70f03981b921a8037ca16d",
    ("dp_exact", "thue_morse", 10): "9d252cd979b3d886257039e227a3982cb446687e32986d107a389ccd5dec9bc8",
    ("dp_exact", "thue_morse", 60): "c996776e20c9a055e6faf0cc895ddaf0cec27fdce3868564aaef1e7a6a076deb",
    ("dp_exact", "thue_morse", 200): "2e680a3a33198faf6b3aaad00bbfbcf91b20654afee782130a6603e38989119d",
    ("dp_exact", "blocks", 0): "b3f0489374ca744cbaf14d3b1dd9305efafbcb20cdf44f6ba9fb5bd740cf520c",
    ("dp_exact", "blocks", 1): "6d778d8e9677fafc65d8ecb3ae41536204d55b961a39664d8c74f1180530a6d4",
    ("dp_exact", "blocks", 9): "a3ad3ea32d703c266acf5dd206f0a262d68d7020542f3d4c6566da6980de87a8",
    ("dp_exact", "blocks", 10): "cc2823b8a610a9c89defaa4ccca30040ea902ea857816d8418741674aa43fb52",
    ("dp_exact", "blocks", 60): "082fe6ae898e9bbdd849864bc2566cd50eeb66f4ffd0b1b334db25b927863677",
    ("dp_exact", "blocks", 200): "a551b22184329818ec65920fcbdd869e4274cf210d571c418684ffb079d5d219",
    ("dp_exact", "tables", 0): "8006912efd8a1121f998e5b2d48b8713c93d620f500812cffc513637c675ba7a",
    ("dp_exact", "tables", 1): "6f7720dab327d72a17367a95a56e57bfed607b7e7aa564bfeafd10af55a6d7fc",
    ("dp_exact", "tables", 9): "54a86afee9fa050330f1c4dbc7579da9dd5b70ebb237256cc44efda1fa7b719f",
    ("dp_exact", "tables", 10): "926aeca5ad2b48c08d642e7a1e1a4f32c14df40f79e2a9c99716aec0a5a6b407",
    ("dp_exact", "tables", 60): "301be528e0a679bfb0d443601a5f54f8057b00e57b31b49a6f3377b4caef4c43",
    ("dp_exact", "tables", 200): "c749466c347b4a1dd73ef6b4f1710daec19af4d8dda3a71ed0b2eb31e7783f38",
    ("dp_float", "std", 0): "aac820f82820cbc0d86340865e65bf80da14c6c509da73302a1c453637a586e9",
    ("dp_float", "std", 1): "376d309435e4ca9221e7a72a430dcb6ecebf38bf3f40617334c7b7f20d052673",
    ("dp_float", "std", 9): "dc9d90bf373036a37d2446cd1eba70113fb59afbecc1a24c25f2bb9530178205",
    ("dp_float", "std", 10): "bfc513c9935e5f5d83e56fb124aeb56533f08f03229deb7632aff01fb4e4f8b7",
    ("dp_float", "std", 60): "28f3d9d4c37ea19257ac66083fc793909f2b7b6fe9eaf6852a3976c32b95fe47",
    ("dp_float", "std", 200): "23fc8706f890c72507768c6a78a55ee914a5268486d7480c81c277e105322f97",
    ("dp_float", "std_float", 0): "aac820f82820cbc0d86340865e65bf80da14c6c509da73302a1c453637a586e9",
    ("dp_float", "std_float", 1): "376d309435e4ca9221e7a72a430dcb6ecebf38bf3f40617334c7b7f20d052673",
    ("dp_float", "std_float", 9): "dc9d90bf373036a37d2446cd1eba70113fb59afbecc1a24c25f2bb9530178205",
    ("dp_float", "std_float", 10): "bfc513c9935e5f5d83e56fb124aeb56533f08f03229deb7632aff01fb4e4f8b7",
    ("dp_float", "std_float", 60): "28f3d9d4c37ea19257ac66083fc793909f2b7b6fe9eaf6852a3976c32b95fe47",
    ("dp_float", "std_float", 200): "23fc8706f890c72507768c6a78a55ee914a5268486d7480c81c277e105322f97",
    ("dp_float", "py_offset", 0): "cd5222389bfe60fac16dc3fc9f279af6540a69c8ece99b4e78ff1a1ba006d2ce",
    ("dp_float", "py_offset", 1): "6d48e28d9710a87141c5f3096af89f6ec1f6933d5587a02918eed25f25c94860",
    ("dp_float", "py_offset", 9): "c4eb00f427a1729e37f4fa7d6ef180c155afe9851eed547e9bcd2724f9955d92",
    ("dp_float", "py_offset", 10): "53e00614a1ac46244279a8c27a736ec3c0a019104a9b0d4e14b2a5ac016b8479",
    ("dp_float", "py_offset", 60): "f9e608308cc6d7aa14940207ba7e3838179bbdb5ecb6d862015f562338cc4748",
    ("dp_float", "py_offset", 200): "e24d78754af150d41228bea9b602c85aefffcc0f16f06c76e748c2142114389a",
    ("dp_float", "tri", 0): "aac820f82820cbc0d86340865e65bf80da14c6c509da73302a1c453637a586e9",
    ("dp_float", "tri", 1): "15a30964f8757d4270becd035c3a4af308f3f0a7a0c5e2227ddc74bbfba4937c",
    ("dp_float", "tri", 9): "0c995e131d561e210495b3ade4f755d13dd6c4cb10e99e0662c8471e7ce84944",
    ("dp_float", "tri", 10): "5311d39db669131bbcbb07a6173ce56efc332105be312b752c023a763ae1c9c6",
    ("dp_float", "tri", 60): "6f20526dc4aa5598666bd87e2a6758856748f15c1482c1469d67e59e2331e23e",
    ("dp_float", "tri", 200): "cf10a2a1a16cdf654c6db0844a91b22d86d3a664cb17b64f69456ea28e231d7e",
    ("dp_float", "thue_morse", 0): "aac820f82820cbc0d86340865e65bf80da14c6c509da73302a1c453637a586e9",
    ("dp_float", "thue_morse", 1): "376d309435e4ca9221e7a72a430dcb6ecebf38bf3f40617334c7b7f20d052673",
    ("dp_float", "thue_morse", 9): "84e59b8fc5bb82a753cad674d1bc2558174a723828c22df65771bc4441a7b798",
    ("dp_float", "thue_morse", 10): "d1874421f5903a0f0ea13eb67b3d518855ec3cf7a1204232d3091ade4457d742",
    ("dp_float", "thue_morse", 60): "87d20c4eb0f089a19e50926259ac6b6abe31e419e9c9e9379beb4f955a84580c",
    ("dp_float", "thue_morse", 200): "bf1ed15e392537f5aff7770b1ee18195b95c28ce6a86512d0e2e5ad94216b362",
    ("dp_float", "blocks", 0): "206b88c902263fa3c64fe6d4b4c34a367482c3b8d360de197046fb48a9c29215",
    ("dp_float", "blocks", 1): "ea7bd30fb6e84b9d625dfe73f16b3d94b7ef2b9dcc41232b8282ed55b1fc2ca2",
    ("dp_float", "blocks", 9): "e19fdb6a96560d141e50b788cc1b5cc9160ee9b7e5f0520eb3f1743eee00fa75",
    ("dp_float", "blocks", 10): "578d390c7b355b72de4d9f4dfd17b8c873ade7ed38838421bc0fa8db8b41164b",
    ("dp_float", "blocks", 60): "e9a3afcf99bea4f7e11dd271ab8149d62866814db43dfad8553374132c6762fb",
    ("dp_float", "blocks", 200): "8f0c87a9cc813abdf70e3ba4cc423c7f626f736286e03ac5d1acb3686be184f7",
    ("dp_float", "tables", 0): "d6cd29853823fc89d1ce35b4d03525fadc1068a1c4a6fbaeb90f86425fa18d62",
    ("dp_float", "tables", 1): "aac820f82820cbc0d86340865e65bf80da14c6c509da73302a1c453637a586e9",
    ("dp_float", "tables", 9): "9f67de57bd711b6e3babd4ae6586b16c6ac4f15c561dbe0e44372ef3f71ec49b",
    ("dp_float", "tables", 10): "cd0584c37e685405ffd0e7330eb2d055661f8297ea271da344a400b8fbee7a2e",
    ("dp_float", "tables", 60): "ecd681a7f60fbaf2a409668a33e3915e85ed08fde63e2f6fa0c8cc4091f438dd",
    ("dp_float", "tables", 200): "921e16e61b567cd4d8ad6bd6ced67c790b963de5eae447dfb0857d964abc5ca2",
    ("enumerate", "std", 0): "abf4470963621a04e5f0880c91971566f6260b06c52d7029916caf2d401f7834",
    ("enumerate", "std", 1): "8ffa71b37d16a260593dba80099229da7492fda34af26249edec463b4968d520",
    ("enumerate", "std", 9): "471b8fa6b5dd8614c93bacf438ac9caee8d6925645e6748bb9cb7ee634ac5b3c",
    ("enumerate", "std", 10): "799bd0ba1b755f6a28511b41eb3029f9892404b9a1e1272cbfd0d4c87272e747",
    ("enumerate", "std_float", 0): "f89bcadda89eccd5b9ae2afce3907821824eadfccc5ecd0b36843c79c17ab057",
    ("enumerate", "std_float", 1): "4134bc7d2c92aee9d678aaf7b88a6df1218603a4d2847f387568386d298795ee",
    ("enumerate", "std_float", 9): "5018f4f0bed59025adb36bd611af117973aa98411a3f1bbf5f5a3b0d6a043995",
    ("enumerate", "std_float", 10): "bc0b5a316287d7fbc77afc4709b36650154d15230dce5f92dce60545e9065bfc",
    ("enumerate", "py_offset", 0): "22701af50ffd8377df04b1198853767b2bfb1fc9aa6d0212b9c1b58228629c29",
    ("enumerate", "py_offset", 1): "a67c02b32195edb45c423af5935fbe242b3311b87c46cce9064c36800c028989",
    ("enumerate", "py_offset", 9): "0b7ed36076a4e8b920b93aa3d3259ed32620b08c88fce83190374f14ef11086c",
    ("enumerate", "py_offset", 10): "308acc76f837c7bde8bb7840d79c15993e158ebd014d2fb04680a37815325127",
    ("enumerate", "tri", 0): "743ae51ecbbd9df67d3c7880af733269fd9346f59985d927a442ddeefad34e2d",
    ("enumerate", "tri", 1): "9cc16f8e492826c9c8ab1a2f1feb09a960b38c3de9bf67113df3b144ab4f0640",
    ("enumerate", "tri", 9): "32ccdcf729e3ed2a605f5aea0a51b31abea26d341bfe6acba1a909f93eaa6283",
    ("enumerate", "tri", 10): "28a119d26c0acbef75416a120d7ff195cd73121e6e343d3de6573b0a2a527821",
    ("enumerate", "thue_morse", 0): "abf4470963621a04e5f0880c91971566f6260b06c52d7029916caf2d401f7834",
    ("enumerate", "thue_morse", 1): "c132a08852b64fc2e0f1469571c61a8f73b795b6a4e2ea24c6002bfa2ff88037",
    ("enumerate", "thue_morse", 9): "96122043365370457a7bec9aad9ceaea5143bc87874aeadf116cb64aa8608dce",
    ("enumerate", "thue_morse", 10): "8f6d4d1d1b0aac2c7c63e8983eeecb18217b77af0cc094b57e20a1a65fd38956",
    ("enumerate", "blocks", 0): "88ec846400cef65afad94195d5b05e1ee03336ac7bf0e2d8fca6e52cb79fba9e",
    ("enumerate", "blocks", 1): "2486d55ed69372ea6e254dd2cfdc4ea83f84cc92860f71dcf1f5a3e063ec8ac0",
    ("enumerate", "blocks", 9): "71e51eed149dc90f762ecdc306116a50951c82df7f3b45a7ff3a3cc437931ac5",
    ("enumerate", "blocks", 10): "97ef8f7e427b5c9ac3e304155129598b172f9d959f87b90ffc984a01cc844800",
    ("enumerate", "tables", 0): "36add301a42c4df54436bd84e7cdb6ae1935052cfd697259668f2dda203e6e38",
    ("enumerate", "tables", 1): "5d900ad3ea88fcd1878358c017c804a26730b6cd045426ec306609babf13ae52",
    ("enumerate", "tables", 9): "e2a5e5041ed35a514d26790a10f5d0aa92173a5dc756f2430fe1b57674a52063",
    ("enumerate", "tables", 10): "6177ad6905ab3f00e7a0b3c85e5f63009a74a38a54176c2a18c2155c8da324b8",
    ("enumerate", "multicolor", 0): "3e8eabd18f7ee6845ff87ecc1aa057186231380955db96a31b32362b21b72e68",
    ("enumerate", "multicolor", 1): "3661e03c435958940cddec02e483286798318612b758c4c05fb7705278f020a3",
    ("enumerate", "multicolor", 9): "7ad7f2df172b3d533027a75adfad9981042bc2e307391d64fc38ed183276b32d",
    ("enumerate", "multicolor", 10): "a8651603852178a5fc7ca67b4c2612f3cfea971485605d43e82eb703aa2afdbe",
    ("enumerate", "multicolor_float", 0): "327a3857802f3487361372e0018d2e16bca431350e0cedfbadd70b287ccfba08",
    ("enumerate", "multicolor_float", 1): "1cd0ae443b6ba4a069b34fb9ee59e8056296bfa0b53bea73df5cb68f24e32130",
    ("enumerate", "multicolor_float", 9): "541ea9ec894b2d27facfc5f8e05491aca367f7fd26e9e98b02b529534e33a2d5",
    ("enumerate", "multicolor_float", 10): "4707beba1e30ae4b3f6851f6baf7ba1b7d37caf9737ad9c5e749b9f21011a606",
    ("moments", "std", 0): "6f7720dab327d72a17367a95a56e57bfed607b7e7aa564bfeafd10af55a6d7fc",
    ("moments", "std", 1): "5fdc91a71827fd7c8ac2551162c9a816062c26188db5a82cd91688dc887e8569",
    ("moments", "std", 9): "9a89ae177a8d981cf9742746e80fb6feef619d9f18bcfbd7d850bb09ab8b201d",
    ("moments", "std", 10): "d69f92ab9fecd41d213e93c3bf031569b5feb0f086d64dfc51694d9065a29d37",
    ("moments", "std", 60): "5b6da85a5a5449aa0f9b6ee93688ad9a21d86da9383e27994297acd887832a06",
    ("moments", "py_offset", 0): "6fd71b2b8933c882b5fa39a571cb8be24aa7b4d309ddc20103750eb94fda00f6",
    ("moments", "py_offset", 1): "6e73790283895927f0547d7567a5ceef83c443db1425889f2af68f0e64ec7362",
    ("moments", "py_offset", 9): "f5475f3a43c4fb0bb3716b2cb4e00609a66db7bf71ef8858258ddca4f95ad49d",
    ("moments", "py_offset", 10): "51bf32f319dc2fbf4b213b88a008ab211463bc4bbd228df239e7b74aaff99149",
    ("moments", "py_offset", 60): "48648372305284aea0749103af404aeed697f0e56c978e1dbd1e82746f3c3b3e",
    ("moments", "tri", 0): "6f7720dab327d72a17367a95a56e57bfed607b7e7aa564bfeafd10af55a6d7fc",
    ("moments", "tri", 1): "a72ae5c6efa00aa367a5640acde5db986266cdc24efbd2100a3647f5106c4de5",
    ("moments", "tri", 9): "d591b92e331104c2bdb2c1529fbdeb777a7cf3d002d698186522f42afe3eff0e",
    ("moments", "tri", 10): "abcea858c79f0aba4af3f47100069d390747231504876907aca7ec1ece43a520",
    ("moments", "tri", 60): "b6b086df1732b01b89fd05d71c8e31d122e1428ab7e236c7ec98ea3096681c10",
    ("moments", "thue_morse", 0): "6f7720dab327d72a17367a95a56e57bfed607b7e7aa564bfeafd10af55a6d7fc",
    ("moments", "thue_morse", 1): "5fdc91a71827fd7c8ac2551162c9a816062c26188db5a82cd91688dc887e8569",
    ("moments", "thue_morse", 9): "c8f0714526542bd69d76f7c6d29bde3e49817b60da70f03981b921a8037ca16d",
    ("moments", "thue_morse", 10): "9d252cd979b3d886257039e227a3982cb446687e32986d107a389ccd5dec9bc8",
    ("moments", "thue_morse", 60): "c996776e20c9a055e6faf0cc895ddaf0cec27fdce3868564aaef1e7a6a076deb",
    ("moments", "multicolor", 0): "b3f0489374ca744cbaf14d3b1dd9305efafbcb20cdf44f6ba9fb5bd740cf520c",
    ("moments", "multicolor", 1): "e221b0f744b486533898f25f77ce47611bdcc236df1b392c994a1fe9aa5a3ef4",
    ("moments", "multicolor", 9): "696c9da46bc2f79d263798058c5ec404865651a3c0d1ac3ef220def2926afd41",
    ("moments", "multicolor", 10): "c1617c2ba1e3676807f59b465c148df55429c51e08f9db4261468b5654021fce",
    ("moments", "multicolor", 60): "c68aff78b44277355ac276a664d37480aa46bff99a91d9b081128957f69083a4",
    # the colour-0 law of a multicolour spec, pinned when the DP took every
    # colour count: the moments route's digests at the same N.  Kept last, so
    # that the keys tests/test_pmf.py samples from this table stay the same
    ("dp_exact", "multicolor", 9): "696c9da46bc2f79d263798058c5ec404865651a3c0d1ac3ef220def2926afd41",
    ("dp_exact", "multicolor", 60): "c68aff78b44277355ac276a664d37480aa46bff99a91d9b081128957f69083a4",
}


@pytest.mark.parametrize("key", list(EXACT), ids=lambda k: "_".join(map(str, k)))
def test_exact_route_golden(key):
    route, name, N = key
    pmf = EXACT_ROUTES[route](EXACT_SPECS[name], N)
    assert hashlib.sha256(repr(pmf).encode()).hexdigest() == EXACT[key]


PRODUCTS = {  # (spec, s) -> sha256 of "numerator/denominator" of P_s(10_000) in hex
    ("std", 1): "81ae2062af3c25381c2d6e0962c601b759047df8baafd5aa9454ae702b9799e2",
    ("std", 2): "e944e1558cea3ca09c1df7bd0f186d50115e7d886a4006153d148c72b1d9c6dc",
    ("tri", 1): "8d2694b3a03cb174ce4a3a20c865740fb500e21356c2d10b5e443fd4cfacaa7d",
    ("tri", 2): "8f5f107d0419c02e948d52de7af4e6b9028b14c059a6b69573f9268ea7572538",
    ("thue_morse", 1): "290a4c783a752c60d25ff401a821963e39c587e30818f3b22a969134873a86bf",
    ("thue_morse", 2): "0694b59dc6f8b7f9a923b92e16a8e124cb3395e8f306c0471cb431b7b988c942",
}


@pytest.mark.parametrize("key", list(PRODUCTS), ids=lambda k: "_".join(map(str, k)))
def test_exact_product_golden(key):
    name, s = key
    P = product_ratio(EXACT_SPECS[name], 10_000, s, "exact")
    digest = hashlib.sha256(f"{P.numerator:x}/{P.denominator:x}".encode()).hexdigest()
    assert digest == PRODUCTS[key]


FOREST_FAMILIES = {
    "dary_3_2": dary_family(3, 2),  # capacity roots
    "dary_2_3/2": dary_family(2, F(3, 2)),  # trimmed roots
    "dary_2^24+1_1": dary_family(2**24 + 1, 1),  # the float64 room: a wide node
    "dary_2_2^24+1": dary_family(2, 2**24 + 1),  # and a wide capacity root
    "recursive_2": recursive_family(2),
    "gport_1/2_2": gport_family(F(1, 2), 2),
    "gport_1_1": gport_family(1, 1),
}

FOREST = {  # (family, p, N, n_reps, seed, statistic, mode, bar_beta) -> sha256 of the output
    ("dary_3_2", 2, 10, 4_000, 1, ("descendants", 1), "standard", None):
        "73c13854c821a0fba7654478ab3d888ef6168b7fc242024bf0ff0edc0bbb6100",
    ("dary_3_2", 2, 10, 4_000, 2, ("descendants", 3), "standard", None):
        "5685aed285e6d17208509cee8d6c618e945142b5b2f0d700f375080b1a3eec63",
    ("dary_3_2", 2, 12, 4_000, 3, ("root_descendants", 2), "standard", None):
        "aa42b0bf1335bb80e6d5a5835560bab0a5fd0d6faa68d413f06675975de6c6e0",
    ("dary_3_2", 3, 12, 4_000, 4, ("table_count",), "standard", None):
        "4844094890c38f43fdee3a85b1329774dac7caed39c78948ae29a37306511ba5",
    ("dary_2_3/2", 2, 10, 4_000, 5, ("descendants", 2), "standard", None):
        "c14c1f2e5c2adec69e2c96790ca0e0c8af0bcbe2ce0f424aedc4631627a21eb5",
    ("dary_2_3/2", 2, 12, 4_000, 6, ("root_descendants", 1), "standard", None):
        "8f37425d2d67df6c5aa5c418fd6ab17010b9b60e0a7457bec4c7138de3dbb28a",
    ("dary_2_3/2", 1, 12, 4_000, 7, ("outdegree", 1), "standard", None):
        "ca8fa6667522fc46f72a64f5b28dd7d339bb6caf81ef14d9714dd0646e0f99a7",
    ("dary_2^24+1_1", 2, 6, 1_000, 8, ("descendants", 2), "standard", None):
        "765cd7fcc67f1e85b0d799fb154243292a2cd0237f7471002942fe4106efb6e1",
    ("dary_2^24+1_1", 2, 6, 1_000, 9, ("outdegree", 1), "standard", None):
        "90ca5f7b44a0730c2d8825f87d4f82b2670587e62e9964806bb279ab198ab873",
    ("dary_2_2^24+1", 2, 6, 1_000, 18, ("root_descendants", 1), "standard", None):
        "9ae5a14384fc0a8e82825a74812591ff46845468edd99284f28d16cd0c762a27",
    ("recursive_2", 3, 12, 4_000, 10, ("descendants", 2), "standard", None):
        "2c268862569ca1bdab54f2086f7fdf8a9fc65243805092e81f2dac4dadb0b64e",
    ("recursive_2", 2, 12, 4_000, 11, ("root_descendants", 1), "standard", None):
        "a5b4a0c2a924d6d2811aaa566ce0316893fccddf0143aa4742589fa8321174b2",
    ("gport_1/2_2", 2, 12, 4_000, 12, ("outdegree", 3), "standard", None):
        "f765622fb93d7472e4624d531ccc54e7036dd29f840f56dd659232d97ce0fcba",
    ("gport_1/2_2", 2, 12, 4_000, 13, ("descendants", 2), "standard", None):
        "62d233a99c3c868c343cdb607bed53d4a687074371d18da2f1394de498728f68",
    ("gport_1_1", 2, 12, 4_000, 14, ("table_count",), "crp", None):
        "29b8c05c515c1dd05e55a051dcd68841c1da9caf4b53a97c498d1da378be011c",
    ("gport_1_1", 2, 12, 4_000, 15, ("table_count",), "crp", F(2)):
        "c6d387d0f09606596c7988d3c1a18685686195467969431f9e6065bb68952995",
    ("gport_1_1", 2, 12, 4_000, 16, ("descendants", 3), "crp", F(2)):
        "c126006428a7b9bcc7403509ba71bbadb3aca00b0811eb72daaacd0ff4c76824",
    ("gport_1_1", 2, 12, 2_000, 17, ("branch_profile", 4), "crp", None):
        "f3cb77f60c0d43957a98375baedfd1c1eec00d102146797a00cfbef122e60ec4",
}


@pytest.mark.parametrize("key", list(FOREST),
                         ids=lambda k: "_".join(map(str, k[:5] + k[5] + k[6:])))
def test_forest_statistic_golden(key):
    family, p, N, n_reps, seed, statistic, mode, bar_beta = key
    out = simulate_statistic_batch(FOREST_FAMILIES[family], p, N, n_reps, seed, statistic,
                                   mode, bar_beta)
    assert out.dtype == np.int64 and out.shape[0] == n_reps
    assert _sha256(out) == FOREST[key]


# (family, p, N, seed, statistic, mode, bar_beta) -> {n_reps: sha256 of the output}, at
# B - 1, B, B + 1 and 2B + 17 replicates for trees._FOREST_BLOCK = B = 16,384; a
# new block size needs new seams
FOREST_SEAMS = {
    ("dary_3_2", 2, 10, 19, ("descendants", 1), "standard", None): {
        16383: "275ca577d6dd905454c5bdf60ba2f2633f9a0e462a64aa9c3299b23501df2c82",
        16384: "d245eee3d53907fa7d6eb6fc9ebcf1ec98a7b548d181df455d3a516a271a9ff8",
        16385: "3d08612fcef2f3bdc09ceee5d5ebd71b4331880c764dd440ba875db053383796",
        32785: "ac0bb31032921670c7615b2ead7769d6191f38d0cc4c6550508b5129a894513d",
    },
    ("dary_2_3/2", 2, 12, 20, ("root_descendants", 1), "standard", None): {
        16383: "dd6b020cf85c2dbe6bcc782b28169edc29581efcb39d889c0ee155898bb4b4e3",
        16384: "21765b7f1f95746ca0f3f04476618f3273f9909e3bbdd7da7af93b237eba6cfc",
        16385: "1354e5a98458871158861a444a6993d5a8f2feb663c5f2339414d71605de351c",
        32785: "ed6c634ab87282788cba8b34ec25a64227c34723a38d1915cb70b0d0099b18a3",
    },
    ("gport_1/2_2", 2, 12, 21, ("outdegree", 3), "standard", None): {
        16383: "7080b240943c094398f539f518ed4d153f8e4f88107b219095d4ad615448761d",
        16384: "8053fdfcaed29ceb3ed780abd8aa3f01fd5f6b834a78a161e75cceaca163e56f",
        16385: "4137fcf990942c79670f9493671779569e49d7fdd358cb85bb48b546d63a5c80",
        32785: "e11ba32572afb58892825e2146f0fc2ccae642f536fe19266db94b1587e74bfc",
    },
    ("recursive_2", 3, 12, 22, ("descendants", 2), "standard", None): {
        16383: "aa141b8f63bcd980fc140daebe006ac9365ebdb8a3abebddd6c592b85d6eda01",
        16384: "436ed9cfd7e0a7b00267e50619a2d97596d37748ac6c7c9c477ae626f116eca2",
        16385: "e78cd71e746c529022cf8cbca87044d1287c034d78393565035cffe86037916d",
        32785: "e8665f5bf1440f785b6f7994b6000903dd60138ac54b61cf2156e0c76ef67253",
    },
    ("gport_1_1", 2, 12, 23, ("descendants", 3), "crp", F(2, 1)): {
        16383: "dae8039e83f389cda7dbab6dff6f4d95c82d3c661d7ebe4dfeab33c4e7f89757",
        16384: "3294240b6c524f76cc81d6a93a97a18d82ce790fca14890201020b5fb2762476",
        16385: "6dc98f368a1ba5dd78c73d228b78e844ed654ce412ff000c6bc5613f2208810d",
        32785: "b21e636c92b9970ff6da4e72d63dd269b9c00a0f4d5044bebc74d308f38a3fe5",
    },
    ("gport_1_1", 2, 12, 24, ("branch_profile", 4), "crp", F(2, 1)): {
        16383: "deb624865e73a9be10f7b8effa01f41157c36e208c1db19767a8a894799bca35",
        16384: "d45ce7d1999872418a06a9dc3c4bc50c8f88403b5a9521c7b26ee0bd4f5bd3db",
        16385: "38cba1455fb4e3766b106c020f959f975ade41b2c939d62dcb36c18444b3d569",
        32785: "2207b9906043ec580724086b4be68a8808a3d1c2945f1cdb55c37f7bdf9d6879",
    },
    ("gport_1_1", 2, 12, 25, ("table_count",), "crp", None): {
        16383: "7a7c1d73a835fc209936b5a1538c971079011d4db96e0ca8036a554b16437da0",
        16384: "58796b1a44c89ac3c1ea1aea96e9d345c2129d25a503f0c89fa5512f484d7986",
        16385: "fc9c4c388e5b35212cb89aa6a30aad08aa9823434b22e26465636975a8fa6e31",
        32785: "3f32e16a0db1355f780bff41595ea05a23c2bdccabb117245255d19c3a9e17d2",
    },
    ("gport_1_1", 2, 12, 26, ("table_count",), "crp", F(2, 1)): {
        16383: "911ed6851cc52a8ad923f35e023a27140643007d67ae92fc2921ec962f06904b",
        16384: "1b2f04f89d1f46881fdfa8d7e617e9bad0b875207e6a6bc1c109922434978afa",
        16385: "e9213f17fcad741d3f75623e9de9d0103770395b7a42bd51d8a1be124a9012f2",
        32785: "80c14c3738cdfa33974e3756c0acc3aafa15036283a046b1be98af811175fe36",
    },
}


@pytest.mark.parametrize("key,n_reps", [(k, r) for k in FOREST_SEAMS for r in FOREST_SEAMS[k]],
                         ids=lambda a: "_".join(map(str, a[:4] + a[4] + a[5:]))
                         if isinstance(a, tuple) else str(a))
def test_forest_statistic_golden_across_block_seams(key, n_reps):
    family, p, N, seed, statistic, mode, bar_beta = key
    out = simulate_statistic_batch(FOREST_FAMILIES[family], p, N, n_reps, seed, statistic,
                                   mode, bar_beta)
    assert out.dtype == np.int64 and out.shape[0] == n_reps
    assert _sha256(out) == FOREST_SEAMS[key][n_reps]
