"""The dual and the mirror in every gauge: pinned CLI output, the exponent rule on random webs, one face walk."""

import hashlib
import itertools
import json
import os
import random
from fractions import Fraction as Q

import pytest

import tropmirror.diagram
from helpers import _lower_hull_cells_1d, edge_sample_points, random_smooth_web, replace, shipped_diagrams
from tropmirror.charges import build_web, charges_from_json, regular_subdivision
from tropmirror.cli import run
from tropmirror.diagram import TropicalDiagram, dual_subdivision
from tropmirror.lattice import dot, vsub
from tropmirror.mirror import normalize_presentation, relation_text, superpotential
from tropmirror.novikov import nov_val

DIAGRAMS = os.path.join(os.path.dirname(__file__), "..", "diagrams")
FILES = ("c3.json", "conifold.json", "focus_focus.json", "kp1p1.json", "kp2.json", "line.json")
LINE = {"dim": 1, "vertices": [["0"], ["3/2"], ["-2"]]}
GAUGES = ([], ["--flip-sign"], ["--root-face", "0"], ["--root-face", "2", "--flip-sign"])

# sha256 of stdout and the exit code of `tropmirror mirror FILE ARGS...`, keyed
# by "FILE ARGS...", for the shipped diagrams and the d=1 diagram LINE
MIRROR_DIGESTS = {
    "c3.json": (0, "0668dd891df2c6767285ec71bb3873ca81e8b766b7d22056c14a1682104d4181"),
    "c3.json --raw": (0, "0668dd891df2c6767285ec71bb3873ca81e8b766b7d22056c14a1682104d4181"),
    "c3.json --base-point=1/3,-5/7": (0, "0668dd891df2c6767285ec71bb3873ca81e8b766b7d22056c14a1682104d4181"),
    "c3.json --base-point=1/3,-5/7 --raw": (0, "1a338e1ecde740e8fd0de70e61c2f4a1a9014b01ce059a9b647b4dbd00bb2dff"),
    "c3.json --flip-sign": (0, "fa1e278043ea2f871398cbf6e47f38455eef35f937b7d3c840a81289ec875a24"),
    "c3.json --flip-sign --raw": (0, "fa1e278043ea2f871398cbf6e47f38455eef35f937b7d3c840a81289ec875a24"),
    "c3.json --flip-sign --base-point=1/3,-5/7": (0, "fa1e278043ea2f871398cbf6e47f38455eef35f937b7d3c840a81289ec875a24"),
    "c3.json --flip-sign --base-point=1/3,-5/7 --raw": (0, "d3c86cc6971c993cc4361bf5d90d483e212f711b66040e2e2e5205b11f54490e"),
    "c3.json --root-face 0": (0, "9690752d1b279d68095f0bb42b06ef9d7d6bb1873bd1e174c9eb7ea9b9cb5ff9"),
    "c3.json --root-face 0 --raw": (0, "9690752d1b279d68095f0bb42b06ef9d7d6bb1873bd1e174c9eb7ea9b9cb5ff9"),
    "c3.json --root-face 0 --base-point=1/3,-5/7": (0, "9690752d1b279d68095f0bb42b06ef9d7d6bb1873bd1e174c9eb7ea9b9cb5ff9"),
    "c3.json --root-face 0 --base-point=1/3,-5/7 --raw": (0, "9a39ee1d9b79698dd7000bf774cd85125ed282f51bbcae06b991e5a841f55383"),
    "c3.json --root-face 2 --flip-sign": (0, "fa1e278043ea2f871398cbf6e47f38455eef35f937b7d3c840a81289ec875a24"),
    "c3.json --root-face 2 --flip-sign --raw": (0, "fa1e278043ea2f871398cbf6e47f38455eef35f937b7d3c840a81289ec875a24"),
    "c3.json --root-face 2 --flip-sign --base-point=1/3,-5/7": (0, "fa1e278043ea2f871398cbf6e47f38455eef35f937b7d3c840a81289ec875a24"),
    "c3.json --root-face 2 --flip-sign --base-point=1/3,-5/7 --raw": (0, "d3c86cc6971c993cc4361bf5d90d483e212f711b66040e2e2e5205b11f54490e"),
    "conifold.json": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "conifold.json --raw": (0, "ab6254dd4c8b6d06799aa3f8400a67ab9667617f02b75bb8537d4a2c73946274"),
    "conifold.json --base-point=1/3,-5/7": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "conifold.json --base-point=1/3,-5/7 --raw": (0, "b1203d4e5e12238829d2b0a336998248db359d6b29355224382c1db9e393f49c"),
    "conifold.json --flip-sign": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "conifold.json --flip-sign --raw": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "conifold.json --flip-sign --base-point=1/3,-5/7": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "conifold.json --flip-sign --base-point=1/3,-5/7 --raw": (0, "1fefa008e38620f4ee7f348e938332044488b6f555782db5f00912fb402f08d9"),
    "conifold.json --root-face 0": (0, "b7c27561eef9f17b76db8cab55f1c3781dec439637774ffa3cc1a80e42af4c46"),
    "conifold.json --root-face 0 --raw": (0, "1e89132d1b63f0d32300bc4508302cf37e1902baacc3c50984866d0468f958e2"),
    "conifold.json --root-face 0 --base-point=1/3,-5/7": (0, "b7c27561eef9f17b76db8cab55f1c3781dec439637774ffa3cc1a80e42af4c46"),
    "conifold.json --root-face 0 --base-point=1/3,-5/7 --raw": (0, "761f26e4ca20c9a07f0c6afd1faf99e26d6aac939e4a23e40fdca6142bba52f5"),
    "conifold.json --root-face 2 --flip-sign": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "conifold.json --root-face 2 --flip-sign --raw": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "conifold.json --root-face 2 --flip-sign --base-point=1/3,-5/7": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "conifold.json --root-face 2 --flip-sign --base-point=1/3,-5/7 --raw": (0, "1fefa008e38620f4ee7f348e938332044488b6f555782db5f00912fb402f08d9"),
    "focus_focus.json": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "focus_focus.json --raw": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "focus_focus.json --base-point=-5/7": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "focus_focus.json --base-point=-5/7 --raw": (0, "b547155a5d07b7defb4b764d0597826233e0d2feb3b36ae4a409c8ec9a3efd68"),
    "focus_focus.json --flip-sign": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "focus_focus.json --flip-sign --raw": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "focus_focus.json --flip-sign --base-point=-5/7": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "focus_focus.json --flip-sign --base-point=-5/7 --raw": (0, "c0c350823c42a71cd9d6ef5d2412031efee5f214d767924d52c09496ab814e96"),
    "focus_focus.json --root-face 0": (0, "c68c15ec9b12ff0b12937b18f87f4527d8e2eb3480631123582b13aca3408fe2"),
    "focus_focus.json --root-face 0 --raw": (0, "c68c15ec9b12ff0b12937b18f87f4527d8e2eb3480631123582b13aca3408fe2"),
    "focus_focus.json --root-face 0 --base-point=-5/7": (0, "c68c15ec9b12ff0b12937b18f87f4527d8e2eb3480631123582b13aca3408fe2"),
    "focus_focus.json --root-face 0 --base-point=-5/7 --raw": (0, "2ffc0a3be4d7c92b72117346b6ef761284f738470b67735bf99ddfd1b8811366"),
    "focus_focus.json --root-face 2 --flip-sign": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "focus_focus.json --root-face 2 --flip-sign --raw": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "focus_focus.json --root-face 2 --flip-sign --base-point=-5/7": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "focus_focus.json --root-face 2 --flip-sign --base-point=-5/7 --raw": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "kp1p1.json": (0, "d78d7fa406125c88abbf0597d28fa44487db5de9a0e0ccc0bc838bdbe68075e6"),
    "kp1p1.json --raw": (0, "975890972673e81498cc1832cea50f4c0303eeec8842ea0ba9fffde52ae79b32"),
    "kp1p1.json --base-point=1/3,-5/7": (0, "d78d7fa406125c88abbf0597d28fa44487db5de9a0e0ccc0bc838bdbe68075e6"),
    "kp1p1.json --base-point=1/3,-5/7 --raw": (0, "a0029b9b17bc53106adda87c3583d7966e5abb1b44d08312363822cd357e2a05"),
    "kp1p1.json --flip-sign": (0, "d78d7fa406125c88abbf0597d28fa44487db5de9a0e0ccc0bc838bdbe68075e6"),
    "kp1p1.json --flip-sign --raw": (0, "975890972673e81498cc1832cea50f4c0303eeec8842ea0ba9fffde52ae79b32"),
    "kp1p1.json --flip-sign --base-point=1/3,-5/7": (0, "d78d7fa406125c88abbf0597d28fa44487db5de9a0e0ccc0bc838bdbe68075e6"),
    "kp1p1.json --flip-sign --base-point=1/3,-5/7 --raw": (0, "db87da6c8f46c9ce2444215d6ae07b694e6e6b49c6d2f78744d16265d9497245"),
    "kp1p1.json --root-face 0": (0, "1484ec1b2671ac3eaba9355e22d5bb6eb62c7edd55eef7941d8ddf9bbfa85ace"),
    "kp1p1.json --root-face 0 --raw": (0, "17b32afd175b991adcacd86d407e1609470d12de989aeaebd593c6a713ba1d77"),
    "kp1p1.json --root-face 0 --base-point=1/3,-5/7": (0, "1484ec1b2671ac3eaba9355e22d5bb6eb62c7edd55eef7941d8ddf9bbfa85ace"),
    "kp1p1.json --root-face 0 --base-point=1/3,-5/7 --raw": (0, "be72ecc0eb3a4a488d52b36e37d9027be984d137e87eb4bb17bf68d0d8aedd7c"),
    "kp1p1.json --root-face 2 --flip-sign": (0, "1484ec1b2671ac3eaba9355e22d5bb6eb62c7edd55eef7941d8ddf9bbfa85ace"),
    "kp1p1.json --root-face 2 --flip-sign --raw": (0, "17b32afd175b991adcacd86d407e1609470d12de989aeaebd593c6a713ba1d77"),
    "kp1p1.json --root-face 2 --flip-sign --base-point=1/3,-5/7": (0, "1484ec1b2671ac3eaba9355e22d5bb6eb62c7edd55eef7941d8ddf9bbfa85ace"),
    "kp1p1.json --root-face 2 --flip-sign --base-point=1/3,-5/7 --raw": (0, "0d86544c063d60651a895b2f3628d5931fed2caf77f683705eff139a0a56bf01"),
    "kp2.json": (0, "e8cd10ad60b190f82e07f696f7505aed053a5d1ff7a2a2558e17a5f5ee43ad2c"),
    "kp2.json --raw": (0, "b9321b003ef3575feab9901265969b552b0f342a1347391663a3bc284d43d6bf"),
    "kp2.json --base-point=1/3,-5/7": (0, "e8cd10ad60b190f82e07f696f7505aed053a5d1ff7a2a2558e17a5f5ee43ad2c"),
    "kp2.json --base-point=1/3,-5/7 --raw": (0, "f4716b4f6a8cee787b3f31d58f76cd230ca1a3c3c8cdae16d97f102cd2de3251"),
    "kp2.json --flip-sign": (0, "1da40a88027a2cb716211aff4e8daba5dfdd98706c7fcb3ea344faf1f2a12b4b"),
    "kp2.json --flip-sign --raw": (0, "b80ea9a3c080d1e396069c8b47d21ba8d14be709b84643204964aa93865d3f96"),
    "kp2.json --flip-sign --base-point=1/3,-5/7": (0, "1da40a88027a2cb716211aff4e8daba5dfdd98706c7fcb3ea344faf1f2a12b4b"),
    "kp2.json --flip-sign --base-point=1/3,-5/7 --raw": (0, "2ac53834979c1063d8d5e66646b7f9ddd9bd791c52476ede6762c9f2a1e5b709"),
    "kp2.json --root-face 0": (0, "228f82fd6c7b1ff1d87c100dbba1faf8df69879871a5cbe8ebeaee3b961899b7"),
    "kp2.json --root-face 0 --raw": (0, "6c82efca2341720e33fc8e1eb746f126001eaaf734f77af11a65d7464847b5c3"),
    "kp2.json --root-face 0 --base-point=1/3,-5/7": (0, "228f82fd6c7b1ff1d87c100dbba1faf8df69879871a5cbe8ebeaee3b961899b7"),
    "kp2.json --root-face 0 --base-point=1/3,-5/7 --raw": (0, "6db0518ebe2d896a1637567f97981355871ff964ae21446072eb8136390c9523"),
    "kp2.json --root-face 2 --flip-sign": (0, "9c711e179bf72eafec6c9c578f6c9fabd5d66f56599b2665efba4e9178195bbd"),
    "kp2.json --root-face 2 --flip-sign --raw": (0, "a7f39dd0d9a083b8b91b678ba6fc757af4a0461bf7cbeec93ad810cbff0c93bd"),
    "kp2.json --root-face 2 --flip-sign --base-point=1/3,-5/7": (0, "9c711e179bf72eafec6c9c578f6c9fabd5d66f56599b2665efba4e9178195bbd"),
    "kp2.json --root-face 2 --flip-sign --base-point=1/3,-5/7 --raw": (0, "a007a1183c11a8802112e86a2858ebe1f8837e9af3a4d6e3f8eb6dcd5e0b4d98"),
    "line.json": (0, "dfb7a0535a81e66762c818ae934c00dd54c43bebf1cb1840f9740ac8aace4699"),
    "line.json --raw": (0, "ca2ce17121203f08cc73c8023b5dff6f9d758d3e329a8c4a845f44dcf15a989b"),
    "line.json --base-point=-5/7": (0, "dfb7a0535a81e66762c818ae934c00dd54c43bebf1cb1840f9740ac8aace4699"),
    "line.json --base-point=-5/7 --raw": (0, "4e7f9cca72f967ecf7b48b1470652c49cbc2d36ea6a70af845457d1030580523"),
    "line.json --flip-sign": (0, "15ada71e076cf54ad12c134260e31c64b9b755a2e148a672ed4f7dd76729bef7"),
    "line.json --flip-sign --raw": (0, "756e03eef77b0a102ba64662668b334253e43299600f3f73a4dc20d7a823d7f6"),
    "line.json --flip-sign --base-point=-5/7": (0, "15ada71e076cf54ad12c134260e31c64b9b755a2e148a672ed4f7dd76729bef7"),
    "line.json --flip-sign --base-point=-5/7 --raw": (0, "c96df5c638f68391e48d8cb9ce4a5e35b19bcc18fa69fda001e5674b09c4f9b7"),
    "line.json --root-face 0": (0, "435767588909484632bcc25cea8c1174448b1514e5c874d5556120f7268d8736"),
    "line.json --root-face 0 --raw": (0, "c1c2934f843acbe19b2ef09589d1d2083a2c33d6b2df5d9705f1ca03951cecdc"),
    "line.json --root-face 0 --base-point=-5/7": (0, "435767588909484632bcc25cea8c1174448b1514e5c874d5556120f7268d8736"),
    "line.json --root-face 0 --base-point=-5/7 --raw": (0, "366a9758bf7d4f28906f524ab350e87df360e20b11456411ad200d218521a0f4"),
    "line.json --root-face 2 --flip-sign": (0, "1fb92e8e0798e849e91fcaefd32e666710756bbcccfd525d71fdfeda7d1d4de3"),
    "line.json --root-face 2 --flip-sign --raw": (0, "1fb92e8e0798e849e91fcaefd32e666710756bbcccfd525d71fdfeda7d1d4de3"),
    "line.json --root-face 2 --flip-sign --base-point=-5/7": (0, "1fb92e8e0798e849e91fcaefd32e666710756bbcccfd525d71fdfeda7d1d4de3"),
    "line.json --root-face 2 --flip-sign --base-point=-5/7 --raw": (0, "34bddefd79beb61ba3190a48feff8ac2076448784aead5c2d3b4f64f3073ab2c"),
}


# sha256 of stdout and the exit code of `tropmirror dual FILE ARGS...`, keyed
# by "FILE ARGS...", for the shipped diagrams; the face ids order every list
DUAL_DIGESTS = {
    "c3.json": (0, "5464e5fab3dad1097416dd3db73da348428ce5404524aca289466130d84854a8"),
    "c3.json --format svg": (0, "abd45499ede16d874d8dfcf898514b95096caabdec5bf74165b881bb2597f33e"),
    "c3.json --flip-sign": (0, "7cdc684546584ad7e05625a58f0aa2e18ecb08d51fba87f50120b5b13d1c988f"),
    "c3.json --flip-sign --format svg": (0, "1118aa17f384f226dd6c82faf9165471c48da0e95dd973eaa10b1da579c87ff0"),
    "c3.json --root-face 0": (0, "aeb2f4f08f313b8c03ed2c4af43adacb03f54dfdf517678c9c780b4f1b960547"),
    "c3.json --root-face 0 --format svg": (0, "960f544e2af092f21f9436995d8c3a69042c28238515b25c3b34814a3b5db28f"),
    "c3.json --root-face 2 --flip-sign": (0, "7cdc684546584ad7e05625a58f0aa2e18ecb08d51fba87f50120b5b13d1c988f"),
    "c3.json --root-face 2 --flip-sign --format svg": (0, "1118aa17f384f226dd6c82faf9165471c48da0e95dd973eaa10b1da579c87ff0"),
    "conifold.json": (0, "da3f7f318f413125fee1ea80957d4dc1dd721ab73cae1eb0f62571cd7f1d6f59"),
    "conifold.json --format svg": (0, "caf67529ca77e49cedbb3b00e8fef85c921101a333e6dfa53434a193f19f78ad"),
    "conifold.json --flip-sign": (0, "2a24ca3dc476c91feec3403885b896db14cdd7e011754668ddf6a6edba82950d"),
    "conifold.json --flip-sign --format svg": (0, "74ece2bd2dcc8e5b5cd235ffc2b8dd2580f9d9f61cae65076df57404900630fe"),
    "conifold.json --root-face 0": (0, "9c969b1e7033148d8ff86f395b45b167bba0305aac0fc42f102a6829cf2694b9"),
    "conifold.json --root-face 0 --format svg": (0, "9bcde1ca67ba2a6a0071066e97a23c4701872dba597037dcf88c5e5beb85b287"),
    "conifold.json --root-face 2 --flip-sign": (0, "2a24ca3dc476c91feec3403885b896db14cdd7e011754668ddf6a6edba82950d"),
    "conifold.json --root-face 2 --flip-sign --format svg": (0, "74ece2bd2dcc8e5b5cd235ffc2b8dd2580f9d9f61cae65076df57404900630fe"),
    "focus_focus.json": (0, "340879ecf255876c272b6e175b513835b8e66316beb391b3e26163f24c092bd7"),
    "focus_focus.json --format svg": (0, "53bc267e18336d7f58f3d52e0c32f0897c147974c28973fa3b3970f9b35d0142"),
    "focus_focus.json --flip-sign": (0, "8a4a84f3c6d5b8dea9fae7925430b559db9ecb04aa9458a6798489c4c68bba98"),
    "focus_focus.json --flip-sign --format svg": (0, "14b3f2590a9674414ad4058d721a3db5c346284134d9b1db6c8986f996eda2b2"),
    "focus_focus.json --root-face 0": (0, "dcb12df9fbefb09b22f00cde30bfee027d088c3c877bf96e009f384bf76a1f0b"),
    "focus_focus.json --root-face 0 --format svg": (0, "39776ec24dd149107d27fedcd0879b7633946efc75f9a697b6f131444f83e04b"),
    "focus_focus.json --root-face 2 --flip-sign": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "focus_focus.json --root-face 2 --flip-sign --format svg": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "kp1p1.json": (0, "ee9535ff49a635ee3c7bf1af926d3aed34ef717e0de963ad96bc8e1799730b34"),
    "kp1p1.json --format svg": (0, "aff2ab0f752cc271d0b09b8907eadb6f601c3c3bad55504f8f3d95ca2c2e4b3e"),
    "kp1p1.json --flip-sign": (0, "2c69a8d067d21a6c4547a9d44c45fd2d9f9af3cd9806f444515e3ad1cdea1342"),
    "kp1p1.json --flip-sign --format svg": (0, "f6e3a1d69c0f19eb9690be55d14b246ccbbf665007a601c0a7b91d30ae304e7c"),
    "kp1p1.json --root-face 0": (0, "6537185e529c3b3d40f87b797bc0d37e7e2ff87bfd22c25509a46481fa511312"),
    "kp1p1.json --root-face 0 --format svg": (0, "86d3665ca611ea23e62988a3d018a35a3079d390f00bca882f4c17dc1143bbc2"),
    "kp1p1.json --root-face 2 --flip-sign": (0, "976ade0144da62b29c5ec0b4d94056fd96a63ae93830ae4f4f0f2a9faf8b3b4c"),
    "kp1p1.json --root-face 2 --flip-sign --format svg": (0, "a39c9401787debc3bea0cff829eb7f3fde3992580aa3812d74d598f7b1a8c130"),
    "kp2.json": (0, "3121056ada5e9f7e67ab6439f2d8093d2cfd9c6b2da2298e3738f68b7053d229"),
    "kp2.json --format svg": (0, "44ca42544b444663af6c019142fc411091f199689ebd458e1e93ff3c6a42ce35"),
    "kp2.json --flip-sign": (0, "0111338bc57d21313e8a75c9f696d0b34f57503694ccf4422edb5cb0da32b74a"),
    "kp2.json --flip-sign --format svg": (0, "e070678736e9d55d3947848e670858405464f6e66d62b83b1e1f7fe49b6535c7"),
    "kp2.json --root-face 0": (0, "cfb31f457ed3d6a49e039860eefa8f0008a45c7acdc15fdcda8810d1ae5a42c5"),
    "kp2.json --root-face 0 --format svg": (0, "ad2ba39be4fc238ea3c1369c98eecade0ba0a92eaac6952ae43eddd65e6b269f"),
    "kp2.json --root-face 2 --flip-sign": (0, "1185285994a8741832ff11975901250950266b47052d6965b27c4f3238cabb6c"),
    "kp2.json --root-face 2 --flip-sign --format svg": (0, "448394804fe4efda1d30e078f6d5951ff28817a651db8a79cc065dc655ba6928"),
}


def _mirror_cases():
    for name in FILES:
        for gauge, with_base, raw in itertools.product(GAUGES, (False, True), (False, True)):
            yield name, gauge, with_base, raw


@pytest.mark.parametrize("name, gauge, with_base, raw", list(_mirror_cases()))
def test_mirror_output_is_pinned(tmp_path, capsys, name, gauge, with_base, raw):
    if name == "line.json":
        path = tmp_path / name
        path.write_text(json.dumps(LINE))
    else:
        path = os.path.join(DIAGRAMS, name)
    with open(path, encoding="utf-8") as fh:
        dim = json.load(fh).get("dim", 2)
    args = list(gauge)
    if with_base:
        args.append("--base-point=" + ("-5/7" if dim == 1 else "1/3,-5/7"))
    if raw:
        args.append("--raw")
    code = run(["mirror", str(path)] + args)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == MIRROR_DIGESTS[" ".join([name] + args)]


@pytest.mark.parametrize("name", FILES[:5])
@pytest.mark.parametrize("gauge", GAUGES, ids=lambda g: " ".join(g) or "default")
@pytest.mark.parametrize("fmt", ([], ["--format", "svg"]), ids=("json", "svg"))
def test_dual_output_is_pinned(capsys, name, gauge, fmt):
    args = list(gauge) + fmt
    code = run(["dual", os.path.join(DIAGRAMS, name)] + args)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == DUAL_DIGESTS[" ".join([name] + args)]


def test_raw_exponents_follow_the_edges_in_every_gauge():
    # min exponent 0, and across each dual edge the exponent drop is the
    # pairing of the dual edge with any point of the diagram edge: the gauge
    # reflects the dual points, not the heights, so the gauged edge pairs
    # with the sign
    rng = random.Random(4242)
    for _ in range(20):
        web = random_smooth_web(rng)
        nfaces = len(web.dual.lattice_points)
        for sign in (1, -1):
            root = rng.choice((None, rng.randrange(nfaces)))
            base = (Q(rng.randint(-30, 30), 7), Q(rng.randint(-30, 30), 11))
            dual = dual_subdivision(web, root_face=root, sign=sign)
            g = superpotential(web, base, root_face=root, sign=sign)
            exps = {alpha: nov_val(c) for alpha, c in g.terms}
            assert min(exps.values()) == 0
            assert dual.lattice_points[dual.root_face] == (0, 0) and (0, 0) in exps
            for e, (left, right) in dual.edge_duality:
                a_left, a_right = dual.lattice_points[left], dual.lattice_points[right]
                for p in edge_sample_points(web, e):
                    assert exps[a_left] - exps[a_right] == sign * dot(vsub(a_right, a_left), vsub(p, base))


def test_presentations_share_one_face_walk(monkeypatch):
    # one gluing walk yields the dual subdivision and the heights; with both
    # derived once per diagram, 20 presentations in mixed gauges and base
    # points of a fresh diagram glue it once
    rng = random.Random(77)
    warm = random_smooth_web(rng)
    nfaces = len(warm.dual.lattice_points)
    web = replace(warm)
    calls = []
    real = tropmirror.diagram._glue

    def counted(diag):
        calls.append(diag)
        return real(diag)

    monkeypatch.setattr(tropmirror.diagram, "_glue", counted)
    for _ in range(20):
        base = (Q(rng.randint(-30, 30), 7), Q(rng.randint(-30, 30), 11))
        root = rng.choice((None, rng.randrange(nfaces)))
        superpotential(web, base=base, root_face=root, sign=rng.choice((1, -1)))
    assert len(calls) == 1 and calls[0] is web


def _gauge_cases():
    """(web, root face, base point) over the shipped diagrams, LINE and seeded smooth webs."""
    rng = random.Random(1506)
    webs = shipped_diagrams() + [TropicalDiagram(1, tuple((Q(c),) for (c,) in LINE["vertices"]))]
    webs += [random_smooth_web(rng) for _ in range(40)]
    for web in webs:
        last = len(web.dual.lattice_points) - 1
        for root, base in itertools.product((None, 0, last), (None, (Q(2, 7),) * web.dim)):
            yield web, root, base


def test_flip_sign_reflects_the_raw_relation():
    # the sign gauge reflects the support through the origin and re-roots it;
    # every coefficient stays with its face
    for web, root, base in _gauge_cases():
        default = superpotential(web, base)
        flipped = superpotential(web, base, root_face=root, sign=-1)
        a_root = web.dual.lattice_points[dual_subdivision(web, root_face=root, sign=-1).root_face]
        assert len(flipped.terms) == len(default.terms)
        assert dict(flipped.terms) == {vsub(a_root, a): c for a, c in default.terms}


def test_normal_form_is_lifted_over_the_gauged_dual_cells():
    # in both sign gauges the normalized exponents are >= 0, 0 at the root, and
    # their lower hull is the gauged dual subdivision: the reflected one under
    # --flip-sign
    for web, root, base in _gauge_cases():
        for sign in (1, -1):
            dual = dual_subdivision(web, root_face=root, sign=sign)
            g = normalize_presentation(superpotential(web, base, root_face=root, sign=sign))
            support = [a for a, _ in g.terms]
            exps = [nov_val(c) for _, c in g.terms]
            assert min(exps) == 0 and exps[support.index((0,) * web.dim)] == 0
            points = dual.lattice_points
            if web.dim == 2:
                hull = [[support[i] for i in c.indices] for c in regular_subdivision(support, exps).cells]
                cells = [[points[f] for f in cell] for cell in dual.triangles]
            else:
                hull = [[support[i] for i in c] for c in _lower_hull_cells_1d(support, exps)]
                cells = [[points[f] for f in pair] for _, pair in dual.edge_duality]
            assert {frozenset(c) for c in hull} == {frozenset(c) for c in cells}


def test_kp2_relations_in_both_sign_gauges():
    # --flip-sign prints the u -> u^-1 image of the default relation, re-rooted
    with open(os.path.join(DIAGRAMS, "kp2.json"), encoding="utf-8") as fh:
        web = build_web(*charges_from_json(json.load(fh))).diagram
    texts = {}
    for sign in (1, -1):
        raw = superpotential(web, sign=sign)
        texts[sign] = relation_text(raw), relation_text(normalize_presentation(raw))
    assert texts[1] == (
        "x*y - (t^{1} + t^{1}*u1 + u2 + t^{1}*u1^-1*u2^3)",
        "x*y - (1 + t^{3}*u1 + u2 + u1^-1*u2^3)",
    )
    assert texts[-1] == (
        "x*y - (t^{1} + u1^-1*u2^2 + t^{1}*u1^-2*u2^3 + t^{1}*u1^-1*u2^3)",
        "x*y - (1 + u1^-1*u2^2 + u1^-2*u2^3 + t^{3}*u1^-1*u2^3)",
    )
