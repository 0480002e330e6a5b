"""Pinned output of the diagram commands: `validate`, `dual`, `mirror`, `render` and `web`.

The digests are sha256 of stdout, with the exit code, as the commands printed
them before the dual-graph cross-check, the series, charge-web, correction and
presentation records stopped storing what they can derive.  Every shipped
diagram runs under each flag set; `web --charges` runs on two charge files,
and with `--allow-singular` on four coarse ones whose cells have interior or
side points.  The coarse pins and the re-rooted `mirror` pins were recorded
before each cell's boundary came from one counterclockwise walk and before
the mirror algebra became its superpotential record.
"""

import hashlib
import json
import os

import pytest

from tropmirror.cli import run

DIAGRAMS = os.path.join(os.path.dirname(__file__), "..", "diagrams")
NAMES = ("c3", "conifold", "focus_focus", "kp1p1", "kp2")
FLAGS = {
    "validate": ("",),
    "dual": ("", "--flip-sign", "--root-face 1", "--root-face 1 --flip-sign", "--format svg"),
    "mirror": ("", "--raw", "--flip-sign", "--root-face 1", "--root-face 1 --flip-sign --raw"),
    "render": ("--format svg", "--format dot"),
}


def _affine_charges(points: list, heights: list) -> dict:
    """A charge file whose kernel points are ``points`` up to a lattice map.

    Row i is the affine relation (1-x-y, x, y, -1) of point i against the
    first three, which must be (0, 0), (1, 0) and (0, 1).
    """
    rows = []
    for i, (x, y) in enumerate(points[3:], 3):
        row = [1 - x - y, x, y] + [0] * (len(points) - 3)
        row[i] = -1
        rows.append(row)
    return {"charges": rows, "heights": heights}


def _lattice_points(xs: int, ys: int, inside) -> list:
    corner = [(0, 0), (1, 0), (0, 1)]
    return corner + sorted((x, y) for x in range(xs + 1) for y in range(ys + 1) if inside(x, y) and (x, y) not in corner)


P2_DEGREE_2 = _lattice_points(2, 2, lambda x, y: x + y <= 2)
RECT_2X3 = _lattice_points(2, 3, lambda x, y: True)
# charge files with zero heights: each is one coarse cell, with an interior
# point (KP2), split sides (P^2 of degree 2, the rectangle) or neither
COARSE = {
    "coarse-kp2": {"charges": [[1, 1, 1, -3]], "heights": ["0"] * 4},
    "coarse-conifold": {"charges": [[1, 1, -1, -1]], "heights": ["0"] * 4},
    "coarse-p2-2": _affine_charges(P2_DEGREE_2, ["0"] * len(P2_DEGREE_2)),
    "coarse-rect-2x3": _affine_charges(RECT_2X3, ["0"] * len(RECT_2X3)),
}
CORRECTIONS = [
    {"vertex": [0, 0], "series": [{"exp": "2", "coeff": "3"}, {"exp": "5/2", "coeff": "-1/4"}]},
    {"vertex": [1, 0], "series": [{"exp": "1", "coeff": "7"}]},
]

DIGESTS = {
    "validate c3": (0, "954013dd6ed6efce80eb400a43d329996aa2a2848e6a36e09fd0488aa0417e8e"),
    "validate conifold": (0, "954013dd6ed6efce80eb400a43d329996aa2a2848e6a36e09fd0488aa0417e8e"),
    "validate focus_focus": (0, "954013dd6ed6efce80eb400a43d329996aa2a2848e6a36e09fd0488aa0417e8e"),
    "validate kp1p1": (0, "954013dd6ed6efce80eb400a43d329996aa2a2848e6a36e09fd0488aa0417e8e"),
    "validate kp2": (0, "954013dd6ed6efce80eb400a43d329996aa2a2848e6a36e09fd0488aa0417e8e"),
    "dual c3": (0, "5464e5fab3dad1097416dd3db73da348428ce5404524aca289466130d84854a8"),
    "dual c3 --flip-sign": (0, "7cdc684546584ad7e05625a58f0aa2e18ecb08d51fba87f50120b5b13d1c988f"),
    "dual c3 --root-face 1": (0, "5464e5fab3dad1097416dd3db73da348428ce5404524aca289466130d84854a8"),
    "dual c3 --root-face 1 --flip-sign": (0, "bc07e4cccbad35933952f7d78486d08ac79c7c043d826a45374367b21cfb8819"),
    "dual c3 --format svg": (0, "abd45499ede16d874d8dfcf898514b95096caabdec5bf74165b881bb2597f33e"),
    "dual conifold": (0, "da3f7f318f413125fee1ea80957d4dc1dd721ab73cae1eb0f62571cd7f1d6f59"),
    "dual conifold --flip-sign": (0, "2a24ca3dc476c91feec3403885b896db14cdd7e011754668ddf6a6edba82950d"),
    "dual conifold --root-face 1": (0, "9f4e11fa8a01c2fd3569e0afc348041d709d19444d574fd9b42f840eb5b453ef"),
    "dual conifold --root-face 1 --flip-sign": (0, "f80def2c1493bd4e87b25ea618e1c35f603eab1637ad787234734075e776fe08"),
    "dual conifold --format svg": (0, "caf67529ca77e49cedbb3b00e8fef85c921101a333e6dfa53434a193f19f78ad"),
    "dual focus_focus": (0, "340879ecf255876c272b6e175b513835b8e66316beb391b3e26163f24c092bd7"),
    "dual focus_focus --flip-sign": (0, "8a4a84f3c6d5b8dea9fae7925430b559db9ecb04aa9458a6798489c4c68bba98"),
    "dual focus_focus --root-face 1": (0, "340879ecf255876c272b6e175b513835b8e66316beb391b3e26163f24c092bd7"),
    "dual focus_focus --root-face 1 --flip-sign": (0, "171800b4d76d05d5ece728e6397c6da54cbd5c8dc9370f980f9e291603d6b16d"),
    "dual focus_focus --format svg": (0, "53bc267e18336d7f58f3d52e0c32f0897c147974c28973fa3b3970f9b35d0142"),
    "dual kp1p1": (0, "ee9535ff49a635ee3c7bf1af926d3aed34ef717e0de963ad96bc8e1799730b34"),
    "dual kp1p1 --flip-sign": (0, "2c69a8d067d21a6c4547a9d44c45fd2d9f9af3cd9806f444515e3ad1cdea1342"),
    "dual kp1p1 --root-face 1": (0, "5c36ed458d36da7a723c9567ae1752cb2e1609bb5a8af09c631a572e739189e2"),
    "dual kp1p1 --root-face 1 --flip-sign": (0, "51747cb0ca29ad727288e557fad1fb63738abcf5cf9adadaf0b3eadaa8200340"),
    "dual kp1p1 --format svg": (0, "aff2ab0f752cc271d0b09b8907eadb6f601c3c3bad55504f8f3d95ca2c2e4b3e"),
    "dual kp2": (0, "3121056ada5e9f7e67ab6439f2d8093d2cfd9c6b2da2298e3738f68b7053d229"),
    "dual kp2 --flip-sign": (0, "0111338bc57d21313e8a75c9f696d0b34f57503694ccf4422edb5cb0da32b74a"),
    "dual kp2 --root-face 1": (0, "d1928b5c6cb638107b6b24336ed74f130c5d0628f1fb6fdba55967f6a919ccd8"),
    "dual kp2 --root-face 1 --flip-sign": (0, "0111338bc57d21313e8a75c9f696d0b34f57503694ccf4422edb5cb0da32b74a"),
    "dual kp2 --format svg": (0, "44ca42544b444663af6c019142fc411091f199689ebd458e1e93ff3c6a42ce35"),
    "mirror c3": (0, "0668dd891df2c6767285ec71bb3873ca81e8b766b7d22056c14a1682104d4181"),
    "mirror c3 --raw": (0, "0668dd891df2c6767285ec71bb3873ca81e8b766b7d22056c14a1682104d4181"),
    "mirror c3 --flip-sign": (0, "fa1e278043ea2f871398cbf6e47f38455eef35f937b7d3c840a81289ec875a24"),
    "mirror conifold": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "mirror conifold --raw": (0, "ab6254dd4c8b6d06799aa3f8400a67ab9667617f02b75bb8537d4a2c73946274"),
    "mirror conifold --flip-sign": (0, "dcc3d43e2f4cee900225e8fac7724216416c5cf5149b35cd4668a466efd4ce68"),
    "mirror focus_focus": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "mirror focus_focus --raw": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "mirror focus_focus --flip-sign": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "mirror kp1p1": (0, "d78d7fa406125c88abbf0597d28fa44487db5de9a0e0ccc0bc838bdbe68075e6"),
    "mirror kp1p1 --raw": (0, "975890972673e81498cc1832cea50f4c0303eeec8842ea0ba9fffde52ae79b32"),
    "mirror kp1p1 --flip-sign": (0, "d78d7fa406125c88abbf0597d28fa44487db5de9a0e0ccc0bc838bdbe68075e6"),
    "mirror kp2": (0, "e8cd10ad60b190f82e07f696f7505aed053a5d1ff7a2a2558e17a5f5ee43ad2c"),
    "mirror kp2 --raw": (0, "b9321b003ef3575feab9901265969b552b0f342a1347391663a3bc284d43d6bf"),
    "mirror kp2 --flip-sign": (0, "1da40a88027a2cb716211aff4e8daba5dfdd98706c7fcb3ea344faf1f2a12b4b"),
    "mirror c3 --root-face 1": (0, "0668dd891df2c6767285ec71bb3873ca81e8b766b7d22056c14a1682104d4181"),
    "mirror c3 --root-face 1 --flip-sign --raw": (0, "6c15b8dacbcf2004889d2b207922e6d1ea0c2fe3d649c435e6ffe65993044232"),
    "mirror conifold --root-face 1": (0, "e58bed4e17bc35585d3b7ca471e2fc90ba9c2f66f12d755a7006393de033553e"),
    "mirror conifold --root-face 1 --flip-sign --raw": (0, "b7c27561eef9f17b76db8cab55f1c3781dec439637774ffa3cc1a80e42af4c46"),
    "mirror focus_focus --root-face 1": (0, "ccd555ec27b3e476f6d89e5a9a406f6d82ee44633b3735514955f08cb1678e0f"),
    "mirror focus_focus --root-face 1 --flip-sign --raw": (0, "c68c15ec9b12ff0b12937b18f87f4527d8e2eb3480631123582b13aca3408fe2"),
    "mirror kp1p1 --root-face 1": (0, "c42207cb558d766d3a2326d98788f69173c760154e58d2222b7f7808d5bd0136"),
    "mirror kp1p1 --root-face 1 --flip-sign --raw": (0, "c02da2779402b3542471a205de98835210531432ac9d87a8e11d63ff58bc63cb"),
    "mirror kp2 --root-face 1": (0, "8b74deb02ec6309d03937b0b6b7c341c203d0f251e2ba992339fee294c7764b6"),
    "mirror kp2 --root-face 1 --flip-sign --raw": (0, "b80ea9a3c080d1e396069c8b47d21ba8d14be709b84643204964aa93865d3f96"),
    "render c3 --format svg": (0, "0d361b947127f27c0e5519723174852b70d42b69f23b7a2f8f0bb0eb20bd3375"),
    "render c3 --format dot": (0, "f8a5ebd489e7325ea8c96b6a824a9ea1d48dd80274a555904ded4e67421b2717"),
    "render conifold --format svg": (0, "66adfbf6b925a4da95e47c2ae7be49c4d6916e517f2e266cc52a63cfaf5629d9"),
    "render conifold --format dot": (0, "cc1e5512ded5255a2842c7cb2debc11740c1af5b79fb19fdfc982287b9a74daa"),
    "render focus_focus --format svg": (0, "0a214629fe86a337aab82596a741409da24652912b6a6a1f1d0fe6ce63aa20c1"),
    "render focus_focus --format dot": (0, "27e7b1c715ad84276b5bde979349b0cc30f3391d1e73d0348f8c7bfef8bb93d0"),
    "render kp1p1 --format svg": (0, "4652b809c9551c62e1fcd3532c8f9be18c3f1afaa62101dcf1a6917ef42e4467"),
    "render kp1p1 --format dot": (0, "3729e1a7bbf94fd66a358e5713ef14c0829a89465b8f9e33bb90819258d25f3e"),
    "render kp2 --format svg": (0, "3bea3ddd219750112df9485e408d8c954fa1da94771f898012413ffcf3cd3266"),
    "render kp2 --format dot": (0, "77c3a69c798e65602dbfd8b092ce998e61a7de5b16ca71becafeee677c1e211e"),
    "mirror c3 --corrections CORR": (0, "9b874b04ab27f15f13e0f1be6c94eb5228e1eca4762b3945b808b42e4cc1fee2"),
    "web --charges conifold": (0, "0b957196dd625cb574b101b451341fd73377a7bba5aba272bb960c4561279288"),
    "web --charges conifold --allow-singular": (0, "0b957196dd625cb574b101b451341fd73377a7bba5aba272bb960c4561279288"),
    "web --charges kp2": (0, "f2fe4977ff5f2ca6f76054c56c73f91c6002246f0a1b8174f32186d9558c5c76"),
    "web --charges kp2 --allow-singular": (0, "f2fe4977ff5f2ca6f76054c56c73f91c6002246f0a1b8174f32186d9558c5c76"),
    "web --charges coarse-kp2 --allow-singular": (0, "ecf12faa315cf35ebc36d526f5e77eed1e753deb406aacf4e74565a5056039a6"),
    "web --charges coarse-conifold --allow-singular": (0, "56ee8793aa4460d07ee32b85cf6de0d4c3ccab22c59404c20607ddd1837ce1c7"),
    "web --charges coarse-p2-2 --allow-singular": (0, "9411e4610a26b4b63737bc7f8743135cfe474637c86708e079d2a8c959f17ff6"),
    "web --charges coarse-rect-2x3 --allow-singular": (0, "8e929da0ed782fbd20e15b0ac41b678ee625b39a8d7fb469f840a06b401da8f2"),
}


def cases() -> list[str]:
    """Each pinned command line, with diagram names for file paths and CORR for the corrections file."""
    out = [f"{cmd} {name} {flags}".strip() for cmd, sets in FLAGS.items() for name in NAMES for flags in sets]
    out.append("mirror c3 --corrections CORR")
    out += [f"web --charges {name}{flag}" for name in ("conifold", "kp2") for flag in ("", " --allow-singular")]
    out += [f"web --charges {name} --allow-singular" for name in COARSE]
    return out


def argv(case: str, files: dict) -> list[str]:
    return [files.get(word, word) for word in case.split()]


def stdout_digest(capsys, argv) -> tuple:
    code = run(argv)
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.fixture
def files(tmp_path) -> dict:
    """Diagram and coarse charge names, and CORR, mapped to file paths."""
    out = {name: os.path.join(DIAGRAMS, f"{name}.json") for name in NAMES}
    for name, data in [("CORR", CORRECTIONS), *COARSE.items()]:
        f = tmp_path / f"{name}.json"
        f.write_text(json.dumps(data))
        out[name] = str(f)
    return out


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(cases())


@pytest.mark.parametrize("case", cases())
def test_cli_output_is_pinned(capsys, files, case):
    assert stdout_digest(capsys, argv(case, files)) == DIGESTS[case]
