"""Golden-output gate: the SHA-256 of every file each command writes for a
fixed set of small configurations.

Of the two ways to pin such hashes, exact bytes on a pinned numpy build or
values rounded to a stated precision, this test takes the first: it hashes
the files byte for byte, as the CLI writes them, and runs only on the numpy
release the hashes were recorded with (``RECORDED_NUMPY``).  Other numpy
releases may round the kernels' last bits differently; there the test is
skipped, and the output encoder's byte contract is still checked by
``tests/test_output.py`` against Python's own formatting.

When an output changes on purpose, record the new hashes in the same change
and say in CHANGES.md which files changed and why.
"""

import hashlib

import numpy as np
import pytest

from topocrit.cli import main

RECORDED_NUMPY = "2.4."

# (case id, argv without --out, exit code); every case writes its files
# under the output name "out"
CASES = [
    ("curvature-walk1d", ["curvature", "--model", "walk1d", "--alpha=0.3,0",
                          "--beta", "0", "--grid", "64"], 2),
    ("curvature-walk2d", ["curvature", "--model", "walk2d", "--alpha", "0.3",
                          "--grid", "64"], 0),
    ("curvature-dirac1d", ["curvature", "--model", "dirac1d", "--grid",
                           "64"], 0),
    ("curvature-dirac2d", ["curvature", "--model", "dirac2d", "--grid",
                           "64"], 0),
    ("exponents-walk1d-b0", ["exponents", "--model", "walk1d", "--beta",
                             "0"], 0),
    ("exponents-walk1d-b0.3", ["exponents", "--model", "walk1d", "--beta",
                               "0.3"], 0),
    ("exponents-walk2d", ["exponents", "--model", "walk2d"], 0),
    ("correlation-walk1d", ["correlation", "--model", "walk1d", "--alpha",
                            "0.2", "--beta", "0", "--rmax", "8", "--grid",
                            "256"], 0),
    ("correlation-walk2d", ["correlation", "--model", "walk2d", "--alpha",
                            "0.2", "--rmax", "4", "--grid", "256"], 0),
    # the shape of the benchmark's figure recipe
    ("correlation-walk2d-512", ["correlation", "--model", "walk2d",
                                "--alpha", "0.3", "--grid", "512", "--rmax",
                                "60"], 0),
    ("invariant-walk1d", ["invariant", "--model", "walk1d", "--alpha", "0.3",
                          "--beta", "1.0"], 0),
    ("invariant-walk2d", ["invariant", "--model", "walk2d", "--alpha",
                          "0.3"], 0),
    ("crg-walk1d", ["crg", "--model", "walk1d", "--grid", "64"], 0),
    ("crg-walk2d", ["crg", "--model", "walk2d", "--grid", "64"], 0),
    # 100 is no multiple of the flow field's block height, and 10 000 rows
    # span three CSV chunks, the last one short
    ("crg-walk1d-100", ["crg", "--model", "walk1d", "--grid", "100"], 0),
    ("crg-walk2d-100", ["crg", "--model", "walk2d", "--grid", "100"], 0),
    # both diagrams hold ZeroGap NaN rows, and the 2D one 12 rows whose
    # integral lies 1e-3 or more from the plaquette's integer
    ("phase-diagram-walk1d", ["phase-diagram", "--model", "walk1d", "--grid",
                              "9", "--inner-grid", "64"], 2),
    ("phase-diagram-walk2d", ["phase-diagram", "--model", "walk2d", "--grid",
                              "9", "--inner-grid", "32"], 2),
]

HASHES = {
    "curvature-walk1d": {
        "out_a0.csv":
            "7fbfacf36a7bdc726881fe039cdbdc9b5f1beca15c58f248f41cbecb29ee236d",
        "out_a1.csv":
            "1793af837fc96195bd057abc9a8d87dbc8e73fe9c82451c60c50d4847e591b6b",
    },
    "curvature-walk2d": {
        "out.csv":
            "c652ba6a6144a7b47af95adf633799ebf79f8a63f6b1976e6acff1d34ee96d1d",
    },
    "curvature-dirac1d": {
        "out.csv":
            "10d4f3ba177d14771c0d7643823ccc2bb24cf937dc54b3a145c6ac1bb439cab0",
    },
    "curvature-dirac2d": {
        "out.csv":
            "22f97d7d6742ae1e6dd65a8d44024be0760f871485013f40b84a518e4dbc5a84",
    },
    "exponents-walk1d-b0": {
        "out.json":
            "3b70f3179d5397804fbc81c1c62cd7600bb199eb567b56c72de4067fcec49cda",
    },
    "exponents-walk1d-b0.3": {
        "out.json":
            "4cab1c3abe487292250f737185a975328012804c8e1356cbb15bbafab2f51ddd",
    },
    "exponents-walk2d": {
        "out.json":
            "aaafcc6dc67ed36e8f6d2cc2f5def8055a6899c7ecf56fd14f9c9049bbc624d8",
    },
    "correlation-walk1d": {
        "out.csv":
            "b7dfae60f2821ffc6a25028f51c06ce81baf9042ffc08c405b0b903147abcda6",
    },
    "correlation-walk2d": {
        "out.csv":
            "e213f3ad4a80834186a65638a83f4612fa36cf74a81aefc973582fc15baa1040",
    },
    "correlation-walk2d-512": {
        "out.csv":
            "3711f0f354c53b48ace263534cf1c7f7f7f437a7a4c431a741d6d9abe69b673c",
    },
    "invariant-walk1d": {
        "out.json":
            "038584e10c377da1dbba5e53dc739be7c3fcceb54f534557ff85d00f356c3c8a",
    },
    "invariant-walk2d": {
        "out.json":
            "5bee0bebe051659d67aa3e41c7e5b0e2edcabdd515dae1231e1d6cd15d32a1ed",
    },
    "crg-walk1d": {
        "out.json":
            "8a00b87a0f963e8d07ca6b8ba6812583092e8f6a0c6fb4a605e16a2f84c08228",
        "out_hsp0.csv":
            "ab052acb832e640fa2d08deac9fb1b692ae9df8e20593462042cb4e5a6869df2",
        "out_hsp1.csv":
            "57cdecb70074f0690380b42c058e9161eddb681d8f54658d9179f203a1d53ea5",
    },
    "crg-walk2d": {
        "out.json":
            "24e9c56f987c98157d072c913c2c729e9d54837a770bb0eff6b12c358c8ac686",
        "out_hsp0.csv":
            "73b35278ade262b41b52a09f87f9c1cc48e47deb90c8539d593deddffdbfcaa5",
        "out_hsp1.csv":
            "12ddf5fe7e81b4d79f4163ad991b1a54b102f3967f3ec34794522a63f3bdc862",
        "out_hsp2.csv":
            "e7bd3731ad496c36cdc2262c1b56443290799e532ca0541a2250041a10a2ceed",
        "out_hsp3.csv":
            "b614d54eacbddd252e7d4508d5e9fdb35c3b9b1fe75aec78d0f7e3ab61acfb27",
    },
    "crg-walk1d-100": {
        "out.json":
            "d4501226bce0fa7fe9b94cda3e80033f92df680a1c46741f015a9b00b4e9f0f6",
        "out_hsp0.csv":
            "aa3301c6003eeaebacba38514546d2eb2270b9eda49cbab75f350d3a942e1550",
        "out_hsp1.csv":
            "00f8f134553a9e3b4c26eed0a6fd0310c177b3a928db52d6572c49185f17dbf5",
    },
    "crg-walk2d-100": {
        "out.json":
            "2569cec66be4cb3feaceda765b6f51c51544d2cc5497115f687159e4722ad773",
        "out_hsp0.csv":
            "586ae2ef67964e533676321d463a045a54d2ab17f1db8400d75906326717499d",
        "out_hsp1.csv":
            "ef27576ec18a50eee1bed3765e51c62e110dfad381d79773ca9be968544bc19f",
        "out_hsp2.csv":
            "68e5b14e540a079fb2ec5b76c226445dccf4a1cf3bcea657785e24c529c50b20",
        "out_hsp3.csv":
            "ee9ffbd708ff1e5edb311bad10f399323e6a314b9076b1d011b5e77ac94f44a6",
    },
    "phase-diagram-walk1d": {
        "out.csv":
            "2a4e596bcfe4c5f01dc3321f7f6af97c6fe303411b4c289308afd998b50f53b2",
    },
    "phase-diagram-walk2d": {
        "out.csv":
            "76a8689e95adf2dd89d93b086ab0165aca1200a4c360a59c25c9d24991e1d17f",
    },
}


@pytest.mark.skipif(not np.__version__.startswith(RECORDED_NUMPY),
                    reason="golden hashes were recorded with numpy %s*"
                    % RECORDED_NUMPY)
@pytest.mark.parametrize("argv, code", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_outputs_match_golden_hashes(tmp_path, monkeypatch, capsys, argv,
                                     code, request):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--out", "out"]) == code
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == HASHES[request.node.callspec.id]
