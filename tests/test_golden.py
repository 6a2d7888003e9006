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
    # both diagrams hold NaN rows: ZeroGap, and QuantizationFailure in 2D
    ("phase-diagram-walk1d", ["phase-diagram", "--model", "walk1d", "--grid",
                              "9", "--inner-grid", "64"], 2),
    ("phase-diagram-walk2d", ["phase-diagram", "--model", "walk2d", "--grid",
                              "9", "--inner-grid", "32"], 2),
]

HASHES = {
    "curvature-walk1d": {
        "out_a0.csv":
            "c2c6feaa118afaf3f91ada4bd7674e164f1c5ef0af33f4d5c43361ad6336ba85",
        "out_a1.csv":
            "243cfb082b020f5397999199019ff90f201eaea34a01bc663c516729c4b1e5cf",
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
            "0ce06a18e72a546b24b665be7bcf7891a4903b4ad24612bdc30279ce91776d60",
    },
    "exponents-walk1d-b0.3": {
        "out.json":
            "2687c468dae3248e34070084040806ee3ee3616d4cf4813cb6d078639e2ee917",
    },
    "exponents-walk2d": {
        "out.json":
            "9cdc72ddcccabdefd9fa3f145b0372c10cb6f0adfb2346b240fe9506caf02bd4",
    },
    "correlation-walk1d": {
        "out.csv":
            "5c6a7d11e462b68ef5247680798043e87530090b7820f93f49df5711ddf6c327",
    },
    "correlation-walk2d": {
        "out.csv":
            "376e4a6e40b824ee4a0e39dc51178b21bd126f43170bad40ab7ae016656cef32",
    },
    "correlation-walk2d-512": {
        "out.csv":
            "a9ce38c017f1d9a3911eedbc9876ede90274e39b5770d21ca7fc7c33417c42d4",
    },
    "invariant-walk1d": {
        "out.json":
            "bdbf4d5d7964e814df60ee1bbe4ede6e79401c49c84b2992a03683ee8669d486",
    },
    "invariant-walk2d": {
        "out.json":
            "8c2e53634864650aeec2e16fb805e658ef6a52378807b1bf04d3f46fa4297ee2",
    },
    "crg-walk1d": {
        "out.json":
            "c1c925eaec647f6826f2ce0c11536c3e6711126eefefb9dfef49dcd2003ac3e1",
        "out_hsp0.csv":
            "6c429ba631a6c3c03ea333cb729362016279987b66912c2fd7f1a16426e8247d",
        "out_hsp1.csv":
            "38f298bf3bf036920b3a7212191c329a6deb9e88774f99297f2f7b9b21da7092",
    },
    "crg-walk2d": {
        "out.json":
            "35c866310680435d05a61c7aad2a2470fc216df426e1f392f7941e97fe5440b9",
        "out_hsp0.csv":
            "f33a871a7234d04824f269fb86e8e92ecbc6eca2603c65d5e48ebcc0b052c8f6",
        "out_hsp1.csv":
            "ed933c0e62d589ade7625b4c56997491d790eefbf12eed38739f41039b881537",
        "out_hsp2.csv":
            "be04741d353a6716dff1904528bfda139c5af19a54f34b757c0062d2dbc791bc",
        "out_hsp3.csv":
            "566214782b13722257048a160fe9ba374ddb9217a0428b0e325b5f4e9e806756",
    },
    "crg-walk1d-100": {
        "out.json":
            "ccb96df46c20a1c34ac2d9712f87bf8d3361bd635d5b17e266b9e84bcc683260",
        "out_hsp0.csv":
            "0bd294b788921fc45c27981d1dbdff4829b83db0e48030d51e7517be45efdaa7",
        "out_hsp1.csv":
            "8662502632b92c0e391155c2556b34a62400a9d4125adff6c9102ab5c562155e",
    },
    "crg-walk2d-100": {
        "out.json":
            "ab5ac9e196b148883d8cf3458b7fd1714ced0cb1759b39222f032585fcdde38b",
        "out_hsp0.csv":
            "98b7ff95a58ceba86f1256044cd7ae8111290ea7f5d7e0a23a9e0352f4687880",
        "out_hsp1.csv":
            "bcf0d9fbc7c33c475aaffbae8201bbd279754d47901b595911385a8fdfca718d",
        "out_hsp2.csv":
            "a50e553a2f94ae69453d243cebbc36b366ebd3c8c0df04579ee4246b86635046",
        "out_hsp3.csv":
            "be83904a04cea257b2f7dd66d2daa8d3e25b4bb30ae8fb71ee0fee33f66f78a4",
    },
    "phase-diagram-walk1d": {
        "out.csv":
            "59dabe0d6ea2beb19fcef0e3142e9c7dd5a23258106ad96ce1876db45e2b6879",
    },
    "phase-diagram-walk2d": {
        "out.csv":
            "314048bed235cc5b8e21f902eeaa5af76fef4a0171f152c6592fd5d2b2848eb0",
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
