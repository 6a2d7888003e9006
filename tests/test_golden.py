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
            "86e5725cf87981e14e7ff35e7b36d405dcc42f65207731b99ddf1b6f604880ba",
    },
    "curvature-dirac2d": {
        "out.csv":
            "0908debf9eeddf422dfe7b6d8d0ac810e610fc402e582f3dae8e85d5dd900b9f",
    },
    "exponents-walk1d-b0": {
        "out.json":
            "96d92d61619bdef2c7e8df71b788c7b4bb3a1dd818e4a28714d5a4f9b4781dc5",
    },
    "exponents-walk1d-b0.3": {
        "out.json":
            "65e0ccc9f54421015586f2c919154c6e9d3e78bab87d4c32d775ebbdbae66bd1",
    },
    "exponents-walk2d": {
        "out.json":
            "81a271b691089ec07e2f69274459cfeee674ff2836246f29d76c370bf57eceaf",
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
            "5cc48538f4267492e713d5ff55757c564ed7138b62726a5a840bd016fdc99e2f",
        "out_hsp0.csv":
            "ddd32192b75b1c911d56b120ad6c943c6888dae168cd864e1a6fe3e108104599",
        "out_hsp1.csv":
            "83158793da10a262d09aa90ca47d5ddd178ae577f49c65c3bb38c7d4ce6ac397",
    },
    "crg-walk2d": {
        "out.json":
            "ea10e5685255aaf2ea654ccccc5b7e1bd35a640871fd525026551b885e74439d",
        "out_hsp0.csv":
            "9bf278d1a9c26a8ec826f69fcf8eb0ceeebf9983072e7bbdcd593fd1f130d4fd",
        "out_hsp1.csv":
            "c8dd798283f35750886d57bc09a1660cca7905310b0530f682ff8d4109736b00",
        "out_hsp2.csv":
            "ceb1175ed338e6622385ed93191cc4d432a71aa1132219e565180c17437126a4",
        "out_hsp3.csv":
            "d23fd4335f4323b8f6cc944907f516367f1d47b211cf249d7e014c9bb50147c0",
    },
    "crg-walk1d-100": {
        "out.json":
            "5ad6263be224596e485f69eb5866fd24c4d99ca43c59a32900a6acbdef7b1e78",
        "out_hsp0.csv":
            "e7f8b8311db36608697f14d900bd600c5a2f149835f2bcfa9667eca5867eaa20",
        "out_hsp1.csv":
            "b57741ac7864270e98df9f450e7b5d006ac5a74c2e90ddec219f5fdb554393e9",
    },
    "crg-walk2d-100": {
        "out.json":
            "1929df3e281acf7b55031ad5b3e768fa61dcbb734400e534eec8341eb51c3260",
        "out_hsp0.csv":
            "0d3544819b014f7edd3434d7ff9a73d3cd77db1395c67c30dbf897b58baf6cba",
        "out_hsp1.csv":
            "b78db132b12d88320481e2826bc31b7b7138eae9cb12b951ca75fa04c6a1fbd4",
        "out_hsp2.csv":
            "6d7c81c9b0a8afa5fda95a5b18b7a10d112d2671140696312aa2690a168b0dc2",
        "out_hsp3.csv":
            "c00318cfb1c49652afb4159cd097deeadb6d87ee0798ec574f1bbd653a4cd866",
    },
    "phase-diagram-walk1d": {
        "out.csv":
            "cab69fa659591ef8cfebac84dda85a14379fd4682c8220c5be3f00665cb8cd54",
    },
    "phase-diagram-walk2d": {
        "out.csv":
            "e82470dd28b29b7fbe164fc6797f9b5085fca856129d5eb58c9eaff3ea2990f6",
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
