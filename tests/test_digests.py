"""Golden digests of the result files.

Each test pins the sha256 of `write_results` output. Result rows hold only
input detections, so a digest pins the association decisions of a run. A
changed digest means some association flipped: find which one and why
before re-pinning anything.
"""

import hashlib

import pytest

from test_acceptance import _equivalence_scenarios

from adptrack.base_tracker import TrackerParams, run as run_base
from adptrack.motio import write_results
from adptrack.rollout import AdpConfig, Variant, run as run_adp
from adptrack.synthworld import generate, occlusion_preset

PARAMS = TrackerParams()

PRESET_BASE = [
    "c948caaba1e093a02da4cf2e58db1431297d5397d59d2cbabaec92681e5f8851",
    "aeadd40075a2c8ae0fd3a56420b27b3800e878c8ae7802a5511395f4298ae24d",
    "7a44c8c55db0d933ff9f06db7804b40e6221a2745436205480d726f2d4516a10",
    "899d5f3e193588888bf2788d1e92f46571e61c2ae1ba653a70cc1a0bdfc7dd26",
    "9a6a9d6052fc706066aefeb87b5bf22bdacdbdb239b01773af3584b272d1b4fd",
    "de37948e88d1f712c841137a6efb7ed0c318a64a46c0fac5ee9cb781d7ddc703",
    "e95927c381af9c41b5e2207e6ee8b8d58a727a600ce1ea4046756cceb8dd7608",
    "60e8de359a21e3381241f26c147d68f70bfa42b4a2d5a297ab336e0f4c818379",
    "cf20efd9f40f89d99babde4988823ca86dfab8a12ae50f4a7d35cb5ca32524f7",
    "2ea809a62b6d85ee05bd7d06964db0747e253ff7d028891fe8e731105ba9e76e",
    "2ed7d9ee91b477a3abac5f4a86fa08d6a28653bcff32004fef43dee1157e8730",
    "51b468c66959c0c303dcd08d4919a4666ea204fce1dcb1a36616dff315797589",
    "055b435ea246170d42d582153c1ab8396e6f366732a949db52aa1a655260fbe8",
    "27b90f129c7310b9de2e9ddcab75f14f64f9a84ed5928af617bf6d29a706456f",
    "64d9584d7c4d391a4427664eaea490a00648036d614a2dfccd4411f9517f9319",
    "14bb9c6971dc109b4097c4a157008cdc354c2a9d8ebb3fe3e4eeaedd4522c104",
    "c1cd2c0fea3d8517303927cd6bef56942f92c5ab4ffc9aa119edb826a3614e77",
    "e43d4fe2701e158f677271e63ebf0816a74f330a109dd03ddbf1f39a0c4e89d8",
    "fa428bf98856850c6fb7c0c80089e1dbffde1ef7183b30754efd7912fde7788c",
    "c86a068c8372776877132ba78147165803473a8fae3a736c527159248c153010",
]

EQUIVALENCE_BASE = "2af901bb06d24ccde86cdee5eee136803b5236659781fdf3304470377c716422"

PRESET_ADP = {
    "f1": [
        "5c8400dda882c95b2a8785cb1bab1502cb02f7063ea680bee61faa660fee35ee",
        "a2e357f5ef64b54c7a6487fef38cd902abe6fc7993b6e8687cd223b350be12cf",
        "5640b9ff9b75420ac511e4445e50f3ffab0a2c3015955f2a9405547f77f738f5",
    ],
    "f2": [
        "bca33faf5e0376982e3253cd99e30d48dd5f9f860ff394ef472f6ba89aa02959",
        "ebf86f85866650dcafe96317d84fef5a3482fe1d04fc2ca8f0fee9b28e9a6abc",
        "61ef2492f646ead531c2cdb081ed32c241278d71efe790ec39fae0b204c41ab0",
    ],
    "f3": [
        "c948caaba1e093a02da4cf2e58db1431297d5397d59d2cbabaec92681e5f8851",
        "b8b687e4969d3e727a37c3757886fc234b46a7754ec4cf6b6fcf98245e087e2b",
        "7a44c8c55db0d933ff9f06db7804b40e6221a2745436205480d726f2d4516a10",
    ],
    "main": [
        "0e16a8d5aadfea2701b7bc3d7b9f05ede11d8b28f41af4d76a85560d68349807",
        "ed3fbb6bd7de7f81c87203b3f84c278ebbf57f3a68cd566546b55e2ef82baec9",
        "3c7025234be2f6513042eda9bf605dcc29257e3ba978c83375c96d433985dd12",
    ],
    "main-nofilter": [
        "0e16a8d5aadfea2701b7bc3d7b9f05ede11d8b28f41af4d76a85560d68349807",
        "ebf86f85866650dcafe96317d84fef5a3482fe1d04fc2ca8f0fee9b28e9a6abc",
        "3c7025234be2f6513042eda9bf605dcc29257e3ba978c83375c96d433985dd12",
    ],
}

ADP_CONFIGS = {
    "main": AdpConfig(horizon=10),
    "f1": AdpConfig(horizon=10, variant=Variant.F1),
    "f2": AdpConfig(horizon=10, variant=Variant.F2),
    "f3": AdpConfig(horizon=10, variant=Variant.F3),
    "main-nofilter": AdpConfig(horizon=10, enable_candidate_filter=False),
}


def _result_bytes(rows, path):
    write_results(path, rows)
    return path.read_bytes()


def _frames(sc_cfg):
    return list(generate(sc_cfg).det_frames)


def test_preset_base_digests(tmp_path):
    got = [
        hashlib.sha256(_result_bytes(run_base(_frames(cfg), PARAMS), tmp_path / "res.txt")).hexdigest()
        for cfg in occlusion_preset()
    ]
    assert got == PRESET_BASE


def test_equivalence_base_digest(tmp_path):
    combined = hashlib.sha256()
    for sc_cfg in _equivalence_scenarios():
        combined.update(_result_bytes(run_base(_frames(sc_cfg), PARAMS), tmp_path / "res.txt"))
    assert combined.hexdigest() == EQUIVALENCE_BASE


@pytest.mark.parametrize("name", sorted(ADP_CONFIGS))
def test_preset_adp_digests(tmp_path, name):
    got = [
        hashlib.sha256(
            _result_bytes(run_adp(_frames(cfg), PARAMS, ADP_CONFIGS[name]), tmp_path / "res.txt")
        ).hexdigest()
        for cfg in occlusion_preset()[:3]
    ]
    assert got == PRESET_ADP[name]
