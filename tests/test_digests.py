"""Golden digests of the result files, and pinned evaluation reports.

Each digest test pins the sha256 of `write_results` output. Result rows hold
only input detections, so a digest pins the association decisions of a run.
A changed digest means some association flipped: find which one and why
before re-pinning anything. The report tests pin every `MetricsReport` field
that `evaluate` gives for fixed runs, so a change to the CLEAR or IDF1
matchings shows even where the result files stay the same.

The runs behind `EQUIVALENCE_BASE` and `PRESET_ADP["main"]` are session
fixtures of `conftest.py` that the acceptance tests on those scenes read too,
so each of those runs is made once.
"""

import contextlib
import hashlib
import io
from dataclasses import replace

import pytest

from conftest import count_calls, frame_of, rows_to_boxes

from adptrack import rollout
from adptrack.base_tracker import TrackerParams
from adptrack.cli import main
from adptrack.core import BoundingBox
from adptrack.metrics import evaluate
from adptrack.motio import read_gt, write_detections, write_features, write_gt, write_results
from adptrack.rollout import AdpConfig, Variant, run as run_adp, simulate_tentative
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

# sha256 over the base result files of the 100 scenes of `conftest.equivalence_scenarios`, in order.
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
    # All 20 preset scenes: adp main at horizon 10 is the acceptance setting.
    "main": [
        "0e16a8d5aadfea2701b7bc3d7b9f05ede11d8b28f41af4d76a85560d68349807",
        "ed3fbb6bd7de7f81c87203b3f84c278ebbf57f3a68cd566546b55e2ef82baec9",
        "3c7025234be2f6513042eda9bf605dcc29257e3ba978c83375c96d433985dd12",
        "84a5e7cf212cbc43c0d4226b61cb4a41ab08778aa7ae7b275780a10d20fce28a",
        "0ceccbe0539c06caa96f7281a00e33a569dcc94bbb6937710c70e2379476b592",
        "50b168c2c9e14df54dfd0603418e91acc4606da85d1c32b3e4922274a12b6ce1",
        "5b6da4c5d8b417fc312d4af13d7436046258c4e47dd3295e1c049f3fc50bfa00",
        "60e8de359a21e3381241f26c147d68f70bfa42b4a2d5a297ab336e0f4c818379",
        "49510d0a6e9f0a588ef8828c25852cc2cc4e5463051fb3e5b023dd902ce1e362",
        "d9a8c13fc648597fcdd2baa8b9822b35b14a32d3ebafdfb1433c2e41119f9605",
        "65e902c56073169b0d043bdaa5562cd94a200b34b886be00349e5a5b012ade71",
        "d0baae4925be137b8414bd211ad127481ada2ee6a3537caad1b41f93ee660bc4",
        "6902fef887b092177789e06e4f5250867b20291b148f276d2ea9d0a1566d2485",
        "3b8f0cebc6a2d78ff01dd31897d7a49df31f71b41fd96b93b3e0a1f83a0e4c79",
        "d55beb0c788e767693d4f1f256e1ac86976f2bd251c42cddc8c6450fcee77da5",
        "e73c70fd5547238de6131ea836bbfb9bb763ed355c6ab6cd74b78f4d8d707ef2",
        "7c8f23a93fa8e5af4e6a19179e69647d9b04b09645c9156fea8171790401ac4e",
        "ea192f285b56f18bdf48ffcc38cede3be94feef7abf051d1c4e52b5c376fcc5d",
        "a4a703642d736e9c0911e7cebd8c1319e50e15e9ec569bca961db9afc87895d4",
        "7b08e4ccaf2089e4d7e50945d0b8d5fba7c168aac6696df45203ea7b5bd18b2f",
    ],
    # All 20 preset scenes: main at horizon 10 whose walk-IOU threshold keeps every entry, pinned while main still
    # walked there; it differs from "main" on scenes 1, 8 and 10.
    "main-iou0": [
        "0e16a8d5aadfea2701b7bc3d7b9f05ede11d8b28f41af4d76a85560d68349807",
        "ebf86f85866650dcafe96317d84fef5a3482fe1d04fc2ca8f0fee9b28e9a6abc",
        "3c7025234be2f6513042eda9bf605dcc29257e3ba978c83375c96d433985dd12",
        "84a5e7cf212cbc43c0d4226b61cb4a41ab08778aa7ae7b275780a10d20fce28a",
        "0ceccbe0539c06caa96f7281a00e33a569dcc94bbb6937710c70e2379476b592",
        "50b168c2c9e14df54dfd0603418e91acc4606da85d1c32b3e4922274a12b6ce1",
        "5b6da4c5d8b417fc312d4af13d7436046258c4e47dd3295e1c049f3fc50bfa00",
        "60e8de359a21e3381241f26c147d68f70bfa42b4a2d5a297ab336e0f4c818379",
        "b69628fae78df9a7321d6394b3cb624ad0627a12f0d90f3e7fb74476dd70122f",
        "d9a8c13fc648597fcdd2baa8b9822b35b14a32d3ebafdfb1433c2e41119f9605",
        "6bc3e3d92124aa2b646ac3f71a7b366fafdfad757cd656b193efc86c476bc417",
        "d0baae4925be137b8414bd211ad127481ada2ee6a3537caad1b41f93ee660bc4",
        "6902fef887b092177789e06e4f5250867b20291b148f276d2ea9d0a1566d2485",
        "3b8f0cebc6a2d78ff01dd31897d7a49df31f71b41fd96b93b3e0a1f83a0e4c79",
        "d55beb0c788e767693d4f1f256e1ac86976f2bd251c42cddc8c6450fcee77da5",
        "e73c70fd5547238de6131ea836bbfb9bb763ed355c6ab6cd74b78f4d8d707ef2",
        "7c8f23a93fa8e5af4e6a19179e69647d9b04b09645c9156fea8171790401ac4e",
        "ea192f285b56f18bdf48ffcc38cede3be94feef7abf051d1c4e52b5c376fcc5d",
        "a4a703642d736e9c0911e7cebd8c1319e50e15e9ec569bca961db9afc87895d4",
        "7b08e4ccaf2089e4d7e50945d0b8d5fba7c168aac6696df45203ea7b5bd18b2f",
    ],
    "main-nofilter": [
        "0e16a8d5aadfea2701b7bc3d7b9f05ede11d8b28f41af4d76a85560d68349807",
        "ebf86f85866650dcafe96317d84fef5a3482fe1d04fc2ca8f0fee9b28e9a6abc",
        "3c7025234be2f6513042eda9bf605dcc29257e3ba978c83375c96d433985dd12",
    ],
}

# (idf1, mota, fp, fn, idsw, frag, gt_total) of each preset scene's base run.
PRESET_BASE_REPORTS = [
    (0.7015098722415796, 0.9837962962962963, 0, 3, 4, 3, 432),
    (0.7116279069767442, 0.9791666666666666, 0, 4, 5, 3, 432),
    (0.7023255813953488, 0.9814814814814815, 0, 4, 4, 2, 432),
    (0.7054714784633295, 0.9768518518518519, 0, 5, 5, 3, 432),
    (0.7226107226107226, 0.9768518518518519, 0, 6, 4, 2, 432),
    (0.7186046511627907, 0.9814814814814815, 0, 4, 4, 2, 432),
    (0.7832167832167832, 0.9791666666666666, 0, 6, 3, 2, 432),
    (0.7660069848661234, 0.9814814814814815, 0, 5, 3, 2, 432),
    (0.7916181606519208, 0.9814814814814815, 0, 5, 3, 2, 432),
    (0.6852497096399536, 0.9837962962962963, 0, 3, 4, 2, 432),
    (0.6991869918699187, 0.9837962962962963, 0, 3, 4, 2, 432),
    (0.7683352735739232, 0.9814814814814815, 0, 5, 3, 2, 432),
    (0.775842044134727, 0.9861111111111112, 0, 3, 3, 2, 432),
    (0.7846332945285215, 0.9814814814814815, 0, 5, 3, 2, 432),
    (0.6736353077816493, 0.9814814814814815, 0, 3, 5, 2, 432),
    (0.7735191637630662, 0.9861111111111112, 0, 3, 3, 2, 432),
    (0.8651162790697674, 0.9861111111111112, 0, 4, 2, 2, 432),
    (0.672093023255814, 0.9814814814814815, 0, 4, 4, 2, 432),
    (0.7869615832363213, 0.9814814814814815, 0, 5, 3, 2, 432),
    (0.7156177156177156, 0.9768518518518519, 0, 6, 4, 2, 432),
]

# The same fields for a crowd scene (20 identities, 6 crossing pairs, seed 9003)
# written to files, tracked in base mode and read back, as `perfbench/run.py`
# does for its crowd workloads. Its IDF1 matching is a 20 x ~630 count matrix.
CROWD_BASE_REPORT = (0.4, 0.46597222222222223, 0, 5, 764, 5, 1440)

# adp main's preset runs come from the `preset_adp_main_runs` fixture.
ADP_CONFIGS = {
    "f1": AdpConfig(horizon=10, variant=Variant.F1),
    "f2": AdpConfig(horizon=10, variant=Variant.F2),
    "f3": AdpConfig(horizon=10, variant=Variant.F3),
    "main-iou0": AdpConfig(horizon=10, cand_iou=0.0),
    "main-nofilter": AdpConfig(horizon=10, cand_iou=0.0, cand_app=-1.0),
}


def _result_bytes(seq, rows, path):
    write_results(path, seq, rows)
    return path.read_bytes()


def test_preset_base_digests(tmp_path, preset_base_runs):
    got = [hashlib.sha256(_result_bytes(sc.det_frames, rows, tmp_path / "res.txt")).hexdigest() for sc, rows in preset_base_runs]
    assert got == PRESET_BASE


def test_equivalence_base_digest(equivalence_runs):
    runs, _ = equivalence_runs
    assert hashlib.sha256(b"".join(base for base, _ in runs)).hexdigest() == EQUIVALENCE_BASE


@pytest.mark.parametrize("name", sorted(PRESET_ADP))
def test_preset_adp_digests(tmp_path, request, name):
    if name == "main":
        runs = [(sc.det_frames, rows) for sc, rows in request.getfixturevalue("preset_adp_main_runs")[0]]
    else:
        seqs = [generate(cfg).det_frames for cfg in occlusion_preset()[: len(PRESET_ADP[name])]]
        runs = [(seq, run_adp(seq, PARAMS, ADP_CONFIGS[name])) for seq in seqs]
    got = [hashlib.sha256(_result_bytes(seq, rows, tmp_path / "res.txt")).hexdigest() for seq, rows in runs]
    assert got == PRESET_ADP[name]


# sha256 over every simulation that adp main at horizon 10 runs on a scene:
# the frame and box of each entry of each tentative of `simulate_tentative`
# on every window of 11 frames. The 20 preset scenes, then the crowd scene of
# `test_crowd_base_report`. These pin the simulated base tracker directly.
TENTATIVES = [
    "3c9be953a0c7daa255b9c413428cfe756d79f1c1d9f9d15807f4f00bee598f84",
    "1d6c16869c238539408e103c30cd01a7efceeb0743b3ad875f8f7c0b51768e3d",
    "8eaf65692af5f7991e302ac5901d066184db4e81ce37136cd3918eb6aae0ec03",
    "089e6923e0aa602389c4f127783ffeba4762e26b2d7f028dc0d1d57c590e44be",
    "342d15d2fb1378a7e8b108fe91e087e2d8b3e025f709298b18553848e57ea43e",
    "2e7bf02e7754eee9742cd07c37086fad65c1a2796c5ed63552252c3291672610",
    "2fbc20af9edef882a7b321913cd19467a59e86eeecb0fe3e686b321e1ce254ed",
    "e043b484f06b6b1d340cf0331f9228e64c12a3564aec649f987c8a342e5edeb9",
    "91c696f11c933b0bf3ed1138190c62bd3ee639dbe0ab3ef3c12c1e2d43d26a6a",
    "a37eb8d3d30ccd713119a0bc907e906fe2ae100590e75e5a82228716ad07c9e1",
    "ba624fd9a4f62a18fccad2fc1269c2c21e5d4fa8eb991d53a78539e5b18b811e",
    "593ac60fa9aee1a690cf18792f7ea78818fead307f1ca480b38b85fd76c9cb92",
    "dc06c101c80d643b5196d3f09503ed5f1e108c8ad022f76cc81e7893493898a8",
    "87f31ea7651a61f2b31453747c566e0648386fe1413fe4c7fd77f9ae4988d9a4",
    "fb1f05a94f9f526ff58ff9fefca31a5bbddbed2d7bdc477b40515ef4178d2523",
    "c6ffdfba6203fdf90a062efe50d16bd3844e5f48b0394902656706b6cdf5669c",
    "68a17a9bc1638f464fa9a44f15d467e94e3fcf60d8a4189661d4d76338b5ef33",
    "896b4a7ed1cf6cf4d2d626388fad663a72eab1c35872f34cf9e0709a23c48c53",
    "f13d6c8e9593870c68bc4b02dabda6d979ec86388ca745157b0a25f1f304c44e",
    "958953fee33a6d84db35b19aac9bf44aabefda156bb017b5aeed6c172ff78179",
    "9b8a591721324f0f96dd4b059b9b9ab48aee062d00ff2fef7240658726bb5ebd",
]

TENTATIVE_SCENES = [*occlusion_preset(), replace(occlusion_preset()[0], identities=20, crossings=6, seed=9003)]


def _tentatives_digest(seq):
    """Each tentative's sequence rows mapped back to (frame, box) entries, as they were pinned."""
    digest = hashlib.sha256()
    for f in range(1, seq.last + 1):
        for tent in simulate_tentative(seq, range(f, min(f + 10, seq.last) + 1), PARAMS):
            entries = [(int(frame_of(seq, row)), BoundingBox(*seq.boxes[row])) for row in tent[tent >= 0]]
            digest.update(repr(entries).encode() + b"\n")
    return digest.hexdigest()


def test_tentative_digests():
    assert [_tentatives_digest(generate(cfg).det_frames) for cfg in TENTATIVE_SCENES] == TENTATIVES


def _report_fields(report):
    return (report.idf1, report.mota, report.fp, report.fn, report.idsw, report.frag, report.gt_total)


def test_preset_base_reports(preset_base_runs):
    got = [_report_fields(evaluate(scenario.gt, rows_to_boxes(scenario.det_frames, rows))) for scenario, rows in preset_base_runs]
    assert got == PRESET_BASE_REPORTS


def test_crowd_base_report(tmp_path):
    scenario = generate(replace(occlusion_preset()[0], identities=20, crossings=6, seed=9003))
    gt, dets, feats, res = (tmp_path / name for name in ("gt.txt", "det.txt", "features.csv", "res.txt"))
    write_gt(gt, list(scenario.gt))
    write_detections(dets, scenario.det_frames)
    write_features(feats, scenario.det_frames)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["track", "--dets", str(dets), "--features", str(feats), "--out", str(res), "--mode", "base"]) == 0
    assert _report_fields(evaluate(read_gt(gt), read_gt(res))) == CROWD_BASE_REPORT


# sha256 of f2's result file at horizon 10 on the crowd scene of seed 9006, with the crowd fallback at its default
# and switched off. Of the 20 preset scenes and the crowd scenes of seeds 9003 and 9006, it is the one whose rows the
# fallback changes. The "no-fallback" pin was made while a boolean switch, not crowd_ratio, turned it off.
CROWD_F2 = {
    "default": "4525f64447f3d41bac90511f4174a2273cbf3009800777cdffc381bd165ed053",
    "no-fallback": "0a970f4940e11b8eb35bb8b5dbb39ab6767859508e7388d069f01afa2f9a7f8c",
}
CROWD_F2_CONFIGS = {
    "default": AdpConfig(horizon=10, variant=Variant.F2),
    "no-fallback": AdpConfig(horizon=10, variant=Variant.F2, crowd_ratio=2.0),
}


def test_crowd_f2_digests(tmp_path):
    seq = generate(replace(occlusion_preset()[0], identities=20, crossings=6, seed=9006)).det_frames
    got = {name: hashlib.sha256(_result_bytes(seq, run_adp(seq, PARAMS, cfg), tmp_path / "res.txt")).hexdigest()
           for name, cfg in CROWD_F2_CONFIGS.items()}
    assert got == CROWD_F2


# sha256 of every file the commands write for one small scene, run from a
# fixed working directory with relative paths so the manifests are stable.
# Sweep CSVs lose their wall-time `runtime_s` column before hashing.
CLI_OUTPUTS = {
    "adp.csv": "a2e8abbb63a3208c180ce7182d0fd642360fa5e08efde541c7efd253f565e46b",
    "adp.csv.manifest.json": "43410a63d345a568161d5ff3333ea397edd876a67856bd8231b9924ea6393d20",
    "adp.json": "bb23ad790cbce1968fe2e19c8e32e35d79ceeace813494006e7a4dd18cb1e9bd",
    "adp.txt": "841c3d9f155869471b361f13d58fd0e39d0fec8ad0c656de34b336ae7f135607",
    "adp.txt.manifest.json": "f523fc1ffdb014590c33bce5f16279cfdc87baeec33858b9880f87e249fa296c",
    "base.txt": "452858c78fdf22a6e28ace51fcf4c4372caa74c270419955df14cb5a9460e10c",
    "base.txt.manifest.json": "378921ed612b8f9dd030a23967a04f2d3e9416c80811fc422b74bbc205d4ec5d",
    "scene/det.txt": "fcf4efec5659ba31918d013790c89e5f8a37b3fcfd9770e190e40b2c5478435a",
    "scene/features.csv": "295bfec8013056628bb93631bd780d3bb8e8f2286aefbf722b0de481cc8947d9",
    "scene/gt.txt": "aa0e191cf46bca9047767c6789f38d0a3108bc07b44e03c6a550bc94b50386a9",
    "scene/manifest.json": "89d8d5f6da99c709edd1126ebe3d8e1d631c268f10d6197b553587ab42c6dc4e",
    "sweep.csv": "e6754598fa50b8d14c9320d68744b5aedcbfc0b75d997cabafeb4cfc897fba01",
    "sweep.csv.manifest.json": "a6fd5eb5b42035c23590bf120162b92961ca4417eee4488a39148c135b20fe37",
}

CLI_RUNS = [
    ["synth", "--out-dir", "scene", "--seed", "21", "--frames", "25", "--objects", "4", "--crossings", "1",
     "--noise", "0.4", "--feature-dim", "8", "--drop-prob", "0.7", "--feature-noise", "0.1",
     "--occlusion-iou", "0.3", "--no-mix"],
    ["track", "--dets", "scene/det.txt", "--features", "scene/features.csv", "--mode", "base", "--out", "base.txt"],
    ["track", "--dets", "scene/det.txt", "--features", "scene/features.csv", "--horizon", "6", "--out", "adp.txt"],
    ["eval", "--gt", "scene/gt.txt", "--res", "adp.txt", "--out", "adp.csv", "--json-out", "adp.json"],
    ["sweep", "--param", "horizon", "--values", "3,5", "--dets", "scene/det.txt", "--features", "scene/features.csv",
     "--gt", "scene/gt.txt", "--out", "sweep.csv"],
]


def test_cli_output_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in CLI_RUNS:
            assert main(argv) == 0
    got = {}
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "sweep.csv":
            data = b"".join(line.rsplit(b",", 1)[0] + b"\n" for line in data.splitlines())
        got[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(data).hexdigest()
    assert got == CLI_OUTPUTS


# sha256 of the result files of preset scene 0 made sparse through its det and feature files, each file line's
# frame moved by `SPARSE_MOVES`: every row 40 frames later ("shifted"), or 40 empty frames, more than `max_age`,
# after frame 36 ("gap"). Pinned before runs jumped over frames without rows, which must change no result.
SPARSE = {
    ("gap", "base"): "610a993f4cb8ec5db3edac681c10ff5e113d5b36e955b10ec5763dcbd5b76763",
    ("gap", "f2"): "8f0ea7328b20a599085b1d2d5f3a15463a10b80f7a56173e85f69d2a2d1f78c0",
    ("gap", "main"): "7b929e5287dd866652e6feec52e56ee2ea41130c7c01abeee3bca5289678e73d",
    ("shifted", "base"): "a9f2302b5d0162beadb6da0fb71dbbba2d9f05d987b9245d689607faccaec4a0",
    ("shifted", "f2"): "7766e1118beaab17899d7680327e53f493a42611974c5e1560e957b913da7f97",
    ("shifted", "main"): "b828a4f57b7a542b3fd21a6c4b1212d8f5351115a7b3dc771f54361d5ca960b2",
}

SPARSE_MOVES = {"shifted": lambda f: f + 40, "gap": lambda f: f + 40 if f > 36 else f}
SPARSE_MODES = {
    "base": ["--mode", "base"],
    "main": ["--mode", "adp", "--horizon", "10"],
    "f2": ["--mode", "adp", "--horizon", "10", "--variant", "f2"],
}


def _track_sparse_scene(tmp_path, move, mode):
    """The result file of `mode` on preset scene 0 with its det and feature file lines' frames moved by `move`."""
    scenario = generate(occlusion_preset()[0])
    dets, feats, res = (tmp_path / name for name in ("det.txt", "features.csv", "res.txt"))
    write_detections(dets, scenario.det_frames)
    write_features(feats, scenario.det_frames)
    for path, skip in ((dets, 0), (feats, 1)):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        moved = [f"{SPARSE_MOVES[move](int(frame))},{rest}" for frame, rest in (line.split(",", 1) for line in lines[skip:])]
        path.write_text("".join(lines[:skip] + moved), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["track", "--dets", str(dets), "--features", str(feats), "--out", str(res), *SPARSE_MODES[mode]]) == 0
    return res.read_bytes()


@pytest.mark.parametrize("move, mode", sorted(SPARSE))
def test_sparse_scene_digests(tmp_path, move, mode):
    assert hashlib.sha256(_track_sparse_scene(tmp_path, move, mode)).hexdigest() == SPARSE[move, mode]


def test_empty_target_frames_simulate_nothing(tmp_path, monkeypatch):
    """adp main on the gap scene matches 31 target frames without rows while its tracks age out. They simulate
    nothing: of the 955 simulated steps the run took when each of their windows was simulated, 645 are left."""
    steps = count_calls(monkeypatch, rollout, "adp_step")
    simulations = count_calls(monkeypatch, rollout, "simulate_tentative")
    _track_sparse_scene(tmp_path, "gap", "main")
    assert sum(not state.seq.confident(window[0])[0].size for state, window, _ in steps) == 31
    assert all(seq.confident(window[0])[0].size for seq, window, _ in simulations)
    assert sum(len(window) - 1 for _, window, _ in simulations) == 645
