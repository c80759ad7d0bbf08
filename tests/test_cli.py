import json

import pytest

from adptrack.cli import build_parser, main, replay_manifest
from adptrack.motio import MAX_FRAME_INDEX


def test_track_flag_defaults():
    ns = build_parser().parse_args(["track", "--dets", "d", "--features", "f", "--out", "o"])
    assert (ns.alpha, ns.horizon, ns.window, ns.beta) == (0.25, 15, 5, 0.15)
    assert ns.mode == "adp" and ns.variant == "main"
    assert (ns.match_threshold, ns.max_age) == (0.2, 30)


def _synth(tmp_path, name="scene", **extra):
    out_dir = tmp_path / name
    args = [
        "synth", "--out-dir", str(out_dir), "--seed", "21", "--frames", "25",
        "--objects", "4", "--crossings", "1", "--noise", "0.4",
        "--feature-dim", "8", "--drop-prob", "0.7",
    ]
    for k, v in extra.items():
        args += [k, str(v)]
    assert main(args) == 0
    return out_dir


def test_synth_is_deterministic(tmp_path):
    d1 = _synth(tmp_path, "a")
    d2 = _synth(tmp_path, "b")
    for name in ("gt.txt", "det.txt", "features.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    gt_ids = {line.split(",")[1] for line in (d1 / "gt.txt").read_text().splitlines()}
    assert len(gt_ids) == 4  # one per --objects


def test_track_base_noiseless_scene_scores_perfectly(tmp_path):
    scene = tmp_path / "clean"
    assert main([
        "synth", "--out-dir", str(scene), "--seed", "3", "--frames", "20",
        "--objects", "3", "--crossings", "0", "--noise", "0",
        "--feature-dim", "8", "--drop-prob", "0",
    ]) == 0
    res = tmp_path / "res.txt"
    assert main(["track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
                 "--mode", "base", "--out", str(res)]) == 0
    out = tmp_path / "m.csv"
    assert main(["eval", "--gt", str(scene / "gt.txt"), "--res", str(res), "--out", str(out)]) == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert fields[1] == "1.000000" and fields[2] == "1.000000"


def test_track_modes_and_alpha_zero_equivalence(tmp_path):
    scene = _synth(tmp_path)
    base_out = tmp_path / "base.txt"
    adp_out = tmp_path / "adp0.txt"
    common = ["--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv")]
    assert main(["track", *common, "--mode", "base", "--out", str(base_out)]) == 0
    assert main([
        "track", *common, "--mode", "adp", "--alpha", "0", "--horizon", "5",
        "--no-candidate-filter", "--no-crowd", "--out", str(adp_out),
    ]) == 0
    assert base_out.read_bytes() == adp_out.read_bytes()
    assert base_out.stat().st_size > 0


def test_track_adp_defaults_recorded_in_manifest(tmp_path):
    scene = _synth(tmp_path)
    out = tmp_path / "adp.txt"
    assert main([
        "track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
        "--horizon", "6", "--out", str(out),
    ]) == 0
    manifest = json.loads((out.parent / "adp.txt.manifest.json").read_text())
    args = manifest["args"]
    assert args["alpha"] == 0.25
    assert args["window"] == 5
    assert args["beta"] == 0.15
    assert args["horizon"] == 6


def test_eval_csv_schema_and_perfect_scores(tmp_path):
    scene = _synth(tmp_path)
    out_csv = tmp_path / "metrics.csv"
    out_json = tmp_path / "metrics.json"
    assert main([
        "eval", "--gt", str(scene / "gt.txt"), "--res", str(scene / "gt.txt"),
        "--out", str(out_csv), "--json-out", str(out_json), "--name", "selftest",
    ]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "sequence,IDF1,MOTA,FP,FN,IDSW,Frag"
    fields = lines[1].split(",")
    assert fields[0] == "selftest"
    assert float(fields[1]) == 1.0 and float(fields[2]) == 1.0
    payload = json.loads(out_json.read_text())
    assert payload["IDF1"] == 1.0 and payload["IDSW"] == 0


def test_eval_hand_swap_scenario_values(tmp_path):
    gt = tmp_path / "gt.txt"
    res = tmp_path / "res.txt"
    gt_lines, res_lines = [], []
    for frame in (1, 2, 3):
        gt_lines += [f"{frame},1,0,0,10,10,1,1,1", f"{frame},2,100,0,10,10,1,1,1"]
    for frame in (1, 2):
        res_lines += [f"{frame},21,0,0,10,10,1,-1,-1,-1", f"{frame},22,100,0,10,10,1,-1,-1,-1"]
    res_lines += ["3,22,0,0,10,10,1,-1,-1,-1", "3,21,100,0,10,10,1,-1,-1,-1"]
    gt.write_text("\n".join(gt_lines) + "\n")
    res.write_text("\n".join(res_lines) + "\n")
    out = tmp_path / "m.csv"
    assert main(["eval", "--gt", str(gt), "--res", str(res), "--out", str(out), "--name", "swap"]) == 0
    assert out.read_text().splitlines()[1] == "swap,0.666667,0.666667,0,0,2,0"


def test_eval_tracked_result(tmp_path):
    scene = _synth(tmp_path)
    res = tmp_path / "res.txt"
    main(["track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
          "--mode", "base", "--out", str(res)])
    out_csv = tmp_path / "metrics.csv"
    assert main(["eval", "--gt", str(scene / "gt.txt"), "--res", str(res), "--out", str(out_csv)]) == 0
    row = out_csv.read_text().splitlines()[1].split(",")
    assert 0.0 <= float(row[1]) <= 1.0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["track"])  # missing required flags
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 1


def test_data_error_exit_code(tmp_path):
    missing = tmp_path / "nope.txt"
    assert main(["eval", "--gt", str(missing), "--res", str(missing), "--out", str(tmp_path / "m.csv")]) == 2

    empty_gt = tmp_path / "empty_gt.txt"
    empty_gt.write_text("")
    res = tmp_path / "res.txt"
    res.write_text("1,1,0,0,10,10,1,-1,-1,-1\n")
    assert main(["eval", "--gt", str(empty_gt), "--res", str(res), "--out", str(tmp_path / "m2.csv")]) == 2

    bad = tmp_path / "bad.txt"
    bad.write_text("1,-1,10,20,-5,40,0.9\n")
    feats = tmp_path / "f.csv"
    feats.write_text("frame,det,dim=2\n")
    assert main(["track", "--dets", str(bad), "--features", str(feats), "--out", str(tmp_path / "o.txt")]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_coordinates_name_file_and_line(tmp_path, capsys, value):
    feats = tmp_path / "f.csv"
    feats.write_text("frame,det,dim=2\n1,0,1,0\n")
    dets = tmp_path / "det.txt"
    dets.write_text(f"1,-1,{value},20,5,40,0.9\n")
    assert main(["track", "--dets", str(dets), "--features", str(feats), "--out", str(tmp_path / "o.txt")]) == 2
    assert f"data error: {dets}:1: " in capsys.readouterr().err

    gt = tmp_path / "gt.txt"
    gt.write_text(f"1,1,0,{value},10,10,1,1,1\n")
    res = tmp_path / "res.txt"
    res.write_text("1,1,0,0,10,10,1,-1,-1,-1\n")
    assert main(["eval", "--gt", str(gt), "--res", str(res), "--out", str(tmp_path / "m.csv")]) == 2
    assert f"data error: {gt}:1: " in capsys.readouterr().err


def test_box_area_underflow_names_file_and_line(tmp_path, capsys):
    feats = tmp_path / "f.csv"
    feats.write_text("frame,det,dim=2\n1,0,1,0\n")
    dets = tmp_path / "det.txt"
    dets.write_text("1,-1,0,0,1e-200,2e-200,0.9\n")
    assert main(["track", "--dets", str(dets), "--features", str(feats), "--out", str(tmp_path / "o.txt")]) == 2
    assert f"data error: {dets}:1: box area" in capsys.readouterr().err

    gt = tmp_path / "gt.txt"
    gt.write_text("1,1,0,0,1e-200,1e-200,1,1,1\n")
    res = tmp_path / "res.txt"
    res.write_text("1,1,0,0,1e-200,2e-200,1,-1,-1,-1\n")
    assert main(["eval", "--gt", str(gt), "--res", str(res), "--out", str(tmp_path / "m.csv")]) == 2
    assert f"data error: {gt}:1: box area" in capsys.readouterr().err
    gt.write_text("1,1,0,0,10,10,1,1,1\n")
    assert main(["eval", "--gt", str(gt), "--res", str(res), "--out", str(tmp_path / "m.csv")]) == 2
    assert f"data error: {res}:1: box area" in capsys.readouterr().err


@pytest.mark.parametrize("frame", [MAX_FRAME_INDEX + 1, 10**9])
def test_frame_index_past_limit_names_file_and_line(tmp_path, capsys, frame):
    feats = tmp_path / "f.csv"
    feats.write_text("frame,det,dim=2\n1,0,1,0\n")
    dets = tmp_path / "det.txt"
    dets.write_text(f"1,-1,10,20,5,40,0.9\n{frame},-1,10,20,5,40,0.9\n")
    assert main(["track", "--dets", str(dets), "--features", str(feats), "--out", str(tmp_path / "o.txt")]) == 2
    assert f"data error: {dets}:2: frame index must lie in [1, {MAX_FRAME_INDEX}], got {frame}" in capsys.readouterr().err


def test_non_utf8_input_names_file_and_line(tmp_path, capsys):
    det_row = b"1,-1,10,20,5,40,0.9\n"
    dets = tmp_path / "det.txt"
    dets.write_bytes(det_row)
    feats = tmp_path / "f.csv"
    feats.write_bytes(b"frame,det,dim=2\r\n1,0,1,0\r\n1,1,\xff,0\r\n")
    out = str(tmp_path / "o.txt")
    assert main(["track", "--dets", str(dets), "--features", str(feats), "--out", out]) == 2
    assert f"data error: {feats}:3: " in capsys.readouterr().err

    dets.write_bytes(det_row * 2 + b"1,-1,\xff\n")
    assert main(["track", "--dets", str(dets), "--features", str(feats), "--out", out]) == 2
    assert f"data error: {dets}:3: " in capsys.readouterr().err

    gt = tmp_path / "gt.txt"
    gt.write_bytes(b"1,1,0,0,10,10,1,1,1\n1,2,0,0,10,10,1,1,\xff\n")
    res = tmp_path / "res.txt"
    res.write_text("1,1,0,0,10,10,1,-1,-1,-1\n")
    assert main(["eval", "--gt", str(gt), "--res", str(res), "--out", str(tmp_path / "m.csv")]) == 2
    assert f"data error: {gt}:2: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [["--seed", "4"], ["--frames", "30"], ["--objects", "3"], ["--crossings", "1"], ["--noise", "0.5"],
     ["--feature-dim", "8"], ["--drop-prob", "0.5"], ["--feature-noise", "0.5"], ["--occlusion-iou", "0.5"],
     ["--no-mix"]],
    ids=lambda flag: flag[0],
)
def test_synth_preset_rejects_explicit_flags(tmp_path, flag):
    out_dir = tmp_path / "p"
    assert main(["synth", "--out-dir", str(out_dir), "--preset", "occlusion-20", *flag]) == 2
    assert not out_dir.exists()


def test_sweep_schema(tmp_path):
    scene = _synth(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--param", "horizon", "--values", "1,3",
        "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
        "--gt", str(scene / "gt.txt"), "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,value,IDF1,MOTA,FP,FN,IDSW,Frag,runtime_s"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "horizon"
        assert float(fields[-1]) > 0.0


def test_sweep_alpha_zero_row_matches_base_metrics(tmp_path):
    scene = _synth(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--param", "alpha", "--values", "0",
        "--no-candidate-filter", "--no-crowd", "--horizon", "4",
        "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
        "--gt", str(scene / "gt.txt"), "--out", str(out),
    ]) == 0
    res = tmp_path / "base_res.txt"
    main(["track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
          "--mode", "base", "--out", str(res)])
    metrics_csv = tmp_path / "m.csv"
    main(["eval", "--gt", str(scene / "gt.txt"), "--res", str(res), "--out", str(metrics_csv)])
    sweep_fields = out.read_text().splitlines()[1].split(",")
    eval_fields = metrics_csv.read_text().splitlines()[1].split(",")
    assert sweep_fields[2:8] == eval_fields[1:7]


def test_sweep_rejects_unknown_param(tmp_path):
    scene = _synth(tmp_path)
    assert main([
        "sweep", "--param", "gamma", "--values", "1",
        "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
        "--gt", str(scene / "gt.txt"), "--out", str(tmp_path / "s.csv"),
    ]) == 2


def test_sweep_rejects_non_finite_value(tmp_path, capsys):
    scene = _synth(tmp_path)
    out = tmp_path / "s.csv"
    assert main([
        "sweep", "--param", "beta", "--values", "nan",
        "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
        "--gt", str(scene / "gt.txt"), "--out", str(out),
    ]) == 2
    assert "beta must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_track_rejects_non_finite_config(tmp_path, capsys):
    scene = _synth(tmp_path)
    out = tmp_path / "res.txt"
    assert main([
        "track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
        "--cand-iou", "nan", "--out", str(out),
    ]) == 2
    assert "cand_iou must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_mda_oracle_reports(tmp_path):
    out = tmp_path / "mda.txt"
    assert main(["mda-oracle", "--m", "3", "--n-layers", "3", "--instances", "5",
                 "--seed", "11", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "instance,exact,avs,gap"
    for line in lines[1:6]:
        gap = float(line.split(",")[3])
        assert abs(gap) <= 1e-9

    out2 = tmp_path / "mda_bonus.txt"
    assert main(["mda-oracle", "--m", "3", "--n-layers", "3", "--instances", "5",
                 "--seed", "11", "--bonus", "--out", str(out2)]) == 0
    gaps = [float(l.split(",")[3]) for l in out2.read_text().splitlines()[1:6]]
    assert all(g >= -1e-9 for g in gaps)
    assert any(g > 1e-6 for g in gaps)

    assert main(["mda-oracle", "--m", "5", "--n-layers", "3", "--instances", "1", "--seed", "1"]) == 2

    rerun = tmp_path / "mda_rerun.txt"
    assert main(["mda-oracle", "--m", "3", "--n-layers", "3", "--instances", "5",
                 "--seed", "11", "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == out.read_bytes()


def test_manifest_replay_reproduces_bytes(tmp_path):
    scene = _synth(tmp_path)
    out = tmp_path / "res.txt"
    assert main([
        "track", "--dets", str(scene / "det.txt"), "--features", str(scene / "features.csv"),
        "--mode", "adp", "--horizon", "4", "--out", str(out),
    ]) == 0
    original = out.read_bytes()
    manifest_path = tmp_path / "res.txt.manifest.json"
    assert manifest_path.exists()
    out.unlink()
    assert replay_manifest(manifest_path) == 0
    assert out.read_bytes() == original


def test_synth_preset_emits_20_scenarios(tmp_path):
    out_dir = tmp_path / "preset"
    assert main(["synth", "--out-dir", str(out_dir), "--preset", "occlusion-20"]) == 0
    dirs = sorted(p.name for p in out_dir.iterdir() if p.is_dir())
    assert len(dirs) == 20
    assert dirs[0] == "occ_00" and dirs[-1] == "occ_19"
    for d in dirs:
        for name in ("gt.txt", "det.txt", "features.csv"):
            assert (out_dir / d / name).stat().st_size > 0
