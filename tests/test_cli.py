import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from sfinet import cli
from sfinet import config as C
from sfinet import data as D
from sfinet import tensor as T
from sfinet.export import export_adjacency, export_stage_maps
from sfinet.serialization import load_checkpoint, load_tensor, save_checkpoint, save_tensor
from sfinet.train import evaluate

TINY = ["--preset", "tiny"]
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


def run_cli(args):
    return cli.main([str(a) for a in args])


@pytest.mark.parametrize("key, value", [
    ("sir.heads", "0"), ("sir.channels", "0"), ("backbone.in_channels", "0"),
    ("backbone.channels", "0,6"), ("data.patch_size", "-1"), ("data.patch_size", "0"),
    ("train.lr", "nan"), ("train.momentum", "nan"), ("train.xi", "inf"),
    ("train.weight_decay", "-inf"), ("sir.adjacency_init", "nan"), ("sir.adjacency_init", "-inf"),
    ("data.noise_amplitude", "nan"), ("data.signal_amplitude", "inf"), ("ambiguity.beta_h", "inf"),
    ("train.seed", "-1"),
])
def test_out_of_domain_value_exits_2_naming_the_key(tmp_path, capsys, key, value):
    rc = run_cli(["train", *TINY, "--set", f"{key}={value}", "--out", tmp_path / "run", "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err


class TestTrainCommand:
    def test_missing_config_exits_2_naming_path(self, capsys):
        rc = run_cli(["train", "--config", "/nonexistent/conf.txt"])
        assert rc == 2
        assert "/nonexistent/conf.txt" in capsys.readouterr().err

    def test_repeated_config_key_exits_2_naming_it(self, tmp_path, capsys):
        conf = tmp_path / "run.txt"
        conf.write_text("train.lr = 0.05\ntrain.lr = 0.5\n")
        rc = run_cli(["train", "--config", conf, "--out", tmp_path / "run", "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {conf}:2: config key 'train.lr' repeats line 1\n"
        assert not (tmp_path / "run").exists()

    # ceil(0.75 * 3) = 3 leaves no test image; 0 and -2 leave no training image
    @pytest.mark.parametrize("samples", [3, 0, -2])
    def test_empty_data_split_exits_2(self, tmp_path, capsys, samples):
        rc = run_cli(["train", *TINY, "--set", f"data.samples_per_class={samples}",
                      "--out", tmp_path / "run", "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: data: samples_per_class={samples} ")
        assert "each split needs at least one" in err and "Traceback" not in err

    def test_prints_one_epoch_line_per_epoch(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["train", *TINY, "--set", "train.epochs=2", "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [r.split(",") for r in (out / "metrics.csv").read_text().splitlines()[1:]]
        assert [line.split()[:2] for line in lines[:2]] == [["epoch", "1"], ["epoch", "2"]]
        for line, train_row, test_row in zip(lines, rows[::2], rows[1::2]):
            assert f"train loss {float(train_row[2]):.4f} acc {float(train_row[3]):.3f}" in line
            assert f"test loss {float(test_row[2]):.4f} acc {float(test_row[3]):.3f}" in line
        assert lines[2].startswith("done: 2 epochs") and lines[3] == f"outputs in {out}"

    def test_writes_metrics_checkpoint_snapshot(self, tmp_path):
        out = tmp_path / "run"
        rc = run_cli(["train", *TINY, "--out", out, "--quiet"])
        assert rc == 0
        assert (out / "metrics.csv").exists()
        assert (out / "checkpoint.csv").exists()
        assert (out / "config_resolved.txt").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        epochs = 2  # tiny preset
        assert len(lines) - 1 >= epochs

    def test_failed_snapshot_write_keeps_the_previous_snapshot(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()
        (out / "config_resolved.txt").write_text("previous\n")

        def fail(cfg):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli.C, "resolved_text", fail)
        with pytest.raises(RuntimeError, match="injected"):
            run_cli(["train", *TINY, "--out", out, "--quiet"])
        assert (out / "config_resolved.txt").read_text() == "previous\n"
        assert os.listdir(out) == ["config_resolved.txt"]

    def test_failed_metrics_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        out.mkdir()
        (out / "metrics.csv").write_text("previous\n")

        def fail(rows):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "metrics_csv", fail)
        with pytest.raises(RuntimeError, match="injected"):
            run_cli(["train", *TINY, "--set", "train.epochs=1", "--out", out, "--quiet"])
        assert (out / "metrics.csv").read_text() == "previous\n"
        assert sorted(os.listdir(out)) == ["config_resolved.txt", "metrics.csv"]

    def test_aborted_run_leaves_only_the_resolved_config(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = run_cli(["train", *TINY, "--set", "train.lr=1e300", "--out", out, "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite value at epoch 1, step 1: op 'semantic_reassembly'")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert os.listdir(out) == ["config_resolved.txt"]

    def test_outputs_confined_to_out_dir(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "sink"
        rc = run_cli(["train", *TINY, "--out", out, "--quiet"])
        assert rc == 0
        assert os.listdir(workdir) == []

    def test_lr_zero_override_freezes_training(self, tmp_path):
        out = tmp_path / "frozen"
        rc = run_cli(["train", *TINY, "--set", "train.lr=0", "--set", "train.epochs=3",
                      "--out", out, "--quiet"])
        assert rc == 0
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        test_accs = {r.split(",")[3] for r in rows if r.split(",")[1] == "test"}
        assert len(test_accs) == 1

    def test_identical_runs_bitwise_identical_metrics(self, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run_cli(["train", *TINY, "--out", out, "--quiet"]) == 0
        a = (outs[0] / "metrics.csv").read_bytes()
        b = (outs[1] / "metrics.csv").read_bytes()
        assert a == b

    def test_resolved_snapshot_reproduces_run(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli(["train", *TINY, "--out", first, "--quiet"]) == 0
        second = tmp_path / "second"
        rc = run_cli(["train", "--config", first / "config_resolved.txt",
                      "--out", second, "--quiet"])
        assert rc == 0
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()

    def test_blas_thread_count_leaves_outputs_unchanged(self, tmp_path):
        # OpenBLAS reads its thread count when numpy loads: one process per setting
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        outputs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads}"
            subprocess.run([sys.executable, "-m", "sfinet.cli", "train", *TINY,
                            "--set", "train.epochs=3", "--out", str(out), "--quiet"],
                           env=env, check=True, capture_output=True)
            outputs.append([(out / name).read_bytes() for name in ("metrics.csv", "checkpoint.csv")])
        assert outputs[0] == outputs[1]

    def test_sfi_seed_env_overrides_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SFI_SEED", "777")
        out = tmp_path / "seeded"
        assert run_cli(["train", *TINY, "--out", out, "--quiet"]) == 0
        assert "train.seed = 777" in (out / "config_resolved.txt").read_text()

    def test_set_seed_overrides_sfi_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SFI_SEED", "5")
        out = tmp_path / "seeded"
        assert run_cli(["train", *TINY, "--set", "train.seed=9", "--set", "train.epochs=1",
                        "--out", out, "--quiet"]) == 0
        assert "train.seed = 9" in (out / "config_resolved.txt").read_text()

    def test_seed_overrides_apply_to_a_config_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SFI_SEED", "5")  # configs/default.txt sets train.seed = 42
        conf = os.path.join(CONFIGS, "default.txt")
        for sets, seed in (([], 5), (["--set", "train.seed=9"], 9)):
            out = tmp_path / f"seed-{seed}"
            assert run_cli(["train", "--config", conf, "--set", "train.epochs=1", *sets,
                            "--out", out, "--quiet"]) == 0
            assert f"\ntrain.seed = {seed}\n" in (out / "config_resolved.txt").read_text()

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_bad_sfi_seed_exits_2_naming_the_variable(self, monkeypatch, capsys, value):
        monkeypatch.setenv("SFI_SEED", value)
        assert run_cli(["eval", *TINY, "--checkpoint", "x"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: SFI_SEED must be a non-negative integer, got {value!r}\n"

    def test_tiny_preset_without_out_writes_runs_tiny(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["train", *TINY, "--set", "train.epochs=1", "--quiet"]) == 0
        assert (tmp_path / "runs" / "tiny" / "checkpoint.csv").is_file()
        assert not (tmp_path / "runs" / "default").exists()


class TestEvalCommand:
    @pytest.fixture
    def trained(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["train", *TINY, "--out", out, "--quiet"]) == 0
        return out

    def test_eval_matches_final_train_log(self, trained, capsys):
        rc = run_cli(["eval", *TINY, "--checkpoint", trained / "checkpoint.csv",
                      "--split", "test"])
        assert rc == 0
        printed = capsys.readouterr().out
        final_test = [r for r in (trained / "metrics.csv").read_text().splitlines()[1:]
                      if r.split(",")[1] == "test"][-1]
        assert final_test.split(",")[3] in printed

    def test_train_split_prints_what_evaluate_gives(self, trained, capsys, monkeypatch):
        monkeypatch.delenv("SFI_SEED", raising=False)  # the CLI and C.load build one dataset
        rc = run_cli(["eval", *TINY, "--checkpoint", trained / "checkpoint.csv",
                      "--split", "train"])
        assert rc == 0
        cfg = C.load(preset="tiny")
        dataset, model, _ = C.build_experiment(cfg)
        model.load_state(load_checkpoint(trained / "checkpoint.csv"))
        loss, acc = evaluate(model, dataset.train_images, dataset.train_labels, xi=cfg.train.xi)
        assert capsys.readouterr().out == f"split train: loss {loss!r} top1 {acc!r}\n"

    def test_eval_deterministic(self, trained, capsys):
        args = ["eval", *TINY, "--checkpoint", trained / "checkpoint.csv"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        assert capsys.readouterr().out == first

    def test_mismatched_checkpoint_rejected(self, trained, capsys):
        # same checkpoint, different channel dims in the config
        rc = run_cli(["eval", *TINY, "--set", "sir.channels=6", "--set", "sir.heads=2",
                      "--checkpoint", trained / "checkpoint.csv"])
        assert rc == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_unparsable_checkpoint_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ckpt.csv"
        path.write_text("tensor: sir.classifier\nshape: 2\n1.0,abc\n")
        rc = run_cli(["eval", *TINY, "--checkpoint", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}:sir.classifier" in err and "Traceback" not in err

    def test_non_utf8_checkpoint_exits_2(self, trained, tmp_path, capsys):
        raw = bytearray((trained / "checkpoint.csv").read_bytes())
        raw[12] = 0xFF
        path = tmp_path / "ckpt.csv"
        path.write_bytes(bytes(raw))
        rc = run_cli(["eval", *TINY, "--checkpoint", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{path}: not UTF-8" in err and "Traceback" not in err

    def test_non_finite_checkpoint_exits_2(self, trained, capsys):
        path = trained / "checkpoint.csv"
        state = load_checkpoint(path)
        state["sir.classifier"][0, 0] = np.nan
        save_checkpoint(path, state)
        rc = run_cli(["eval", *TINY, "--checkpoint", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sir.classifier" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "export-maps"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_forward_exits_1_naming_op(self, trained, tmp_path, capsys, command):
        # finite weights whose forward overflows in the attention scores
        path = trained / "checkpoint.csv"
        state = load_checkpoint(path)
        state["sir.stage0.proj"][:] = 1e307
        save_checkpoint(path, state)
        args = [command, *TINY, "--checkpoint", path]
        if command == "export-maps":
            image = tmp_path / "img.csv"
            save_tensor(image, np.ones((8, 8, 3)))
            args += ["--image", image, "--out", tmp_path / "maps"]
        rc = run_cli(args)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: op 'talking_head_attention' (chain step 'pairwise_scores')")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_gcn_product_names_the_layer(self, trained, capsys):
        # finite weights whose forward first overflows in the GCN's second product;
        # backbone_stage and concat_stages raise on the same chain step name
        path = trained / "checkpoint.csv"
        state = load_checkpoint(path)
        state["sir.gcn.adjacency"][:] = 1e300
        state["sir.gcn.layer0.weight"][:] = 1e300
        save_checkpoint(path, state)
        rc = run_cli(["eval", *TINY, "--checkpoint", path])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: op 'gcn_layer' (chain step 'matmul')")
        assert err.count("\n") == 1

    def test_missing_checkpoint_exits_2(self, capsys):
        rc = run_cli(["eval", *TINY, "--checkpoint", "/nope/ckpt.csv"])
        assert rc == 2
        assert "/nope/ckpt.csv" in capsys.readouterr().err


class TestExportMapsCommand:
    def test_export_file_set_and_exactness(self, tmp_path):
        run_dir = tmp_path / "run"
        assert run_cli(["train", *TINY, "--out", run_dir, "--quiet"]) == 0
        from sfinet import config as C
        cfg = C.load(preset="tiny")
        ds, model, _ = C.build_experiment(cfg)
        img_path = tmp_path / "sample.csv"
        save_tensor(img_path, ds.test_images[0])
        maps_dir = tmp_path / "maps"
        rc = run_cli(["export-maps", *TINY, "--checkpoint", run_dir / "checkpoint.csv",
                      "--image", img_path, "--out", maps_dir])
        assert rc == 0
        names = sorted(os.listdir(maps_dir))
        for stage in (0, 1):
            for kind in ("ambiguity", "mask", "noise"):
                assert f"sample_stage{stage}_{kind}.csv" in names
                assert f"sample_stage{stage}_{kind}.pgm" in names
        assert "sample_adjacency.csv" in names
        assert "sample_attention.csv" in names

        # masks are binary 0/255 in the PGM
        pgm = (maps_dir / "sample_stage0_mask.pgm").read_text().splitlines()
        pixels = {int(v) for row in pgm[3:] for v in row.split()}
        assert pixels <= {0, 255}

        # every stage's CSVs lie on its (W, H) grid and equal the in-process
        # flat arrays, row-major over that grid, exactly
        model2 = C.build_experiment(cfg)[1]
        from sfinet.serialization import load_checkpoint
        model2.load_state(load_checkpoint(run_dir / "checkpoint.csv"))
        res = model2.forward(load_tensor(img_path))
        shapes = cfg.backbone.stage_shapes()
        arts = model2.filter_stages(res.stages)
        assert len(arts) == len(shapes)
        for stage, (art, (w, h, _)) in enumerate(zip(arts, shapes)):
            flat = {"ambiguity": art.ambiguity_map, "mask": art.mask, "noise": art.noise_scores}
            flat.update({f"class{c}": art.maps[:, c] for c in art.topk_indices})
            for kind, arr in flat.items():
                exported = load_tensor(maps_dir / f"sample_stage{stage}_{kind}.csv")
                assert exported.shape == (w, h)
                npt.assert_array_equal(exported, arr.reshape(w, h))

    def test_builds_no_dataset_and_writes_a_taped_forwards_bytes(self, tmp_path, monkeypatch):
        cfg = C.load(preset="tiny")
        ds, model, _ = C.build_experiment(cfg)
        for p in model.parameters().values():  # differ from the initial draws
            p.data = p.data * 1.5 + 0.25
        ckpt, img = tmp_path / "ckpt.csv", tmp_path / "img.csv"
        save_checkpoint(ckpt, model.parameters())
        save_tensor(img, ds.test_images[0])
        ref = tmp_path / "ref"
        res = model.forward(ds.test_images[0])
        arts = model.filter_stages(res.stages)
        for stage, (art, (w, h, _)) in enumerate(zip(arts, cfg.backbone.stage_shapes())):
            export_stage_maps(ref, "img", stage, art, (w, h))
        export_adjacency(ref, "img", model.adjacency.data)
        save_tensor(ref / "img_attention.csv", res.attention)

        def make_synthetic(*args):
            raise AssertionError("export-maps built a dataset")

        monkeypatch.setattr(C, "make_synthetic", make_synthetic)
        monkeypatch.setattr(D, "make_synthetic", make_synthetic)
        out = tmp_path / "maps"
        assert run_cli(["export-maps", *TINY, "--checkpoint", ckpt, "--image", img,
                        "--out", out]) == 0
        names = sorted(os.listdir(out))
        assert len(names) == 23 and names == sorted(os.listdir(ref))
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bypass_class_maps_overflow_exits_1_naming_op(self, tmp_path, capsys):
        # under bypass the forward runs no filter pass, so the class maps'
        # overflow surfaces only when export-maps asks for the filter records
        bypass = [*TINY, "--set", "model.bypass_filters=true"]
        cfg = C.load(preset="tiny", sets=["model.bypass_filters=true"])
        ds, model, _ = C.build_experiment(cfg)
        model.backbone.biases[0].data[:] = 20.0  # tanh saturates: stage-0 features are all 1.0
        model.class_projs[0].data[:] = np.finfo(np.float64).max  # so each class score is 4x that
        ckpt, img = tmp_path / "ckpt.csv", tmp_path / "img.csv"
        save_checkpoint(ckpt, model.parameters())
        save_tensor(img, ds.test_images[0])
        assert np.isfinite(model.forward(ds.test_images[0], int(ds.test_labels[0])).probs).all()
        rc = run_cli(["export-maps", *bypass, "--checkpoint", ckpt, "--image", img,
                      "--out", tmp_path / "maps"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: op 'class_maps'") and err.count("\n") == 1

    def test_unreadable_image_exits_2(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli(["train", *TINY, "--out", run_dir, "--quiet"]) == 0
        rc = run_cli(["export-maps", *TINY, "--checkpoint", run_dir / "checkpoint.csv",
                      "--image", "/nope/img.csv", "--out", tmp_path / "maps"])
        assert rc == 2
        assert "/nope/img.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_exits_2_naming_it(self, tmp_path, capsys, bad):
        ckpt, img = tmp_path / "ckpt.csv", tmp_path / "img.csv"
        save_checkpoint(ckpt, C.build_experiment(C.load(preset="tiny"))[1].parameters())
        image = np.ones((8, 8, 3))
        image[3, 4, 1] = bad
        save_tensor(img, image)
        rc = run_cli(["export-maps", *TINY, "--checkpoint", ckpt, "--image", img,
                      "--out", tmp_path / "maps"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {img}: image holds NaN or Inf values") and "Traceback" not in err
        assert not (tmp_path / "maps").exists()

    def test_wrong_image_shape_exits_2(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli(["train", *TINY, "--out", run_dir, "--quiet"]) == 0
        img_path = tmp_path / "bad.csv"
        save_tensor(img_path, np.zeros((4, 4, 3)))
        rc = run_cli(["export-maps", *TINY, "--checkpoint", run_dir / "checkpoint.csv",
                      "--image", img_path, "--out", tmp_path / "maps"])
        assert rc == 2
        assert "image shape" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "export-maps", "gradcheck"])
def test_config_and_preset_together_exit_2(tmp_path, capsys, command):
    conf = tmp_path / "conf.txt"
    conf.write_text("train.epochs = 1\n")
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", conf, "--preset", "tiny"])
    assert exc.value.code == 2
    assert "argument --preset: not allowed with argument --config" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config-not-utf8", "config-dir", "checkpoint-dir", "image-dir"])
def test_unreadable_input_file_exits_2_naming_it(tmp_path, capsys, case):
    bad = tmp_path / "bad"
    if case == "config-not-utf8":
        bad.write_bytes(b"train.epochs = 2\n\xff\n")
    else:
        bad.mkdir()
    ckpt = tmp_path / "ckpt.csv"
    save_checkpoint(ckpt, C.build_experiment(C.load(preset="tiny"))[1].parameters())
    argv = {
        "config-not-utf8": ["train", "--config", bad, "--out", tmp_path / "run"],
        "config-dir": ["train", "--config", bad, "--out", tmp_path / "run"],
        "checkpoint-dir": ["eval", *TINY, "--checkpoint", bad],
        "image-dir": ["export-maps", *TINY, "--checkpoint", ckpt, "--image", bad,
                      "--out", tmp_path / "maps"],
    }[case]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


class TestGradcheckCommand:
    def test_default_tiny_passes(self, capsys):
        rc = run_cli(["gradcheck"])
        assert rc == 0
        out = capsys.readouterr().out
        # report lists every parameter tensor
        for name in ("backbone.stage0.weight", "mff.stage0.filter_cls",
                     "sir.attn.mix", "sir.gcn.adjacency", "sir.classifier"):
            assert name in out
        assert "worst per module" in out

    @pytest.mark.parametrize("flag, value", [
        ("--step", "0"), ("--step", "-1e-6"), ("--step", "nan"), ("--step", "inf"),
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_unusable_step_or_tol_exits_2_naming_the_flag(self, capsys, flag, value):
        rc = run_cli(["gradcheck", f"{flag}={value}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} must be finite and > 0, got ")
        assert captured.out == ""

    def test_corrupted_backward_detected(self, monkeypatch, capsys):
        # a wrong tanh derivative in the backbone stage's backward
        monkeypatch.setattr(T, "tanh_grad", lambda g, y: g * 0.5)
        rc = run_cli(["gradcheck"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("case", ["train-file", "train-under-file", "export-file"])
def test_unusable_out_path_exits_2_naming_it(tmp_path, capsys, case):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if case == "train-under-file" else blocker
    if case == "export-file":
        cfg = C.load(preset="tiny")
        ds, model, _ = C.build_experiment(cfg)
        ckpt, img = tmp_path / "ckpt.csv", tmp_path / "img.csv"
        save_checkpoint(ckpt, model.parameters())
        save_tensor(img, ds.test_images[0])
        argv = ["export-maps", *TINY, "--checkpoint", ckpt, "--image", img, "--out", out]
    else:
        argv = ["train", *TINY, "--out", out, "--quiet"]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {out}: cannot create directory (")
    assert blocker.read_text() == "not a directory\n"
