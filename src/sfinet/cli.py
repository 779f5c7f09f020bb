"""Command-line entry point: train, eval, export-maps, gradcheck.

``sfinet train`` writes ``config_resolved.txt``, trains, then writes
``metrics.csv`` and ``checkpoint.csv``; an aborted run writes the first only.

Exit codes: 0 = ok, 1 = a check or run failed, 2 = usage/config error.
``--preset NAME`` reads the shipped file ``presets/NAME.txt`` as ``--config``
reads its file (``config.load``).  The environment variable ``SFI_SEED``
overrides the seed of the config file or preset; an explicit
``--set train.seed=N`` overrides both.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import config as C
from . import gradcheck as GC
from .export import export_adjacency, export_stage_maps
from .serialization import (SerializationError, atomic_open, load_checkpoint, load_tensor,
                            make_dirs, save_checkpoint, save_tensor)
from .tensor import ConfigError, NonFiniteError, finite, no_tape
from .train import TrainAbort, evaluate, metrics_csv, train


def _load_config(args, preset: str = "default") -> C.RunConfig:
    """The command's config; ``SFI_SEED`` is the first override, so each ``--set`` wins over it."""
    sets, seed = args.set, os.environ.get("SFI_SEED")
    if seed is not None:
        if not seed.strip().isdecimal():
            raise ConfigError(f"SFI_SEED must be a non-negative integer, got {seed!r}")
        sets = [f"train.seed={seed.strip()}", *sets]
    return C.load(args.config, args.preset or preset, sets)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out_dir = args.out or cfg.out_dir
    make_dirs(out_dir)
    with atomic_open(os.path.join(out_dir, "config_resolved.txt")) as fh:
        fh.write(C.resolved_text(cfg))
    dataset, model, rng = C.build_experiment(cfg)
    rows = train(model, dataset, cfg.train, rng=rng, log=None if args.quiet else print)
    with atomic_open(os.path.join(out_dir, "metrics.csv")) as fh:
        fh.write(metrics_csv(rows))
    save_checkpoint(os.path.join(out_dir, "checkpoint.csv"), model.parameters())
    final = rows[-1]
    print(f"done: {cfg.train.epochs} epochs, final test acc {final.acc:.4f}")
    print(f"outputs in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    dataset, model, _ = C.build_experiment(cfg)
    model.load_state(load_checkpoint(args.checkpoint))
    if args.split == "train":
        images, labels = dataset.train_images, dataset.train_labels
    else:
        images, labels = dataset.test_images, dataset.test_labels
    loss, acc = evaluate(model, images, labels, xi=cfg.train.xi)
    print(f"split {args.split}: loss {repr(loss)} top1 {repr(acc)}")
    return 0


def cmd_export_maps(args) -> int:
    cfg = _load_config(args)
    # every parameter comes from the checkpoint, so no dataset and any generator
    model = C.build_model(cfg, np.random.default_rng(cfg.train.seed))
    model.load_state(load_checkpoint(args.checkpoint))
    image = load_tensor(args.image)
    expected = (cfg.backbone.input, cfg.backbone.input, cfg.backbone.in_channels)
    if image.shape != expected:
        raise ConfigError(f"image shape {image.shape} does not match backbone input {expected}")
    if not finite(image):
        raise ConfigError(f"{args.image}: image holds NaN or Inf values")
    with no_tape():
        res = model.forward(image)
        arts = model.filter_stages(res.stages)
    image_id = os.path.splitext(os.path.basename(args.image))[0]
    written = []
    for i, (art, (w, h, _)) in enumerate(zip(arts, cfg.backbone.stage_shapes())):
        written += export_stage_maps(args.out, image_id, i, art, (w, h))
    written += export_adjacency(args.out, image_id, model.adjacency.data)
    attn_path = os.path.join(args.out, f"{image_id}_attention.csv")
    save_tensor(attn_path, res.attention)
    written.append(attn_path)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    for flag, value in (("--step", args.step), ("--tol", args.tol)):
        if not 0.0 < value < math.inf:
            raise ConfigError(f"{flag} must be finite and > 0, got {value}")
    cfg = _load_config(args, "tiny")
    dataset, model, _ = C.build_experiment(cfg)
    image = dataset.train_images[0]
    label = int(dataset.train_labels[0])
    errs = GC.check_model(model, image, label, cfg.train.xi, step=args.step)
    failed = [name for name, err in errs.items() if not err < args.tol]  # a NaN error fails
    worst: dict[str, float] = {}
    for (name, err), p in zip(errs.items(), model.parameters().values()):
        status = "FAIL" if name in failed else "ok "
        print(f"[{status}] {name:30s} shape {str(p.shape):14s} max rel err {err:.3e}")
        module = name.split(".", 1)[0]
        worst[module] = max(worst.get(module, 0.0), err)
    print("worst per module:")
    for module, err in sorted(worst.items()):
        print(f"  {module:10s} {err:.3e}")
    if not failed:
        print(f"gradcheck passed: {len(errs)} parameter tensors within tol {args.tol:g}")
        return 0
    print(f"gradcheck FAILED for: {', '.join(failed)}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sfinet",
                                     description="filter-and-reconstitute classifier toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="path to a section.key = value config file")
        source.add_argument("--preset", choices=C.PRESETS,
                            help="named config file shipped with the package")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    p_train = sub.add_parser("train", help="train on the synthetic dataset")
    common(p_train)
    p_train.add_argument("--out", help="output directory (defaults to output.dir)")
    p_train.add_argument("--quiet", action="store_true", help="suppress per-epoch log lines")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("train", "test"), default="test")
    p_eval.set_defaults(func=cmd_eval)

    p_export = sub.add_parser("export-maps", help="write filter maps for one image")
    common(p_export)
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--image", required=True, help="tensor CSV of shape (W, H, 3)")
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(func=cmd_export_maps)

    p_gc = sub.add_parser("gradcheck", help="finite-difference check of every parameter")
    common(p_gc)
    p_gc.add_argument("--step", type=float, default=GC.DEFAULT_STEP)
    p_gc.add_argument("--tol", type=float, default=GC.DEFAULT_TOL)
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a non-finite value raises NonFiniteError naming its op, so numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (ConfigError, SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainAbort, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
