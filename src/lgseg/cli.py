"""Command-line pipeline: gen, train, infer, eval, tree-fit, ablate, count.

Every run writes its artifacts plus a JSON report embedding the verbatim
config text, the seed, and sha256 hashes of the artifacts, so identical
inputs are checkable for byte-identical outputs.  Each subcommand only writes
its artifacts into the output directory; `main` creates that directory,
writes the `<command>_run.json` report and maps errors to the exit codes:
0 success, 1 usage/config error (bad flags included), 2 data or file error.
`cli` reads no file format: `raster` reads and checks each input file, and
only the rule that spans files (inputs that must share extents) lives here.
`ablate` writes three maps of a dual-pathway model: `full`, `local_only`
(the global pathway is fed the per-channel mean of its window, a constant
image) and `global_only` (the local pathway is fed its mean instead), in one
pass that embeds each pathway's real and blanked window once per tile; `full`
is byte-identical to `infer`'s map.
LGSEG_THREADS caps worker fan-out for per-tile inference in infer, ablate and
tree-fit (absent means 1, the single-thread default; results are
byte-identical for any worker count).  A fixed seed gives byte-identical
artifacts for one NumPy/OpenBLAS build and BLAS kernel (OPENBLAS_CORETYPE):
another kernel may round GEMM sums differently and change the floats.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import counting, evaluation, raster, tree
from .config import ConfigError, RunConfig, default_config, parse_config
from .engine import load_checkpoint, save_checkpoint
from .network import LgSegModel, build_model, train
from .raster import DataError
from .rng import SplitMix64
from .sampling import (balanced_centers, grid_centers, grid_shape, pathway_windows,
                       reflect_pad, sample_triplets, stitch)
from .synth import synth_scene


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_report(out_dir: Path, command: str, cfg: RunConfig, seed,
                  artifacts, extras) -> None:
    report = {
        "command": command,
        "seed": seed,
        "config": cfg.raw_text,
        "artifacts": {p.name: _sha256(p) for p in artifacts},
    }
    report.update(extras)
    _write_json(out_dir / f"{command.replace('-', '_')}_run.json", report)


def _worker_count() -> int:
    raw = os.environ.get("LGSEG_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"LGSEG_THREADS must be a positive integer, got '{raw}'") from None
    if n < 1:
        raise ConfigError(f"LGSEG_THREADS must be a positive integer, got '{raw}'")
    return n


def _parallel_map(fn, items):
    workers = _worker_count()
    if workers == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _load_model(cfg: RunConfig, checkpoint_path) -> LgSegModel:
    # no initial draw: load_params replaces every tensor
    model = LgSegModel(*cfg.model_specs(), {})
    tensors = load_checkpoint(checkpoint_path)
    try:
        model.load_params(tensors)
    except ValueError as exc:
        raise DataError(f"{checkpoint_path}: {exc}") from None
    return model


def _check_extents(reference, shape: tuple, others) -> None:
    """Each (path, shape) in `others` must have the reference file's extents."""
    for path, other in others:
        if other != shape:
            raise DataError(f"{path}: extents do not match {Path(reference).name}")


def _scene_pairs(data_dir: Path):
    scenes = sorted(data_dir.glob("scene_*.ppm"))
    if not scenes:
        raise DataError(f"{data_dir}: no scene_*.ppm files found")
    pairs = []
    for scene_path in scenes:
        label_path = data_dir / scene_path.name.replace("scene_", "labels_").replace(".ppm", ".pgm")
        if not label_path.exists():
            raise DataError(f"{label_path}: missing label map for {scene_path.name}")
        pairs.append((scene_path, label_path))
    return pairs


def _tile_patches(model: LgSegModel, img: raster.Raster, predict):
    """Grid centres of the image and `predict({prefix: window})` at each
    (spread over LGSEG_THREADS workers, which all read the one padded scene)."""
    centers = grid_centers((img.height, img.width))
    scene = reflect_pad(img.pixels)
    return centers, _parallel_map(
        lambda center: predict(pathway_windows(scene, center, model.pathways)), centers)


def _ablate_patches(model: LgSegModel, windows: dict) -> tuple:
    """One tile's full, local-only and global-only patches, from one embedding per
    pathway of its window and of its blanked one (the constant per-channel means)."""
    real = {p: model.embed(p, x) for p, x in windows.items()}
    blank = {p: model.embed(p, np.broadcast_to(x.mean(axis=(1, 2))[:, None, None], x.shape).copy())
             for p, x in windows.items()}
    return (model.head([real["local"], real["global"]]),
            model.head([real["local"], blank["global"]]),
            model.head([blank["local"], real["global"]]))


# ---------------------------------------------------------------------------
# subcommands: each writes its artifacts into `out` and returns
# (report seed, artifact paths, extra report fields) for main to record


def _cmd_gen(args, cfg: RunConfig, out: Path):
    rng = SplitMix64(args.seed)
    artifacts = []
    for i in range(cfg.get("scene", "count")):
        spec = cfg.scene_spec(seed=rng.next_u64())
        img, labels, boxes = synth_scene(spec)
        scene_path = out / f"scene_{i:03d}.ppm"
        label_path = out / f"labels_{i:03d}.pgm"
        boxes_path = out / f"boxes_{i:03d}.csv"
        raster.write_raster(img, scene_path)
        raster.write_label(labels, label_path)
        counting.write_boxes_csv(boxes, boxes_path)
        artifacts += [scene_path, label_path, boxes_path]
    return args.seed, artifacts, {}


def _cmd_train(args, cfg: RunConfig, out: Path):
    pairs = _scene_pairs(Path(args.data))
    per_scene = cfg.get("train", "samples_per_scene")
    positive_fraction = cfg.get("train", "positive_fraction")
    use_grid = cfg.get("train", "sampler") == "grid"
    sampler = SplitMix64(cfg.get("train", "seed"))
    triplets = []
    for scene_path, label_path in pairs:
        img = raster.read_image(scene_path)
        labels = raster.read_label(label_path)
        _check_extents(scene_path, (img.height, img.width), [(label_path, labels.labels.shape)])
        if use_grid:
            centers = grid_centers((labels.height, labels.width))
        else:
            centers = balanced_centers(labels, per_scene, positive_fraction, sampler.split())
        triplets += sample_triplets(img, labels, centers)

    model = build_model(*cfg.model_specs(), seed=cfg.get("model", "init_seed"))
    report = train(model, triplets, cfg.train_config(epochs=args.epochs))
    print(f"trained {len(report.epoch_losses)} epochs on {len(triplets)} triplets "
          f"in {sum(report.wall_clock):.1f}s; final mean per-pixel loss "
          f"{report.epoch_losses[-1]:.5f}", file=sys.stderr)

    ckpt_path = out / "model.ckpt"
    save_checkpoint(ckpt_path, model.params)
    return (cfg.get("train", "seed"), [ckpt_path],
            {"epoch_losses": report.epoch_losses, "triplets": len(triplets)})


def _cmd_infer(args, cfg: RunConfig, out: Path):
    model = _load_model(cfg, args.model)
    img = raster.read_image(args.image)
    prob = stitch(*_tile_patches(model, img, model.forward), (img.height, img.width))
    base = args.name or Path(args.image).stem
    artifacts = raster.write_prob(prob, out, f"{base}_prob", args.sidecar)
    return cfg.get("model", "init_seed"), artifacts, {"image": Path(args.image).name}


def _cmd_eval(args, cfg: RunConfig, out: Path):
    if len(args.pred) != len(args.gt):
        raise ConfigError(f"{len(args.pred)} predictions but {len(args.gt)} ground truths")
    probs = [raster.read_prob(p) for p in args.pred]
    gts = [raster.read_label(p).labels for p in args.gt]
    for pred_path, prob, gt_path, gt in zip(args.pred, probs, args.gt, gts):
        _check_extents(gt_path, gt.shape, [(pred_path, prob.shape)])
    rho = cfg.get("eval", "rho")
    curve = evaluation.set_curve(probs, gts, rho, thresholds=cfg.eval_thresholds(),
                                 aggregate=cfg.get("eval", "aggregate"))
    best_t, best_f = evaluation.max_f(curve)
    csv_path = out / "pr_curve.csv"
    evaluation.write_pr_csv(curve, csv_path)
    maxf_path = out / "max_f.json"
    _write_json(maxf_path, {"threshold": best_t, "f": best_f, "rho": rho,
                            "aggregate": cfg.get("eval", "aggregate"),
                            "images": len(probs)})
    return None, [csv_path, maxf_path], {}


def _cmd_tree_fit(args, cfg: RunConfig, out: Path):
    if not (len(args.image) == len(args.prob) == len(args.gt)):
        raise ConfigError("tree-fit needs equally many --image, --prob, and --gt")
    model = _load_model(cfg, args.model)
    # every input is read and checked before the first (slow) forward pass
    inputs = []
    for image_path, prob_path, gt_path in zip(args.image, args.prob, args.gt):
        img = raster.read_image(image_path)
        prob, gt = raster.read_prob(prob_path), raster.read_label(gt_path)
        _check_extents(image_path, (img.height, img.width),
                       [(prob_path, prob.shape), (gt_path, gt.labels.shape)])
        inputs.append((img, prob, gt))
    validation = []
    for img, prob, gt in inputs:
        # the RA score of a tile is its own patch mean: in a stitched map the
        # shifted margin tiles overwrite part of their neighbours
        _, scores = _tile_patches(model, img, lambda windows: model.forward(windows).mean())
        ra = np.array(scores).reshape(grid_shape(prob.shape))
        validation.append((tree.TreeInput(ra, prob), gt))
    result = tree.fit_thresholds(
        validation,
        rho=cfg.get("eval", "rho"),
        min_houses=cfg.get("tree", "min_houses"),
        step=cfg.get("tree", "grid_step"),
        tol=cfg.get("tree", "tol"),
        max_cycles=cfg.get("tree", "max_cycles"),
    )
    tree_path = out / "tree.json"
    _write_json(tree_path, {
        "t1": result.thresholds.t1, "t2": result.thresholds.t2, "t3": result.thresholds.t3,
        "f_trace": result.trace, "leaf_order_ok": result.leaf_order_ok,
    })
    return None, [tree_path], {}


def _cmd_ablate(args, cfg: RunConfig, out: Path):
    model = _load_model(cfg, args.model)
    if len(model.pathways) != 2:
        raise ConfigError("ablate requires a dual-pathway model")
    img = raster.read_image(args.image)
    base = args.name or Path(args.image).stem
    centers, patches = _tile_patches(model, img, lambda windows: _ablate_patches(model, windows))
    artifacts = []
    for tag, tag_patches in zip(("full", "local_only", "global_only"), zip(*patches)):
        prob = stitch(centers, tag_patches, (img.height, img.width))
        artifacts += raster.write_prob(prob, out, f"{base}_{tag}", sidecar=True)
    return None, artifacts, {"image": Path(args.image).name}


def _cmd_count(args, cfg: RunConfig, out: Path):
    report_path = out / "count_report.json"
    if args.tallies:
        if args.prob or args.boxes or args.threshold is not None:
            raise ConfigError("count --tallies takes no --prob, --boxes or --threshold")
        try:
            tallies = json.loads(Path(args.tallies).read_text(encoding="utf-8"))
        except ValueError as exc:  # not UTF-8, or not JSON
            raise DataError(f"{args.tallies}: {exc}") from None
        values = [tallies.get(key) for key in ("tp", "fp", "fn", "residential")] \
            if isinstance(tallies, dict) else [None]
        # a JSON integer only: no float, string or bool (a Python int subclass)
        if not all(type(v) is int and v >= 0 for v in values):
            raise DataError(f"{args.tallies}: need a JSON object of nonnegative integer "
                            "tp, fp, fn and residential tallies")
        tp, fp, fn, residential = values
        precision, recall = counting.count_metrics(tp, fp, fn, residential)
        _write_json(report_path, {
            "tp": tp, "fp": fp, "fn": fn, "residential": residential,
            "precision": round(precision, 4), "recall": round(recall, 4),
        })
        return None, [report_path], {}

    if not args.prob:
        raise ConfigError("count needs --prob (or --tallies)")
    prob = raster.read_prob(args.prob)
    threshold = args.threshold if args.threshold is not None else cfg.get("count", "threshold")
    manual = counting.read_boxes_csv(args.boxes) if args.boxes else None
    if manual and any(b.row_max >= prob.shape[0] or b.col_max >= prob.shape[1] for b in manual):
        raise DataError(f"{args.boxes}: a box lies outside the "
                        f"{prob.shape[0]}x{prob.shape[1]} probability map")
    boxes, match = counting.count_pipeline(
        prob, threshold,
        erode_radius=cfg.get("count", "erode_radius"),
        erode_iterations=cfg.get("count", "erode_iterations"),
        manual=manual,
        connectivity=cfg.get("count", "connectivity"),
        iou_threshold=cfg.get("count", "iou_threshold"),
        strict=cfg.get("count", "strict_iou"),
    )
    det_path = out / "detections.csv"
    counting.write_boxes_csv(boxes, det_path)
    payload = {"threshold": threshold, "machine_count": len(boxes)}
    if match is not None:
        payload.update(asdict(match), precision=round(match.precision, 4),
                       recall=round(match.recall, 4))
    _write_json(report_path, payload)
    return None, [det_path, report_path], {}


# ---------------------------------------------------------------------------
# argument plumbing


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (argparse reports a non-integer)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got '{text}'")
    return value


def _unit_float(text: str) -> float:
    """argparse type: a finite number in [0, 1] (argparse reports a non-number)."""
    value = float(text)
    if not 0.0 <= value <= 1.0:  # false for NaN
        raise argparse.ArgumentTypeError(f"need a number in [0, 1], got '{text}'")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(prog="lgseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="config file (omit for all defaults)")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen", help="generate synthetic scenes")
    common(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="train a model on generated scenes")
    common(p)
    p.add_argument("--data", required=True, help="directory of scene_*.ppm / labels_*.pgm")
    p.add_argument("--epochs", type=_positive_int, default=None, help="override [train] epochs")

    p = sub.add_parser("infer", help="stitched probability map for one image")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--name", default=None, help="artifact base name (default: image stem)")
    p.add_argument("--sidecar", action="store_true", help="also write the exact float map")

    p = sub.add_parser("eval", help="relaxed PR curve and max F over image pairs")
    common(p)
    p.add_argument("--pred", action="append", required=True,
                   help="probability map (exact sidecar or 8-bit PGM)")
    p.add_argument("--gt", action="append", required=True, help="label map (.pgm)")

    p = sub.add_parser("tree-fit", help="fit the classifier-tree thresholds")
    common(p)
    p.add_argument("--model", required=True, help="checkpoint providing RA scores")
    p.add_argument("--image", action="append", required=True)
    p.add_argument("--prob", action="append", required=True)
    p.add_argument("--gt", action="append", required=True)

    p = sub.add_parser("ablate", help="pathway-blanking probability maps")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--name", default=None)

    p = sub.add_parser("count", help="detect, box, and count houses")
    common(p)
    p.add_argument("--prob", default=None)
    p.add_argument("--threshold", type=_unit_float, default=None)
    p.add_argument("--boxes", default=None, help="manual boxes CSV for matching")
    p.add_argument("--tallies", default=None, help="JSON tallies file (tp/fp/fn/residential)")

    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "tree-fit": _cmd_tree_fit,
    "ablate": _cmd_ablate,
    "count": _cmd_count,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = parse_config(args.config) if args.config else default_config()
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        seed, artifacts, extras = _COMMANDS[args.command](args, cfg, out)
        _write_report(out, args.command, cfg, seed, artifacts, extras)
        return 0
    except (ValueError, OSError) as exc:  # ConfigError and DataError are ValueErrors
        print(f"lgseg {args.command}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) else 2


if __name__ == "__main__":
    sys.exit(main())
