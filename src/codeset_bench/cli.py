"""Command-line front end.

Exit codes: 0 success, 1 usage problems, 2 runtime failures.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import harness, oracles
from . import neuralcore as nc
from .errors import PipelineError

RECURRENT_TOL = 1e-4
FEEDFORWARD_TOL = 1e-6


def gradcheck_suite(seed: int = 0) -> list[tuple[str, float, float]]:
    """(name, max relative error, threshold) per checked fragment."""
    rng = np.random.default_rng(seed)
    results = []

    def check(name, model, x, tol, targets=None):
        err = nc.gradient_check(model, x, targets=targets, seed=seed)
        results.append((name, float(err), tol))

    check("dense", nc.Sequential([nc.Dense(7, 5, rng)]), rng.standard_normal((4, 7)),
          FEEDFORWARD_TOL)
    check("conv1d", nc.Sequential([nc.Conv1d(3, 4, 3, rng)]),
          rng.standard_normal((2, 10, 3)), FEEDFORWARD_TOL)
    check("max_pool1d", nc.Sequential([nc.MaxPool1d(3)]),
          rng.standard_normal((2, 10, 4)), FEEDFORWARD_TOL)
    check("max_over_time", nc.Sequential([nc.MaxOverTime()]),
          rng.standard_normal((2, 9, 4)), FEEDFORWARD_TOL)
    targets = (rng.random((4, 3)) < 0.5).astype(float)
    check(
        "dense+sigmoid+bce",
        nc.Sequential([nc.Dense(6, 4, rng), nc.ReLU(), nc.Dense(4, 3, rng), nc.Sigmoid()]),
        rng.standard_normal((4, 6)),
        FEEDFORWARD_TOL,
        targets=targets,
    )
    check("rnn_simple(bptt-6)", nc.Sequential([nc.SimpleRNN(3, 4, rng)]),
          rng.standard_normal((2, 6, 3)), RECURRENT_TOL)
    check("lstm(bptt-6)", nc.Sequential([nc.LSTM(3, 4, rng)]),
          rng.standard_normal((2, 6, 3)), RECURRENT_TOL)
    check("gru(bptt-6)", nc.Sequential([nc.GRU(3, 4, rng)]),
          rng.standard_normal((2, 6, 3)), RECURRENT_TOL)
    check(
        "gru(sequences)",
        nc.Sequential([nc.GRU(3, 4, rng, return_sequences=True)]),
        rng.standard_normal((2, 5, 3)),
        RECURRENT_TOL,
    )
    check(
        "cnn-stack",
        nc.Sequential([
            nc.Conv1d(3, 5, 3, rng), nc.ReLU(), nc.MaxPool1d(2),
            nc.Conv1d(5, 4, 2, rng), nc.ReLU(), nc.MaxOverTime(),
            nc.Dense(4, 2, rng), nc.Sigmoid(),
        ]),
        rng.standard_normal((2, 12, 3)),
        1e-5,
    )
    return results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codeset-bench",
        description="Desk-scale benchmark pipeline for multi-label code "
        "assignment from clinical notes.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config (split, synthetic, feature, train)")
        p.add_argument("--out-dir", default="codeset-out", help="workspace directory")

    common(sub.add_parser("synth", help="generate the synthetic corpus CSVs"))
    common(sub.add_parser("prepare", help="build catalog, labeled dataset, and splits"))
    common(sub.add_parser("featurize", help="run the feature stage"))
    p_train = sub.add_parser("train", help="run the full pipeline and write a run directory")
    common(p_train)
    p_train.add_argument("--run-name", default=None, help="run directory name (default: config hash)")

    for name, help_text in (
        ("evaluate", "recompute metrics JSONs from a run directory"),
        ("report", "rewrite metrics JSONs, PR curves (.npz), and the summary table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--run", required=True, help="run directory")

    p_cmp = sub.add_parser("compare", help="tabulate runs sharing a dataset, best F1 first")
    p_cmp.add_argument("--runs", nargs="+", required=True, help="run directories")
    p_cmp.add_argument("--out", default=None, help="write the CSV here as well")

    p_gc = sub.add_parser("gradcheck", help="finite-difference checks for every layer family")
    p_gc.add_argument("--seed", type=int, default=0)

    p_or = sub.add_parser("oracle", help="compare the metrics module against brute-force oracles")
    p_or.add_argument("--pairs", type=int, default=1000)
    p_or.add_argument("--seed", type=int, default=0)
    return parser


def _load_cfg(args) -> harness.ExperimentConfig:
    raw = harness.parse_config_text(
        Path(args.config).read_text(encoding="utf-8"), args.config
    )
    if args.seed is not None:
        for key in (
            "train.seed",
            "feature.seed",
            "dataset.split_seed",
            "dataset.synthetic.seed",
        ):
            raw[key] = str(args.seed)
    return harness.ExperimentConfig(raw)


def _dispatch(args) -> int:
    if args.command == "synth":
        cfg = _load_cfg(args)
        ws = harness.Workspace(args.out_dir)
        notes, diags = harness.stage_corpus(cfg, ws)
        print(f"notes:     {notes}")
        print(f"diagnoses: {diags}")
        return 0

    if args.command == "prepare":
        cfg = _load_cfg(args)
        ws = harness.Workspace(args.out_dir)
        notes, diags = harness.stage_corpus(cfg, ws)
        train, val, test, catalog = harness.stage_dataset(cfg, ws, notes, diags)
        print(f"splits: train={len(train)} val={len(val)} test={len(test)}")
        print(f"coverage: {train.coverage:.4f}")
        print("label\tadmissions")
        for name, count in catalog.labels:
            print(f"{name}\t{count}")
        return 0

    if args.command == "featurize":
        cfg = _load_cfg(args)
        ws = harness.Workspace(args.out_dir)
        notes, diags = harness.stage_corpus(cfg, ws)
        splits = harness.stage_dataset(cfg, ws, notes, diags)[:3]
        feats = harness.stage_features(cfg, ws, splits)
        shapes = ", ".join(str(getattr(m, "shape", None)) for m in (feats.train, feats.val, feats.test))
        print(f"track: {cfg.get('feature.track')} kind: {feats.kind} shapes: {shapes}")
        return 0

    if args.command == "train":
        cfg = _load_cfg(args)
        record = harness.run_pipeline(cfg, args.out_dir, run_name=args.run_name)
        print(f"test f1: {record.metrics_test['f1']:.4f}")
        return 0

    if args.command in ("evaluate", "report"):
        reports = harness.rewrite_reports(args.run, with_curves=(args.command == "report"))
        for tag, rep in reports.items():
            print(f"{tag}: f1={rep.f1:.4f} accuracy={rep.accuracy:.4f} "
                  f"auc={rep.macro_auc:.4f} p@5={rep.precision_at_5:.4f}")
        return 0

    if args.command == "compare":
        csv_text, table = harness.compare_runs(args.runs)
        if args.out:
            Path(args.out).write_text(csv_text, encoding="utf-8")
        print(table, end="")
        return 0

    if args.command == "gradcheck":
        results = gradcheck_suite(seed=args.seed)
        ok = True
        for name, err, tol in results:
            status = "ok" if err < tol else "FAIL"
            ok = ok and err < tol
            print(f"{name:<22} max rel err {err:.3e}  (tol {tol:.0e})  {status}")
        return 0 if ok else 2

    if args.command == "oracle":
        start = time.perf_counter()
        worst = oracles.run_oracle_suite(n_pairs=args.pairs, seed=args.seed)
        elapsed = time.perf_counter() - start
        for name, dev in sorted(worst.items()):
            print(f"{name:<12} max deviation {dev:.3e}")
        print(f"{args.pairs} random runs agree with the brute-force oracles")
        print(f"oracle suite took {elapsed:.2f} s ({args.pairs / elapsed:.0f} runs/s)")
        return 0

    return 1


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; fold the
        # latter into the documented usage code
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
