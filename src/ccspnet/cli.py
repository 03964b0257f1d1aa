"""Command-line front end.

Subcommands cover synthetic data generation, pooled training, SD/LOSO
evaluation, ablations, the statistics report, and plot-data emission. Exit
codes: 0 success, 1 usage or config error, 2 data error or a file that cannot
be opened, read or written, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from datetime import datetime
from pathlib import Path

from . import data, harness, plots, stats
from .errors import ConfigError, DataError, NumericalError
from .model import ABLATIONS, CCSPNet, ModelConfig


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit code 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# the keys a config file may set beside the ModelConfig fields, with the
# value a run takes when neither the file nor a flag sets one
_EXTRA_CONFIG_DEFAULTS = {"manifest": None, "out_dir": None, "phase": "offline",
                          "jobs": os.cpu_count() or 1}


def parse_config_file(path) -> dict:
    """Key: value config file; unknown and repeated keys rejected with line
    numbers."""
    path = Path(path)
    out = {}
    text = data.read_text(path, ConfigError)
    for lineno, key, raw in data.key_value_lines(text, path.name, ConfigError, ":"):
        try:
            if key == "jobs":
                out[key] = int(raw)
            elif key == "phase" and raw not in data.PHASE_CODES:
                raise ValueError(f"choose one of {sorted(data.PHASE_CODES)}")
            elif key in _EXTRA_CONFIG_DEFAULTS:
                out[key] = raw
            else:
                out[key] = ModelConfig.read_field(key, raw)
        except ValueError as exc:
            why = f"bad value for {key!r}: {exc}" if key in _EXTRA_CONFIG_DEFAULTS else exc
            raise ConfigError(f"{path.name}:{lineno}: {why}") from None
    return out


def build_model_config(args) -> ModelConfig:
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    # the dataset sets these, whatever the file says
    for key in ("n_channels", "n_timepoints", "sample_rate_hz"):
        values.pop(key, None)
    # flag > config file > default for the extra keys
    for key, default in _EXTRA_CONFIG_DEFAULTS.items():
        value = values.pop(key, default)
        if getattr(args, key, None) in (None, ""):
            setattr(args, key, value)
    harness.check_jobs(args.jobs)
    for flag in ("epochs", "batch_size", "seed", "loss_ratio"):
        v = getattr(args, flag, None)
        if v is not None:
            values[flag] = v
    env_seed = os.environ.get("CCSP_SEED")
    if env_seed is not None:
        try:
            values["seed"] = ModelConfig.read_field("seed", env_seed)
        except ValueError:
            raise ConfigError(f"CCSP_SEED must be an integer, got {env_seed!r}")
    cfg = ModelConfig(**values)
    cfg.validate()
    return cfg


def _config_and_data(args):
    cfg = build_model_config(args)
    if not args.manifest:
        raise ConfigError("a dataset manifest is required (--manifest)")
    return cfg, data.preprocess(data.load_trials(args.manifest))


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out_dir", None) or "out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_history_csv(path, runs):
    """runs: iterable of (tag, model); one row per recorded batch."""
    data.write_csv(path, ["tag", "epoch", "batch", "loss_csp", "loss_fisher",
                          "loss_combined"],
                   ([tag, int(epoch), int(batch), f"{l:.6g}", f"{j:.6g}", f"{c:.6g}"]
                    for tag, net in runs for epoch, batch, l, j, c in net.history))


def _emit_run(result, out, stem):
    harness.write_results_csv(out / f"{stem}.csv", result)
    summary = harness.summary_text(result,
                                   timestamp=datetime.now().isoformat())
    data.write_text(out / f"{stem}_summary.txt", summary)
    for sid, net in result.models.items():
        net.save(out / f"{stem}_subject_{sid:03d}.ccsp")
    _write_history_csv(out / f"{stem}_history.csv",
                       [(str(sid), net) for sid, net in result.models.items()])
    print(summary, end="")


def cmd_synth(args) -> int:
    cfg = data.SynthConfig(n_subjects=args.subjects,
                           trials_per_class=args.trials,
                           n_channels=args.channels,
                           snr=args.snr, erd=args.erd, seed=args.seed)
    trialset = data.synthesize(cfg)
    manifest = data.save_dataset(args.out, trialset,
                                 non_separable=args.erd >= 1.0)
    print(f"wrote {len(trialset)} trials for {args.subjects} subjects")
    print(f"manifest: {manifest}")
    return 0


def cmd_train(args) -> int:
    cfg, proc = _config_and_data(args)
    out = _out_dir(args)
    accuracy, net = harness._run_fold(proc, proc, cfg)
    net.save(out / "model.ccsp")
    _write_history_csv(out / "history.csv", [("pooled", net)])
    print(f"trained on {len(proc)} trials; training accuracy {accuracy:.1f}%")
    print(f"model: {out / 'model.ccsp'}")
    return 0


def cmd_eval_sd(args) -> int:
    cfg, proc = _config_and_data(args)
    out = _out_dir(args)
    result = harness.run_sd(proc, cfg, jobs=args.jobs)
    _emit_run(result, out, "sd")
    return 0


def cmd_eval_si(args) -> int:
    cfg, proc = _config_and_data(args)
    out = _out_dir(args)
    result = harness.run_loso(proc, cfg, args.phase, jobs=args.jobs)
    _emit_run(result, out, f"si_{args.phase}")
    return 0


def cmd_ablate(args) -> int:
    cfg, proc = _config_and_data(args)
    components = [args.component] if args.component else list(ABLATIONS)
    out = _out_dir(args)
    results = []
    for component in components:
        result = harness.run_sd(proc, replace(cfg, ablate=component), jobs=args.jobs)
        results.append(result)
        print(f"ablation {component}: mean accuracy {result.mean():.1f}%")
    harness.write_results_csv(out / "ablation.csv", results)
    print(f"results: {out / 'ablation.csv'}")
    return 0


def cmd_stats(args) -> int:
    if args.fixtures:
        print(stats.reference_report())
        return 0
    if not args.csv:
        raise ConfigError("cmd_stats needs --fixtures or at least one --csv")
    if len(args.csv) > 2:
        raise ConfigError("cmd_stats compares at most two result CSVs")
    tables = [harness.read_results_csv(p) for p in args.csv]
    for path, rows in zip(args.csv, tables):
        print(f"{path}: n={len(rows)} {stats.summary_line([r['accuracy'] for r in rows])}")
    if len(tables) == 2:
        a, b = (_accuracy_by_subject(path, rows) for path, rows in zip(args.csv, tables))
        shared = sorted(set(a) & set(b))
        if len(shared) < 2:
            raise DataError("paired test needs at least 2 shared subjects")
        t, p = stats.paired_t([a[s] for s in shared], [b[s] for s in shared])
        print(f"paired t-test over {len(shared)} subjects: t={t:.4f} p={p:.4f}")
    return 0


def _accuracy_by_subject(path, rows) -> dict:
    """subject -> accuracy of one results CSV; the paired test needs one row
    per subject."""
    out = {}
    for r in rows:
        if r["subject_id"] in out:
            raise DataError(f"{path}: subject {r['subject_id']} has more than one "
                            "row; the paired test needs one accuracy per subject")
        out[r["subject_id"]] = r["accuracy"]
    return out


def cmd_plot(args) -> int:
    if not args.stft and not args.csp_scatter:
        raise ConfigError("cmd_plot needs --stft or --csp-scatter")
    net = CCSPNet.load(args.model)
    if args.csp_scatter and not net.finalized:
        raise DataError(f"{args.model}: model is not finalized, so it has no CSP "
                        "projections to scatter")
    manifest = data.load_manifest(args.manifest)
    subject = args.subject if args.subject is not None else min(manifest.subjects)
    if subject not in manifest.subjects:
        raise DataError(f"subject {subject} not in dataset")
    subset = data.preprocess(data.load_subject(args.manifest, manifest, subject))
    out = _out_dir(args)
    if args.stft:
        grids = plots.stft_stage_grids(net, subset.trials[0], args.channel)
        plots.write_stft_csv(out / "stft.csv", grids)
        plots.render_stft_svg(out / "stft.svg", grids)
        print(f"wrote {out / 'stft.csv'} and {out / 'stft.svg'}")
    if args.csp_scatter:
        rows = plots.csp_scatter_points(net, subset.trials, subset.labels)
        plots.write_scatter_csv(out / "csp_scatter.csv", rows)
        plots.render_scatter_svg(out / "csp_scatter.svg", rows)
        print(f"wrote {out / 'csp_scatter.csv'} and {out / 'csp_scatter.svg'}")
    return 0


def _add_common_run_flags(p):
    p.add_argument("--config", help="key: value config file")
    p.add_argument("--manifest", help="dataset manifest path")
    p.add_argument("--out-dir", dest="out_dir", default="",
                   help="output directory (default: out)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch", dest="batch_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss-ratio", dest="loss_ratio", type=float)
    p.add_argument("--jobs", type=int,
                   help="worker pool size for per-subject folds "
                        "(default: the number of cores)")


def build_parser() -> _Parser:
    parser = _Parser(prog="ccspnet",
                     description="EEG motor-imagery decoding toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    p.add_argument("--subjects", type=int, default=4)
    p.add_argument("--trials", type=int, default=40,
                   help="trials per class per subject")
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--snr", type=float, default=4.0)
    p.add_argument("--erd", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one pooled model on all trials")
    _add_common_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-sd", help="per-subject train/test evaluation")
    _add_common_run_flags(p)
    p.set_defaults(func=cmd_eval_sd)

    p = sub.add_parser("eval-si", help="leave-one-subject-out evaluation")
    _add_common_run_flags(p)
    p.add_argument("--phase", choices=sorted(data.PHASE_CODES),
                   help="phase of the other subjects' training trials; the test set "
                        "is the held-out subject's S2 online block (default: offline)")
    p.set_defaults(func=cmd_eval_si)

    p = sub.add_parser("ablate", help="run component-removal variants")
    _add_common_run_flags(p)
    p.add_argument("--component", choices=list(ABLATIONS),
                   help="single component; default runs all four")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("stats", help="statistics report "
                       f"(CSV schema: {','.join(harness.CSV_FIELDS)})")
    p.add_argument("--fixtures", action="store_true",
                   help="use the embedded published summaries")
    p.add_argument("--csv", action="append", default=[],
                   help="result CSV (repeat to compare two runs)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("plot", help="emit plot data as CSV plus SVG")
    p.add_argument("--stft", action="store_true")
    p.add_argument("--csp-scatter", dest="csp_scatter", action="store_true")
    p.add_argument("--model", required=True, help="serialized model path")
    p.add_argument("--manifest", required=True)
    p.add_argument("--subject", type=int)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--out-dir", dest="out_dir", default="")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"{exc.filename}: {exc.strerror}"
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
