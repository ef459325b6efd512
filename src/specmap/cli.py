"""Command-line entry point: simulate, train, enhance, evaluate, report.

Exit codes: 0 success, 1 usage/configuration error, 2 runtime failure.
simulate, train and enhance freeze their effective configuration into
config.resolved in the output directory, so a rerun from that file
reproduces the run. Only simulate and train draw random numbers, so only
they take a seed.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .errors import ConfigError, SpecmapError, UsageError
from .estimators import RECIPES, SpectralFeatureMapper, training_features
from .featio import load_model, save_model
from .pipeline import MODES, PipelineConfig, batch_enhance
from .report import SystemEvaluation, build_report, evaluate_system, write_plot_data, write_report_csv, write_report_json
from .runconfig import parse_kv_file, resolve_config, write_resolved
from .validation import check_choice
from .wpe import WpeConfig

SIMULATE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(corpus_mod.CorpusConfig)}
WPE_DEFAULTS = {f"wpe_{f.name}": f.default for f in dataclasses.fields(WpeConfig)}

MAPPER_DEFAULTS = SpectralFeatureMapper().get_params()


def _train_key(param: str) -> str:
    """The train config key of a SpectralFeatureMapper parameter."""
    return "hidden" if param == "hidden_units" else param


TRAIN_DEFAULTS = {
    **{_train_key(name): value for name, value in MAPPER_DEFAULTS.items()},
    "input_processing": "noisy",  # or "wpe": train on dereverberated inputs (matched)
    **WPE_DEFAULTS,
}

ENHANCE_DEFAULTS = {
    "mode": "baseline",
    "split": "test",
    "jobs": 1,
    "save_waveforms": True,
    **WPE_DEFAULTS,
}

EVALUATE_DEFAULTS = {"split": "test"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(parser, seed=False):
    parser.add_argument("--config", help="flat key=value configuration file")
    if seed:
        parser.add_argument("--seed", type=int, help="master seed (overrides the config)")
    parser.add_argument(
        "--set", dest="overrides", action="append", metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


def _resolve(defaults, args):
    """The merged config, with the flags that name a config key applied last."""
    config = resolve_config(defaults, args.config, args.overrides)
    for key in ("seed", "recipe", "mode", "jobs"):
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    return config


def _wpe_config(config) -> WpeConfig:
    return WpeConfig(**{name[len("wpe_"):]: config[name] for name in WPE_DEFAULTS})


def cmd_simulate(args) -> int:
    config = _resolve(SIMULATE_DEFAULTS, args)
    corpus_config = corpus_mod.CorpusConfig(**config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = corpus_mod.build_corpus(corpus_config, out_dir)
    write_resolved(config, out_dir)
    per_split = {s: len(manifest.split_entries(s)) for s in corpus_mod.SPLITS}
    print(f"manifest: {out_dir / 'manifest.json'}")
    print("entries: " + ", ".join(f"{s}={n}" for s, n in per_split.items()))
    return 0


def cmd_train(args) -> int:
    config = _resolve(TRAIN_DEFAULTS, args)
    check_choice(config["input_processing"], ("noisy", "wpe"), "input_processing")
    wpe_config = _wpe_config(config)  # checked even when the inputs skip WPE
    wpe = wpe_config if config["input_processing"] == "wpe" else None
    mapper = SpectralFeatureMapper(**{name: config[_train_key(name)] for name in MAPPER_DEFAULTS})
    manifest = corpus_mod.CorpusManifest.load(args.manifest)
    mapper.fit(
        *training_features(manifest, "train", wpe), *training_features(manifest, "dev", wpe)
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    checkpoint = out_dir / "model.sfmd"
    save_model(
        checkpoint,
        mapper.model_,
        config={
            "context": config["context"],
            "recipe": config["recipe"],
            "input_processing": config["input_processing"],
            "feature_config": manifest.feature_config,
            "sample_rate": manifest.sample_rate,
        },
    )
    history = mapper.history_
    with open(out_dir / "history.json", "w", encoding="utf-8") as fh:
        json.dump(history.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    write_resolved(config, out_dir)
    print(f"checkpoint: {checkpoint}")
    print(
        f"epochs: {len(history.train_cost)}, stop_reason: {history.stop_reason}, "
        f"best_epoch: {history.best_epoch}"
    )
    return 0


def cmd_enhance(args) -> int:
    config = _resolve(ENHANCE_DEFAULTS, args)
    mode = config["mode"]
    manifest = corpus_mod.CorpusManifest.load(args.manifest)
    stft_config = manifest.stft_config()
    mapping = {}
    if mode in ("dnn_only", "wpe_dnn"):
        if not args.checkpoint:
            raise ConfigError(f"mode {mode!r} needs --checkpoint")
        model, model_config = load_model(args.checkpoint)
        for key in ("feature_config", "sample_rate"):
            stored = model_config.get(key)
            if stored and stored != getattr(manifest, key):
                raise ConfigError(f"checkpoint was trained with a different {key} than the manifest")
        # The context a (2c+1)*n_bins input implies; PipelineConfig rejects any other dim.
        context = max(model.input_dim // stft_config.n_bins - 1, 0) // 2
        mapping = {"model": model, "context": context}

    pipeline_config = PipelineConfig(
        mode=mode,
        stft=stft_config,
        mel=manifest.mel_config(),
        wpe=_wpe_config(config),
        magnitude_floor=manifest.magnitude_floor,
        **mapping,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = batch_enhance(
        manifest,
        pipeline_config,
        out_dir,
        split=config["split"],
        jobs=config["jobs"],
        save_waveforms=config["save_waveforms"],
    )
    write_resolved(config, out_dir)
    print(f"enhanced {len(result.features)} utterance(s) -> {out_dir}")
    if result.failures:
        for utterance, error in sorted(result.failures.items()):
            print(f"FAILED {utterance}: {error}", file=sys.stderr)
        raise SpecmapError(f"{len(result.failures)} utterance(s) failed")
    return 0


def cmd_evaluate(args) -> int:
    config = _resolve(EVALUATE_DEFAULTS, args)
    manifest = corpus_mod.CorpusManifest.load(args.manifest)
    system_dir = Path(args.system_dir)
    run_config_path = system_dir / "config.resolved"
    if not run_config_path.is_file():
        raise ConfigError(f"{system_dir} has no config.resolved; was it produced by enhance?")
    mode = parse_kv_file(run_config_path).get("mode")
    if mode not in MODES:
        raise ConfigError(f"{run_config_path} records no valid mode")
    name = args.name or mode
    evaluation = evaluate_system(manifest, system_dir, mode, config["split"], name)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    evaluation.save(out_path)
    print(f"evaluation: {out_path} (system {name!r}, {sum(c.count for c in evaluation.conditions)} utterances)")
    return 0


def cmd_report(args) -> int:
    evaluations = [SystemEvaluation.load(p) for p in args.inputs]
    report = build_report(evaluations)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_report_csv(report, out_dir / "report.csv")
    json_path = write_report_json(report, out_dir / "report.json")
    plots = write_plot_data(report, out_dir / "plotdata")
    print(f"report: {csv_path}, {json_path}, {len(plots)} plot-data file(s)")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="specmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic evaluation corpus")
    p.add_argument("--out", required=True, help="corpus output directory")
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train the feature mapper")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint output directory")
    p.add_argument("--recipe", choices=RECIPES)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="run one enhancement mode over a split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--checkpoint", help="model checkpoint for the dnn modes")
    p.add_argument("--jobs", type=int, help="utterance-level parallelism (default 1)")
    _add_common(p)
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("evaluate", help="score one enhanced system against references")
    p.add_argument("--manifest", required=True)
    p.add_argument("--system-dir", required=True, dest="system_dir")
    p.add_argument("--out", required=True, help="evaluation JSON output path")
    p.add_argument("--name", help="system name in the report (default: the mode)")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="combine evaluations into the comparison report")
    p.add_argument("--inputs", nargs="+", required=True, help="evaluation JSON files")
    p.add_argument("--out", required=True, help="report output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except SpecmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
