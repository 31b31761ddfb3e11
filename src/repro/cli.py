"""Command-line interface for the TAaMR reproduction.

Four subcommands cover the daily workflows::

    python -m repro stats   --dataset men --scale 0.006
    python -m repro train   --dataset men --scale 0.006 --cache-dir .cache
    python -m repro attack  --dataset men --source sock --target running_shoe \
                            --attack pgd --eps 8 --model vbpr --save-images out.png
    python -m repro tables  --dataset men --scale 0.006
    python -m repro run     --dataset men --cache-dir .cache --explain
    python -m repro run     --dataset men --cache-dir .cache --manifest run.json
    python -m repro lint    --explain
    python -m repro lint    --select RPR003 --format json

``stats`` prints Table I-style dataset statistics; ``train`` runs (and
optionally caches) the training stages of the ``run`` DAG and prints
their manifest and ranking metrics; ``attack`` runs a single
TAaMR attack and reports CHR / success / visual metrics; ``tables``
regenerates the paper's Tables II-IV on one dataset (the ``tables``
stage of the ``run`` DAG, printed); ``run`` executes the experiment stage
DAG against a content-addressed artifact store — only stages whose
inputs changed re-run — and emits a JSON run manifest (per-stage
fingerprints, artifact hashes, cache hit/built actions, timings);
``lint`` runs the repo-specific static analysis (:mod:`repro.analysis`).
Every workflow subcommand also accepts ``--sanitize`` to run under the
autograd sanitizer (:mod:`repro.nn.sanitizer`), plus the observability
switches ``--profile`` (autograd op profiler + metrics registry, hot-op
table on exit) and ``--trace-out PATH`` (record telemetry spans and
write a Chrome ``chrome://tracing`` trace, or JSON-lines for ``.jsonl``
paths).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .attacks import BIM, FGSM, MIM, PGD, epsilon_from_255
from .core import TAaMRPipeline, make_scenario
from .experiments import build_context, format_table1, men_config, women_config
from .telemetry.session import current_report

ATTACKS = {
    "fgsm": lambda model, eps, steps, seed: FGSM(model, eps),
    "pgd": lambda model, eps, steps, seed: PGD(model, eps, num_steps=steps, seed=seed),
    "bim": lambda model, eps, steps, seed: BIM(model, eps, num_steps=steps),
    "mim": lambda model, eps, steps, seed: MIM(model, eps, num_steps=steps),
}


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=("men", "women"), default="men",
        help="which Amazon-like dataset preset to use",
    )
    parser.add_argument("--scale", type=float, default=0.006, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument(
        "--cache-dir", default=None,
        help="directory for cached trained weights (speeds up re-runs)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress logs")
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run under the autograd sanitizer (NaN/Inf guards, saved-tensor "
        "integrity, dtype-policy and leaked-graph checks); values are "
        "bitwise identical, execution is slower",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect autograd op stats and run metrics; prints the hot-op "
        "table and a metrics snapshot on exit (outputs stay bitwise "
        "identical)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record telemetry spans and write them to PATH on exit "
        "(Chrome chrome://tracing format; '.jsonl' suffix selects "
        "JSON-lines)",
    )


def _make_config(args: argparse.Namespace):
    factory = men_config if args.dataset == "men" else women_config
    return factory(scale=args.scale, seed=args.seed)


def _build(args: argparse.Namespace):
    return build_context(
        _make_config(args), cache_dir=args.cache_dir, verbose=not args.quiet
    )


# --------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------- #


def cmd_stats(args: argparse.Namespace) -> int:
    from .data import PAPER_SIZES, amazon_men_like, amazon_women_like

    builder = amazon_men_like if args.dataset == "men" else amazon_women_like
    dataset = builder(scale=args.scale, seed=args.seed)
    paper_key = "amazon_men" if args.dataset == "men" else "amazon_women"
    paper_row = dict(PAPER_SIZES[paper_key])
    paper_row["interactions_per_user"] = (
        paper_row["interactions"] / paper_row["users"]
    )
    print(format_table1({dataset.name: dataset.stats(), f"paper: {paper_key}": paper_row}))
    print("\nItems per category:")
    for name, count in sorted(dataset.category_item_counts().items()):
        print(f"  {name:15s} {count}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .artifacts import ArtifactStore
    from .experiments import StageRunner, format_manifest

    store = ArtifactStore(args.cache_dir) if args.cache_dir else None
    runner = StageRunner(_make_config(args), store=store, verbose=not args.quiet)
    context, manifest = runner.run(stages=["vbpr", "amr"])
    print(format_manifest(manifest))
    accuracy = context.classifier_accuracy
    print(
        "classifier accuracy: "
        + (f"{accuracy:.3f}" if accuracy is not None else "unknown (not recorded)")
    )
    from .recommenders import evaluate_ranking

    for name in ("VBPR", "AMR"):
        report = evaluate_ranking(
            context.recommender(name), context.dataset.feedback, cutoff=10
        )
        print(f"{name}: {report.as_dict()}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    context = _build(args)
    registry = context.dataset.registry
    try:
        scenario = make_scenario(registry, args.source, args.target)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    attack = ATTACKS[args.attack](
        context.classifier, epsilon_from_255(args.eps), args.steps, args.seed
    )
    pipeline = TAaMRPipeline(
        context.dataset,
        context.extractor,
        context.recommender(args.model),
        cutoff=args.cutoff,
    )
    outcome = pipeline.attack_category(scenario, attack, attack_name=args.attack.upper())

    print(f"scenario:        {scenario.label()}")
    print(f"attack:          {outcome.attack_name} (ε = {args.eps}/255)")
    print(f"success rate:    {outcome.success_rate:.1%}")
    print(
        f"CHR@{pipeline.cutoff}:         {outcome.chr_source_before:.3f}% -> "
        f"{outcome.chr_source_after:.3f}%  (x{outcome.chr_uplift:.2f})"
    )
    print(f"target CHR@{pipeline.cutoff}:  {outcome.chr_target_before:.3f}%")
    print(
        f"visual quality:  PSNR {outcome.visual.psnr:.2f} dB | "
        f"SSIM {outcome.visual.ssim:.4f} | PSM {outcome.visual.psm:.4f}"
    )

    if args.save_images:
        from .viz import save_attack_comparison

        count = min(args.num_images, outcome.attacked_item_ids.size)
        clean = context.dataset.images[outcome.attacked_item_ids[:count]]
        save_attack_comparison(
            clean, outcome.adversarial_images[:count], args.save_images
        )
        print(f"clean/attacked grid saved to {args.save_images}")
    return 0


def _dag_config(args: argparse.Namespace):
    """The ExperimentConfig behind ``run`` / ``matrix``; None on a bad flag."""
    factory = men_config if args.dataset == "men" else women_config
    overrides = dict(scale=args.scale, seed=args.seed, cutoff=args.cutoff)
    if args.epsilons:
        try:
            overrides["epsilons_255"] = tuple(
                float(part) for part in args.epsilons.split(",") if part.strip()
            )
        except ValueError:
            print("error: --epsilons must be comma-separated numbers", file=sys.stderr)
            return None
    if args.pgd_steps is not None:
        overrides["pgd_steps"] = args.pgd_steps
    if args.ladder is not None:
        overrides["ladder_mode"] = args.ladder
    return factory(**overrides)


def cmd_run(args: argparse.Namespace) -> int:
    from .artifacts import ArtifactStore
    from .experiments import (
        STAGE_ORDER,
        StageRunner,
        format_manifest,
        format_plan,
    )

    config = _dag_config(args)
    if config is None:
        return 2

    stages = None
    if args.stages:
        stages = [part.strip() for part in args.stages.split(",") if part.strip()]
        unknown = [name for name in stages if name not in STAGE_ORDER]
        if unknown:
            print(
                f"error: unknown stages {unknown}; available: {list(STAGE_ORDER)}",
                file=sys.stderr,
            )
            return 2
    force = (
        [part.strip() for part in args.force.split(",") if part.strip()]
        if args.force
        else ()
    )

    store = ArtifactStore(args.cache_dir) if args.cache_dir else None
    runner = StageRunner(config, store=store, verbose=not args.quiet)

    if args.explain:
        print(format_plan(runner.plan(stages)))
        return 0

    try:
        results, manifest = runner.run(stages=stages, force=force)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    manifest.telemetry = current_report()
    print(format_manifest(manifest))
    if args.manifest:
        manifest.save(args.manifest)
        print(f"manifest written to {args.manifest}")
    if results.tables_text and not args.quiet:
        print()
        print(results.tables_text)
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    import dataclasses
    import json as json_module

    from .artifacts import ArtifactStore
    from .experiments import (
        MatrixConfig,
        MatrixRunner,
        format_cube,
        format_manifest,
        format_plan,
    )

    base = _dag_config(args)
    if base is None:
        return 2

    def split(value: str) -> tuple:
        return tuple(part.strip() for part in value.split(",") if part.strip())

    # Per-defense / per-attack knobs arrive as --set field=value pairs,
    # coerced by the MatrixConfig field's declared type.
    knob_types = {
        f.name: f.type
        for f in dataclasses.fields(MatrixConfig)
        if f.name not in ("base", "attacks", "defenses", "recommenders")
    }
    knobs = {}
    for pair in args.set or ():
        key, _, raw = pair.partition("=")
        key = key.strip()
        if key not in knob_types:
            print(
                f"error: unknown matrix field '{key}'; available: {sorted(knob_types)}",
                file=sys.stderr,
            )
            return 2
        caster = int if str(knob_types[key]) in ("int", "<class 'int'>") else float
        try:
            knobs[key] = caster(raw)
        except ValueError:
            print(f"error: cannot parse --set {pair}", file=sys.stderr)
            return 2

    try:
        config = MatrixConfig(
            base=base,
            attacks=split(args.attacks),
            defenses=split(args.defenses),
            recommenders=split(args.recommenders),
            **knobs,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    force = split(args.force) if args.force else ()
    store = ArtifactStore(args.cache_dir) if args.cache_dir else None
    runner = MatrixRunner(config, store=store, verbose=not args.quiet)

    if args.explain:
        print(format_plan(runner.plan()))
        return 0

    try:
        results, manifest = runner.run(force=force)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    manifest.telemetry = current_report()
    print(format_manifest(manifest))
    print()
    print(format_cube(results.rows))
    if args.manifest:
        manifest.save(args.manifest)
        print(f"manifest written to {args.manifest}")
    if args.cube_out:
        with open(args.cube_out, "w", encoding="utf-8") as handle:
            json_module.dump(results.rows, handle, indent=2, sort_keys=True)
        print(f"cube rows written to {args.cube_out}")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    import dataclasses

    from .artifacts import ArtifactStore
    from .experiments import StageRunner

    config = _make_config(args)
    if args.ladder is not None:
        config = dataclasses.replace(config, ladder_mode=args.ladder)
    store = ArtifactStore(args.cache_dir) if args.cache_dir else None
    runner = StageRunner(config, store=store, verbose=not args.quiet)
    results, _ = runner.run(stages=["tables"])
    print(results.tables_text)
    return 0


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import ALL_RULES, LintEngine

    engine = LintEngine(ALL_RULES)
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    if args.explain:
        print(engine.explain(select))
        return 0
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [Path(__file__).resolve().parent]  # the repro package itself
    try:
        violations = engine.run(paths, select=select, ignore=ignore)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(engine.format_json(violations))
    elif args.format == "github":
        print(engine.format_github(violations))
    else:
        print(engine.format_text(violations))
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAaMR (DSN 2020) reproduction — targeted adversarial "
        "attacks against multimedia recommenders",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    stats = subparsers.add_parser("stats", help="dataset statistics (Table I)")
    _add_common_arguments(stats)
    stats.set_defaults(handler=cmd_stats)

    train = subparsers.add_parser("train", help="train classifier + recommenders")
    _add_common_arguments(train)
    train.set_defaults(handler=cmd_train)

    attack = subparsers.add_parser("attack", help="run one TAaMR attack")
    _add_common_arguments(attack)
    attack.add_argument("--source", default="sock", help="source category name")
    attack.add_argument("--target", default="running_shoe", help="target category name")
    attack.add_argument("--attack", choices=sorted(ATTACKS), default="pgd")
    attack.add_argument("--eps", type=float, default=8.0, help="ε on the 0-255 scale")
    attack.add_argument("--steps", type=int, default=10, help="iterations (pgd/bim/mim)")
    attack.add_argument("--model", choices=("vbpr", "amr"), default="vbpr")
    attack.add_argument("--cutoff", type=int, default=100, help="N of CHR@N")
    attack.add_argument("--save-images", default=None, help="write a PNG comparison grid")
    attack.add_argument("--num-images", type=int, default=8, help="pairs in the grid")
    attack.set_defaults(handler=cmd_attack)

    tables = subparsers.add_parser("tables", help="regenerate Tables II-IV")
    _add_common_arguments(tables)
    tables.add_argument(
        "--ladder", choices=("exact", "warm"), default=None,
        help="attack-grid engine: 'exact' batches each cohort through the "
        "ε ladder (bitwise-identical to per-cell attacks), 'warm' adds "
        "warm starts + early exits (default: the config's ladder_mode, "
        "'exact')",
    )
    tables.set_defaults(handler=cmd_tables)

    run = subparsers.add_parser(
        "run",
        help="execute the experiment stage DAG with artifact-store caching",
        description="Run the staged pipeline (dataset -> classifier -> features "
        "-> recommenders -> clean scores -> attack grid -> tables) against a "
        "content-addressed artifact store; only stages whose inputs changed "
        "re-execute, and every run emits a JSON manifest of per-stage "
        "fingerprints, artifact hashes, hit/built actions and timings.",
    )
    _add_common_arguments(run)
    run.add_argument("--cutoff", type=int, default=100, help="N of CHR@N")
    run.add_argument(
        "--epsilons", default=None,
        help="comma-separated attack grid on the 0-255 scale (e.g. 2,4,8,16)",
    )
    run.add_argument("--pgd-steps", type=int, default=None, help="PGD iterations")
    run.add_argument(
        "--ladder", choices=("exact", "warm"), default=None,
        help="attack-grid engine for the attack_grid stage (fingerprinted: "
        "changing it re-runs the stage); default is the config's "
        "ladder_mode, 'exact'",
    )
    run.add_argument(
        "--stages", default=None,
        help="comma-separated target stages (deps are added automatically; "
        "default: the full DAG through 'tables')",
    )
    run.add_argument(
        "--force", default=None,
        help="comma-separated stages to rebuild even when validly cached",
    )
    run.add_argument(
        "--explain", action="store_true",
        help="print the stage plan (fingerprint + cached/missing) and exit "
        "without executing anything",
    )
    run.add_argument(
        "--manifest", default=None,
        help="write the JSON run manifest to this path",
    )
    run.set_defaults(handler=cmd_run)

    matrix = subparsers.add_parser(
        "matrix",
        help="run the scenario matrix (attacks x defenses x recommenders)",
        description="Cross attacks (FGSM/PGD/CW/MIM/NES/TRANSFER), defenses "
        "(none/adv_train/distill/squeeze/detector) and recommenders "
        "(VBPR/AMR/BPRMF) as first-class DAG cells with chained "
        "fingerprints; editing one defense's knob re-runs only that "
        "defense's column.  Emits a CHR / success-rate / PSNR-SSIM cube "
        "and a per-cell JSON manifest.",
    )
    _add_common_arguments(matrix)
    matrix.add_argument("--cutoff", type=int, default=100, help="N of CHR@N")
    matrix.add_argument(
        "--epsilons", default=None,
        help="comma-separated attack grid on the 0-255 scale (e.g. 2,4,8,16)",
    )
    matrix.add_argument("--pgd-steps", type=int, default=None, help="PGD iterations")
    matrix.add_argument(
        "--ladder", choices=("exact", "warm"), default=None,
        help="ε-ladder mode for FGSM/PGD cells (others always run per-cell)",
    )
    matrix.add_argument(
        "--attacks", default="FGSM,PGD",
        help="comma-separated attack axis (FGSM,PGD,CW,MIM,NES,TRANSFER)",
    )
    matrix.add_argument(
        "--defenses", default="none",
        help="comma-separated defense axis (none,adv_train,distill,squeeze,detector)",
    )
    matrix.add_argument(
        "--recommenders", default="VBPR,AMR",
        help="comma-separated recommender axis (VBPR,AMR,BPRMF)",
    )
    matrix.add_argument(
        "--set", action="append", default=None, metavar="FIELD=VALUE",
        help="override a MatrixConfig knob (e.g. --set squeeze_bits=5 "
        "--set detector_fpr=0.1); repeatable",
    )
    matrix.add_argument(
        "--force", default=None,
        help="comma-separated matrix nodes to rebuild even when validly "
        "cached (e.g. defense:squeeze,cell:none/FGSM/VBPR)",
    )
    matrix.add_argument(
        "--explain", action="store_true",
        help="print the node plan (fingerprint + cached/missing) and exit",
    )
    matrix.add_argument(
        "--manifest", default=None,
        help="write the JSON matrix manifest (per-cell fingerprints) here",
    )
    matrix.add_argument(
        "--cube-out", default=None,
        help="write the cube rows as JSON to this path",
    )
    matrix.set_defaults(handler=cmd_matrix)

    lint = subparsers.add_parser(
        "lint",
        help="run the repo-specific static analysis (rules RPR001-RPR010)",
        description="AST lint for reproduction invariants: dtype-promotion "
        "hazards (RPR001), randomness outside repro.rng (RPR002), stage "
        "fingerprint/config-read mismatches (RPR003), mutable default "
        "arguments (RPR004), raw numpy serialization outside repro.artifacts "
        "(RPR005), raw time-module timing outside repro.telemetry (RPR006), "
        "plus the interprocedural concurrency rules for the sharded serving "
        "tier: shm write escapes (RPR007), RPC protocol exhaustiveness "
        "(RPR008), epoch discipline (RPR009), queue/lock hygiene (RPR010). "
        "Exits non-zero when violations are found.",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument("--select", default=None, help="comma-separated rule IDs to run")
    lint.add_argument("--ignore", default=None, help="comma-separated rule IDs to skip")
    lint.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format (json is machine-readable, github emits "
        "workflow ::error annotations)",
    )
    lint.add_argument(
        "--explain", action="store_true",
        help="print the rationale for each (selected) rule and exit",
    )
    lint.set_defaults(handler=cmd_lint)
    return parser


def _run_handler(args: argparse.Namespace) -> int:
    if getattr(args, "sanitize", False):
        from .nn import sanitize

        with sanitize():
            return args.handler(args)
    return args.handler(args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    profile = bool(getattr(args, "profile", False))
    trace_out = getattr(args, "trace_out", None)
    if not (profile or trace_out):
        return _run_handler(args)

    from .telemetry import format_hot_ops, format_metrics, telemetry_session

    with telemetry_session(
        trace=trace_out is not None, metrics=True, profile=profile
    ) as session:
        code = _run_handler(args)
    if profile:
        print()
        print(format_hot_ops(session.profiler))
    if session.metrics is not None and len(session.metrics):
        print()
        print(format_metrics(session.metrics))
    if trace_out:
        # Written after the session closes: the recorder retains every
        # completed span, and this order keeps exporter cost out of the
        # measured region.
        session.recorder.write(trace_out)
        print(f"trace written to {trace_out}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
