"""Command-line pipeline: validate, simulate, ingest, detect, classify, report.

Exit codes: 0 success, 1 validation errors present, 2 fatal I/O or parse
error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import __version__, dataset, forked
from .config import AppConfig, config_from_dict
from .embed import EmbeddingCache, EmbeddingTransportError, LocalProvider, RemoteProvider, name_similarity
from .graph import GraphError, load_graph
from .ingest import align_lines, load_procedures, merge_samples, path_samples
from .metrics import compared_names, metric_vector, metrics_csv_rows
from .pifnet import (
    PIF_WEIGHT_TABLE,
    Standardizer,
    evaluate,
    init_model,
    kfold_cv,
    load_model,
    load_training_csv,
    ordered_labels,
    predict,
    save_model,
    stratified_folds,
    train,
    training_csv_rows,
)
from .report import assemble_report, json_text, write_report_files
from .risk import detect_error_paths, identify_hfes, load_t95_overrides, system_category, time_deviation_detail, time_models
from .simulate import generate_sessions, plan_from_document, write_sessions


def _int_at_least(minimum: int, expected: str):
    """An argparse type: a decimal integer of at least ``minimum``."""

    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit()) or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be {expected}, got {text!r}")
        return int(text)

    return parse


_non_negative_int = _int_at_least(0, "a non-negative integer")
_fold_count = _int_at_least(2, "an integer of at least 2")


_SHARED_FLAGS = {
    "config": {"help": "JSON config file (analysis and embedding settings)"},
    "graph": {"required": True, "help": "graph JSON"},
    "sessions": {"nargs": "+", "required": True, "help": "session JSONL files or directories"},
    "procedures": {"help": "procedures JSON (declared step targets)"},
    "seed": {"type": _non_negative_int, "default": 0, "help": "random seed (default 0)"},
    "out": {"default": ".", "help": "output directory"},
}


def _command(sub, name: str, run, shared: tuple[str, ...], **kwargs) -> argparse.ArgumentParser:
    """A subcommand dispatching to ``run`` with the shared flags it reads."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(run=run)
    for flag in shared:
        parser.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hmirisk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hmirisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="graph utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_validate = _command(
        graph_sub, "validate", _cmd_graph_validate, (), help="check a graph file against all invariants"
    )
    p_validate.add_argument("graph_file")

    p_sim = _command(
        sub, "simulate", _cmd_simulate, ("graph", "out"), help="generate synthetic session logs from a plan"
    )
    p_sim.add_argument("--plan", required=True, help="scenario plan JSON")
    p_sim.add_argument("--seed", type=_non_negative_int, help="override the plan seed")

    _command(sub, "ingest", _cmd_ingest, ("graph", "sessions", "procedures"), help="parse and align session logs")

    p_hfe = _command(
        sub, "hfe", _cmd_hfe, ("config", "graph", "sessions", "procedures", "out"),
        help="identify risk-informed failure-event candidates",
    )
    p_hfe.add_argument("--t95", help="CSV of path_id,t95_seconds fallbacks")

    _command(
        sub, "metrics", _cmd_metrics, ("config", "graph", "sessions", "out"),
        help="per-path interface metrics from aligned traces",
    )

    p_pif = sub.add_parser("pif", help="train, cross-validate, or apply the PIF classifier")
    pif_sub = p_pif.add_subparsers(dest="pif_command", required=True)
    p_train = _command(pif_sub, "train", _cmd_pif_train, ("config", "seed"))
    p_train.add_argument("--data", help="training CSV (path_id,vd,sid,is,label); bundled dataset when omitted")
    p_train.add_argument("--model-out", required=True)
    p_cv = _command(pif_sub, "cv", _cmd_pif_cv, ("config", "seed"))
    p_cv.add_argument("--data")
    p_cv.add_argument("--k", type=_fold_count, default=5, help="number of folds (default 5)")
    p_pred = _command(pif_sub, "predict", _cmd_pif_predict, ())
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--features", help="comma-separated vd,sid,is")
    p_pred.add_argument("--data", help="CSV of rows to predict")

    p_rep = _command(
        sub, "report", _cmd_report, ("config", "graph", "sessions", "procedures", "seed", "out"),
        help="run the full pipeline and emit the risk report",
    )
    p_rep.add_argument("--model", help="trained classifier; trained on the bundled dataset when omitted")
    return parser


def _session_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.glob("*.jsonl")))
        else:
            files.append(p)
    if not files:
        raise ValueError(f"--sessions: no session files found in {', '.join(paths)}")
    return files


def _text(path: str | Path) -> str:
    return Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is dropped, lines end in "\n"


def _json(path: str | Path):
    text = _text(path)
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("not valid JSON (nested too deeply)") from None


def _lines(path: str | Path) -> list[str]:
    return _text(path).splitlines()


def _load(path: str | Path, parse, read=_json):
    """``parse(read(path))``: every input file is read here. A ValueError or
    KeyError is re-raised naming the file; an OSError names it already."""
    try:
        return parse(read(path))
    except (ValueError, KeyError) as err:
        raise ValueError(f"{path}: {err}") from None


# A fold of fewer session bytes than _MIN_FOLD_BYTES runs in one process.
# On 2 CPUs, report on 1 and 2 MiB of sessions was not steadily faster with a
# forked child claiming batches (medians of 11 runs, 3 rounds: 225-271 ms in
# one process against 203-229 ms at 1 MiB, 220-246 against 170-269 ms at
# 2 MiB) and took up to 90 ms more CPU; at 4 MiB it took 171-222 ms against
# 280-307 ms. A larger fold goes out in contiguous batches of about
# _BATCH_BYTES that the processes claim in turn. On the 16 MB campaign of
# bench/corpus.py, batches of 0.25, 0.5, 1 and 2 MiB gave report op_s
# medians of 0.439, 0.431, 0.430 and 0.435 s (4 rounds of 12 s runs), and
# 1 MiB the lowest CPU (0.763 s against 0.781 s at 0.5 MiB).
_MIN_FOLD_BYTES = 4 << 20
_BATCH_BYTES = 1 << 20


def _split(files: list[Path], n: int | None = None) -> list[list[Path]]:
    """``files`` in ``n`` contiguous batches, in order, of about equal bytes:
    a file goes to the batch its byte midpoint falls in. By default one batch
    where a second process would not pay (one usable CPU, or fewer bytes
    than _MIN_FOLD_BYTES), else batches of about _BATCH_BYTES. An
    unreadable file weighs one byte; its error comes from the fold."""
    weights = []
    for f in files:
        try:
            weights.append(f.stat().st_size + 1)
        except OSError:
            weights.append(1)
    total, start = sum(weights), 0
    if n is None:
        n = 1 if forked.usable_cpus() < 2 or total < _MIN_FOLD_BYTES else -(-total // _BATCH_BYTES)
    chunks: list[list[Path]] = [[] for _ in range(n)]
    for f, weight in zip(files, weights):
        chunks[(2 * start + weight) * n // (2 * total)].append(f)
        start += weight
    return chunks


def _fold_files(files: list[Path], align):
    """Per-path samples of the files, aligned one at a time from their text,
    and their (sessions, steps, unaligned steps) tally."""
    tally = [0, 0, 0]

    def traces():
        for f in files:
            trace = _load(f, align, _text)
            tally[0] += 1
            tally[1] += len(trace.steps)
            tally[2] += len(trace.unaligned)
            yield trace

    return path_samples(traces()), tuple(tally)


def _fold(files: list[Path], align, meanwhile, *, _chunks: int | None = None):
    """Per-path samples and the ingest tally of the session files, equal to a
    serial fold in file order (its error too), and the result of
    ``meanwhile()``. The files go out in contiguous batches (``_split``,
    ``_chunks`` of them when given) to ``forked.fork_map``: this process runs
    ``meanwhile`` and folds the first batch, a forked child folds each of
    the next ones, and then every process claims the next unfolded batch
    until none is left. The parts merge in file order."""
    tasks = [(f"{chunk[0]}: the process folding this and the next {len(chunk) - 1} session file(s)",
              partial(_fold_files, chunk, align)) for chunk in _split(files, _chunks) if chunk]
    results, extra = forked.fork_map(tasks, meanwhile)
    parts, tallies = zip(*results)
    return merge_samples(parts), tuple(map(sum, zip(*tallies))), extra


def _training_rows(data_arg: str | None):
    if not data_arg:
        return dataset.training_rows()

    def rows_of(lines):
        rows = load_training_csv(lines)
        if len(rows) < 2:
            raise ValueError(f"need at least 2 training rows, got {len(rows)}")
        if len({label for _, label in rows}) < 2:
            raise ValueError("training rows contain a single class")
        Standardizer.fit([features for features, _ in rows])  # features that overflow are this file's error
        return rows

    return _load(data_arg, rows_of, _lines)


def _trained_model(path: str, pif_levels: bool = False):
    """The trained model in the file at ``path``; with ``pif_levels`` its
    labels must be PIF levels."""

    def checked(file):
        model = load_model(file)
        unknown = [label for label in model.label_order if label not in PIF_WEIGHT_TABLE]
        if pif_levels and unknown:
            raise ValueError(f"model labels {', '.join(unknown)} are not PIF levels")
        if not model.trained or model.standardizer is None:
            raise ValueError("model is not trained")
        return model

    return _load(path, checked, read=Path)


def _train_model(cfg: AppConfig, seed: int, rows):
    model = init_model(seed, ordered_labels(label for _, label in rows))
    train(model, rows, cfg.pif)
    return model


def _path_metric_entries(graph, graph_file, samples, cfg: AppConfig):
    """Per-path metric vectors; the span uses the mean traversal across
    recorded instances of the path (an exactly rounded sum, so the same
    sessions in any order give the same bits). The names the metrics
    compare are embedded up front, in one batch. An element the metrics
    cannot use is an error of ``graph_file``, and a remote embedding
    service that fails is an error of ``embed.endpoint``."""
    cache = EmbeddingCache(cfg.embed.cache_dir) if cfg.embed.cache_dir else None
    if cfg.embed.provider == "remote":
        provider = RemoteProvider(cfg.embed.endpoint, cfg.embed.model, cfg.embed.timeout_ms)
    else:
        provider = LocalProvider()
    path_ids, entries = sorted(samples), []
    try:
        sim = name_similarity(provider, cache, compared_names(graph, path_ids))
        for path_id in path_ids:
            lengths = samples[path_id].traversals
            mean_px = math.fsum(lengths) / len(lengths) if lengths else 0.0
            metric = metric_vector(
                graph, path_id, mean_px, sim, theta=cfg.metrics.theta, normalizer_px=cfg.metrics.normalizer_px
            )
            entries.append((path_id, metric))
    except GraphError as err:
        raise ValueError(f"{graph_file}: {err}") from None
    except EmbeddingTransportError as err:
        raise ValueError(f"embed.endpoint: {cfg.embed.endpoint}: {err}") from None
    return entries


def _detect(graph, samples, procedures, cfg: AppConfig):
    """Category grouping and HFE candidates from the per-path samples."""
    grouping = {path_id: system_category(graph, path_id) for path_id in samples}
    detail = time_deviation_detail(samples, grouping, cfg.riskpath.tau)
    time_flagged = {p for p, d in detail.items() if d.flagged}
    errors = detect_error_paths(samples, cfg.riskpath.alpha)
    return grouping, identify_hfes(errors, time_flagged, graph, procedures, detail)


# What _analyse returns; tally is (sessions, steps, unaligned steps).
_Analysis = namedtuple("_Analysis", "graph procedures samples tally t95 model")


def _analyse(args, cfg: AppConfig) -> _Analysis:
    """The core of ingest, hfe, metrics and report. Every input file the
    command names is read first, in the order graph, procedures, session
    list, --t95, --model; then the session files are folded. The default
    model does not depend on the sessions, so report without --model
    trains it while children fold their chunks."""
    graph = _load(args.graph, load_graph)
    procedures = _load(args.procedures, lambda doc: load_procedures(doc, graph)) if getattr(args, "procedures", None) else []
    targets = {step.step_id: step.target_path for proc in procedures for step in proc.steps if step.target_path}
    files = _session_files(args.sessions)
    t95 = _load(args.t95, lambda lines: load_t95_overrides(lines, graph), _lines) if getattr(args, "t95", None) else {}
    given = _trained_model(args.model, pif_levels=True) if getattr(args, "model", None) else None
    default = args.command == "report" and given is None
    meanwhile = partial(_train_model, cfg, args.seed, dataset.training_rows()) if default else lambda: given
    samples, tally, model = _fold(files, lambda text: align_lines(graph, text, targets), meanwhile)
    return _Analysis(graph, procedures, samples, tally, t95, model)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_graph_validate(args, cfg: AppConfig) -> int:
    document = _load(args.graph_file, lambda document: document)
    try:
        graph = load_graph(document)
    except GraphError as err:
        for violation in err.violations:
            print(f"{violation.element_id or '-'}: {violation.rule}: {violation.detail}")
        if not err.violations:
            print(err)
        return 1
    print(f"ok: {len(graph.by_id)} elements, {len(graph.screens)} screens, diagonal {graph.layout_diagonal:.2f} px")
    return 0


def _cmd_simulate(args, cfg: AppConfig) -> int:
    graph = _load(args.graph, load_graph)

    def sessions_of(document):
        plan = plan_from_document(document, graph)
        return generate_sessions(graph, plan if args.seed is None else replace(plan, seed=args.seed))

    sessions = _load(args.plan, sessions_of)
    written = write_sessions(sessions, _out_dir(args))
    print(f"wrote {len(written)} session file(s) to {args.out}")
    return 0


def _cmd_ingest(args, cfg: AppConfig) -> int:
    sessions, steps, unaligned = _analyse(args, cfg).tally
    print(f"aligned {steps} steps from {sessions} session(s); {unaligned} unaligned")
    return 0


def _cmd_hfe(args, cfg: AppConfig) -> int:
    run = _analyse(args, cfg)
    _, hfe = _detect(run.graph, run.samples, run.procedures, cfg)
    doc = {**hfe, "time_models": time_models(run.samples, run.t95)}
    (_out_dir(args) / "hfe.json").write_text(json_text("hfe.json", doc, indent=2), encoding="utf-8")
    print(f"{len(hfe['candidates'])} candidate path(s); prioritized: {', '.join(hfe['prioritized_procedures']) or '-'}")
    return 0


def _cmd_metrics(args, cfg: AppConfig) -> int:
    run = _analyse(args, cfg)
    entries = _path_metric_entries(run.graph, args.graph, run.samples, cfg)
    text = "\n".join(metrics_csv_rows(entries)) + "\n"
    (_out_dir(args) / "metrics.csv").write_text(text, encoding="utf-8")
    print(f"metrics for {len(entries)} path(s) written to {args.out}/metrics.csv")
    return 0


def _cmd_pif_train(args, cfg: AppConfig) -> int:
    rows = _training_rows(args.data)
    model = _train_model(cfg, args.seed, rows)
    save_model(model, args.model_out)
    print(f"trained on {len(rows)} rows; training accuracy {evaluate(model, rows):.4f}; saved to {args.model_out}")
    return 0


def _cmd_pif_cv(args, cfg: AppConfig) -> int:
    rows = _training_rows(args.data)
    if args.k > len(rows):
        raise ValueError(f"--k: {args.k} exceeds the {len(rows)} training rows")
    labels = [label for _, label in rows]
    for fold, held_out in enumerate(stratified_folds(labels, args.k, args.seed), start=1):
        held = set(held_out)
        kept = {label for i, label in enumerate(labels) if i not in held}
        if len(kept) < 2:
            source = args.data or "the bundled training rows"
            raise ValueError(
                f"--k: {args.k} folds of {source} leave training split {fold} with the single label {kept.pop()}"
            )
    result = kfold_cv(rows, k=args.k, seed=args.seed, hyper=cfg.pif)
    print(json_text("stdout", {"fold_accuracies": list(result.fold_accuracies), "mean": result.mean, "std": result.std}))
    return 0


def _cmd_pif_predict(args, cfg: AppConfig) -> int:
    if args.features is None and args.data is None:
        raise ValueError("pif predict needs --features or --data")
    model = _trained_model(args.model)

    def record(features):
        label, probs = predict(model, features)
        return {"features": list(features), "label": label, "probabilities": probs}

    def records_of(lines):
        rows = list(training_csv_rows(lines))
        if not rows:
            raise ValueError("no rows to predict")
        records = []
        for line_no, features, _ in rows:
            try:
                records.append(record(features))
            except ValueError as err:
                raise ValueError(f"line {line_no}: {err}") from None
        return records

    outputs = []
    if args.features is not None:
        try:
            values = tuple(float(v) for v in args.features.split(","))
            if not all(map(math.isfinite, values)):
                raise ValueError(f"non-finite feature in {args.features!r}")
            outputs.append(record(values))
        except ValueError as err:
            raise ValueError(f"--features: {err}") from None
    if args.data is not None:
        outputs.extend(_load(args.data, records_of, _lines))
    lines = [json_text("stdout", output) for output in outputs]  # all of them, before any is printed
    print(*lines, sep="\n")
    return 0


def _cmd_report(args, cfg: AppConfig) -> int:
    run = _analyse(args, cfg)
    grouping, hfe = _detect(run.graph, run.samples, run.procedures, cfg)
    assessments = []
    for path_id, metric in _path_metric_entries(run.graph, args.graph, run.samples, cfg):
        label, probs = predict(run.model, (metric["vd"], metric["sid"], metric["is"]))
        assessments.append((path_id, metric, label, probs))

    report = assemble_report(run.graph, hfe, assessments, cfg)
    written = write_report_files(report, _out_dir(args), run.samples, grouping)
    print(f"report written: {', '.join(written)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = getattr(args, "config", None)
        return args.run(args, _load(config, config_from_dict) if config else AppConfig())
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
