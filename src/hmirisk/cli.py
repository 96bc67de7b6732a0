"""Command-line pipeline: validate, simulate, ingest, detect, classify, report.

Exit codes: 0 success, 1 validation errors present, 2 fatal I/O or parse
error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import __version__, dataset, forked
from .config import AppConfig, config_from_dict
from .embed import EmbeddingCache, EmbeddingTransportError, LocalProvider, RemoteProvider, name_similarity
from .graph import GraphError, UnknownPathError, load_graph, resolve_path
from .ingest import align_lines, load_procedures, merge_samples, path_samples
from .metrics import metric_vector, metrics_csv_rows
from .pifnet import (
    PIF_WEIGHT_TABLE,
    evaluate,
    init_model,
    kfold_cv,
    load_model,
    load_training_csv,
    predict,
    save_model,
    stratified_folds,
    train,
)
from .report import assemble_report, write_report_files
from .risk import (
    detect_error_paths,
    identify_hfes,
    load_t95_overrides,
    model_from_samples_or_p95,
    system_category,
    time_deviation_detail,
)
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
        raise FileNotFoundError(f"no session files found in {paths}")
    return files


def _json(path: str | Path):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("not valid JSON (nested too deeply)") from None


def _lines(path: str | Path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _load(path: str | Path, parse, read=_json):
    """``parse(read(path))``: every input file is read here. A ValueError or
    KeyError is re-raised naming the file; an OSError names it already."""
    try:
        return parse(read(path))
    except (ValueError, KeyError) as err:
        raise ValueError(f"{path}: {err}") from None


def _load_inputs(args):
    """Graph, procedures, the session files, and the function that aligns the
    lines of one of them. Every declared step target must resolve in the
    graph, and is kept as its canonical path id; a step id carries at most
    one target."""
    graph = _load(args.graph, load_graph)

    def resolved_procedures(document):
        procedures, declared = [], {}
        for proc in load_procedures(document):
            steps = []
            for step in proc.steps:
                if step.target_path is not None:
                    try:
                        step = replace(step, target_path=resolve_path(graph, step.target_path).path_id)
                    except UnknownPathError as err:
                        raise ValueError(f"procedure {proc.procedure_id!r}, step {step.step_id!r}: {err}") from None
                    owner, target = declared.setdefault(step.step_id, (proc.procedure_id, step.target_path))
                    if target != step.target_path:
                        raise ValueError(
                            f"step {step.step_id!r} targets {target} in procedure {owner!r} "
                            f"and {step.target_path} in procedure {proc.procedure_id!r}"
                        )
                steps.append(step)
            procedures.append(replace(proc, steps=tuple(steps)))
        return procedures

    procedures = _load(args.procedures, resolved_procedures) if getattr(args, "procedures", None) else []
    targets = {step.step_id: step.target_path for proc in procedures for step in proc.steps if step.target_path}

    def aligned(lines):
        return align_lines(graph, lines, targets)

    return graph, procedures, _session_files(args.sessions), aligned


# Session bytes a forked worker needs to pay for itself. On 2 CPUs a 2-way
# split of the ingest fold cost 8-26 ms more CPU than the serial fold at
# every size; it was no faster at 0.27 MB, and at 4.2 MB (128 sessions) it
# took 126 ms against 175 ms, for 187 ms of CPU against 175 ms.
_MIN_FOLD_BYTES = 2 << 20


def _chunk_count(total_bytes: int) -> int:
    """Processes for a fold of ``total_bytes``: one per usable CPU, but no
    more than the bytes pay for, and one where fork is unavailable."""
    return max(1, min(forked.usable_cpus(), total_bytes // _MIN_FOLD_BYTES))


def _split(files: list[Path], n: int | None = None) -> list[list[Path]]:
    """``files`` in ``n`` (by default ``_chunk_count`` of their bytes)
    contiguous chunks, in order, of about equal bytes: a file goes to the
    chunk its byte midpoint falls in. An unreadable file weighs one byte;
    its error comes from the fold."""
    weights = []
    for f in files:
        try:
            weights.append(f.stat().st_size + 1)
        except OSError:
            weights.append(1)
    total, start = sum(weights), 0
    n = n or _chunk_count(total)
    chunks: list[list[Path]] = [[] for _ in range(n)]
    for f, weight in zip(files, weights):
        chunks[(2 * start + weight) * n // (2 * total)].append(f)
        start += weight
    return chunks


def _fold_files(files: list[Path], align):
    """Per-path samples of the files, aligned one at a time, and their
    (sessions, steps, unaligned steps) tally."""
    tally = [0, 0, 0]

    def traces():
        for f in files:
            trace = _load(f, align, _lines)
            tally[0] += 1
            tally[1] += len(trace.steps)
            tally[2] += len(trace.unaligned)
            yield trace

    return path_samples(traces()), tuple(tally)


def _fold(files: list[Path], align, meanwhile=lambda: None, *, _chunks: int | None = None):
    """Per-path samples and the ingest tally of the session files, equal to a
    serial fold in file order (its error too), and the result of
    ``meanwhile()``. The files are split into contiguous chunks, one per
    process: this process runs ``meanwhile`` and folds the first chunk, and
    a forked child (``forked.fork_map``) folds each other one."""
    tasks = [(f"{chunk[0]}: the process folding this and the next {len(chunk) - 1} session file(s)",
              partial(_fold_files, chunk, align)) for chunk in _split(files, _chunks) if chunk]
    results, extra = forked.fork_map(tasks, meanwhile)
    parts, tallies = zip(*results)
    return merge_samples(parts), tuple(map(sum, zip(*tallies))), extra


def _similarity(cfg: AppConfig):
    cache = EmbeddingCache(cfg.embed.cache_dir) if cfg.embed.cache_dir else None
    if cfg.embed.provider == "remote":
        provider = RemoteProvider(cfg.embed.endpoint, cfg.embed.model, cfg.embed.timeout_ms)
    else:
        provider = LocalProvider()
    return name_similarity(provider, cache)


def _training_rows(data_arg: str | None):
    if not data_arg:
        return dataset.training_rows()

    def rows_of(lines):
        rows = load_training_csv(lines)
        if len(rows) < 2:
            raise ValueError(f"need at least 2 training rows, got {len(rows)}")
        if len({label for _, label in rows}) < 2:
            raise ValueError("training rows contain a single class")
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


def _train_default_model(cfg: AppConfig, seed: int, rows=None):
    rows = rows if rows is not None else dataset.training_rows()
    labels = sorted({label for _, label in rows})
    model = init_model(seed, labels)
    train(model, rows, cfg.pif)
    return model


def _path_metric_entries(graph, graph_file, samples, cfg: AppConfig):
    """Per-path metric vectors; the span uses the mean traversal across
    recorded instances of the path (an exactly rounded sum, so the same
    sessions in any order give the same bits). An element the metrics
    cannot use is an error of ``graph_file``, and a remote embedding
    service that fails is an error of ``embed.endpoint``."""
    sim = _similarity(cfg)
    entries = []
    for path_id in sorted(samples):
        lengths = samples[path_id].traversals
        mean_px = math.fsum(lengths) / len(lengths) if lengths else 0.0
        try:
            metric = metric_vector(
                graph, path_id, mean_px, sim, theta=cfg.metrics.theta, normalizer_px=cfg.metrics.normalizer_px
            )
        except GraphError as err:
            raise ValueError(f"{graph_file}: {err}") from None
        except EmbeddingTransportError as err:
            raise ValueError(f"embed.endpoint: {cfg.embed.endpoint}: {err}") from None
        entries.append((path_id, metric))
    return entries


def _detect(graph, samples, procedures, cfg: AppConfig):
    """Category grouping and HFE candidates from the per-path samples."""
    grouping = {path_id: system_category(graph, path_id) for path_id in samples}
    detail = time_deviation_detail(samples, grouping, cfg.riskpath.tau)
    time_flagged = {p for p, d in detail.items() if d.flagged}
    errors = detect_error_paths(samples, cfg.riskpath.alpha)
    return grouping, identify_hfes(errors, time_flagged, graph, procedures, detail)


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
        plan = plan_from_document(document)
        return generate_sessions(graph, plan if args.seed is None else replace(plan, seed=args.seed))

    sessions = _load(args.plan, sessions_of)
    written = write_sessions(sessions, _out_dir(args))
    print(f"wrote {len(written)} session file(s) to {args.out}")
    return 0


def _cmd_ingest(args, cfg: AppConfig) -> int:
    _, _, files, align = _load_inputs(args)
    _, (sessions, steps, unaligned), _ = _fold(files, align)
    print(f"aligned {steps} steps from {sessions} session(s); {unaligned} unaligned")
    return 0


def _cmd_hfe(args, cfg: AppConfig) -> int:
    graph, procedures, files, align = _load_inputs(args)
    overrides = _load(args.t95, lambda lines: load_t95_overrides(lines, graph), _lines) if args.t95 else {}
    samples, _, _ = _fold(files, align)
    _, hfe = _detect(graph, samples, procedures, cfg)

    time_models = {}
    for path_id in sorted(set(samples) | set(overrides)):
        # Fitted on the positive durations only, the detector's rule.
        durations = [d for d in samples[path_id].durations if d > 0] if path_id in samples else []
        if not durations and path_id not in overrides:
            continue
        model = model_from_samples_or_p95(durations, overrides.get(path_id))
        time_models[path_id] = {
            "mu": model.mu,
            "sigma": model.sigma,
            "median_s": model.median(),
            "source": "empirical" if durations else "t95",
        }

    doc = {**hfe, "time_models": time_models}
    (_out_dir(args) / "hfe.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(f"{len(hfe['candidates'])} candidate path(s); prioritized: {', '.join(hfe['prioritized_procedures']) or '-'}")
    return 0


def _cmd_metrics(args, cfg: AppConfig) -> int:
    graph, _, files, align = _load_inputs(args)
    samples, _, _ = _fold(files, align)
    entries = _path_metric_entries(graph, args.graph, samples, cfg)
    text = "\n".join(metrics_csv_rows(entries)) + "\n"
    (_out_dir(args) / "metrics.csv").write_text(text, encoding="utf-8")
    print(f"metrics for {len(entries)} path(s) written to {args.out}/metrics.csv")
    return 0


def _cmd_pif_train(args, cfg: AppConfig) -> int:
    rows = _training_rows(args.data)
    model = _train_default_model(cfg, args.seed, rows)
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
    print(json.dumps({"fold_accuracies": list(result.fold_accuracies), "mean": result.mean, "std": result.std}))
    return 0


def _cmd_pif_predict(args, cfg: AppConfig) -> int:
    if args.features is None and args.data is None:
        raise ValueError("pif predict needs --features or --data")
    model = _trained_model(args.model)

    def rows_of(lines):
        rows = load_training_csv(lines)
        if not rows:
            raise ValueError("no rows to predict")
        return rows

    outputs = []
    if args.features is not None:
        try:
            values = tuple(float(v) for v in args.features.split(","))
            if not all(map(math.isfinite, values)):
                raise ValueError(f"non-finite feature in {args.features!r}")
            label, probs = predict(model, values)
        except ValueError as err:
            raise ValueError(f"--features: {err}") from None
        outputs.append({"features": list(values), "label": label, "probabilities": probs})
    if args.data is not None:
        for features, _ in _load(args.data, rows_of, _lines):
            label, probs = predict(model, features)
            outputs.append({"features": list(features), "label": label, "probabilities": probs})
    for record in outputs:
        print(json.dumps(record))
    return 0


def _cmd_report(args, cfg: AppConfig) -> int:
    graph, procedures, files, align = _load_inputs(args)
    given = _trained_model(args.model, pif_levels=True) if args.model else None
    # The default model does not depend on the sessions: it is trained while
    # children fold their chunks.
    meanwhile = (lambda: given) if args.model else (lambda: _train_default_model(cfg, args.seed))
    samples, _, model = _fold(files, align, meanwhile)
    grouping, hfe = _detect(graph, samples, procedures, cfg)
    assessments = []
    for path_id, metric in _path_metric_entries(graph, args.graph, samples, cfg):
        label, probs = predict(model, (metric["vd"], metric["sid"], metric["is"]))
        assessments.append((path_id, metric, label, probs))

    report = assemble_report(graph, hfe, assessments, cfg)
    written = write_report_files(report, _out_dir(args), samples, grouping)
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
