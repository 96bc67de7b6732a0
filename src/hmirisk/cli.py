"""Command-line pipeline: validate, simulate, ingest, detect, classify, report.

Exit codes: 0 success, 1 validation errors present, 2 fatal I/O or parse
error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__, dataset
from .config import AppConfig, load_app_config
from .embed import EmbeddingCache, LocalProvider, RemoteProvider, name_similarity
from .graph import GraphError, load_graph, validate_graph
from .ingest import align_events, load_procedures, parse_session_log, path_samples
from .metrics import metric_vector, metrics_csv_rows, trajectory_length
from .pifnet import (
    TrainConfig,
    evaluate,
    init_model,
    kfold_cv,
    load_model,
    load_training_csv,
    predict,
    save_model,
    train,
)
from .report import assemble_report, write_report_files
from .risk import (
    detect_error_paths,
    detect_time_deviated,
    identify_hfes,
    load_t95_overrides,
    model_from_samples_or_p95,
    system_category,
    time_deviation_detail,
)
from .simulate import generate_sessions, plan_from_document, write_sessions


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", default=".", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hmirisk", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hmirisk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="graph utilities")
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_validate = graph_sub.add_parser("validate", help="check a graph file against all invariants")
    p_validate.add_argument("graph_file")
    _add_common(p_validate)

    p_sim = sub.add_parser("simulate", help="generate synthetic session logs from a plan")
    p_sim.add_argument("--graph", help="graph JSON (falls back to config paths.graph)")
    p_sim.add_argument("--plan", required=True, help="scenario plan JSON")
    _add_common(p_sim)

    p_ing = sub.add_parser("ingest", help="parse and align session logs")
    p_ing.add_argument("--graph")
    p_ing.add_argument("--sessions", nargs="+", help="session JSONL files or directories")
    p_ing.add_argument("--procedures", help="procedures JSON (declared step targets)")
    _add_common(p_ing)

    p_hfe = sub.add_parser("hfe", help="identify risk-informed failure-event candidates")
    p_hfe.add_argument("--graph")
    p_hfe.add_argument("--sessions", nargs="+")
    p_hfe.add_argument("--procedures")
    p_hfe.add_argument("--t95", help="CSV of path_id,t95_seconds fallbacks")
    _add_common(p_hfe)

    p_met = sub.add_parser("metrics", help="per-path interface metrics from aligned traces")
    p_met.add_argument("--graph")
    p_met.add_argument("--sessions", nargs="+")
    _add_common(p_met)

    p_pif = sub.add_parser("pif", help="train, cross-validate, or apply the PIF classifier")
    pif_sub = p_pif.add_subparsers(dest="pif_command", required=True)
    p_train = pif_sub.add_parser("train")
    p_train.add_argument("--data", help="training CSV (path_id,vd,sid,is,label); bundled dataset when omitted")
    p_train.add_argument("--model-out", required=True)
    _add_common(p_train)
    p_cv = pif_sub.add_parser("cv")
    p_cv.add_argument("--data")
    p_cv.add_argument("--k", type=int, default=None)
    _add_common(p_cv)
    p_pred = pif_sub.add_parser("predict")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--features", help="comma-separated vd,sid,is")
    p_pred.add_argument("--data", help="CSV of rows to predict")
    _add_common(p_pred)

    p_rep = sub.add_parser("report", help="run the full pipeline and emit the risk report")
    p_rep.add_argument("--graph")
    p_rep.add_argument("--sessions", nargs="+")
    p_rep.add_argument("--procedures")
    p_rep.add_argument("--model", help="trained classifier; trained on the bundled dataset when omitted")
    _add_common(p_rep)
    return parser


def _resolve_inputs(args, cfg: AppConfig) -> None:
    """Fill missing file arguments from the config paths section."""
    fallbacks = {
        "graph": cfg.paths.graph,
        "procedures": cfg.paths.procedures,
        "t95": cfg.paths.t95,
        "model": cfg.paths.model,
    }
    for name, fallback in fallbacks.items():
        if hasattr(args, name) and getattr(args, name) is None and fallback:
            setattr(args, name, fallback)
    if hasattr(args, "sessions") and not args.sessions:
        if cfg.paths.sessions:
            args.sessions = [cfg.paths.sessions]
        else:
            raise ValueError("no session files given (flag --sessions or config paths.sessions)")
    if hasattr(args, "graph") and args.graph is None:
        raise ValueError("no graph file given (flag --graph or config paths.graph)")


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


def _load_pipeline_inputs(args, cfg: AppConfig):
    graph = load_graph(args.graph)
    logs = [parse_session_log(p) for p in _session_files(args.sessions)]
    step_targets: dict[str, str] = {}
    procedures = []
    if getattr(args, "procedures", None):
        procedures = load_procedures(args.procedures)
        step_targets = {
            step.step_id: step.target_path
            for proc in procedures
            for step in proc.steps
            if step.target_path
        }
    traces = [align_events(graph, log, step_targets) for log in logs]
    return graph, logs, procedures, traces, path_samples(traces)


def _similarity(cfg: AppConfig):
    cache = EmbeddingCache(cfg.embed.cache_dir) if cfg.embed.cache_dir else None
    if cfg.embed.provider == "remote":
        provider = RemoteProvider(cfg.embed.endpoint, cfg.embed.model, cfg.embed.timeout_ms)
    else:
        provider = LocalProvider()
    return name_similarity(provider, cache)


def _training_rows(data_arg: str | None):
    if data_arg:
        return load_training_csv(data_arg)
    return dataset.training_rows()


def _hyper(cfg: AppConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=cfg.pif.learning_rate, epochs=cfg.pif.epochs, dropout=cfg.pif.dropout
    )


def _train_default_model(cfg: AppConfig, seed: int, rows=None):
    rows = rows if rows is not None else dataset.training_rows()
    labels = sorted({label for _, label in rows})
    model = init_model(seed, labels)
    train(model, rows, _hyper(cfg))
    return model


def _path_metric_entries(graph, traces, samples, cfg: AppConfig):
    """Per-path metric vectors; the span uses the mean traversal across
    recorded instances of the path."""
    sim = _similarity(cfg)
    lengths: dict[str | None, list[float]] = {}
    for trace in traces:
        for step in trace.steps:
            if step.trajectory:
                lengths.setdefault(step.path_id, []).append(trajectory_length(step.trajectory))
    entries = []
    for path_id in sorted(samples):
        path_lengths = lengths.get(path_id)
        mean_px = sum(path_lengths) / len(path_lengths) if path_lengths else 0.0
        entries.append(
            (
                path_id,
                metric_vector(
                    graph,
                    path_id,
                    [(0.0, 0.0), (mean_px, 0.0)],
                    sim,
                    theta=cfg.metrics.theta,
                    normalizer_px=cfg.metrics.normalizer_px,
                    pairwise=cfg.metrics.pairwise,
                ),
            )
        )
    return entries


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_graph_validate(args, cfg: AppConfig) -> int:
    try:
        graph = load_graph(args.graph_file)
    except GraphError as err:
        for violation in err.violations:
            print(f"{violation.element_id or '-'}: {violation.rule}: {violation.detail}")
        if not err.violations:
            print(err)
        return 1
    violations = validate_graph(graph)
    for violation in violations:
        print(f"{violation.element_id or '-'}: {violation.rule}: {violation.detail}")
    if violations:
        return 1
    print(f"ok: {len(graph.by_id)} elements, {len(graph.screens)} screens, diagonal {graph.layout_diagonal:.2f} px")
    return 0


def _cmd_simulate(args, cfg: AppConfig) -> int:
    graph = load_graph(args.graph)
    plan_doc = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    if args.seed is not None:
        plan_doc["seed"] = args.seed
    plan = plan_from_document(plan_doc)
    written = write_sessions(generate_sessions(graph, plan), _out_dir(args))
    print(f"wrote {len(written)} session file(s) to {args.out}")
    return 0


def _cmd_ingest(args, cfg: AppConfig) -> int:
    graph, logs, procedures, traces, samples = _load_pipeline_inputs(args, cfg)
    out = _out_dir(args)
    traces_doc = [
        {
            "session_id": t.session_id,
            "unaligned": list(t.unaligned),
            "steps": [
                {
                    "step_id": s.step_id,
                    "path_id": s.path_id,
                    "duration_s": s.duration_s,
                    "errors": [e.value for e in s.errors],
                    "trajectory": [list(p) for p in s.trajectory],
                }
                for s in t.steps
            ],
        }
        for t in traces
    ]
    (out / "traces.json").write_text(json.dumps(traces_doc, indent=2), encoding="utf-8")
    samples_doc = {
        path_id: {
            "durations": s.durations,
            "attempts": s.attempts,
            "error_counts": s.error_counts,
        }
        for path_id, s in sorted(samples.items())
    }
    (out / "samples.json").write_text(json.dumps(samples_doc, indent=2), encoding="utf-8")
    unaligned = sum(len(t.unaligned) for t in traces)
    print(f"aligned {sum(len(t.steps) for t in traces)} steps from {len(logs)} session(s); {unaligned} unaligned")
    return 0


def _grouping_for(graph, samples) -> dict[str, str]:
    return {path_id: system_category(graph, path_id) for path_id in samples}


def _cmd_hfe(args, cfg: AppConfig) -> int:
    graph, _, procedures, traces, samples = _load_pipeline_inputs(args, cfg)
    grouping = _grouping_for(graph, samples)
    detail = time_deviation_detail(samples, grouping, cfg.riskpath.tau, cfg.riskpath.sigma)
    time_flagged = {p for p, d in detail.items() if d.flagged}
    errors = detect_error_paths(samples, cfg.riskpath.alpha)
    hfe = identify_hfes(errors, time_flagged, graph, procedures, detail)

    overrides = load_t95_overrides(Path(args.t95).read_text(encoding="utf-8")) if args.t95 else {}
    time_models = {}
    for path_id in sorted(set(samples) | set(overrides)):
        durations = samples[path_id].durations if path_id in samples else None
        model = model_from_samples_or_p95(durations, overrides.get(path_id), cfg.riskpath.sigma)
        time_models[path_id] = {
            "mu": model.mu,
            "sigma": model.sigma,
            "median_s": model.median(),
            "source": "empirical" if durations else "t95",
        }

    doc = {
        "candidates": [
            {
                "path_id": c.path_id,
                "error_prob": c.error_prob,
                "error_kinds": sorted(k.value for k in c.error_kinds),
                "time_flag": c.time_flag,
                "tail_prob_at_threshold": c.tail_prob_at_threshold,
                "provenance": sorted(c.provenance),
            }
            for c in hfe.candidates
        ],
        "per_procedure": hfe.per_procedure,
        "prioritized_procedures": list(hfe.prioritized_procedures),
        "time_models": time_models,
    }
    (_out_dir(args) / "hfe.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(f"{len(hfe.candidates)} candidate path(s); prioritized: {', '.join(hfe.prioritized_procedures) or '-'}")
    return 0


def _cmd_metrics(args, cfg: AppConfig) -> int:
    graph, _, _, traces, samples = _load_pipeline_inputs(args, cfg)
    entries = _path_metric_entries(graph, traces, samples, cfg)
    text = "\n".join(metrics_csv_rows(entries)) + "\n"
    (_out_dir(args) / "metrics.csv").write_text(text, encoding="utf-8")
    print(f"metrics for {len(entries)} path(s) written to {args.out}/metrics.csv")
    return 0


def _cmd_pif(args, cfg: AppConfig) -> int:
    seed = args.seed if args.seed is not None else cfg.pif.seed
    if args.pif_command == "train":
        rows = _training_rows(args.data)
        model = _train_default_model(cfg, seed, rows)
        save_model(model, args.model_out)
        print(f"trained on {len(rows)} rows; training accuracy {evaluate(model, rows):.4f}; saved to {args.model_out}")
        return 0
    if args.pif_command == "cv":
        rows = _training_rows(args.data)
        k = args.k if args.k is not None else cfg.pif.k_folds
        result = kfold_cv(rows, k=k, seed=seed, hyper=_hyper(cfg))
        print(json.dumps({"fold_accuracies": list(result.fold_accuracies), "mean": result.mean, "std": result.std}))
        return 0
    model = load_model(args.model)
    outputs = []
    if args.features:
        values = tuple(float(v) for v in args.features.split(","))
        label, probs = predict(model, values)
        outputs.append({"features": list(values), "label": label, "probabilities": probs})
    if args.data:
        for features, _ in load_training_csv(args.data):
            label, probs = predict(model, features)
            outputs.append({"features": list(features), "label": label, "probabilities": probs})
    if not outputs:
        raise ValueError("pif predict needs --features or --data")
    for record in outputs:
        print(json.dumps(record))
    return 0


def _cmd_report(args, cfg: AppConfig) -> int:
    graph, _, procedures, traces, samples = _load_pipeline_inputs(args, cfg)
    grouping = _grouping_for(graph, samples)
    detail = time_deviation_detail(samples, grouping, cfg.riskpath.tau, cfg.riskpath.sigma)
    time_flagged = {p for p, d in detail.items() if d.flagged}
    errors = detect_error_paths(samples, cfg.riskpath.alpha)
    hfe = identify_hfes(errors, time_flagged, graph, procedures, detail)

    seed = args.seed if args.seed is not None else cfg.pif.seed
    model = load_model(args.model) if args.model else _train_default_model(cfg, seed)
    assessments = []
    for path_id, metric in _path_metric_entries(graph, traces, samples, cfg):
        label, probs = predict(model, metric)
        assessments.append((path_id, metric, label, probs))

    report = assemble_report(graph, hfe, assessments, cfg)
    written = write_report_files(report, _out_dir(args), samples, grouping)
    print(f"report written: {', '.join(written)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_app_config(args.config)
        _resolve_inputs(args, cfg)
        if args.command == "graph":
            return _cmd_graph_validate(args, cfg)
        if args.command == "simulate":
            return _cmd_simulate(args, cfg)
        if args.command == "ingest":
            return _cmd_ingest(args, cfg)
        if args.command == "hfe":
            return _cmd_hfe(args, cfg)
        if args.command == "metrics":
            return _cmd_metrics(args, cfg)
        if args.command == "pif":
            return _cmd_pif(args, cfg)
        if args.command == "report":
            return _cmd_report(args, cfg)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
