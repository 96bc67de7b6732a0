"""Command-line pipeline: validate, simulate, ingest, detect, classify, report.

Exit codes: 0 success, 1 validation errors present, 2 fatal I/O or parse
error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, dataset
from .config import AppConfig, load_app_config, read_json
from .embed import EmbeddingCache, LocalProvider, RemoteProvider, name_similarity
from .graph import GraphError, load_graph
from .ingest import align_events, load_procedures, parse_session_log, path_samples
from .metrics import metric_vector, metrics_csv_rows
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
from .report import assemble_report, hfe_to_dict, write_report_files
from .risk import (
    detect_error_paths,
    identify_hfes,
    load_t95_overrides,
    model_from_samples_or_p95,
    system_category,
    time_deviation_detail,
)
from .simulate import generate_sessions, plan_from_document, write_sessions


_SHARED_FLAGS = {
    "config": {"help": "JSON config file"},
    "seed": {"type": int, "help": "override the configured seed"},
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
        sub, "simulate", _cmd_simulate, ("config", "seed", "out"), help="generate synthetic session logs from a plan"
    )
    p_sim.add_argument("--graph", help="graph JSON (falls back to config paths.graph)")
    p_sim.add_argument("--plan", required=True, help="scenario plan JSON")

    p_ing = _command(sub, "ingest", _cmd_ingest, ("config",), help="parse and align session logs")
    p_ing.add_argument("--graph")
    p_ing.add_argument("--sessions", nargs="+", help="session JSONL files or directories")
    p_ing.add_argument("--procedures", help="procedures JSON (declared step targets)")

    p_hfe = _command(sub, "hfe", _cmd_hfe, ("config", "out"), help="identify risk-informed failure-event candidates")
    p_hfe.add_argument("--graph")
    p_hfe.add_argument("--sessions", nargs="+")
    p_hfe.add_argument("--procedures")
    p_hfe.add_argument("--t95", help="CSV of path_id,t95_seconds fallbacks")

    p_met = _command(
        sub, "metrics", _cmd_metrics, ("config", "out"), help="per-path interface metrics from aligned traces"
    )
    p_met.add_argument("--graph")
    p_met.add_argument("--sessions", nargs="+")

    p_pif = sub.add_parser("pif", help="train, cross-validate, or apply the PIF classifier")
    pif_sub = p_pif.add_subparsers(dest="pif_command", required=True)
    p_train = _command(pif_sub, "train", _cmd_pif_train, ("config", "seed"))
    p_train.add_argument("--data", help="training CSV (path_id,vd,sid,is,label); bundled dataset when omitted")
    p_train.add_argument("--model-out", required=True)
    p_cv = _command(pif_sub, "cv", _cmd_pif_cv, ("config", "seed"))
    p_cv.add_argument("--data")
    p_cv.add_argument("--k", type=int, default=None)
    p_pred = _command(pif_sub, "predict", _cmd_pif_predict, ())
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--features", help="comma-separated vd,sid,is")
    p_pred.add_argument("--data", help="CSV of rows to predict")

    p_rep = _command(
        sub, "report", _cmd_report, ("config", "seed", "out"), help="run the full pipeline and emit the risk report"
    )
    p_rep.add_argument("--graph")
    p_rep.add_argument("--sessions", nargs="+")
    p_rep.add_argument("--procedures")
    p_rep.add_argument("--model", help="trained classifier; trained on the bundled dataset when omitted")
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


def _load_inputs(args):
    """Graph, procedures, and a generator of aligned traces, one session file at a time."""
    graph = load_graph(args.graph)
    procedures = load_procedures(args.procedures) if getattr(args, "procedures", None) else []
    targets = {step.step_id: step.target_path for proc in procedures for step in proc.steps if step.target_path}
    traces = (align_events(graph, parse_session_log(f), targets) for f in _session_files(args.sessions))
    return graph, procedures, traces


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


def _path_metric_entries(graph, samples, cfg: AppConfig):
    """Per-path metric vectors; the span uses the mean traversal across
    recorded instances of the path (an exactly rounded sum, so the same
    sessions in any order give the same bits)."""
    sim = _similarity(cfg)
    entries = []
    for path_id in sorted(samples):
        lengths = samples[path_id].traversals
        mean_px = math.fsum(lengths) / len(lengths) if lengths else 0.0
        metric = metric_vector(
            graph, path_id, mean_px, sim, theta=cfg.metrics.theta, normalizer_px=cfg.metrics.normalizer_px
        )
        entries.append((path_id, metric))
    return entries


def _detect(graph, samples, procedures, cfg: AppConfig):
    """Category grouping and HFE candidates from the per-path samples."""
    grouping = {path_id: system_category(graph, path_id) for path_id in samples}
    detail = time_deviation_detail(samples, grouping, cfg.riskpath.tau, cfg.riskpath.sigma)
    time_flagged = {p for p, d in detail.items() if d.flagged}
    errors = detect_error_paths(samples, cfg.riskpath.alpha)
    return grouping, identify_hfes(errors, time_flagged, graph, procedures, detail)


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
    print(f"ok: {len(graph.by_id)} elements, {len(graph.screens)} screens, diagonal {graph.layout_diagonal:.2f} px")
    return 0


def _cmd_simulate(args, cfg: AppConfig) -> int:
    graph = load_graph(args.graph)
    plan_doc = read_json(args.plan)
    if args.seed is not None:
        plan_doc["seed"] = args.seed
    plan = plan_from_document(plan_doc)
    written = write_sessions(generate_sessions(graph, plan), _out_dir(args))
    print(f"wrote {len(written)} session file(s) to {args.out}")
    return 0


def _cmd_ingest(args, cfg: AppConfig) -> int:
    _, _, traces = _load_inputs(args)
    sessions = steps = unaligned = 0
    for trace in traces:
        sessions += 1
        steps += len(trace.steps)
        unaligned += len(trace.unaligned)
    print(f"aligned {steps} steps from {sessions} session(s); {unaligned} unaligned")
    return 0


def _cmd_hfe(args, cfg: AppConfig) -> int:
    graph, procedures, traces = _load_inputs(args)
    samples = path_samples(traces)
    _, hfe = _detect(graph, samples, procedures, cfg)

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

    doc = {**hfe_to_dict(hfe), "time_models": time_models}
    (_out_dir(args) / "hfe.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(f"{len(hfe.candidates)} candidate path(s); prioritized: {', '.join(hfe.prioritized_procedures) or '-'}")
    return 0


def _cmd_metrics(args, cfg: AppConfig) -> int:
    graph, _, traces = _load_inputs(args)
    entries = _path_metric_entries(graph, path_samples(traces), cfg)
    text = "\n".join(metrics_csv_rows(entries)) + "\n"
    (_out_dir(args) / "metrics.csv").write_text(text, encoding="utf-8")
    print(f"metrics for {len(entries)} path(s) written to {args.out}/metrics.csv")
    return 0


def _seed(args, cfg: AppConfig) -> int:
    return args.seed if args.seed is not None else cfg.pif.seed


def _cmd_pif_train(args, cfg: AppConfig) -> int:
    rows = _training_rows(args.data)
    model = _train_default_model(cfg, _seed(args, cfg), rows)
    save_model(model, args.model_out)
    print(f"trained on {len(rows)} rows; training accuracy {evaluate(model, rows):.4f}; saved to {args.model_out}")
    return 0


def _cmd_pif_cv(args, cfg: AppConfig) -> int:
    rows = _training_rows(args.data)
    k = args.k if args.k is not None else cfg.pif.k_folds
    result = kfold_cv(rows, k=k, seed=_seed(args, cfg), hyper=_hyper(cfg))
    print(json.dumps({"fold_accuracies": list(result.fold_accuracies), "mean": result.mean, "std": result.std}))
    return 0


def _cmd_pif_predict(args, cfg: AppConfig) -> int:
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
    graph, procedures, traces = _load_inputs(args)
    samples = path_samples(traces)
    grouping, hfe = _detect(graph, samples, procedures, cfg)

    model = load_model(args.model) if args.model else _train_default_model(cfg, _seed(args, cfg))
    assessments = []
    for path_id, metric in _path_metric_entries(graph, samples, cfg):
        label, probs = predict(model, metric)
        assessments.append((path_id, metric, label, probs))

    report = assemble_report(graph, hfe, assessments, cfg)
    written = write_report_files(report, _out_dir(args), samples, grouping)
    print(f"report written: {', '.join(written)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_app_config(getattr(args, "config", None))
        _resolve_inputs(args, cfg)
        return args.run(args, cfg)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
