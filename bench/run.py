"""Benchmark harness for hmirisk: one workload per invocation.

    python3 bench/run.py --workload report_campaign --seed 0 --seconds 25 --trace 0

Workloads (see README.md): ``report_campaign``, ``oracle_sweep``, ``pif_cv``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics and the tracing overhead.  Every measurement happens in a
fresh ``worker.py`` process.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A copy, with
per-operation detail and, for traced runs, the spans of the last traced
operation, goes to ``bench/results/``.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from layers import LAYER_METRICS, OVERHEAD_METRIC, span_summary  # noqa: E402

WORKLOADS = ("report_campaign", "oracle_sweep", "pif_cv")
SETUP_REPEATS = 2  # setup-only processes per untraced run, besides the measuring one
WORKER_TIMEOUT_S = 150
# Numeric libraries get one thread each: the workloads are single-threaded
# Python, their matrices are far below BLAS threading sizes, and idle BLAS
# threads only add noise on a small shared machine.  A fixed hash seed gives
# every worker the same dict and set layouts.
WORKER_ENV = {
    **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    "PYTHONHASHSEED": "0",
}
TOLERANCE_6G = 5e-6  # relative half-unit of the sixth significant digit


def run_worker(spec: dict, work: Path, tag: str) -> dict:
    spec = dict(spec, result=str(work / f"result-{tag}.json"))
    spec_file = work / f"spec-{tag}.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])), **WORKER_ENV)
    spec["t0"] = time.perf_counter()
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_file)],
        env=env, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited with {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


# --- report_campaign inputs and ground-truth checks --------------------------


def prepare_campaign(seed: int, work: Path):
    from hmirisk import dataset
    from hmirisk.graph import graph_to_document

    import corpus

    graph_doc = graph_to_document(dataset.build_reference_graph())
    procedures_doc = [
        {"procedure_id": p.procedure_id,
         "steps": [{"step_id": s.step_id, "text": s.text, "target_path": s.target_path} for s in p.steps]}
        for p in dataset.reference_procedures()
    ]
    return corpus.write_campaign(seed, graph_doc, procedures_doc, work)


def _lower_median(values):
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def expected_time_flags(campaign, tau: float = 1.0) -> set[str]:
    """The documented rule, recomputed from the generator's durations."""
    by_category: dict[str, list[str]] = {}
    for path_id, truth in campaign.paths.items():
        by_category.setdefault(truth.category, []).append(path_id)
    flagged = set()
    for members in by_category.values():
        members = sorted(members)
        if len(members) < 2:
            continue
        pooled = [math.log(ms / 1000.0) for p in members for ms in campaign.paths[p].durations_ms]
        mean = sum(pooled) / len(pooled)
        std = math.sqrt(sum((x - mean) ** 2 for x in pooled) / len(pooled))
        for p in members:
            z = (math.log(_lower_median(campaign.paths[p].durations_ms) / 1000.0) - mean) / std
            if z >= tau:
                flagged.add(p)
    return flagged


def _close(text: str, expected: float) -> bool:
    return abs(float(text) - expected) <= TOLERANCE_6G * abs(expected) + 1e-12


def check_campaign(campaign, out: Path) -> list[str]:
    from hmirisk.pifnet import PIF_WEIGHT_TABLE

    problems = []
    truth = campaign.paths
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))

    series: dict[str, list[str]] = {}
    with open(out / "durations_by_category.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["category"] != truth[row["path_id"]].category:
                problems.append(f"{row['path_id']}: category {row['category']}")
            series.setdefault(row["path_id"], []).append(row["duration_s"])
    for path_id, t in truth.items():
        if sorted(series.get(path_id, [])) != sorted(f"{ms / 1000.0:.6g}" for ms in t.durations_ms):
            problems.append(f"{path_id}: durations differ from the generator's steps")

    candidates = {c["path_id"]: c for c in report["hfe"]["candidates"]}
    error_paths = {p for p, t in truth.items() if t.error_steps > 0}
    got_errors = {p for p, c in candidates.items() if "error_path" in c["provenance"]}
    if got_errors != error_paths:
        problems.append(f"error-prone set {sorted(got_errors ^ error_paths)} differs from the planted annotations")
    for p in got_errors & error_paths:
        k, n = truth[p].error_steps, truth[p].attempts
        if abs(candidates[p]["error_prob"] - (k + 1) / (n + 2)) > 1e-12:
            problems.append(f"{p}: error_prob {candidates[p]['error_prob']} != ({k}+1)/({n}+2)")
    flagged = expected_time_flags(campaign)
    got_flagged = {p for p, c in candidates.items() if c["time_flag"]}
    if got_flagged != flagged:
        problems.append(f"time-flagged set differs from the recomputed rule on {sorted(got_flagged ^ flagged)}")

    screens = {s["id"]: s for s in campaign.graph_doc["screens"]}
    diagonal = math.hypot(max(s["width_px"] for s in screens.values()), max(s["height_px"] for s in screens.values()))
    per_screen: dict[str, int] = {}
    screen_of = {}
    for e in campaign.graph_doc["elements"]:
        per_screen[e["screen"]] = per_screen.get(e["screen"], 0) + 1
        screen_of[e["id"]] = e["screen"]
    with open(out / "metrics.csv", newline="", encoding="utf-8") as fh:
        rows = {row["path_id"]: row for row in csv.DictReader(fh)}
    if set(rows) != set(truth):
        problems.append(f"metrics.csv paths {sorted(set(rows) ^ set(truth))} differ")
    for p in set(rows) & set(truth):
        n = per_screen[screen_of["N_" + p[2:]]]
        if int(rows[p]["vd_den"]) != n or not _close(rows[p]["vd"], 1.0 / n):
            problems.append(f"{p}: vd {rows[p]['vd']} != 1/{n}")
        lengths = truth[p].trajectory_px
        if not _close(rows[p]["is"], sum(lengths) / len(lengths) / diagonal):
            problems.append(f"{p}: is {rows[p]['is']} != mean cursor length / layout diagonal")

    conflict = {label for label, row in PIF_WEIGHT_TABLE.items() if row.max_weight() >= 3.0}
    for a in report["assessments"]:
        probs = a["probabilities"]
        if abs(sum(probs.values()) - 1.0) > 1e-9 or a["pif_label"] != max(probs, key=probs.get):
            problems.append(f"{a['path_id']}: probabilities {probs} vs label {a['pif_label']}")
        erred = a["path_id"] in error_paths
        in_conflict = a["pif_label"] in conflict
        quadrant = {(True, True): "conflict_and_error", (True, False): "conflict_only",
                    (False, True): "error_only", (False, False): "neither"}[(in_conflict, erred)]
        if a["quadrant"] != quadrant or a["error_observed"] != erred:
            problems.append(f"{a['path_id']}: quadrant {a['quadrant']}, expected {quadrant}")
    return problems


# --- one run -----------------------------------------------------------------


def scaled_median(ops: list[dict], key: str) -> float:
    """Median of a per-operation time at the reference machine speed."""
    return statistics.median(op[key] * op["speed"] for op in ops)


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> tuple[dict, dict]:
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "work_dir": str(work)}
    campaign = None
    if workload == "report_campaign":
        campaign = prepare_campaign(seed, work)
        spec["events"] = campaign.events

    workers = []
    if not trace:
        workers = [run_worker(dict(spec, setup_only=True), work, f"setup{i}") for i in range(SETUP_REPEATS)]
    main = run_worker(dict(spec, setup_only=False), work, "main")
    workers.append(main)
    setups = [w["setup_s"] * w["setup_speed"] for w in workers]

    errors = list(main["errors"])
    if campaign is not None:
        errors.extend(check_campaign(campaign, work / "out"))
    ops = main["ops"]
    plain = [op for op in ops if not op["traced"] and op["ok"]]
    if trace:
        traced = [op for op in ops if op["traced"] and op["ok"]]
        metrics = {name: {"value": main["layers"][name], "unit": unit} for name, (unit, *_) in LAYER_METRICS.items()}
        name, unit, _ = OVERHEAD_METRIC
        overhead = scaled_median(traced, "wall_s") - scaled_median(plain, "wall_s")
        metrics[name] = {"value": overhead, "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": scaled_median(plain, "wall_s"), "unit": "s"},
            "items_per_s": {"value": sum(op["items"] for op in plain) / sum(op["wall_s"] * op["speed"] for op in plain), "unit": "1/s"},
            "cpu_s": {"value": scaled_median(plain, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "metrics": metrics,
    }
    detail = {"errors": errors, "failures": main["failures"], "setups_s": [w["setup_s"] for w in workers],
              "setup_speeds": [w["setup_speed"] for w in workers], "ops": ops}
    if plain:
        detail["unscaled"] = {"op_s": statistics.median(op["wall_s"] for op in plain),
                              "cpu_s": statistics.median(op["cpu_s"] for op in plain)}
    if campaign is not None:
        detail["inputs"] = {"sessions": len(list(campaign.sessions_dir.glob("*.jsonl"))), "events": campaign.events,
                            "clicks": campaign.clicks, "stray_clicks": campaign.stray_clicks}
    if trace:
        detail["missing_spans"] = main["missing_spans"]
        detail["last_op_span_summary"] = span_summary(main["last_op_spans"])
        detail["last_op_spans"] = main["last_op_spans"]
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hmirisk" / "__init__.py").is_file():
        print(f"error: no hmirisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in detail["errors"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for failure in detail["failures"]:
        print(f"operation failed: {failure}", file=sys.stderr)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(dict(result, detail=detail)), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
