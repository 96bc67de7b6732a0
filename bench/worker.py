"""One workload process: set up, warm up, then time operations.

``run.py`` starts this file in a fresh interpreter for every measurement,
so imports are paid in ``setup_s`` and the peak RSS read at the end is
this process's own: the program's work plus the small per-operation
bookkeeping below, never the ground truth ``run.py`` keeps.

Usage: ``python3 bench/worker.py <spec.json>``; the result is written to
the file named by the spec's ``result`` key.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from math import comb
from pathlib import Path

MIN_OPS = 3  # untraced operations per run, whatever --seconds says
SEED_STRIDE = 1000  # operation i of run seed s uses seed s * SEED_STRIDE + i


# The CPU's speed on a shared host drifts with other tenants' load. Over
# 20 s windows the median time of a fixed loop spreads by 13%, and every
# workload's operation times drift with it.  A fixed numpy kernel, shaped
# like one small dense layer and independent of hmirisk, is timed after set-up
# and after every operation.  run.py scales each time by CALIBRATION_REF_S
# over the kernel time around it, which reports it at the reference speed.
CALIBRATION_ROUNDS = 500
CALIBRATION_REF_S = 0.029  # median kernel time on the 2-CPU reference machine


def calibrate() -> float:
    """Wall time of a fixed numpy kernel; does not touch hmirisk."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(39, 128)), rng.normal(size=(128, 64))
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        z = a @ b
        mean, var = z.mean(axis=0), z.var(axis=0)
        np.maximum((z - mean) / np.sqrt(var + 1e-5), 0.0)
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has reaped."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


class ReportCampaign:
    """``hmirisk report`` through ``cli.main`` on the corpus ``run.py`` wrote."""

    root_span = "cli.main"

    def __init__(self, spec: dict) -> None:
        from hmirisk import cli

        self.cli = cli
        self.work = Path(spec["work_dir"])
        self.out = self.work / "out"
        self.events = spec["events"]
        self.argv = [
            "report",
            "--graph", str(self.work / "graph.json"),
            "--sessions", str(self.work / "sessions"),
            "--procedures", str(self.work / "procedures.json"),
            "--out", str(self.out),
        ]
        self.digests: set[str] = set()

    def op(self, index: int, call):
        code = call(self.root_span, self.cli.main, self.argv)
        if code != 0:
            raise RuntimeError(f"hmirisk report exited with {code}")
        return self.events, None

    def check(self, result) -> list[str]:
        digest = hashlib.sha256()
        for name in ("report.json", "candidates.csv", "metrics.csv", "durations_by_category.csv"):
            data = (self.out / name).read_bytes()
            if name == "report.json":
                doc = json.loads(data)
                doc.pop("generated_at")
                data = json.dumps(doc, sort_keys=True).encode()
            digest.update(name.encode() + b"\0" + data)
        self.digests.add(digest.hexdigest())
        return [] if len(self.digests) == 1 else ["report outputs differ between operations"]

    def finish(self) -> list[str]:
        return []


# The criterion-7 study: 20 parameters on one panel, 3 planted error paths,
# 3 planted slow paths, 200 sessions per seed.
ORACLE_SESSIONS = 200
ORACLE_PARAMETERS = 20


def rate_holds(hits: int, n: int, rate: float, alpha: float = 1e-3) -> bool:
    """False only when ``hits`` of ``n`` is too few for a true rate of ``rate``.

    Exact one-sided binomial test at level ``alpha``; a share at or above
    ``rate`` always passes.  A run has far fewer operations than a full
    acceptance study, so a plain share threshold would fail some seeds by
    sampling noise alone.
    """
    tail = sum(comb(n, k) * rate**k * (1 - rate) ** (n - k) for k in range(hits + 1))
    return n > 0 and (hits >= rate * n or tail >= alpha)


class OracleSweep:
    root_span = "bench.op"

    def __init__(self, spec: dict) -> None:
        from hmirisk import graph, ingest, risk, simulate

        self.ingest, self.risk, self.simulate = ingest, risk, simulate
        self.seed = spec["seed"]
        doc = {
            "screens": [{"id": "TOP", "width_px": 1920, "height_px": 1080}, {"id": "PANEL", "width_px": 1920, "height_px": 1080}],
            "elements": [{"id": "N_0", "name": "plant overview", "kind": "system_root", "screen": "TOP", "x": 960, "y": 540}],
        }
        for k in range(ORACLE_PARAMETERS):
            x, y = 100.0 + (k % 10) * 180, 200.0 + (k // 10) * 300
            doc["elements"].append(
                {"id": f"N_{k + 1:02d}", "name": f"parameter {k + 1:02d}", "kind": "parameter", "screen": "PANEL",
                 "x": x, "y": y, "bbox": [x - 50, y - 30, 100, 60], "parent": "N_0"}
            )
        self.graph = graph.load_graph(doc)
        self.path_ids = [f"P_{k + 1:02d}" for k in range(ORACLE_PARAMETERS)]
        self.planted_error = set(self.path_ids[:3])
        self.planted_time = set(self.path_ids[3:6])
        self.procedure = ingest.Procedure(
            "PR", tuple(ingest.ProcedureStep(f"s{k:02d}", f"check parameter {k + 1:02d}", p) for k, p in enumerate(self.path_ids))
        )
        self.step_path = {s.step_id: s.target_path for s in self.procedure.steps}
        self.exact = 0
        self.recalls: list[float] = []
        self.precisions: list[float] = []

    def op(self, index: int, call):
        simulate, ingest, risk = self.simulate, self.ingest, self.risk
        paths = {
            p: simulate.PathPlan(p, median_s=2.0 * (1.6 if p in self.planted_time else 1.0),
                                 p_execution=0.3 if p in self.planted_error else 0.01)
            for p in self.path_ids
        }
        plan = simulate.ScenarioPlan((self.procedure,), paths, participants=1,
                                     sessions_per_participant=ORACLE_SESSIONS, seed=self.seed * SEED_STRIDE + index)

        def study():
            logs = simulate.generate_sessions(self.graph, plan)
            samples = ingest.path_samples([ingest.align_events(self.graph, log) for log in logs])
            errors = risk.detect_error_paths(samples)
            flagged = risk.detect_time_deviated(samples, {p: "all" for p in self.path_ids}, tau=1.0)
            return logs, samples, errors, flagged

        logs, samples, errors, flagged = call(self.root_span, study)
        return sum(len(log.events) for log in logs), (logs, samples, errors, flagged)

    def check(self, result) -> list[str]:
        logs, samples, errors, flagged = result
        problems = []
        attempts = sum(s.attempts for s in samples.values())
        if attempts != ORACLE_SESSIONS * len(self.path_ids):
            problems.append(f"{attempts} attempts, expected {ORACLE_SESSIONS} sessions x {len(self.path_ids)} steps")
        # Recount every path straight from the generated events.
        durations: dict[str, list[float]] = {p: [] for p in self.path_ids}
        kinds_seen: dict[str, list[set]] = {p: [] for p in self.path_ids}
        for log in logs:
            started, kinds = {}, {}
            for event in log.events:
                kind = event.kind.value
                if kind == "step_start":
                    started[event.step_id], kinds[event.step_id] = event.t_ms, set()
                elif kind == "error_annotation":
                    kinds[event.step_id].add(event.error_kind.value)
                elif kind == "step_end":
                    path = self.step_path[event.step_id]
                    durations[path].append((event.t_ms - started[event.step_id]) / 1000.0)
                    kinds_seen[path].append(kinds[event.step_id])
        for p in self.path_ids:
            s = samples.get(p)
            expected = (
                durations[p],
                sum("execution" in k for k in kinds_seen[p]),
                sum("outcome" in k for k in kinds_seen[p]),
                sum(bool(k) for k in kinds_seen[p]),
            )
            got = None if s is None else (s.durations, s.execution_errors, s.outcome_errors, s.error_steps)
            if got != expected:
                problems.append(f"{p}: path_samples disagree with the generated events")
        if not self.planted_error <= set(errors):
            problems.append(f"planted error paths not detected: {sorted(self.planted_error - set(errors))}")
        recovered = {p for p, s in errors.items() if s.error_prob >= 0.1}
        self.exact += recovered == self.planted_error
        hits = len(flagged & self.planted_time)
        self.recalls.append(hits / len(self.planted_time))
        self.precisions.append(hits / len(flagged) if flagged else 0.0)
        return problems

    def finish(self) -> list[str]:
        n = len(self.recalls)
        problems = []
        if not rate_holds(self.exact, n, 0.95):
            problems.append(f"exact error-set recovery in {self.exact}/{n} seeds")
        if sum(self.recalls) / n < 0.9:
            problems.append(f"mean time-path recall {sum(self.recalls) / n:.3f} < 0.9")
        if sum(self.precisions) / n < 0.8:
            problems.append(f"mean time-path precision {sum(self.precisions) / n:.3f} < 0.8")
        return problems


class PifCv:
    root_span = "bench.op"
    K = 5

    def __init__(self, spec: dict) -> None:
        from hmirisk import dataset, pifnet

        self.pifnet = pifnet
        self.seed = spec["seed"]
        self.rows = dataset.training_rows()
        self.labels = sorted({label for _, label in self.rows})
        self.targets = [(row.features(), row.label) for row in dataset.PREDICTION_ROWS]
        self.items = (self.K + 1) * pifnet.TrainConfig().epochs
        self.cv_pass = 0
        self.target_hits = [0] * len(self.targets)
        self.n = 0

    def op(self, index: int, call):
        pifnet, seed = self.pifnet, self.seed * SEED_STRIDE + index

        def select():
            cv = pifnet.kfold_cv(self.rows, k=self.K, seed=seed)
            model = pifnet.init_model(seed, self.labels)
            pifnet.train(model, self.rows)
            return cv, [pifnet.predict(model, features) for features, _ in self.targets]

        return self.items, (seed, *call(self.root_span, select))

    def check(self, result) -> list[str]:
        seed, cv, predictions = result
        problems = []
        labels = [label for _, label in self.rows]
        folds = self.pifnet.stratified_folds(labels, self.K, seed)
        if sorted(i for fold in folds for i in fold) != list(range(len(self.rows))):
            problems.append(f"seed {seed}: folds do not partition the rows")
        for label in set(labels):
            counts = [sum(labels[i] == label for i in fold) for fold in folds]
            if max(counts) - min(counts) > 1:
                problems.append(f"seed {seed}: class {label} spread {counts} over folds")
        for label, probs in predictions:
            if abs(sum(probs.values()) - 1.0) > 1e-9 or label != max(probs, key=probs.get):
                problems.append(f"seed {seed}: bad class probabilities {probs} for label {label}")
        self.n += 1
        self.cv_pass += cv.mean >= 0.70
        for i, ((label, _), (_, expected)) in enumerate(zip(predictions, self.targets)):
            self.target_hits[i] += label == expected
        return problems

    def finish(self) -> list[str]:
        problems = []
        if not rate_holds(self.cv_pass, self.n, 0.8):
            problems.append(f"CV mean accuracy >= 0.70 in only {self.cv_pass}/{self.n} seeds")
        for (_, expected), hits in zip(self.targets, self.target_hits):
            if not rate_holds(hits, self.n, 0.8):
                problems.append(f"unobserved procedure predicted {expected} in only {hits}/{self.n} seeds")
        return problems


WORKLOADS = {"report_campaign": ReportCampaign, "oracle_sweep": OracleSweep, "pif_cv": PifCv}


def untraced(name, fn, *args):
    return fn(*args)


def main(spec_file: str) -> None:
    spec = json.loads(Path(spec_file).read_text(encoding="utf-8"))
    t0 = spec["t0"]
    workload = WORKLOADS[spec["workload"]](spec)
    _, warm = workload.op(0, untraced)
    errors = workload.check(warm)
    del warm
    setup_s = time.perf_counter() - t0
    cal_before = calibrate()
    result = {"setup_s": setup_s, "setup_speed": CALIBRATION_REF_S / cal_before, "errors": errors, "failures": []}
    if spec["setup_only"]:
        Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
        return

    tracer = None
    if spec["trace"]:
        from layers import layer_metrics
        from tracing import Tracer

        tracer = Tracer()
    ops, layer_rows, last_spans = [], [], []
    started = time.perf_counter()
    index = 0
    while True:
        untraced_ops = sum(not op["traced"] for op in ops)
        traced_ops = len(ops) - untraced_ops
        enough = (traced_ops >= 2 and traced_ops == untraced_ops) if tracer else untraced_ops >= MIN_OPS
        if enough and time.perf_counter() - started >= spec["seconds"]:
            break
        index += 1
        traced = tracer is not None and index % 2 == 0
        call = untraced
        if traced:
            tracer.spans = []
            tracer.install()
            call = tracer.span
        gc.collect()
        ok, items, out = True, 0, None
        c0, w0 = cpu_seconds(), time.perf_counter()
        try:
            items, out = workload.op(index, call)
        except Exception as exc:  # counted in "failed"; the checks cover the rest
            ok = False
            result["failures"].append(f"operation {index}: {exc!r}")
        wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
        cal_after = calibrate()
        speed = CALIBRATION_REF_S / ((cal_before + cal_after) / 2)
        cal_before = cal_after
        if traced:
            tracer.uninstall()
            layer_rows.append(layer_metrics(tracer.spans))
            last_spans = tracer.spans
        if ok:
            errors.extend(workload.check(out))
        del out
        ops.append({"traced": traced, "ok": ok, "wall_s": wall, "cpu_s": cpu, "speed": speed, "items": items})
    errors.extend(workload.finish())

    result.update(ops=ops, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["layers"] = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
        result["missing_spans"] = tracer.missing
        result["last_op_spans"] = last_spans
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
