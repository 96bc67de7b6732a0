"""Synthetic sessions through the detector pipeline.
====================================================

Plant three error-prone paths (30% vs 1% background) and three slow
paths (1.6x median) among twenty, generate 200 operator sessions, align
them back to the graph, and let the detectors recover the planted sets.
"""
from hmirisk.graph import ElementKind, InterfaceElement, InterfaceGraph, Screen
from hmirisk.ingest import Procedure, ProcedureStep, align_events, path_samples
from hmirisk.risk import detect_error_paths, detect_time_deviated, identify_hfes
from hmirisk.simulate import PathPlan, ScenarioPlan, generate_sessions

# one root, twenty parameters on a panel screen
screens = [Screen("TOP", 1920, 1080), Screen("PANEL", 1920, 1080)]
elements = [InterfaceElement("N_0", "plant overview", ElementKind.SYSTEM_ROOT, "TOP", (960, 540))]
edges = []
for k in range(20):
    x, y = 100.0 + (k % 10) * 180, 200.0 + (k // 10) * 300
    eid = f"N_{k + 1:02d}"
    elements.append(InterfaceElement(eid, f"parameter {k + 1:02d}", ElementKind.PARAMETER, "PANEL", (x, y), (x - 50, y - 30, 100, 60)))
    edges.append(("N_0", eid))
graph = InterfaceGraph(elements, edges, screens)

path_ids = [f"P_{k + 1:02d}" for k in range(20)]
planted_error, planted_time = set(path_ids[:3]), set(path_ids[3:6])
procedure = Procedure("PR", tuple(ProcedureStep(f"s{k:02d}", f"check parameter {k + 1:02d}", p) for k, p in enumerate(path_ids)))

plan = ScenarioPlan(
    procedures=(procedure,),
    paths={
        pid: PathPlan(
            pid,
            median_s=2.0 * (1.6 if pid in planted_time else 1.0),
            p_execution=0.3 if pid in planted_error else 0.01,
        )
        for pid in path_ids
    },
    participants=1,
    sessions_per_participant=200,
    seed=7,
)

logs = generate_sessions(graph, plan)
print(f"generated {len(logs)} sessions, {sum(len(s.events) for s in logs)} events")

traces = [align_events(graph, log) for log in logs]
samples = path_samples(traces)
print(f"aligned {sum(len(t.steps) for t in traces)} steps, {sum(len(t.unaligned) for t in traces)} unaligned")

errors = detect_error_paths(samples)
suspicious = {p: round(s.error_prob, 3) for p, s in errors.items() if s.error_prob >= 0.1}
print(f"\nplanted error paths:   {sorted(planted_error)}")
print(f"recovered (prob>=0.1): {sorted(suspicious)} {suspicious}")

flagged = detect_time_deviated(samples, {p: "panel" for p in path_ids}, tau=1.0)
print(f"\nplanted slow paths: {sorted(planted_time)}")
print(f"time-deviated:      {sorted(flagged)}")

report = identify_hfes(errors, flagged, graph, [procedure])
tagged = {c["path_id"]: c["provenance"] for c in report["candidates"] if c["error_prob"] >= 0.1 or c["time_flag"]}
print(f"\nhigh-risk candidates: {tagged}")
