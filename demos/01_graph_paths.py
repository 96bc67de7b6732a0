"""Interface graph basics: load, validate, resolve paths.
======================================================

The bundled reference graph models a four-system simulator interface:
an overview screen with four system buttons, navigation groups below,
and parameter leaves at the bottom. Every element is reachable from a
system root, and each element induces one execution path.
"""
from hmirisk.dataset import build_reference_graph
from hmirisk.graph import resolve_path, validate_graph

graph = build_reference_graph()
print(f"elements: {len(graph.by_id)}, screens: {len(graph.screens)}")
print(f"layout diagonal: {graph.layout_diagonal:.2f} px")
print(f"violations: {validate_graph(graph)}")

# A path id mirrors its terminal node id: P_411 ends at N_411. The node id
# itself resolves to the same path, under its canonical path id.
for path_id in ("P_400", "P_410", "P_411", "N_122"):
    path = resolve_path(graph, path_id)
    print(f"{path_id}: {path.path_id} = {' -> '.join(path.node_chain)}")
