"""Interface graph basics: load, validate, resolve paths, map step text.
=======================================================================

The bundled reference graph models a four-system simulator interface:
an overview screen with four system buttons, navigation groups below,
and parameter leaves at the bottom. Every element is reachable from a
system root, and each element induces one execution path.
"""
from hmirisk.dataset import build_reference_graph
from hmirisk.embed import name_similarity
from hmirisk.graph import map_procedure_step, resolve_path, validate_graph

graph = build_reference_graph()
print(f"elements: {len(graph.by_id)}, screens: {len(graph.screens)}")
print(f"layout diagonal: {graph.layout_diagonal:.2f} px")
print(f"violations: {validate_graph(graph)}")

# A path id mirrors its terminal node id: P_411 ends at N_411.
for path_id in ("P_400", "P_410", "P_411", "P_122"):
    path = resolve_path(graph, path_id)
    print(f"{path_id}: {' -> '.join(path.node_chain)} (multi-action: {path.multi_action})")

# Procedure steps map onto paths. An exact element name in the text wins;
# otherwise the embedding similarity ranks the leaves.
sim = name_similarity()
step = "Check whether the parameter 2LBA10CP801C under nuclear island system 2LBA DW001 equals 13.86 MPa"
mapped = map_procedure_step(graph, step, sim)
print(f"\nstep text -> {mapped.path_id} via {' -> '.join(mapped.node_chain)}")

fuzzy = map_procedure_step(graph, "verify the excitation voltage reading", sim)
print(f"fuzzy step -> {fuzzy.path_id} ({graph.by_id[fuzzy.node_chain[-1]].name})")
