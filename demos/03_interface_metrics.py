"""The three interface-user conflict metrics on bundled data.
=============================================================

Visual density is 1 over the element count of the target's screen;
interference density is the share of other names too similar to the
target (cosine > 0.8); interaction span is trajectory length over the
longest traversable distance.
"""
from hmirisk.dataset import NORMALIZER_PX, REFERENCE_METRIC_ROWS, build_reference_graph
from hmirisk.embed import name_similarity
from hmirisk.metrics import metric_vector, metrics_csv_rows

graph = build_reference_graph()
sim = name_similarity()

# The recorded traversal lengths in pixels; the screen element counts come
# from the graph itself.
entries = []
for row in REFERENCE_METRIC_ROWS[:8]:
    m = metric_vector(graph, row.path_id, row.is_px[0], sim, normalizer_px=NORMALIZER_PX)
    entries.append((row.path_id, m))
    print(
        f"{row.path_id}: vd 1/{m.raw.n_elements} = {m.vd:.5f}   "
        f"sid {m.raw.n_high_similarity}/{m.raw.n_comparisons}   "
        f"is {m.raw.traversal_px:.2f}/{m.raw.normalizer_px:.2f} = {m.is_norm:.5f}"
    )

print("\nCSV form:")
for line in metrics_csv_rows(entries[:3]):
    print(" ", line)

# The published interference counts came from a richer embedding model, so
# the bundled table stores them as data; the local trigram provider is the
# deterministic offline fallback, not a reproduction of those counts.
print("\nreference table row P_122:", next(r for r in REFERENCE_METRIC_ROWS if r.path_id == "P_122"))
