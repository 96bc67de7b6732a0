from __future__ import annotations

from fractions import Fraction

import pytest

from hmirisk.graph import GraphError, graph_to_document, load_graph
from hmirisk.metrics import (
    interaction_span,
    metric_vector,
    metrics_csv_rows,
    semantic_interference_density,
    trajectory_length,
    visual_density,
)


class FakeElement:
    def __init__(self, eid):
        self.id = eid


def elements(n):
    return [FakeElement(f"E{i}") for i in range(n)]


class TestVisualDensity:
    def test_four_element_screen(self):
        assert visual_density(elements(4), "E0") == 0.25

    def test_single_element_screen(self):
        assert visual_density(elements(1), "E0") == 1.0

    def test_43_element_screen(self):
        assert visual_density(elements(43), "E7") == pytest.approx(1 / 43)

    def test_target_absent(self):
        with pytest.raises(ValueError):
            visual_density(elements(3), "E9")

    def test_strictly_decreasing_in_element_count(self):
        values = [visual_density(elements(n), "E0") for n in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0 < v <= 1 for v in values)


class TestInterferenceDensity:
    def test_none_similar(self, designated_sim):
        ratio, names = semantic_interference_density("T", ["a", "b", "c"], designated_sim)
        assert ratio == 0.0 and names == ()

    def test_five_of_twelve(self, designated_sim):
        others = [f"SIM{i}" for i in range(5)] + [f"x{i}" for i in range(7)]
        ratio, names = semantic_interference_density("T", others, designated_sim)
        assert Fraction(len(names), len(others)) == Fraction(5, 12)
        assert ratio == pytest.approx(5 / 12)
        assert set(names) == {f"SIM{i}" for i in range(5)}

    def test_identical_names_all_contribute(self, designated_sim):
        ratio, names = semantic_interference_density("T", ["T"] * 6, designated_sim)
        assert ratio == 1.0 and len(names) == 6

    def test_no_others_is_undefined(self, designated_sim):
        ratio, names = semantic_interference_density("T", [], designated_sim)
        assert ratio is None and names == ()

    def test_monotone_in_added_names(self, designated_sim):
        others = ["x1", "x2"]
        base, _ = semantic_interference_density("T", others, designated_sim)
        with_similar, _ = semantic_interference_density("T", others + ["SIM9"], designated_sim)
        assert with_similar > base
        with_plain, _ = semantic_interference_density("T", others + ["x3"], designated_sim)
        numer_base = base * len(others)
        numer_plain = with_plain * (len(others) + 1)
        assert numer_plain == pytest.approx(numer_base)  # numerator unchanged

    def test_threshold_above_one_empties_numerator(self):
        exact = lambda a, b: 1.0
        ratio, names = semantic_interference_density("T", ["a", "b"], exact, theta=1.0)
        assert ratio == 0.0 and names == ()  # strict comparison: nothing exceeds 1.0


class TestInteractionSpan:
    def test_three_four_five_triangle(self):
        assert interaction_span(trajectory_length([(0, 0), (3, 4)]), 5.0) == 1.0

    def test_still_trajectory(self):
        assert interaction_span(trajectory_length([(7, 7), (7, 7)]), 10.0) == 0.0
        assert interaction_span(trajectory_length([(7, 7)]), 10.0) == 0.0

    def test_published_row_ratio(self):
        assert interaction_span(511.59, 2654.05) == pytest.approx(511.59 / 2654.05, abs=1e-12)

    def test_non_positive_normalizer(self):
        with pytest.raises(ValueError):
            interaction_span(trajectory_length([(0, 0), (1, 1)]), 0.0)

    def test_scale_invariance_with_diagonal_normalizer(self):
        points = [(10, 20), (110, 220), (50, 90)]
        diag = (800**2 + 600**2) ** 0.5
        base = interaction_span(trajectory_length(points), diag)
        c = 3.7
        scaled = interaction_span(trajectory_length([(x * c, y * c) for x, y in points]), diag * c)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_additive_under_concatenation(self):
        a = [(0, 0), (10, 0), (10, 10)]
        b = [(10, 10), (40, 50)]
        joined = a + b[1:]
        assert trajectory_length(joined) == pytest.approx(trajectory_length(a) + trajectory_length(b))


def count_fixture_graph(n_elements, n_similar):
    """Screen with one target, n_similar SIM-names, rest plain names."""
    elems = [
        {"id": "ROOT", "name": "system", "kind": "system_root", "screen": "S", "x": 1, "y": 1},
        {"id": "T", "name": "TARGET", "kind": "parameter", "screen": "S", "x": 5, "y": 5, "parent": "ROOT"},
    ]
    for i in range(n_similar):
        elems.append({"id": f"S{i}", "name": f"SIM{i}", "kind": "parameter", "screen": "S", "x": 6 + i, "y": 5, "parent": "ROOT"})
    for i in range(n_elements - n_similar - 2):
        elems.append({"id": f"X{i}", "name": f"plain{i}", "kind": "parameter", "screen": "S", "x": 6 + i, "y": 9, "parent": "ROOT"})
    return load_graph({"screens": [{"id": "S", "width_px": 1000, "height_px": 1000}], "elements": elems})


class TestMetricVector:
    def test_published_row_p110_shape(self, designated_sim):
        # 43 on-screen elements, 1 similar name, 511.59 px traversal
        g = count_fixture_graph(43, 1)
        m = metric_vector(g, "P_T", 511.59, designated_sim, normalizer_px=2654.05)
        assert set(m) == {"vd", "sid", "is", "raw", "sid_undefined", "sid_contributors"}
        raw = m["raw"]
        assert Fraction(1, raw["n_elements"]) == Fraction(1, 43)
        assert Fraction(raw["n_high_similarity"], raw["n_comparisons"]) == Fraction(1, 42)
        assert m["is"] == pytest.approx(511.59 / 2654.05, abs=1e-9)
        assert raw["n_comparisons"] == raw["n_elements"] - 1

    def test_untested_procedure_row_shape(self, designated_sim):
        g = count_fixture_graph(33, 1)
        m = metric_vector(g, "P_T", 773.94, designated_sim, normalizer_px=2654.05)
        assert (m["vd"], m["sid"]) == (pytest.approx(1 / 33), pytest.approx(1 / 32))
        assert m["is"] == pytest.approx(0.29161, abs=5e-6)

    def test_single_element_screen_undefined_sid(self, designated_sim):
        g = load_graph(
            {
                "screens": [{"id": "S", "width_px": 100, "height_px": 100}],
                "elements": [{"id": "T", "name": "only", "kind": "system_root", "screen": "S", "x": 5, "y": 5}],
            }
        )
        m = metric_vector(g, "P_T", 0.0, designated_sim)
        assert m["vd"] == 1.0
        assert m["sid"] == 0.0 and m["sid_undefined"] is True
        assert m["is"] == 0.0

    def test_blank_name_on_the_compared_screen_is_named(self, designated_sim):
        g = count_fixture_graph(4, 1)
        document = graph_to_document(g)
        document["elements"][3]["name"] = " "
        with pytest.raises(GraphError, match="element 'X0': a name is needed"):
            metric_vector(load_graph(document), "P_T", 0.0, designated_sim)
        # A lone element is compared with nothing, so it needs no name.
        lone = {"id": "T", "kind": "system_root", "screen": "S", "x": 5, "y": 5}
        lone_graph = load_graph({"screens": [{"id": "S", "width_px": 100, "height_px": 100}], "elements": [lone]})
        assert metric_vector(lone_graph, "P_T", 0.0, designated_sim)["sid_undefined"] is True

    def test_default_normalizer_is_layout_diagonal(self, two_screen_graph, designated_sim):
        m = metric_vector(two_screen_graph, "P_11", 100.0, designated_sim)
        assert m["raw"]["normalizer_px"] == pytest.approx(two_screen_graph.layout_diagonal)

    def test_csv_layout(self, designated_sim):
        g = count_fixture_graph(4, 2)
        m = metric_vector(g, "P_T", 100.0, designated_sim, normalizer_px=1000.0)
        rows = metrics_csv_rows([("P_T", m)])
        assert rows[0].startswith("path_id,vd_num,vd_den,sid_num,sid_den")
        assert rows[1].split(",")[:5] == ["P_T", "1", "4", "2", "3"]
