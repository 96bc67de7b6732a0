from __future__ import annotations

import logging
import math

import pytest

from hmirisk import dataset
from hmirisk.ingest import ErrorKind, PathSamples, Procedure, ProcedureStep
from hmirisk.risk import (
    LognormalTimeModel,
    detect_error_paths,
    detect_time_deviated,
    fit_time_model,
    identify_hfes,
    load_t95_overrides,
    median_from_p95,
    model_from_samples_or_p95,
    normal_sf,
    sample_median_lower,
    system_category,
    tail_prob,
    time_deviation_detail,
)


def normal_cdf_quadrature(z: float, lo: float = -10.0, steps: int = 20_000) -> float:
    """Simpson integration of the standard normal pdf, as an independent oracle."""
    h = (z - lo) / steps
    total = 0.0
    for i in range(steps + 1):
        x = lo + i * h
        w = 1 if i in (0, steps) else (4 if i % 2 else 2)
        total += w * math.exp(-0.5 * x * x)
    return total * h / (3.0 * math.sqrt(2.0 * math.pi))


class TestMedianFromP95:
    def test_exact_division(self):
        assert median_from_p95(158.5) == 100.0

    def test_unit_case(self):
        assert median_from_p95(1.585) == 1.0

    def test_rejects_non_positive(self):
        for bad in (0.0, -3.0):
            with pytest.raises(ValueError):
                median_from_p95(bad)

    def test_ratio_consistent_with_sigma(self):
        # z for the 95th percentile is 1.6449; exp(1.645 * 0.28) recovers ~1.585
        assert abs(math.exp(1.645 * 0.28) - 1.585) < 1e-3
        model = LognormalTimeModel(mu=math.log(median_from_p95(158.5)))
        assert tail_prob(model, 158.5) == pytest.approx(0.05, abs=2e-3)


class TestFitTimeModel:
    def test_constant_sample(self):
        model = fit_time_model([2.0, 2.0, 2.0])
        assert model.mu == pytest.approx(math.log(2.0))
        assert model.sigma == 0.28

    def test_median_by_sorting_oracle(self):
        values = [1.0, 2.0, 8.0]
        assert fit_time_model(values).mu == pytest.approx(math.log(sorted(values)[1]))

    def test_single_sample(self):
        assert fit_time_model([5.0]).mu == pytest.approx(math.log(5.0))

    def test_even_count_takes_lower_middle(self):
        assert sample_median_lower([4.0, 1.0, 3.0, 2.0]) == 2.0
        assert fit_time_model([4.0, 1.0, 3.0, 2.0]).mu == pytest.approx(math.log(2.0))

    def test_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            fit_time_model([])
        with pytest.raises(ValueError):
            fit_time_model([1.0, 0.0])

    def test_scale_equivariance(self):
        values = [3.0, 1.5, 9.0, 2.5]
        c = 7.3
        base = fit_time_model(values)
        scaled = fit_time_model([v * c for v in values])
        assert scaled.mu == pytest.approx(base.mu + math.log(c), abs=1e-12)
        for t in (1.0, 2.5, 10.0):
            assert tail_prob(scaled, t * c) == pytest.approx(tail_prob(base, t), abs=1e-12)

    def test_p95_fallback_when_no_durations(self):
        model = model_from_samples_or_p95(None, t95=158.5)
        assert model.median() == pytest.approx(100.0)
        empirical = model_from_samples_or_p95([4.0, 4.0, 4.0], t95=158.5)
        assert empirical.median() == pytest.approx(4.0)  # empirical wins


class TestTailProb:
    def test_half_at_median(self):
        model = fit_time_model([3.7, 3.7, 3.7])
        assert abs(tail_prob(model, model.median()) - 0.5) < 1e-12

    def test_one_sigma_against_quadrature(self):
        model = LognormalTimeModel(mu=math.log(2.0))
        at = 2.0 * math.exp(0.28)
        expected = 1.0 - normal_cdf_quadrature(1.0)
        assert tail_prob(model, at) == pytest.approx(expected, abs=1e-9)
        assert tail_prob(model, at) == pytest.approx(0.15866, abs=1e-5)

    def test_p95_ratio_point(self):
        model = LognormalTimeModel(mu=math.log(10.0))
        assert tail_prob(model, 10.0 * 1.585) == pytest.approx(0.05, abs=2e-3)

    def test_strictly_decreasing_and_limits(self):
        model = LognormalTimeModel(mu=0.0)
        grid = [0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0]
        values = [tail_prob(model, t) for t in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert tail_prob(model, 1e-12) > 1.0 - 1e-9
        assert tail_prob(model, 1e12) < 1e-9

    def test_erfc_accuracy_on_wide_range(self):
        for z in (-8.0, -3.0, -1.0, 0.0, 0.5, 1.0, 3.0, 8.0):
            assert normal_sf(z) == pytest.approx(1.0 - normal_cdf_quadrature(z), abs=1e-12)

    def test_rejects_non_positive_t(self):
        with pytest.raises(ValueError):
            tail_prob(LognormalTimeModel(mu=0.0), 0.0)


def samples_of(durations_by_path, errors_by_path=None):
    errors_by_path = errors_by_path or {}
    out = {}
    for path_id, durations in durations_by_path.items():
        execution, outcome = errors_by_path.get(path_id, (0, 0))
        out[path_id] = PathSamples(
            durations=list(durations),
            attempts=len(durations),
            execution_errors=execution,
            outcome_errors=outcome,
            error_steps=max(execution, outcome) if (execution or outcome) else 0,
        )
    return out


class TestDetectTimeDeviated:
    def test_inflated_path_flagged_with_direct_z_oracle(self):
        durations = {
            "P_A": [2.0, 2.0, 2.0],
            "P_B": [2.0, 2.0, 2.0],
            "P_C": [2.0, 2.0, 2.0],
            "P_D": [8.0, 8.0, 8.0],
        }
        grouping = {p: "cat" for p in durations}

        pooled = [math.log(d) for ds in durations.values() for d in ds]
        mean = sum(pooled) / len(pooled)
        std = math.sqrt(sum((x - mean) ** 2 for x in pooled) / len(pooled))
        expected = {
            p for p, ds in durations.items() if (math.log(sorted(ds)[1]) - mean) / std >= 1.0
        }
        assert expected == {"P_D"}  # oracle sanity
        assert detect_time_deviated(samples_of(durations), grouping, tau=1.0) == expected

    def test_identical_constant_paths_no_flags(self):
        durations = {p: [3.0, 3.0] for p in ("P_A", "P_B", "P_C")}
        assert detect_time_deviated(samples_of(durations), {p: "c" for p in durations}) == set()

    def test_scaling_category_leaves_flags_unchanged(self):
        durations = {"P_A": [2.0, 2.1, 1.9], "P_B": [2.0, 2.2, 1.8], "P_C": [9.0, 8.5, 9.5]}
        grouping = {p: "c" for p in durations}
        flags = detect_time_deviated(samples_of(durations), grouping)
        scaled = {p: [d * 11.0 for d in ds] for p, ds in durations.items()}
        assert detect_time_deviated(samples_of(scaled), grouping) == flags

    def test_single_path_category_skipped_with_warning(self, caplog):
        durations = {"P_A": [2.0], "P_B": [2.0, 4.0], "P_C": [2.0, 2.0]}
        grouping = {"P_A": "solo", "P_B": "pair", "P_C": "pair"}
        with caplog.at_level(logging.WARNING, logger="hmirisk.risk"):
            detect_time_deviated(samples_of(durations), grouping)
        assert any("solo" in rec.message for rec in caplog.records)

    def test_detail_threshold_and_tail(self):
        durations = {"P_A": [2.0, 2.0, 2.2], "P_B": [2.0, 1.9, 2.0], "P_C": [8.0, 8.2, 8.0]}
        detail = time_deviation_detail(samples_of(durations), {p: "c" for p in durations})
        flagged = {p for p, d in detail.items() if d.flagged}
        assert flagged == {"P_C"}
        # flagged path's model mass beyond the category threshold exceeds 1/2
        assert detail["P_C"].tail_prob_at_threshold > 0.5
        assert detail["P_A"].tail_prob_at_threshold < 0.5

    def test_zero_duration_steps_excluded_not_fatal(self):
        durations = {"P_A": [0.0, 2.0, 2.0], "P_B": [2.0, 2.1], "P_C": [8.0, 8.0]}
        flags = detect_time_deviated(samples_of(durations), {p: "c" for p in durations})
        assert flags == {"P_C"}


class TestDetectErrorPaths:
    def test_laplace_formula(self):
        samples = samples_of({"P_A": [1.0] * 6}, {"P_A": (1, 0)})
        result = detect_error_paths(samples, alpha=1.0)
        assert result["P_A"].error_prob == pytest.approx(2 / 8)
        assert result["P_A"].kinds == frozenset({ErrorKind.EXECUTION})

    def test_zero_error_paths_absent(self):
        samples = samples_of({"P_A": [1.0] * 4, "P_B": [1.0] * 4}, {"P_B": (1, 0)})
        assert set(detect_error_paths(samples)) == {"P_B"}

    def test_output_set_independent_of_alpha(self):
        samples = samples_of(
            {"P_A": [1.0] * 5, "P_B": [1.0] * 5, "P_C": [1.0] * 5},
            {"P_A": (2, 0), "P_C": (0, 1)},
        )
        for alpha in (0.0, 0.5, 1.0, 10.0):
            assert set(detect_error_paths(samples, alpha)) == {"P_A", "P_C"}

    def test_kinds_union(self):
        samples = samples_of({"P_A": [1.0] * 3}, {"P_A": (1, 1)})
        assert detect_error_paths(samples)["P_A"].kinds == frozenset({ErrorKind.EXECUTION, ErrorKind.OUTCOME})

    def test_probability_stays_in_unit_interval(self):
        for attempts in (1, 2, 10):
            for errors in range(attempts + 1):
                samples = samples_of({"P": [1.0] * attempts}, {"P": (errors, 0)})
                found = detect_error_paths(samples)
                if errors:
                    assert 0.0 <= found["P"].error_prob <= 1.0


class TestIdentifyHfes:
    def test_disjoint_union_provenance(self, two_screen_graph):
        errors = detect_error_paths(samples_of({"P_11": [1.0] * 3}, {"P_11": (1, 0)}))
        report = identify_hfes(errors, {"P_12"}, two_screen_graph)
        by_id = {c["path_id"]: c for c in report["candidates"]}
        assert set(by_id["P_11"]["provenance"]) == {"error_path"}
        assert set(by_id["P_12"]["provenance"]) == {"time_path"}
        assert by_id["P_12"]["time_flag"] is True
        assert by_id["P_11"]["time_flag"] is False

    def test_same_path_gets_both_tags(self, two_screen_graph):
        errors = detect_error_paths(samples_of({"P_11": [1.0] * 3}, {"P_11": (1, 0)}))
        report = identify_hfes(errors, {"P_11"}, two_screen_graph)
        assert len(report["candidates"]) == 1
        assert set(report["candidates"][0]["provenance"]) == {"error_path", "time_path"}

    def test_per_procedure_counts_distinct_candidate_nodes(self, two_screen_graph):
        procedures = [
            Procedure("PROC_B", (ProcedureStep("s1", "check pump speed", "P_11"),
                                 ProcedureStep("s2", "recheck pump speed", "P_11"),
                                 ProcedureStep("s3", "check valve", "P_13"))),
            Procedure("PROC_A", (ProcedureStep("s4", "check pressure", "P_12"),
                                 ProcedureStep("s5", "check pump speed", "P_11"))),
            Procedure("PROC_C", (ProcedureStep("s6", "note reading", None),)),
        ]
        errors = detect_error_paths(samples_of({"P_11": [1.0] * 3}, {"P_11": (1, 0)}))
        report = identify_hfes(errors, {"P_12"}, two_screen_graph, procedures)
        assert report["per_procedure"] == {"PROC_A": 2, "PROC_B": 1, "PROC_C": 0}
        assert report["prioritized_procedures"] == ["PROC_A", "PROC_B", "PROC_C"]

    def test_candidates_sorted_and_unique(self, two_screen_graph):
        errors = detect_error_paths(
            samples_of({"P_12": [1.0] * 2, "P_11": [1.0] * 2}, {"P_12": (1, 0), "P_11": (1, 0)})
        )
        report = identify_hfes(errors, {"P_13", "P_11"}, two_screen_graph)
        ids = [c["path_id"] for c in report["candidates"]]
        assert ids == sorted(ids) and len(ids) == len(set(ids)) == 3


def test_system_category_uses_chain_root(electrical_branch_graph):
    assert system_category(electrical_branch_graph, "P_411") == "N_400"
    assert system_category(electrical_branch_graph, "P_110") == "N_100"


def test_39_path_pattern_recall_over_seeds():
    """Statistical reproduction of the campaign pattern: 9 paths planted at
    double the median among 39, grouped by system; average recall at
    tau = 1.0 must reach 0.9 over 50 seeds (sampler as the oracle)."""
    import numpy as np

    from hmirisk import dataset
    from hmirisk.simulate import lognormal_durations

    grouping = dataset.reference_grouping()
    planted = set(dataset.OBSERVED_TIME_DEVIATED_PATHS)
    recalls = []
    for seed in range(50):
        rng = np.random.Generator(np.random.Philox(key=seed))
        samples = {}
        for path_id in grouping:
            median = 2.0 * (2.0 if path_id in planted else 1.0)
            durations = lognormal_durations(median, 0.28, 60, rng)
            samples[path_id] = PathSamples(durations=list(durations), attempts=60)
        flagged = detect_time_deviated(samples, grouping, tau=1.0)
        recalls.append(len(flagged & planted) / len(planted))
    assert sum(recalls) / len(recalls) >= 0.9


def test_t95_override_parsing():
    g = dataset.build_reference_graph()
    text = "path_id,t95_seconds\nP_110,158.5\nP_121, 31.7\n"
    assert load_t95_overrides(text.splitlines(), g) == {"P_110": 158.5, "P_121": 31.7}
    with pytest.raises(ValueError):
        load_t95_overrides(["P_110,1,2"], g)


def test_t95_override_skips_only_its_first_line_as_the_header(two_screen_graph):
    assert load_t95_overrides(["", "PATH_ID,T95_SECONDS", "P_11,5"], two_screen_graph) == {"P_11": 5.0}
    with pytest.raises(ValueError, match="^line 3: path 'PATH_ID_2' has no terminal node in the graph$"):
        load_t95_overrides(["", "PATH_ID,T95_SECONDS", "PATH_ID_2,10", "P_11,5"], two_screen_graph)


def test_t95_override_ids_resolve_in_the_graph(two_screen_graph):
    lines = ["path_id,t95_seconds", "P_11,10", "N_12,20"]
    assert load_t95_overrides(lines, two_screen_graph) == {"P_11": 10.0, "P_12": 20.0}
    with pytest.raises(ValueError, match="^line 3: path 'P_99' has no terminal node in the graph$"):
        load_t95_overrides([*lines[:2], "P_99,20"], two_screen_graph)


@pytest.mark.parametrize(
    "value, message",
    [
        ("nan", "t95 must be positive and finite"),
        ("inf", "t95 must be positive and finite"),
        ("0", "t95 must be positive and finite"),
        ("-3", "t95 must be positive and finite"),
        ("abc", "non-numeric t95"),
    ],
)
def test_t95_override_rejects_bad_value_naming_line(value, message):
    with pytest.raises(ValueError, match=f"^line 3: {message} in 'TP_1,{value}'$"):
        load_t95_overrides(["path_id,t95_seconds", "P_110,158.5", f"TP_1,{value}"], dataset.build_reference_graph())


def test_t95_override_names_line_with_wrong_field_count():
    with pytest.raises(ValueError, match=r"^line 2: expected 'path_id,t95_seconds', got 'P_110,1,2'$"):
        load_t95_overrides(["path_id,t95_seconds", "P_110,1,2"], dataset.build_reference_graph())


@pytest.mark.parametrize("second", ["P_112", "N_112"])
def test_t95_override_path_listed_twice(second):
    lines = ["path_id,t95_seconds", "P_112,10", "P_110,5", f"{second},20"]
    with pytest.raises(ValueError, match=r"^line 4: path P_112 is listed on line 2 too$"):
        load_t95_overrides(lines, dataset.build_reference_graph())


def test_threshold_beyond_float_range_is_infinite():
    """A tau that puts exp(mean + tau * std) past the largest float gives an
    infinite threshold with no tail mass, and flags nothing."""
    durations = {"P_A": [2.0, 2.0, 2.2], "P_B": [2.0, 1.9, 2.0], "P_C": [8.0, 8.2, 8.0]}
    detail = time_deviation_detail(samples_of(durations), {p: "c" for p in durations}, tau=10_000)
    assert set(detail) == set(durations)
    for d in detail.values():
        assert d.threshold_s == math.inf and d.tail_prob_at_threshold == 0.0 and not d.flagged
