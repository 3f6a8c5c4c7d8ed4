"""Parity tests for the columnar operating-point kernel.

The vectorised table path (struct-of-arrays pricing, Pareto pre-filtering,
requirement scoring and policy selection) must be bit-identical to the
per-point reference kernels of ``tests/reference_kernels.py``, which share no
code with it.  These tests pin that equivalence at every layer — pricing,
violation scoring, Pareto masks and policy choices, on the xu3 grid and on
hypothesis-generated tables — plus the bench harness that tracks the
kernel's performance trajectory.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bench import (
    BENCH_KIND_DECISION,
    GATED_FIELDS,
    BenchTimings,
    compare_bench,
    gate_cases,
    load_bench_file,
    reference_sections,
    run_bench_spec,
    write_bench_file,
)
from repro.experiments import ExperimentSpec, run
from repro.rtm.cache import DECISION_MAXIMISE, DECISION_OBJECTIVES, OperatingPointCache
from repro.rtm.operating_points import (
    OperatingPoint,
    OperatingPointSpace,
    OperatingPointTable,
    pareto_mask,
)
from repro.rtm.policies import POLICY_REGISTRY, MinEnergyUnderConstraints, SelectionPolicy
from repro.workloads.requirements import Requirements
from tests import reference_kernels


@pytest.fixture(scope="module")
def space(trained_dnn, energy_model):
    # Module-scoped read-only platform: the function-scoped xu3 fixture is
    # for tests that mutate the SoC; these only price against it.
    from repro.platforms.presets import odroid_xu3

    return OperatingPointSpace(trained_dnn, odroid_xu3(), energy_model)


@pytest.fixture(scope="module")
def table(space):
    return space.enumerate_table(temperature_c=45.0)


@pytest.fixture(scope="module")
def points(space):
    return reference_kernels.enumerate_points(space, temperature_c=45.0)


REQUIREMENT_SETS = [
    Requirements(),
    Requirements(max_latency_ms=400.0, max_energy_mj=100.0),
    Requirements(target_fps=10.0, min_accuracy_percent=60.0),
    Requirements(max_latency_ms=5.0),  # infeasible: exercises degradation
    Requirements(max_power_mw=1.0, max_latency_ms=1.0),  # doubly infeasible
    Requirements(
        max_latency_ms=300.0,
        max_energy_mj=150.0,
        max_power_mw=2500.0,
        min_accuracy_percent=55.0,
        target_fps=4.0,
    ),
]


class TestTablePricingParity:
    def test_columns_match_scalar_points_bitwise(self, table, points):
        assert len(table) == len(points)
        for row, point in enumerate(points):
            assert table.latency_ms[row] == point.latency_ms
            assert table.power_mw[row] == point.power_mw
            assert table.energy_mj[row] == point.energy_mj
            assert table.accuracy_percent[row] == point.accuracy_percent
            assert table.confidence_percent[row] == point.confidence_percent
            assert table.fps[row] == point.fps
            assert table.frequency_mhz[row] == point.frequency_mhz
            assert int(table.cores[row]) == point.cores
            assert table.configuration[row] == point.configuration
            assert table.cluster_names[int(table.cluster_index[row])] == point.cluster_name

    def test_materialised_points_equal_scalar_points(self, table, points):
        assert table.points == points

    def test_restricted_table_matches_restricted_enumeration(self, space):
        kwargs = dict(
            clusters=["a15"],
            configurations=[1.0, 0.5],
            core_counts=[1, 3],
            frequencies={"a15": [600.0, 1800.0]},
            temperature_c=45.0,
        )
        assert space.enumerate_table(**kwargs).points == reference_kernels.enumerate_points(
            space, **kwargs
        )

    def test_roofline_fallback_matches_scalar(self, trained_dnn, nano, energy_model):
        # The nano GPU cluster is calibrated but a custom cluster name is not,
        # so enumerate over the nano exercises both calibrated and roofline
        # paths depending on the calibration table.
        space = OperatingPointSpace(trained_dnn, nano, energy_model)
        assert space.enumerate_table(
            temperature_c=50.0
        ).points == reference_kernels.enumerate_points(space, temperature_c=50.0)

    @pytest.mark.parametrize("preset", ["odroid_xu3", "jetson_nano"])
    def test_roofline_energy_model_matches_scalar(self, trained_dnn, preset):
        # The scalar pricing passes the SoC name on to the roofline estimator,
        # which reads everything from the cluster.
        from repro.perfmodel import EnergyModel, RooflineLatencyModel
        from repro.platforms.presets import build_preset

        space = OperatingPointSpace(
            trained_dnn, build_preset(preset), EnergyModel(RooflineLatencyModel())
        )
        assert space.enumerate_table(
            temperature_c=45.0
        ).points == reference_kernels.enumerate_points(space, temperature_c=45.0)

    def test_gridless_estimators_are_rejected(self, trained_dnn, xu3):
        from repro.perfmodel.energy import EnergyModel

        class GridlessLatency:
            """Estimator without latency_grid_ms, which enumeration needs."""

            def latency_ms(self, network, cluster, frequency_mhz=None, cores_used=1, **kwargs):
                return 10.0

        space = OperatingPointSpace(trained_dnn, xu3, EnergyModel(GridlessLatency()))
        with pytest.raises(TypeError, match="latency_grid_ms"):
            space.enumerate_table(temperature_c=45.0)


class TestTableViews:
    def test_take_preserves_requested_order(self, table):
        indices = np.array([5, 2, 9])
        view = table.take(indices)
        assert len(view) == 3
        assert view.points == [table.point(5), table.point(2), table.point(9)]

    def test_take_accepts_boolean_masks(self, table, points):
        mask = table.cores == 1
        view = table.take(mask)
        expected = [p for p in points if p.cores == 1]
        assert len(view) == int(mask.sum())
        assert view.points == expected

    def test_concat_round_trip(self, space):
        a15 = space.enumerate_table(clusters=["a15"], temperature_c=45.0)
        a7 = space.enumerate_table(clusters=["a7"], temperature_c=45.0)
        union = OperatingPointTable.concat([a15, a7])
        assert len(union) == len(a15) + len(a7)
        assert union.points == a15.points + a7.points

    def test_empty_table(self):
        empty = OperatingPointTable.empty()
        assert len(empty) == 0
        assert empty.points == []

    def test_columns_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.latency_ms[0] = 0.0

    def test_unknown_column_rejected(self, table):
        with pytest.raises(KeyError):
            table.column("nope")


class TestParetoParity:
    def test_table_pareto_matches_point_pareto(self, table, points):
        front = table.pareto(objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE)
        expected = reference_kernels.front(
            points, objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE
        )
        assert front.points == expected

    def test_table_pareto_matches_default_objectives(self, table, points):
        assert table.pareto().points == reference_kernels.front(points)

    def test_hierarchical_front_equals_direct_mask(self, table):
        # The grouped fast path (n >= 64, several configurations) must equal
        # the direct O(n^2) mask over the full matrix.
        matrix = table.objective_matrix(DECISION_OBJECTIVES, DECISION_MAXIMISE)
        direct = np.flatnonzero(~pareto_mask(matrix))
        grouped = table.pareto(objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE)
        assert grouped.points == [table.point(i) for i in direct]

    def test_mask_handles_duplicates_and_ties(self):
        matrix = np.array(
            [
                [1.0, 1.0],
                [1.0, 1.0],  # duplicate: neither dominates the other
                [2.0, 0.5],  # incomparable with row 0
                [2.0, 2.0],  # dominated by rows 0 and 1
            ]
        )
        assert pareto_mask(matrix).tolist() == [False, False, False, True]

    def test_mask_empty_and_singleton(self):
        assert pareto_mask(np.empty((0, 3))).tolist() == []
        assert pareto_mask(np.array([[1.0, 2.0]])).tolist() == [False]


class TestPolicySelectionParity:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
    @pytest.mark.parametrize("requirements", REQUIREMENT_SETS)
    @pytest.mark.parametrize("power_cap_mw", [None, 3000.0, 0.5])
    def test_select_table_matches_select(
        self, table, points, policy_name, requirements, power_cap_mw
    ):
        policy = POLICY_REGISTRY[policy_name]()
        expected = reference_kernels.select(
            policy_name, points, requirements, power_cap_mw=power_cap_mw
        )
        columnar = policy.select_table(table, requirements, power_cap_mw=power_cap_mw)
        assert columnar == expected

    def test_empty_candidates_select_none(self, table):
        policy = POLICY_REGISTRY["max_accuracy"]()
        assert policy.select_table(OperatingPointTable.empty(), Requirements()) is None

    @pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
    def test_custom_objective_values_override_is_honoured(self, table, points, policy_name):
        base = POLICY_REGISTRY[policy_name]

        class LeastEnergyOnA7(base):
            """Custom objective: the table path must rank by it, not by the base's."""

            maximise_column = None

            def objective_values(self, table):
                on_a7 = table.cluster_index == table.cluster_names.index("a7")
                return np.where(on_a7, table.energy_mj, np.inf)

        policy = LeastEnergyOnA7()
        requirements = Requirements(max_latency_ms=400.0, max_energy_mj=100.0)
        feasible_on_a7 = [
            point
            for point in points
            if point.cluster_name == "a7"
            and reference_kernels.violation_score(point, requirements) == 0.0
        ]
        expected = min(feasible_on_a7, key=lambda point: point.energy_mj)
        assert policy.select_table(table, requirements) == expected
        # A subclass declares no value key, so no memo serves its choices.
        assert policy.cache_key() is None

    @pytest.mark.parametrize("policy_name", ["max_accuracy", "max_confidence"])
    def test_maximise_column_ranks_the_feasible_points(self, table, points, policy_name):
        class Maximiser(MinEnergyUnderConstraints):
            maximise_column = POLICY_REGISTRY[policy_name].maximise_column

        feasible_sets = [
            requirements
            for requirements in REQUIREMENT_SETS
            if any(reference_kernels.violation_score(p, requirements) == 0.0 for p in points)
        ]
        assert len(feasible_sets) >= 3
        for requirements in feasible_sets:
            expected = reference_kernels.select(policy_name, points, requirements)
            assert Maximiser().select_table(table, requirements) == expected
        # Without the column the same class takes the least energy instead.
        assert MinEnergyUnderConstraints().select_table(
            table, Requirements()
        ) != Maximiser().select_table(table, Requirements())

    def test_a_policy_must_supply_objective_values(self):
        class NoObjective(SelectionPolicy):
            name = "no_objective"

        with pytest.raises(TypeError, match="objective_values"):
            NoObjective()


#: Small value pools, so hand-built tables hold duplicate rows and exact ties.
#: Accuracy and confidence levels sit 5e-10 apart, straddling the policies'
#: 1e-9 tolerance; requirement limits and power caps reuse the metric levels,
#: so points land exactly on a limit.
LATENCIES = (10.0, 20.0, 40.0)
ENERGIES = (5.0, 10.0, 20.0)
POWERS = (500.0, 1000.0, 2000.0)
ACCURACIES = (60.0, 60.0 + 5e-10, 60.0 + 1e-9, 60.0 + 1.5e-9, 70.0)
CONFIDENCES = (80.0, 80.0 + 5e-10, 80.0 + 1e-9, 80.0 + 1.5e-9, 90.0)
#: None, caps that exclude some points, and caps that exclude every point.
POWER_CAPS = (None, 500.0, 1000.0, 1500.0, 2000.0, 100.0)


@st.composite
def hand_built_points(draw):
    # frequency_mhz is the row number: no policy reads it, and it makes every
    # row distinct, so equal points mean the same row was chosen.
    return [
        OperatingPoint(
            cluster_name=draw(st.sampled_from(("a15", "a7"))),
            frequency_mhz=float(row),
            cores=draw(st.integers(1, 4)),
            configuration=draw(st.sampled_from((0.25, 0.5, 1.0))),
            latency_ms=draw(st.sampled_from(LATENCIES)),
            power_mw=draw(st.sampled_from(POWERS)),
            energy_mj=draw(st.sampled_from(ENERGIES)),
            accuracy_percent=draw(st.sampled_from(ACCURACIES)),
            confidence_percent=draw(st.sampled_from(CONFIDENCES)),
        )
        for row in range(draw(st.integers(0, 12)))
    ]


def _limit(pool):
    return st.one_of(st.none(), st.sampled_from(pool))


requirement_sets = st.builds(
    Requirements,
    max_latency_ms=_limit((15.0, 20.0, 40.0)),
    max_energy_mj=_limit((5.0, 10.0, 15.0)),
    max_power_mw=_limit((500.0, 1000.0, 1500.0)),
    min_accuracy_percent=_limit((60.0, 60.0 + 1e-9, 65.0, 70.0)),
    target_fps=_limit((25.0, 50.0, 60.0)),
)


class TestSelectionOracle:
    """The table path against the per-point reference on hand-built tables."""

    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(
        points=hand_built_points(),
        requirements=requirement_sets,
        power_cap_mw=st.sampled_from(POWER_CAPS),
    )
    def test_every_policy_picks_the_reference_point(self, points, requirements, power_cap_mw):
        table = reference_kernels.table_of(points)
        for name in sorted(POLICY_REGISTRY):
            chosen = POLICY_REGISTRY[name]().select_table(table, requirements, power_cap_mw)
            expected = reference_kernels.select(name, points, requirements, power_cap_mw)
            assert chosen == expected, name

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(points=hand_built_points(), requirements=requirement_sets)
    def test_every_row_scores_the_reference_violation(self, points, requirements):
        table = reference_kernels.table_of(points)
        scores = requirements.violation_scores(
            latency_ms=table.latency_ms,
            energy_mj=table.energy_mj,
            power_mw=table.power_mw,
            accuracy_percent=table.accuracy_percent,
            fps=table.fps,
        )
        assert scores.tolist() == [
            reference_kernels.violation_score(point, requirements) for point in points
        ]


class TestViolationScoreParity:
    @pytest.mark.parametrize("requirements", REQUIREMENT_SETS)
    def test_vectorised_scores_match_scalar(self, table, points, requirements):
        scores = requirements.violation_scores(
            latency_ms=table.latency_ms,
            energy_mj=table.energy_mj,
            power_mw=table.power_mw,
            accuracy_percent=table.accuracy_percent,
            fps=table.fps,
        )
        for row, point in enumerate(points):
            assert scores[row] == reference_kernels.violation_score(point, requirements)

    def test_missing_columns_skip_their_checks(self):
        requirements = Requirements(max_latency_ms=10.0, min_accuracy_percent=90.0)
        scores = requirements.violation_scores(latency_ms=np.array([5.0, 20.0]))
        assert scores[0] == 0.0
        assert scores[1] == pytest.approx(1.0)  # (20 - 10) / 10, accuracy skipped

    def test_rows_that_meet_a_subnormal_limit_do_not_warn(self):
        requirements = Requirements(min_accuracy_percent=5e-324, target_fps=5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = requirements.violation_scores(
                accuracy_percent=np.array([50.0, 0.0]), fps=np.array([30.0, 30.0])
            )
        assert scores.tolist() == [0.0, 1.0]

    def test_requires_at_least_one_column(self):
        with pytest.raises(ValueError):
            Requirements().violation_scores()

    def test_requirements_cache_key_is_stable_and_discriminating(self):
        a = Requirements(max_latency_ms=100.0, priority=2)
        b = Requirements(max_latency_ms=100.0, priority=2)
        c = Requirements(max_latency_ms=200.0, priority=2)
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()


class TestTopologyKey:
    def test_topology_key_is_cached_by_reference(self, xu3):
        assert xu3.topology_key() is xu3.topology_key()

    def test_topology_key_distinguishes_platforms(self, xu3, nano):
        assert xu3.topology_key() != nano.topology_key()

    def test_equal_presets_share_keys(self, xu3):
        from repro.platforms.presets import odroid_xu3

        assert xu3.topology_key() == odroid_xu3().topology_key()


class TestCachedTablePath:
    @staticmethod
    def query(trained_dnn, soc, energy_model, **restrictions):
        return dict(
            trained=trained_dnn,
            soc=soc,
            energy_model=energy_model,
            temperature_c=45.0,
            **restrictions,
        )

    def test_cached_tables_match_uncached(self, trained_dnn, xu3, energy_model):
        cache = OperatingPointCache()
        query = self.query(trained_dnn, xu3, energy_model)
        cached = cache.front_for(cache.query_key(**query), **query)
        direct = OperatingPointSpace(trained_dnn, xu3, energy_model).enumerate_table(
            temperature_c=45.0
        )
        assert cached.points == direct.pareto(
            objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE
        ).points
        assert cached.points == reference_kernels.front(
            direct.points, objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE
        )

    def test_table_memo_hits(self, trained_dnn, xu3, energy_model):
        cache = OperatingPointCache()
        query = self.query(trained_dnn, xu3, energy_model)
        key = cache.query_key(**query)
        first = cache.front_for(key, **query)
        second = cache.front_for(key, **query)
        assert second is first  # immutable: shared instance, no copy
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert (cache.stats.pareto_hits, cache.stats.pareto_misses) == (1, 1)
        assert cache.points_priced == len(
            OperatingPointSpace(trained_dnn, xu3, energy_model).enumerate_table(
                temperature_c=45.0
            )
        )

    def test_pareto_table_memo(self, trained_dnn, xu3, energy_model):
        cache = OperatingPointCache()
        queries = [
            self.query(trained_dnn, xu3, energy_model, clusters=[name]) for name in ("a15", "a7")
        ]
        keys = tuple(cache.query_key(**query) for query in queries)
        union = OperatingPointTable.concat(
            [cache.front_for(key, **query) for key, query in zip(keys, queries)]
        )
        front = cache.pareto_table_for(("union", keys), union)
        again = cache.pareto_table_for(("union", keys), union)
        assert again is front
        # Two per-cluster misses, then one union miss and one union hit.
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        assert (cache.stats.pareto_hits, cache.stats.pareto_misses) == (1, 3)
        assert front.points == reference_kernels.front(
            union.points, objectives=DECISION_OBJECTIVES, maximise=DECISION_MAXIMISE
        )


def _gate(timings, baseline, max_regression):
    """Gate one decision-kernel case against a baseline document."""
    current, base = gate_cases(BENCH_KIND_DECISION, {timings.key: timings.as_dict()}, baseline)
    return compare_bench(current, base, GATED_FIELDS, max_regression=max_regression)


class TestBenchHarness:
    @pytest.fixture(scope="class")
    def timings(self):
        return run_bench_spec(ExperimentSpec(scenario="steady", manager="rtm"), repeats=1)

    def test_case_produces_positive_timings(self, timings):
        assert timings.key == "steady/rtm"
        assert timings.decisions > 0
        assert timings.jobs > 0
        assert timings.e2e_s > 0
        assert timings.decide_ms_per_epoch_cached > 0

    def test_every_decision_epoch_is_timed(self, timings):
        # A timed manager that let the simulator's decision memo replay
        # repeated epochs would time fewer decide() calls than there are.
        trace = run(ExperimentSpec(scenario="steady", manager="rtm")).trace
        assert timings.decisions == len(trace.decisions)

    def test_write_and_load_round_trip(self, timings, tmp_path):
        import json

        path = tmp_path / "bench.json"
        reference = {"steady/rtm": {"decide_ms_per_epoch_cached": 100.0, "e2e_s": 10.0}}
        path.write_text(json.dumps({"reference": reference}))
        results = {timings.key: timings.as_dict()}
        document = write_bench_file(
            str(path),
            BENCH_KIND_DECISION,
            "repro-experiments bench",
            {"repeats": 1, "platform": "odroid_xu3", "seed": 0},
            results,
            extra=reference_sections(str(path), results),
        )
        loaded = load_bench_file(str(path))
        assert loaded["results"]["steady/rtm"] == document["results"]["steady/rtm"]
        assert loaded["reference"] == reference
        speedup = loaded["speedup_vs_reference"]["steady/rtm"]
        assert speedup["decide_ms_per_epoch_cached"] > 1.0

    def test_compare_flags_regressions(self, timings):
        tight = {
            "results": {
                "steady/rtm": {
                    "decide_ms_per_epoch_cached": timings.decide_ms_per_epoch_cached / 10.0,
                }
            }
        }
        regressions = _gate(timings, tight, max_regression=0.25)
        assert {r.metric for r in regressions} == {"decide_ms_per_epoch_cached"}
        assert all(r.ratio > 1.25 for r in regressions)

    def test_compare_passes_within_tolerance(self, timings):
        loose = {
            "results": {
                "steady/rtm": {
                    "decide_ms_per_epoch_cached": timings.decide_ms_per_epoch_cached,
                }
            }
        }
        assert _gate(timings, loose, max_regression=0.25) == []

    def test_compare_ignores_unknown_cases(self, timings):
        assert _gate(timings, {"results": {}}, max_regression=0.0) == []

    def test_committed_baseline_shows_kernel_speedups(self):
        # The committed trajectory must show >= 3x faster cached decide() and
        # >= 1.5x faster end-to-end rush_hour against the pre-kernel
        # reference profile.  Both are speed-ups that `bench --output`
        # recomputes, so the bar survives a refresh of the file.
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "BENCH_decision_kernel.json"
        document = load_bench_file(str(path))
        speedup = document["speedup_vs_reference"]["rush_hour/rtm"]
        assert speedup["decide_ms_per_epoch_cached"] >= 3.0
        assert speedup["e2e_s"] >= 1.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_bench_spec(ExperimentSpec(scenario="steady", manager="rtm"), repeats=0)
        with pytest.raises(ValueError):
            compare_bench({}, {}, GATED_FIELDS, max_regression=-0.1)


class TestBenchTimingsShape:
    def test_as_dict_fields(self):
        timings = BenchTimings(
            scenario="s",
            manager="m",
            decisions=10,
            jobs=20,
            e2e_s=1.0,
            decide_ms_per_epoch_cached=0.5,
        )
        assert timings.key == "s/m"
        assert timings.as_dict() == {
            "decisions": 10,
            "jobs": 20,
            "e2e_s": 1.0,
            "decide_ms_per_epoch_cached": 0.5,
        }
