"""Tests for the workload-matrix subsystem (`repro.workloads`).

Covers the ISSUE-5 determinism contract — same seed => byte-identical
expanded matrix and identical campaign-report digests across worker
counts — plus structural validation of every new graph family (node
count, degree bounds, connectivity, generator-seed stability), matrix
filtering, store replay and the CLI.
"""

import itertools
import json
import tracemalloc

import pytest

from repro.campaign.runner import run_campaign
from repro.engine import CachedEngine, algorithm_fingerprint
from repro.graphs import (
    caterpillar_graph,
    disjoint_cycles,
    hypercube_graph,
    random_regular_graph,
    sequential_assignment,
    single_edge_graph,
    single_node_graph,
)
from repro.graphs.labelled_graph import LabelledGraph
from repro.workloads import (
    bundled_families,
    default_matrix,
    expand_json,
    expand_ndjson,
    get_family,
)
from repro.workloads.cli import main as workloads_main
from repro.workloads.matrix import WorkloadMatrix


# ---------------------------------------------------------------------- #
# New graph families: structure and seed stability
# ---------------------------------------------------------------------- #


class TestNewGenerators:
    def test_hypercube_structure(self):
        for dim in (0, 1, 2, 3, 4):
            g = hypercube_graph(dim)
            assert g.num_nodes() == 1 << dim
            assert all(g.degree(v) == dim for v in g.nodes())
            assert g.is_connected()
            assert g.num_edges() == dim * (1 << (dim - 1)) if dim else g.num_edges() == 0

    def test_random_regular_structure_and_seed_stability(self):
        g = random_regular_graph(8, 3, seed=42)
        assert g.num_nodes() == 8
        assert all(g.degree(v) == 3 for v in g.nodes())
        assert g == random_regular_graph(8, 3, seed=42)
        # Different seeds explore different graphs at least sometimes.
        assert any(
            random_regular_graph(8, 3, seed=s) != g for s in range(5)
        ), "seed does not influence the pairing draw"

    def test_random_regular_rejects_impossible_parameters(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            random_regular_graph(5, 3, seed=0)  # n * d odd
        with pytest.raises(GraphError):
            random_regular_graph(4, 4, seed=0)  # d >= n

    def test_caterpillar_is_a_seed_stable_tree(self):
        g = caterpillar_graph(6, seed=7)
        assert g.num_edges() == g.num_nodes() - 1
        assert g.is_connected()
        assert g == caterpillar_graph(6, seed=7)
        assert all(g.has_node(i) for i in range(6))  # the spine is present
        # Spine interior degree <= 2 + max_legs.
        assert all(g.degree(v) <= 4 for v in g.nodes())

    def test_disjoint_cycles_are_disconnected_and_2_regular(self):
        g = disjoint_cycles(2, 5)
        assert g.num_nodes() == 10
        assert all(g.degree(v) == 2 for v in g.nodes())
        assert not g.is_connected()
        assert len(g.connected_components()) == 2

    def test_degenerate_graphs(self):
        assert single_node_graph().num_nodes() == 1
        assert single_node_graph().num_edges() == 0
        assert single_edge_graph().num_nodes() == 2
        assert single_edge_graph().num_edges() == 1

    def test_every_family_matches_its_declared_metadata(self):
        for family in bundled_families():
            for quick in (True, False):
                for idx, size in enumerate(family.ladder(quick)):
                    g = family.build(size, 1234 + idx)
                    assert isinstance(g, LabelledGraph)
                    if family.expected_nodes is not None:
                        assert g.num_nodes() == family.expected_nodes(size), (
                            f"{family.name}(size={size}) node count"
                        )
                    if family.degree_bound is not None:
                        bound = family.degree_bound(size)
                        assert all(g.degree(v) <= bound for v in g.nodes()), (
                            f"{family.name}(size={size}) exceeds degree bound {bound}"
                        )
                    if family.connected:
                        assert g.is_connected(), f"{family.name}(size={size}) not connected"
                    # Generator-seed stability: same (size, seed) => same graph.
                    assert g == family.build(size, 1234 + idx), (
                        f"{family.name}(size={size}) is not seed-stable"
                    )


# ---------------------------------------------------------------------- #
# Matrix expansion: shape, determinism, filters
# ---------------------------------------------------------------------- #


class TestMatrixExpansion:
    def test_matrix_expands_at_least_40_cells(self):
        cells = default_matrix().cells()
        assert len(cells) >= 40
        names = [cell.name for cell in cells]
        assert len(names) == len(set(names)), "cell names must be unique"

    def test_expansion_is_byte_identical_for_one_seed(self):
        first = expand_json(default_matrix(seed=11).cells())
        second = expand_json(default_matrix(seed=11).cells())
        assert first == second
        payload = json.loads(first)
        assert all("digest_full" in record and "digest_quick" in record for record in payload)

    def test_matrix_seed_changes_cell_seeds_and_digests(self):
        base = {c.name: c for c in default_matrix(seed=0).cells()}
        moved = {c.name: c for c in default_matrix(seed=1).cells()}
        assert base.keys() == moved.keys()
        name = next(iter(base))
        assert base[name].spec.seed != moved[name].spec.seed
        assert base[name].digest(True) != moved[name].digest(True)

    def test_cells_cover_all_four_axes(self):
        cells = default_matrix().cells()
        assert {c.family.name for c in cells} == {f.name for f in bundled_families()}
        assert {c.axis.name for c in cells} == {
            "colouring", "mis", "matching", "paths", "hereditary-colouring",
            "fractional-colouring", "spanning-forest",
        }
        assert {c.regime.name for c in cells} == {"one-based", "bounded", "adversarial"}
        assert {c.construction.name for c in cells} == {
            "honest", "lazy-guard", "parity-audit"
        }

    def test_traps_only_appear_as_search_cells_on_whitelisted_families(self):
        for cell in default_matrix().cells():
            if cell.construction.expect_defeat:
                assert cell.spec.kind == "search"
                assert not cell.spec.expect_correct
                assert cell.family.name in cell.construction.trap_families

    def test_every_cell_decider_has_an_exact_fingerprint(self):
        # An unfingerprinted decider is never persisted, so a cell that
        # lost its fingerprint would silently stop replaying.  The
        # fingerprint also lets a rebuilt cell reuse the memo.
        engine = CachedEngine()
        for spec in default_matrix(0).scenarios():
            first, second = (spec.build(spec, spec.ladder(True)) for _ in range(2))
            assert algorithm_fingerprint(first.decider) is not None, spec.name
            graph = min(first.family.all_instances(), key=LabelledGraph.num_nodes)
            ids = sequential_assignment(graph)
            engine.run(first.decider, graph, ids)
            engine.reset_stats()
            engine.run(second.decider, graph, ids)
            assert engine.stats.evaluations == 0, spec.name

    def test_paths_property_restricted_to_path_shaped_families(self):
        families = {c.family.name for c in default_matrix().cells(properties=["paths"])}
        assert families == {"path", "single-node", "single-edge"}

    def test_filters_compose_and_reject_unknown_names(self):
        matrix = default_matrix()
        cells = matrix.cells(families=["cycle"], kinds=["verify"])
        assert cells and all(
            c.family.name == "cycle" and c.spec.kind == "verify" for c in cells
        )
        assert not matrix.cells(families=["cycle"], exclude_families=["cycle"])
        with pytest.raises(KeyError):
            matrix.cells(families=["no-such-family"])
        with pytest.raises(KeyError):
            matrix.cells(constructions=["no-such-construction"])
        with pytest.raises(KeyError, match="unknown matrix cell"):
            matrix.cells(names=["mx:no:such:cell:name"])
        # A real cell excluded by another filter is diagnosed as excluded,
        # not unknown.
        with pytest.raises(KeyError, match="excluded by the active filters"):
            matrix.cells(families=["cycle"], names=["mx:grid:colouring:honest:one-based"])
        with pytest.raises(KeyError):
            get_family("no-such-family")


# ---------------------------------------------------------------------- #
# Streaming expansion and variant ladders
# ---------------------------------------------------------------------- #


class TestStreamingMatrix:
    def test_iter_cells_matches_cells_exactly(self):
        matrix = default_matrix(seed=3)
        streamed = [(c.name, c.spec.seed, c.digest(True)) for c in matrix.iter_cells()]
        materialised = [(c.name, c.spec.seed, c.digest(True)) for c in matrix.cells()]
        assert streamed == materialised

    def test_default_cells_keep_unsuffixed_names(self):
        assert all("@" not in cell.name for cell in default_matrix().cells())

    def test_kinds_typo_raises_instead_of_silently_empty_sweep(self):
        # Regression: the kinds filter used to bypass _check_filter, so a
        # typo like kinds=["serch"] produced an empty sweep without error.
        with pytest.raises(KeyError, match="regime kind"):
            default_matrix().cells(kinds=["serch"])
        with pytest.raises(KeyError, match="regime kind"):
            # Validation is eager: the iterator constructor itself raises.
            default_matrix().iter_cells(kinds=["serch"])
        with pytest.raises(KeyError, match="regime kind"):
            default_matrix().count_cells(kinds=["serch"])

    def test_million_cell_cross_counts_instantly_and_streams_bounded(self):
        matrix = WorkloadMatrix(
            seed=0, size_scales=(1, 2), sample_counts=(2, 3), replicas=1250
        )
        # Counting never builds a spec: instant even past a million cells.
        total = matrix.count_cells()
        assert total >= 1_000_000
        assert total == 212 * matrix.variant_count()
        # Generator consumption: pulling a prefix allocates O(prefix), not
        # O(total) — the regression guard for iter_cells() materialising.
        stream = matrix.iter_cells()
        tracemalloc.start()
        consumed = sum(1 for _ in itertools.islice(stream, 25_000))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert consumed == 25_000
        assert peak < 8 * 1024 * 1024, f"streaming 25k cells peaked at {peak} bytes"

    def test_expand_ndjson_is_lazy_and_line_parseable(self):
        matrix = WorkloadMatrix(seed=0, replicas=5000)
        pulled = 0

        def tracked():
            nonlocal pulled
            for cell in matrix.iter_cells(families=["cycle"]):
                pulled += 1
                yield cell

        lines = list(itertools.islice(expand_ndjson(tracked()), 5))
        assert len(lines) == 5
        assert pulled <= 6, "expand_ndjson must not read ahead of its consumer"
        records = [json.loads(line) for line in lines]
        assert all(record["family"] == "cycle" for record in records)
        assert all("digest_full" in record for record in records)

    def test_variant_ladder_keeps_base_digests_byte_identical(self):
        slice_filters = dict(families=["cycle"], properties=["mis"])
        base = {
            c.name: c.digest(True)
            for c in default_matrix(seed=4).cells(**slice_filters)
        }
        laddered = WorkloadMatrix(seed=4, size_scales=(1, 2), sample_counts=(3, 5), replicas=2)
        cells = laddered.cells(**slice_filters)
        names = [c.name for c in cells]
        assert len(names) == len(set(names)), "variant names must be unique"
        unsuffixed = {c.name: c.digest(True) for c in cells if "@" not in c.name}
        assert unsuffixed == base, "default-variant cells must keep their digests"
        scaled = [c for c in cells if c.name.endswith("@s2k5r1")]
        assert scaled, "non-default variants must carry the @s..k..r.. suffix"
        cell = scaled[0]
        assert cell.spec.samples == 5
        assert cell.spec.sizes == tuple(2 * s for s in get_family("cycle").sizes)
        assert cell.spec.seed != base and cell.digest(True) not in base.values()

    def test_count_cells_respects_filters_and_names(self):
        matrix = default_matrix()
        assert matrix.count_cells() == len(matrix.cells())
        assert matrix.count_cells(kinds=["verify"]) == len(matrix.cells(kinds=["verify"]))
        assert matrix.count_cells(names=["mx:cycle:mis:honest:bounded"]) == 1
        with pytest.raises(KeyError, match="unknown matrix cell"):
            matrix.count_cells(names=["mx:no:such:cell:name"])


# ---------------------------------------------------------------------- #
# Determinism across worker counts + store replay
# ---------------------------------------------------------------------- #

#: A cheap, representative slice: every axis value appears, runs in seconds.
_SLICE = dict(families=["cycle", "single-edge"], properties=["colouring", "mis"])


def _report_digests(report):
    return [
        (r.name, r.spec_digest, r.observed_correct, r.expected_correct, r.sweeps, r.summary)
        for r in report.results
    ]


class TestDeterminismAcrossWorkers:
    def test_same_seed_same_digests_across_workers_1_2_4(self):
        reports = {
            workers: run_campaign(
                default_matrix(seed=5).scenarios(**_SLICE),
                engine="parallel",
                workers=workers,
                quick=True,
            )
            for workers in (1, 2, 4)
        }
        digests = {w: _report_digests(rep) for w, rep in reports.items()}
        assert digests[1] == digests[2] == digests[4]
        assert all(rep.ok for rep in reports.values())

    def test_warm_matrix_sweep_replays_from_the_store(self, tmp_path):
        specs = default_matrix(seed=5).scenarios(**_SLICE)
        store = tmp_path / "verdicts"
        cold = run_campaign(specs, quick=True, store=store)
        warm = run_campaign(specs, quick=True, store=store)
        assert cold.ok and warm.ok
        # Summaries annotate the replayed/computed split, so compare the
        # verdict-bearing fields only: same digests, same outcomes.
        strip = lambda report: [row[:5] for row in _report_digests(report)]  # noqa: E731
        assert strip(cold) == strip(warm)
        total = warm.jobs_replayed + warm.jobs_computed
        assert total > 0
        assert warm.jobs_replayed / total >= 0.9, (
            f"only {warm.jobs_replayed}/{total} jobs replayed on the warm pass"
        )


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #


class TestWorkloadsCli:
    def test_list_reports_cell_count(self, capsys):
        assert workloads_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "expanded scenario cells" in out
        count = int(out.split("workload matrix: ")[1].split()[0])
        assert count >= 40

    def test_expand_is_parseable_and_deterministic(self, capsys):
        assert workloads_main(["--expand", "--family", "cycle"]) == 0
        first = capsys.readouterr().out
        assert workloads_main(["--expand", "--family", "cycle"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload and all(record["family"] == "cycle" for record in payload)

    def test_families_and_properties_listings(self, capsys):
        assert workloads_main(["--families"]) == 0
        assert "workload graph families" in capsys.readouterr().out
        assert workloads_main(["--properties"]) == 0
        out = capsys.readouterr().out
        assert "lazy-guard" in out and "identifier regimes" in out

    def test_run_quick_slice_writes_report(self, tmp_path, capsys):
        output = tmp_path / "matrix.json"
        code = workloads_main(
            [
                "--run", "--quick", "--family", "cycle", "--property", "colouring",
                "--output", str(output),
            ]
        )
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["ok"] is True
        assert all(s["name"].startswith("mx:cycle:colouring") for s in payload["scenarios"])
        out = capsys.readouterr().out
        assert "workload matrix OK" in out

    def test_run_resume_reuses_fresh_cells(self, tmp_path, capsys):
        output = tmp_path / "matrix.json"
        args = ["--run", "--quick", "--family", "single-edge", "--output", str(output)]
        assert workloads_main(args) == 0
        capsys.readouterr()
        assert workloads_main(args + ["--resume", str(output)]) == 0
        out = capsys.readouterr().out
        assert "0 re-run" in out and "reused" in out

    def test_unknown_filter_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            workloads_main(["--list", "--family", "nope"])
        assert excinfo.value.code == 2

    def test_list_count_only_counts_without_building_specs(self, capsys):
        assert workloads_main(["--list", "--count-only"]) == 0
        base = int(capsys.readouterr().out.strip())
        assert base >= 40
        assert (
            workloads_main(
                [
                    "--list", "--count-only",
                    "--size-scale", "1", "--size-scale", "2",
                    "--sample-count", "2", "--sample-count", "3",
                    "--replicas", "1250",
                ]
            )
            == 0
        )
        assert int(capsys.readouterr().out.strip()) == base * 2 * 2 * 1250

    def test_expand_ndjson_with_max_cells_streams_a_prefix(self, capsys):
        assert workloads_main(["--expand", "--ndjson", "--max-cells", "7"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        assert all(json.loads(line)["name"].startswith("mx:") for line in lines)
