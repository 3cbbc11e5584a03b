"""The columnar ScenarioTable engine vs the serial reference.

Every test drives the same :class:`RunSpec` set down both paths and
holds the table's results to the repository-wide 1e-9 equivalence bound
via the differential pillar's ``compare_runs`` — including the shapes
the lockstep solver finds hardest: ragged batches mixing architectures,
SMT levels, thread counts and chip counts; and degenerate single-row
tables where no lockstep amortization exists at all.
"""

import dataclasses

import numpy as np
import pytest

import repro.api as api
from repro.arch import nehalem, power7
from repro.arch.hetero import get_hetero
from repro.arch.registry import list_architectures
from repro.check.differential import REL_TOL, compare_runs
from repro.experiments.runner import (
    DEFAULT_WORK,
    _catalog_specs,
    _default_catalog,
    resolve_system,
)
from repro.fleet import perfmodel
from repro.obs import configure
from repro.sim.engine import RunSpec, simulate_run
from repro.sim.hetero import HeteroRunSpec, simulate_many_hetero
from repro.sim.table import ScenarioTable, simulate_many_columnar
from repro.simos import SystemSpec
from repro.workloads import all_workloads

from .helpers import balanced_stream, memory_stream, thrashy_fp_stream
from .test_table_pins import (
    SEEDS,
    _catalog_runs,
    _lock_overflow_batch,
    _traced,
    results_digest,
)


#: One shared instance per architecture: a ScenarioTable groups rows by
#: Architecture identity, exactly as run_catalog and the api session do.
P7 = power7()
NHM = nehalem()


def _catalog_spec(name, level, *, arch=None, n_chips=1, seed=11, **kwargs):
    workload = all_workloads()[name]
    system = SystemSpec(arch if arch is not None else P7, n_chips)
    return RunSpec(system=system, smt_level=level, stream=workload.stream,
                   sync=workload.sync, seed=seed, **kwargs)


def assert_equivalent(specs, results):
    assert len(results) == len(specs)
    for spec, got in zip(specs, results):
        diffs = compare_runs(simulate_run(spec), got, REL_TOL)
        assert not diffs, (spec.smt_level, diffs)


class TestRoundTrip:
    def test_single_row_table(self):
        specs = [_catalog_spec("EP", 4)]
        assert_equivalent(specs, simulate_many_columnar(specs))

    def test_catalog_batch(self):
        specs = [
            _catalog_spec(name, level)
            for name in ("EP", "SSCA2", "Fluidanimate", "SPECjbb_contention")
            for level in (1, 2, 4)
        ]
        assert_equivalent(specs, simulate_many_columnar(specs))

    def test_ragged_batch_mixed_archs_levels_and_chips(self):
        p7, nhm = P7, NHM
        specs = [
            _catalog_spec("EP", 4, arch=p7),
            _catalog_spec("SSCA2", 1, arch=nhm, seed=3),
            _catalog_spec("Fluidanimate", 2, arch=p7, n_chips=2),
            _catalog_spec("IS", 2, arch=nhm, n_chips=2, seed=7),
            _catalog_spec("SPECjbb_contention", 4, arch=p7,
                          n_threads=3, noise_rel=0.0),
            _catalog_spec("EP", 1, arch=p7, seed=5),
        ]
        assert_equivalent(specs, simulate_many_columnar(specs))

    def test_synthetic_streams_round_trip(self):
        arch = P7
        workload = all_workloads()["SPECjbb_contention"]
        specs = [
            RunSpec(system=SystemSpec(arch, 1), smt_level=level,
                    stream=stream, sync=workload.sync, seed=11)
            for stream in (balanced_stream(), memory_stream(),
                           thrashy_fp_stream())
            for level in (1, 4)
        ]
        assert_equivalent(specs, simulate_many_columnar(specs))

    def test_empty_batch(self):
        assert simulate_many_columnar([]) == []

    def test_input_order_preserved_across_arch_groups(self):
        # Interleave the two architecture groups: results must come back
        # in input order even though the table solves them group-wise.
        p7, nhm = P7, NHM
        specs = [
            _catalog_spec("EP", 4, arch=p7),
            _catalog_spec("EP", 2, arch=nhm),
            _catalog_spec("SSCA2", 4, arch=p7),
            _catalog_spec("SSCA2", 2, arch=nhm),
        ]
        results = simulate_many_columnar(specs)
        for spec, got in zip(specs, results):
            assert got.n_threads == spec.resolved_threads()
        assert_equivalent(specs, results)


class TestScenarioTable:
    def test_table_run_matches_serial(self):
        specs = [_catalog_spec("EP", level) for level in (1, 2, 4)]
        table = ScenarioTable(specs)
        assert_equivalent(specs, table.run())

    def test_table_rejects_mixed_architectures(self):
        specs = [_catalog_spec("EP", 4, arch=P7),
                 _catalog_spec("EP", 2, arch=NHM)]
        with pytest.raises(ValueError):
            ScenarioTable(specs)

    def test_run_is_repeatable(self):
        specs = [_catalog_spec("SSCA2", 4)]
        table = ScenarioTable(specs)
        first = table.run()[0]
        second = ScenarioTable(specs).run()[0]
        assert compare_runs(first, second, rel_tol=0.0) == []


def _kept(specs):
    """A table built from a layout's kept template: a layout's template
    is kept from its second table on."""
    ScenarioTable(specs)
    ScenarioTable(specs)
    return ScenarioTable(specs)


def _layout(name):
    """A registered architecture's catalog at its levels, or the batch
    whose spin-loop prediction is wrong (iteration 1 is re-solved)."""
    if name == "lock-overflow":
        return _lock_overflow_batch()
    system = resolve_system(name)
    catalog, levels = _default_catalog(system)
    return [spec for _, _, spec in _catalog_specs(system, catalog, levels, 11, DEFAULT_WORK)]


def _catalog_digest(alias, seed):
    return results_digest(_catalog_runs(alias, seed))


class TestTemplates:
    """Tables that copy a template answer exactly like freshly built ones."""

    @pytest.mark.parametrize("alias", ["p7", "nehalem"])
    def test_warm_memo_answers_like_a_cold_one(self, alias, cold_memo):
        cold = []
        for seed in SEEDS:
            cold_memo()
            cold.append(_catalog_digest(alias, seed))

        # Warm the memo through other entry points (the serial strategy
        # is left out: its serial-rate memo fills differently), then
        # build the catalog's layout twice at a seed outside SEEDS.
        perfmodel._build(("power7", "nehalem"), ("EP", "CG", "SSCA2"))
        session = api.Session(alias, use_cache=False)
        for name in ("SSCA2", "SSCA2", "SSCA2"):
            session.predict(name, seed=5)
        workload = all_workloads()["EP"]
        simulate_many_hetero([
            HeteroRunSpec(get_hetero("biglittle"), workload.stream, workload.sync, seed=seed)
            for seed in (1, 2)
        ])
        _catalog_digest(alias, 123)
        _catalog_digest(alias, 123)

        tracer = configure(enabled=True)
        tracer.reset()
        try:
            warm = [_catalog_digest(alias, seed) for seed in SEEDS]
            counters = tracer.counters()
        finally:
            configure(enabled=False)
            tracer.reset()
        assert counters["table.template_hits"] == counters["table.tables"] >= len(SEEDS)
        assert warm == cold

    @pytest.mark.parametrize("change", [
        {"seed": 99},
        {"seed": 2**40 + 1},
        {"noise_rel": 0.0},
        {"noise_rel": 0.2},
        {"system": SystemSpec(P7, 1)},
    ], ids=["seed", "wide-seed", "noise-free", "noise", "equal-system"])
    def test_seed_and_noise_reuse_the_template(self, cold_memo, change):
        base = _catalog_spec("SSCA2", 4)
        kept = _kept([base])
        other = ScenarioTable([dataclasses.replace(base, **change)])
        assert other.row_mix is kept.row_mix
        assert other.run_runnable is kept.run_runnable
        assert other.run_work is kept.run_work

    @pytest.mark.parametrize("change", [
        lambda spec: {"stream": dataclasses.replace(spec.stream)},
        lambda spec: {"sync": dataclasses.replace(spec.sync)},
        lambda spec: {"smt_level": 2},
        lambda spec: {"n_threads": 16},
        lambda spec: {"system": SystemSpec(P7, 2)},
        lambda spec: {"useful_instructions": 2 * spec.useful_instructions},
    ], ids=["stream-identity", "sync-identity", "level", "threads", "chips", "work"])
    def test_layout_changes_do_not_reuse_it(self, cold_memo, change):
        base = _catalog_spec("SSCA2", 4)
        kept = _kept([base])
        spec = dataclasses.replace(base, **change(base))
        for _ in range(3):
            other = ScenarioTable([spec])
            assert other.row_mix is not kept.row_mix
            assert other.run_work is not kept.run_work
        assert_equivalent([spec], other.run())

    def test_multi_run_order_is_part_of_the_layout(self, cold_memo):
        specs = [_catalog_spec("EP", 4), _catalog_spec("SSCA2", 2)]
        kept = _kept(specs)
        assert ScenarioTable(specs[::-1]).row_mix is not kept.row_mix
        assert _kept(specs[::-1]).row_mix is not kept.row_mix

    def test_template_arrays_are_read_only(self, cold_memo):
        table = _kept([_catalog_spec("SPECjbb_contention", 4)])
        arrays = {name: value for name, value in vars(table).items()
                  if isinstance(value, np.ndarray) and name != "run_noise"}
        assert arrays
        assert not [name for name, value in arrays.items() if value.flags.writeable]
        with pytest.raises(ValueError):
            table.row_mix[0, 0] = 1.0
        with pytest.raises(ValueError):
            table.run_work[0] = 1.0

    @pytest.mark.parametrize("name", [*list_architectures(), "lock-overflow"])
    def test_kept_state_answers_like_an_empty_memo(self, name, cold_memo):
        layout = _layout(name)
        for seed in (11, 2**32 + 7):
            for noise in ({"noise_rel": 0.0}, {}):
                specs = [dataclasses.replace(spec, seed=seed, **noise) for spec in layout]
                cold_memo()
                fresh = results_digest(ScenarioTable(specs).run())
                # Two tables at another seed and noise keep the template
                # and its state; the third table only finalizes.
                for _ in range(2):
                    ScenarioTable([dataclasses.replace(spec, seed=5) for spec in layout]).run()
                results, counters = _traced(lambda: ScenarioTable(specs).run())
                assert counters.get("table.state_hits") == 1
                assert "table.solves" not in counters
                assert results_digest(results) == fresh, (seed, noise)

    def test_kept_state_is_read_only(self, cold_memo):
        specs = [_catalog_spec("SPECjbb_contention", 4), _catalog_spec("EP", 2)]
        for _ in range(2):
            ScenarioTable(specs).run()
        state = ScenarioTable(specs)._template["_state"]
        arrays = vars(state)
        assert arrays and all(isinstance(v, np.ndarray) for v in arrays.values())
        assert not [name for name, value in arrays.items() if value.flags.writeable]
        with pytest.raises(ValueError):
            state.x_rows[0] = 1.0
        with pytest.raises(ValueError):
            state.useful_rate[0] = 1.0
