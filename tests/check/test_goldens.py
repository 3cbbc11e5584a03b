"""The goldens pillar: snapshots, fingerprints, tolerance-aware diffs."""

import json

import pytest

from repro.check.goldens import (
    diff_values,
    figure_names,
    golden_path,
    load_golden,
    model_fingerprint,
    run_golden_checks,
    update_goldens,
)

FIGS = ["fig16", "fig17"]


class TestDiffValues:
    def test_equal_structures_have_no_diffs(self):
        value = {"a": 1.0, "b": [1, 2, {"c": True}], "d": "x"}
        assert diff_values(value, json.loads(json.dumps(value))) == []

    def test_within_tolerance_is_equal(self):
        assert diff_values({"x": 1.0}, {"x": 1.0 + 1e-9}) == []

    def test_relative_drift_is_reported_with_path(self):
        problems = diff_values({"a": {"b": 100.0}}, {"a": {"b": 101.0}})
        assert len(problems) == 1
        assert problems[0].startswith("a.b:")

    def test_bools_compare_exactly_not_numerically(self):
        # bool is an int subclass; True must not match 1.0-within-tol.
        assert diff_values(True, 1.0)
        assert diff_values({"flag": False}, {"flag": True})

    def test_missing_and_extra_keys(self):
        problems = diff_values({"a": 1, "b": 2}, {"b": 2, "c": 3})
        assert any("a" in p and "missing" in p for p in problems)
        assert any("c" in p and "not in golden" in p for p in problems)

    def test_length_mismatch(self):
        problems = diff_values([1, 2, 3], [1, 2])
        assert "length 3 != 2" in problems[0]


class TestFingerprint:
    def test_stable_within_process(self):
        assert model_fingerprint() == model_fingerprint()
        assert len(model_fingerprint()) == 16

    def test_repeat_calls_hit_the_memo(self, monkeypatch):
        import repro.check.goldens as goldens
        from repro.sim import runcache

        calls = {"n": 0}
        real = runcache._arch_fp_json

        def counting(arch):
            calls["n"] += 1
            return real(arch)

        monkeypatch.setattr(runcache, "_arch_fp_json", counting)
        goldens._FINGERPRINT_CACHE.clear()
        first = model_fingerprint()
        after_first = calls["n"]
        assert after_first > 0  # the miss really rebuilt the arch parts
        assert model_fingerprint() == first
        assert calls["n"] == after_first  # the hit rebuilt nothing

    def test_constant_change_invalidates_the_memo(self, monkeypatch):
        from repro.sim import runcache

        baseline = model_fingerprint()
        # A changed model constant produces a different constants JSON;
        # the memo must miss and yield a different fingerprint.
        monkeypatch.setattr(
            runcache, "_CONSTANTS_FP_JSON", '{"tampered": true}'
        )
        tampered = model_fingerprint()
        assert tampered != baseline
        assert len(tampered) == 16
        # And repeat calls under the tampered constants stay memoized.
        assert model_fingerprint() == tampered


class TestGoldenLifecycle:
    def test_update_writes_stamped_files(self, golden_dir):
        for fig in FIGS:
            golden = load_golden(fig, golden_dir)
            assert golden is not None
            assert golden["figure"] == fig
            assert golden["fingerprint"] == model_fingerprint()
            assert golden["summary"]

    def test_fresh_goldens_pass(self, golden_dir):
        report = run_golden_checks(FIGS, directory=golden_dir)
        assert report.ok, [v.render() for v in report.violations]
        assert report.subjects == len(FIGS)
        assert report.stats["fingerprint"] == model_fingerprint()

    def test_missing_golden_points_at_update_flow(self, tmp_path):
        report = run_golden_checks(["fig16"], directory=tmp_path)
        assert not report.ok
        (violation,) = report.violations
        assert violation.check == "golden_present"
        assert "--update-goldens" in violation.message

    def test_semantic_drift_is_distinguished_from_staleness(
        self, golden_dir, tmp_path
    ):
        # Same fingerprint, different numbers: a real regression.
        path = golden_path("fig16", golden_dir)
        tampered_dir = tmp_path / "drift"
        tampered_dir.mkdir()
        payload = json.loads(path.read_text())
        payload["summary"]["min_impurity"] = (
            payload["summary"]["min_impurity"] + 0.25
        )
        (tampered_dir / "fig16.json").write_text(json.dumps(payload))
        report = run_golden_checks(["fig16"], directory=tampered_dir)
        assert not report.ok
        (violation,) = report.violations
        assert violation.check == "golden_match"
        assert "semantic drift" in violation.message
        assert violation.details["n_diffs"] >= 1
        assert any("min_impurity" in d for d in violation.details["diffs"])

    def test_stale_fingerprint_with_matching_values(self, golden_dir, tmp_path):
        path = golden_path("fig17", golden_dir)
        stale_dir = tmp_path / "stale"
        stale_dir.mkdir()
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "0" * 16
        (stale_dir / "fig17.json").write_text(json.dumps(payload))
        report = run_golden_checks(["fig17"], directory=stale_dir)
        assert not report.ok
        (violation,) = report.violations
        assert violation.check == "golden_fingerprint"
        assert "--update-goldens" in violation.message
        assert violation.details["current_fingerprint"] == model_fingerprint()

    def test_stale_fingerprint_with_drift_hints_regeneration(
        self, golden_dir, tmp_path
    ):
        path = golden_path("fig16", golden_dir)
        both_dir = tmp_path / "both"
        both_dir.mkdir()
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "0" * 16
        payload["summary"]["min_impurity"] = (
            payload["summary"]["min_impurity"] + 0.25
        )
        (both_dir / "fig16.json").write_text(json.dumps(payload))
        report = run_golden_checks(["fig16"], directory=both_dir)
        (violation,) = report.violations
        assert violation.check == "golden_match"
        assert "fingerprint changed" in violation.message

    def test_unknown_figure_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figures"):
            update_goldens(["fig99"], directory=tmp_path)


class TestShippedGoldens:
    def test_every_figure_has_a_committed_golden(self):
        # The repo ships a golden per figure, stamped with the current
        # model fingerprint (run `repro check --update-goldens` after
        # intentional model changes).
        for fig in figure_names():
            golden = load_golden(fig)
            assert golden is not None, f"tests/goldens/{fig}.json missing"
            assert golden["fingerprint"] == model_fingerprint(), fig


class TestGoldenBytes:
    def test_regenerated_goldens_equal_the_committed_bytes(
        self, tmp_path, monkeypatch
    ):
        # The tolerance-aware diff forgives last-digit drift; this pins
        # every committed golden byte for byte, so a change that moves
        # any float of any figure summary by one ulp fails here.
        monkeypatch.setenv("REPRO_RUNCACHE_DIR", str(tmp_path / "cache"))
        written = update_goldens(directory=tmp_path / "goldens")
        assert sorted(p.name for p in written) == sorted(
            f"{fig}.json" for fig in figure_names())
        for path in written:
            committed = golden_path(path.stem)
            assert path.read_bytes() == committed.read_bytes(), path.name
