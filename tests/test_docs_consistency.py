"""docs/api.md must mention every public symbol (see scripts/check_docs.py)."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_check_docs():
    path = REPO_ROOT / "scripts" / "check_docs.py"
    spec = importlib.util.spec_from_file_location("check_docs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_api_doc_covers_public_surface():
    check_docs = load_check_docs()
    missing = check_docs.missing_symbols()
    assert missing == {}, (
        "docs/api.md is missing public symbols: "
        + "; ".join(f"{mod}: {', '.join(names)}"
                    for mod, names in missing.items())
    )


def test_public_surface_is_nonempty():
    check_docs = load_check_docs()
    assert "smtsm" in check_docs.public_symbols("repro")
    assert "Tracer" in check_docs.public_symbols("repro.obs")


def test_missing_symbols_detects_drift():
    check_docs = load_check_docs()
    assert "repro.obs" in check_docs.missing_symbols(doc_text="smtsm only")


def test_required_doc_pages_present():
    check_docs = load_check_docs()
    assert check_docs.missing_docs() == []
    assert "scaling.md" in check_docs.REQUIRED_DOCS


def test_scaling_doc_covers_every_serve_knob():
    check_docs = load_check_docs()
    assert check_docs.missing_scaling_knobs() == []


def test_missing_scaling_knobs_detects_drift():
    check_docs = load_check_docs()
    absent = check_docs.missing_scaling_knobs(doc_text="just max_batch")
    assert "workers" in absent and "hot_cache_size" in absent


def test_knob_tables_name_only_live_fields():
    check_docs = load_check_docs()
    assert check_docs.stale_scaling_knobs() == []
    assert check_docs.stale_fleet_knobs() == []


def test_stale_scaling_knobs_detects_drift():
    check_docs = load_check_docs()
    doc = ("| Knob | Default |\n|---|---|\n"
           "| `workers` (`--workers`) | 1 |\n"
           "| `host` / `port` | `127.0.0.1:0` |\n"
           "| `warp_speed` (`--warp-speed`) | True |\n")
    assert check_docs.stale_scaling_knobs(doc) == [
        "`warp_speed` (`--warp-speed`)"]


def test_stale_fleet_knobs_detects_drift():
    check_docs = load_check_docs()
    doc = ("| knob | meaning |\n|---|---|\n"
           "| `load` | offered load |\n"
           "| `strategy` | mega-batch engine |\n")
    assert check_docs.stale_fleet_knobs(doc) == ["`strategy`"]
