"""Trace provenance: meta v2 contents, validation, collection."""

from repro.obs import (
    Recorder,
    collect_provenance,
    machine_fingerprint,
    trace_meta,
    validate_trace,
)
from repro.obs.recorder import TRACE_VERSION


class TestCollection:
    def test_required_keys(self):
        prov = collect_provenance()
        assert {"repro_version", "python", "machine", "git_sha"} <= set(prov)
        from repro import __version__

        assert prov["repro_version"] == __version__

    def test_workload_optional(self):
        assert "workload" not in collect_provenance()
        assert collect_provenance(workload="paper")["workload"] == "paper"

    def test_machine_fingerprint_stable(self):
        assert machine_fingerprint() == machine_fingerprint()
        assert len(machine_fingerprint()) == 12


class TestMetaLine:
    def test_version_bumped_to_3(self):
        assert TRACE_VERSION == 3

    def test_meta_carries_provenance(self):
        rec = Recorder()
        with rec.span("only"):
            pass
        meta = rec.events()[0]
        assert meta["version"] == TRACE_VERSION
        assert "provenance" in meta
        assert meta["provenance"]["python"]

    def test_set_provenance_merges_and_drops_none(self):
        rec = Recorder()
        rec.set_provenance(workload="paper", command=None)
        meta = rec.events()[0]
        assert meta["provenance"]["workload"] == "paper"
        assert "command" not in meta["provenance"]

    def test_trace_meta_reads_leading_record_only(self):
        events = [{"type": "span"}, {"type": "meta", "format": "repro-trace"}]
        assert trace_meta(events) is None
        assert trace_meta(Recorder().events())["format"] == "repro-trace"


class TestValidation:
    def test_recorder_trace_validates(self):
        rec = Recorder()
        with rec.span("s"):
            pass
        rec.close()
        assert validate_trace(rec.events()) == []

    def test_v2_meta_without_provenance_invalid(self):
        meta = {"type": "meta", "format": "repro-trace", "version": 2}
        assert any(
            "provenance" in p for p in validate_trace([meta])
        )

    def test_v2_meta_with_partial_provenance_invalid(self):
        meta = {
            "type": "meta",
            "format": "repro-trace",
            "version": 2,
            "provenance": {"python": "3.11"},
        }
        assert any("missing keys" in p for p in validate_trace([meta]))

    def test_v1_meta_without_provenance_still_valid(self):
        meta = {"type": "meta", "format": "repro-trace", "version": 1}
        assert validate_trace([meta]) == []

    def test_meta_without_version_invalid(self):
        meta = {"type": "meta", "format": "repro-trace"}
        assert any("version" in p for p in validate_trace([meta]))
