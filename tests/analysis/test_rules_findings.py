"""Unit tests for the rule catalog and the findings plumbing."""

from __future__ import annotations

import json

import pytest

from repro.analysis.findings import (
    LintReport,
    dedupe,
    finding,
    sort_findings,
    suppressed_rules,
    suppressed_rules_in_source,
)
from repro.analysis.rules import (
    ERROR,
    RULES,
    RULESET_VERSION,
    WARNING,
    LintRule,
    rule,
    rule_table,
)


class TestCatalog:
    def test_ids_are_keys_and_well_formed(self):
        for rule_id, r in RULES.items():
            assert r.rule_id == rule_id
            assert rule_id.startswith("REPRO-")
            assert r.severity in (ERROR, WARNING)
            assert r.title and r.description

    def test_families_present(self):
        families = {rid.split("-")[1][0] for rid in RULES}
        assert families == {"L", "I", "N", "R"}

    def test_rule_table_sorted_by_id(self):
        ids = [row[0] for row in rule_table()]
        assert ids == sorted(ids)
        assert len(ids) == len(RULES)

    def test_lookup(self):
        assert rule("REPRO-L104").severity == ERROR
        with pytest.raises(KeyError):
            rule("REPRO-X999")

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            LintRule("REPRO-Z901", "fatal", "t", "d")


class TestFindings:
    def test_unknown_rule_id_rejected(self):
        with pytest.raises(KeyError):
            finding("REPRO-X999", "nope")

    def test_render_and_to_dict(self):
        f = finding(
            "REPRO-N301", "reads time.time", file="/tmp/m.py", line=3,
            obj="clock_spec",
        )
        assert f.severity == ERROR
        assert f.location == "/tmp/m.py:3"
        rendered = f.render()
        assert "REPRO-N301" in rendered and "clock_spec" in rendered
        d = f.to_dict()
        assert d["rule"] == "REPRO-N301"
        assert d["suppressed"] is False
        json.dumps(d)

    def test_dedupe_and_sort(self):
        warn = finding("REPRO-N302", "set loop", file="b.py", line=9)
        err = finding("REPRO-L101", "unknown prim", file="a.py", line=2)
        ordered = sort_findings(dedupe([warn, err, warn]))
        assert len(ordered) == 2
        assert ordered[0] is err  # errors sort before warnings

    def test_report_counts_exclude_suppressed(self):
        report = LintReport(mode="record")
        report.extend([
            finding("REPRO-L101", "real", file="a.py", line=1),
            finding("REPRO-L105", "reviewed", file="a.py", line=5,
                    suppressed=True),
        ])
        assert len(report.errors) == 1
        prov = report.to_provenance()
        assert prov["ruleset"] == RULESET_VERSION
        assert len(prov["findings"]) == 2  # suppressed stay visible


class TestSuppressionComments:
    def test_parse_single_and_multiple(self):
        src = "x = 1  # repro: allow(REPRO-L105)\n"
        assert suppressed_rules_in_source(src) == {"REPRO-L105"}
        src = "# repro: allow(REPRO-L105, REPRO-N302)\n"
        assert suppressed_rules_in_source(src) == {
            "REPRO-L105", "REPRO-N302",
        }

    def test_no_false_positives(self):
        assert suppressed_rules_in_source("# allow everything\n") == set()


def _allowing():  # repro: allow(REPRO-L105)
    return None


class TestSuppressedRulesMemo:
    def test_source_read_once_per_code_object(self, monkeypatch):
        import functools
        import inspect

        reads = []
        getsource = inspect.getsource

        def counting(obj):
            reads.append(obj)
            return getsource(obj)

        monkeypatch.setattr(inspect, "getsource", counting)

        @functools.wraps(_allowing)
        def wrapper():
            return _allowing()

        first = suppressed_rules(_allowing)
        assert first == {"REPRO-L105"}
        # The wrapper's source is the wrapped function's: same answer,
        # and no second read.
        assert suppressed_rules(wrapper) == first
        assert suppressed_rules(_allowing.__code__) == first
        assert len(reads) == 1

    def test_unreadable_source_suppresses_nothing(self):
        namespace = {}
        exec("def f():  # repro: allow(REPRO-L105)\n    return 1\n", namespace)
        assert suppressed_rules(namespace["f"]) == frozenset()
        assert suppressed_rules(namespace["f"]) == frozenset()
