"""Property (hypothesis): the findings lattice and worker-merge laws.

Every static-analysis pass reports through :mod:`repro.analysis.findings`,
and findings gathered by several workers are merged with
:func:`merge_findings` — so the report the user sees is only deterministic
if (a) severity join is a real semilattice, (b) merge is order-insensitive
and deduplicating, and (c) stable codes are actually unique.  These
properties are what the mutation-detection suite and downstream tooling
lean on when they match on a code like ``ISA004``.
"""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.analysis import findings as F
from repro.analysis.findings import (
    CODE_CATALOG,
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    Finding,
    max_severity,
    merge_findings,
    worst_severity,
)

severities = st.sampled_from(SEVERITIES)

finding_st = st.builds(
    Finding,
    code=st.sampled_from(sorted(CODE_CATALOG)),
    severity=severities,
    message=st.sampled_from(["m1", "m2", "m3"]),
    where=st.sampled_from(["", "events[0]", "arm:ldr_imm", "field rd"]),
    case=st.sampled_from([None, "rbit", "memcpy_arm"]),
    addr=st.sampled_from([None, 0x400000, 0x400004]),
    detail=st.dictionaries(
        st.sampled_from(["word", "shard"]), st.integers(0, 7), max_size=2
    ),
)


class TestSeverityLattice:
    @given(severities, severities)
    def test_join_is_commutative(self, a, b):
        assert max_severity(a, b) == max_severity(b, a)

    @given(severities, severities, severities)
    def test_join_is_associative(self, a, b, c):
        assert max_severity(max_severity(a, b), c) == max_severity(
            a, max_severity(b, c)
        )

    @given(severities)
    def test_join_is_idempotent_with_info_identity(self, a):
        assert max_severity(a, a) == a
        assert max_severity(a, INFO) == a
        assert max_severity(a, ERROR) == ERROR  # top absorbs

    def test_total_order_is_the_documented_one(self):
        assert max_severity(INFO, WARNING) == WARNING
        assert max_severity(WARNING, ERROR) == ERROR
        assert max_severity() == INFO

    def test_unknown_severity_is_rejected(self):
        with pytest.raises(ValueError):
            max_severity("fatal")

    @given(st.lists(finding_st, max_size=6))
    def test_worst_severity_agrees_with_the_join(self, fs):
        if not fs:
            assert worst_severity(fs) is None
        else:
            assert worst_severity(fs) == max_severity(*[f.severity for f in fs])


class TestWorkerMerge:
    @given(st.lists(st.lists(finding_st, max_size=5), max_size=4), st.randoms())
    def test_merge_is_insensitive_to_shard_assignment(self, groups, rng):
        """Any shuffling of findings across workers yields the same report."""
        baseline = merge_findings(*groups)
        flat = [f for g in groups for f in g]
        rng.shuffle(flat)
        cut = rng.randrange(len(flat) + 1)
        assert merge_findings(flat[:cut], flat[cut:]) == baseline

    @given(st.lists(finding_st, max_size=8))
    def test_merge_is_idempotent_and_deduplicating(self, fs):
        once = merge_findings(fs)
        assert merge_findings(once) == once
        assert merge_findings(once, once) == once  # same finding on 2 workers
        assert len(once) == len(set(once))

    @given(st.lists(finding_st, max_size=8))
    def test_merge_sorts_most_severe_first(self, fs):
        ranks = [F._RANK[f.severity] for f in merge_findings(fs)]
        assert ranks == sorted(ranks, reverse=True)

    def test_detail_does_not_split_equality(self):
        a = Finding("ISA004", ERROR, "hole", detail={"word": 1})
        b = Finding("ISA004", ERROR, "hole", detail={"word": 2})
        assert a == b
        assert merge_findings([a], [b]) == [a]


class TestStableCodes:
    def test_codes_are_well_formed_and_unique(self):
        assert len(CODE_CATALOG) == len(F._CATALOG_ENTRIES)
        for code, (severity, meaning) in CODE_CATALOG.items():
            assert re.fullmatch(r"[A-Z]{2,3}\d{3}", code), code
            assert severity in SEVERITIES
            assert meaning

    def test_isaspec_codes_are_all_registered(self):
        assert {f"ISA{n:03d}" for n in range(1, 12)} <= set(CODE_CATALOG)
        assert CODE_CATALOG["FL002"][0] == WARNING
        assert CODE_CATALOG["FP001"][0] == INFO

    def test_duplicate_registration_is_an_import_error(self, monkeypatch):
        monkeypatch.setattr(
            F, "_CATALOG_ENTRIES",
            F._CATALOG_ENTRIES + (("WF001", ERROR, "minted twice"),),
        )
        with pytest.raises(ValueError, match="registered twice"):
            F._build_catalog()

    def test_unknown_severity_registration_is_an_import_error(self, monkeypatch):
        monkeypatch.setattr(
            F, "_CATALOG_ENTRIES",
            F._CATALOG_ENTRIES + (("ZZ001", "fatal", "bad severity"),),
        )
        with pytest.raises(ValueError, match="unknown severity"):
            F._build_catalog()
