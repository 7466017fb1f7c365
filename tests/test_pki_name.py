"""Unit tests for distinguished-name semantics."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.pki import DistinguishedName


class TestConstruction:
    def test_requires_common_name(self):
        with pytest.raises(ValueError):
            DistinguishedName(common_name="")

    def test_rfc4514_rendering_order(self):
        name = DistinguishedName(
            common_name="Root CA", organizational_unit="PKI", organization="Acme", country="US"
        )
        assert name.rfc4514() == "CN=Root CA,OU=PKI,O=Acme,C=US"

    def test_rfc4514_omits_empty_attributes(self):
        assert DistinguishedName(common_name="X").rfc4514() == "CN=X"


class TestMatching:
    def test_exact_match(self):
        a = DistinguishedName(common_name="CA", organization="Org")
        b = DistinguishedName(common_name="CA", organization="Org")
        assert a.matches(b)

    def test_case_insensitive_match(self):
        a = DistinguishedName(common_name="Root CA", organization="ACME")
        b = DistinguishedName(common_name="root ca", organization="acme")
        assert a.matches(b)
        assert a.normalized_key() == b.normalized_key()

    def test_whitespace_normalisation(self):
        a = DistinguishedName(common_name="Root   CA")
        b = DistinguishedName(common_name="Root CA")
        assert a.matches(b)

    def test_mismatch_on_any_attribute(self):
        base = DistinguishedName(common_name="CA", organization="Org", country="US")
        assert not base.matches(DistinguishedName(common_name="CA", organization="Org", country="DE"))
        assert not base.matches(DistinguishedName(common_name="CB", organization="Org", country="US"))

    @given(
        st.text(min_size=1, max_size=30).filter(str.strip),
        st.text(max_size=20),
    )
    def test_matches_is_reflexive_and_symmetric(self, cn, org):
        a = DistinguishedName(common_name=cn, organization=org)
        b = DistinguishedName(common_name=cn, organization=org)
        assert a.matches(a)
        assert a.matches(b) == b.matches(a)


def test_hashable_and_usable_as_dict_key():
    a = DistinguishedName(common_name="CA")
    assert {a: 1}[DistinguishedName(common_name="CA")] == 1


def test_pickled_name_keeps_equality_hash_and_matching():
    """The cached rendering and key travel with a pickled name, and
    equality and hashing still read only its fields."""
    name = DistinguishedName(common_name="Root  CA", organization="Acme Corp")
    assert name.rfc4514() == "CN=Root  CA,O=Acme Corp"  # fills both caches
    assert name.matches(DistinguishedName(common_name="root ca", organization="ACME  corp"))
    copy = pickle.loads(pickle.dumps(name))
    fresh = DistinguishedName(common_name="Root  CA", organization="Acme Corp")
    assert copy == name == fresh
    assert hash(copy) == hash(name) == hash(fresh)
    assert {name: 1}[copy] == 1
    assert copy.rfc4514() == fresh.rfc4514()
    assert copy.normalized_key() == fresh.normalized_key() == ("root ca", "acme corp", "", "")
    assert copy.matches(DistinguishedName(common_name=" ROOT ca ", organization="acme corp"))
    assert not copy.matches(DistinguishedName(common_name="Root CA", organization="Acme"))
