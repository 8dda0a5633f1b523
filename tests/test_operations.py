"""Unit tests for the offloaded-operation registry (Table 2)."""

import pytest

from repro.store.operations import DELETE_OP, UnknownOperation, default_registry


@pytest.fixture
def registry():
    return default_registry()


class TestBasicOperations:
    def test_incr_from_empty(self, registry):
        new, rv = registry.apply("incr", None, (1,))
        assert new == 1 and rv == 1

    def test_incr_custom_amount(self, registry):
        new, rv = registry.apply("incr", 10, (5,))
        assert new == 15 and rv == 15

    def test_decr(self, registry):
        new, rv = registry.apply("decr", 10, (3,))
        assert new == 7 and rv == 7

    def test_push_returns_length(self, registry):
        new, rv = registry.apply("push", [1], (2,))
        assert new == [1, 2] and rv == 2

    def test_push_does_not_mutate_input(self, registry):
        original = [1]
        registry.apply("push", original, (2,))
        assert original == [1]

    def test_pop_fifo(self, registry):
        new, rv = registry.apply("pop", [1, 2, 3], ())
        assert rv == 1 and new == [2, 3]

    def test_pop_empty_returns_none(self, registry):
        new, rv = registry.apply("pop", None, ())
        assert rv is None and new == []

    def test_compare_and_update_true(self, registry):
        new, rv = registry.apply("compare_and_update", 5, (5, 9))
        assert new == 9 and rv is True

    def test_compare_and_update_false(self, registry):
        new, rv = registry.apply("compare_and_update", 4, (5, 9))
        assert new == 4 and rv is False

    def test_set_and_get(self, registry):
        new, rv = registry.apply("set", "old", ("new",))
        assert new == "new" and rv == "new"
        new, rv = registry.apply("get", "value", ())
        assert new == "value" and rv == "value"

    def test_set_membership(self, registry):
        new, added = registry.apply("add_to_set", None, ("x",))
        assert added is True and "x" in new
        new2, added2 = registry.apply("add_to_set", new, ("x",))
        assert added2 is False and new2 == new
        new3, removed = registry.apply("remove_from_set", new2, ("x",))
        assert removed is True and "x" not in new3


class TestRegistry:
    def test_unknown_operation(self, registry):
        with pytest.raises(UnknownOperation):
            registry.apply("frobnicate", None, ())

    def test_custom_registration(self, registry):
        registry.register("double", lambda v: ((v or 0) * 2, (v or 0) * 2))
        new, rv = registry.apply("double", 21, ())
        assert new == 42 == rv

    def test_duplicate_registration_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register("incr", lambda v: (v, v))

    def test_allow_replace(self, registry):
        registry.register("incr", lambda v, n=1: (0, 0), allow_replace=True)
        assert registry.apply("incr", 5, ()) == (0, 0)

    def test_delete_is_reserved(self, registry):
        # the store applies DELETE_OP itself (it removes the key): an NF
        # binding the name would see its own function while the store
        # silently dropped the object
        for allow_replace in (False, True):
            with pytest.raises(ValueError, match="reserved"):
                registry.register(DELETE_OP, lambda v: (v, v), allow_replace=allow_replace)
        assert DELETE_OP not in registry

    def test_copy_is_independent(self, registry):
        clone = registry.copy()
        clone.register("only_in_clone", lambda v: (v, v))
        assert "only_in_clone" in clone
        assert "only_in_clone" not in registry

    def test_names_sorted(self, registry):
        names = registry.names()
        assert names == sorted(names)
        assert "incr" in names
