"""Offloaded state operations (Table 2) and the custom-operation registry.

NFs do not read-modify-write shared state; they send *operations* which the
store serializes and applies (§4.3 "Offloading operations"). Each operation
is a pure function ``(current_value, *args) -> (new_value, return_value)``.
The *return value* is what a blocking caller receives (e.g. ``pop`` returns
the popped element; ``incr`` returns the post-increment value) and what the
store logs for duplicate-update emulation (§5.3, Figure 5b).

Developers can register custom operations (``register``), mirroring the
paper's "Developers can also load custom operations."
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

OperationFn = Callable[..., Tuple[Any, Any]]

# Reserved: the store itself applies it by removing the key (the root
# retiring a store-kept log entry), so no registry may bind the name.
DELETE_OP = "delete"


class UnknownOperation(KeyError):
    """Raised when an NF offloads an operation the store does not know."""


def _incr(value: Optional[float], amount: float = 1) -> Tuple[float, float]:
    new = (value or 0) + amount
    return new, new


def _decr(value: Optional[float], amount: float = 1) -> Tuple[float, float]:
    new = (value or 0) - amount
    return new, new


def _push(value: Optional[List[Any]], item: Any) -> Tuple[List[Any], int]:
    new = list(value or [])
    new.append(item)
    return new, len(new)


def _pop(value: Optional[List[Any]]) -> Tuple[List[Any], Any]:
    new = list(value or [])
    popped = new.pop(0) if new else None
    return new, popped


def _compare_and_update(value: Any, expected: Any, update: Any) -> Tuple[Any, bool]:
    """Update the value if the condition (equality with ``expected``) holds."""
    if value == expected:
        return update, True
    return value, False


def _set(value: Any, new: Any) -> Tuple[Any, Any]:
    return new, new


def _get(value: Any) -> Tuple[Any, Any]:
    return value, value


def _add_to_set(value: Optional[frozenset], item: Any) -> Tuple[frozenset, bool]:
    current = value or frozenset()
    if item in current:
        return current, False
    return current | {item}, True


def _remove_from_set(value: Optional[frozenset], item: Any) -> Tuple[frozenset, bool]:
    current = value or frozenset()
    if item not in current:
        return current, False
    return current - {item}, True


class OperationRegistry:
    """Maps operation names to implementations.

    A registry is attached to every store instance; custom NF operations
    must be registered on the store *before* the NF offloads them.
    """

    def __init__(self):
        self._ops: Dict[str, OperationFn] = {}

    def register(self, name: str, fn: OperationFn, allow_replace: bool = False) -> None:
        if name == DELETE_OP:
            raise ValueError(f"operation name {name!r} is reserved by the store")
        if name in self._ops and not allow_replace:
            raise ValueError(f"operation {name!r} already registered")
        self._ops[name] = fn

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def names(self) -> List[str]:
        return sorted(self._ops)

    def apply(self, name: str, current_value: Any, args: Tuple) -> Tuple[Any, Any]:
        """Apply operation ``name``; returns (new_value, return_value)."""
        fn = self._ops.get(name)
        if fn is None:
            raise UnknownOperation(name)
        return fn(current_value, *args)

    def copy(self) -> "OperationRegistry":
        clone = OperationRegistry()
        clone._ops = dict(self._ops)
        return clone


def default_registry() -> OperationRegistry:
    """A registry preloaded with Table 2's basic operations."""
    registry = OperationRegistry()
    registry.register("incr", _incr)
    registry.register("decr", _decr)
    registry.register("push", _push)
    registry.register("pop", _pop)
    registry.register("compare_and_update", _compare_and_update)
    registry.register("set", _set)
    registry.register("get", _get)
    registry.register("add_to_set", _add_to_set)
    registry.register("remove_from_set", _remove_from_set)
    return registry
