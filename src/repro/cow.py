"""Copy-on-write nesting for containers shared across snapshot generations.

A serving snapshot copies the entity mapping and the LSEI on every lake
mutation, then changes one table's worth of them.  Copying every inner
set, list or dict made that copy O(lake).  :class:`CopyOnWriteDict`
copies only the outer dict: a fork and its source share every inner
container until one of them writes to it, and that side writes to a
private copy.  The key's container is copied at most once per side
per fork, so a mutation costs the containers it touches.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Set


class CopyOnWriteDict(dict):
    """A dict of mutable inner containers, shared with its forks until written.

    Reads are plain ``dict`` reads.  Every write of an inner container
    goes through :meth:`writable`, and every removal of a key through
    :meth:`drop`; assigning or popping keys directly would bypass the
    ownership record.  ``new`` is the inner type's copy constructor
    (``set``, ``list`` or ``dict``): ``new()`` makes an empty container
    and ``new(inner)`` a private copy.
    """

    __slots__ = ("_new", "_owned")

    def __init__(self, new: Callable[..., Any], items: Iterable = ()):
        super().__init__(items)
        self._new = new
        # Keys whose inner container no other fork can see.
        self._owned: Set[Hashable] = set()

    def writable(self, key: Hashable) -> Any:
        """The container at ``key``, private to this dict, created if absent."""
        if key in self._owned:
            return self[key]
        inner = self.get(key)
        inner = self._new() if inner is None else self._new(inner)
        self[key] = inner
        self._owned.add(key)
        return inner

    def drop(self, key: Hashable) -> Any:
        """Remove ``key``; returns its container (do not write to it) or None."""
        self._owned.discard(key)
        return self.pop(key, None)

    def fork(self) -> "CopyOnWriteDict":
        """A dict with the same keys and containers, independent from now on.

        Both sides give up ownership: the shared containers are copied
        by whichever side writes to one first.
        """
        self._owned = set()
        return CopyOnWriteDict(self._new, self)
