"""Coalesced, indexed fact store.

Per ground relational atom a sorted list of pairwise non-coalescable
intervals, plus a per-argument index for joins and an inconsistency flag for
derived BOTTOM intervals.  The store is always fully coalesced, so fact
entailment reduces to single-interval containment.  No stored interval
list is ever written: inserting or marking BOTTOM replaces a list, so
snapshots and readers share lists, and a list handed in is the store's.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, Iterator

from .intervals import NEG_INF, POS_INF, Interval, coalesce, subset, union_if_coalescable
from .syntax import Fact, RelationalAtom

AtomKey = tuple[str, tuple[str, ...]]


class FactStore:
    def __init__(self):
        # atom key -> sorted list of disjoint, non-coalescable intervals
        self.atoms: dict[AtomKey, list[Interval]] = {}
        # predicate -> set of atom keys
        self.by_predicate: dict[str, set[AtomKey]] = {}
        # (predicate, position, constant) -> set of atom keys
        self.arg_index: dict[tuple[str, int, str], set[AtomKey]] = {}
        self.bottom_intervals: list[Interval] = []
        # constants open head variables range over beside the stored ones and
        # the rule's (`substitutions`): `materialise` adds its program's, and
        # `check_entailment` the query's too
        self.domain: frozenset[str] = frozenset()

    @property
    def contains_bottom(self) -> bool:
        return bool(self.bottom_intervals)

    # -- mutation

    def insert_intervals(self, key: AtomKey, intervals: list[Interval]) -> bool:
        """Add a coalesced list to the key's coverage; True iff it strictly
        grew.  A key that holds nothing takes `intervals` itself; a key that
        holds a list gets a new list, that one and `intervals` coalesced."""
        old = self.atoms.get(key)
        if old is None:
            if not intervals:
                return False
            self.atoms[key] = intervals
            self._index(key)
            return True
        merged = coalesce([*old, *intervals])
        if merged == old:
            return False
        self.atoms[key] = merged
        return True

    def mark_bottom(self, *intervals: Interval):
        """Add BOTTOM intervals, all of them in one coalescing pass."""
        self.bottom_intervals = coalesce([*self.bottom_intervals, *intervals])

    def _index(self, key: AtomKey):
        pred, consts = key
        self.by_predicate.setdefault(pred, set()).add(key)
        for pos, c in enumerate(consts):
            self.arg_index.setdefault((pred, pos, c), set()).add(key)

    # -- queries

    def intervals_for(self, key: AtomKey) -> list[Interval]:
        return self.atoms.get(key, [])

    def entails_fact(self, fact: Fact) -> bool:
        lst = self.atoms.get(fact.atom.key())
        if not lst:
            return False
        # binary search: the only candidate is the last interval whose sort
        # key is <= the fact's (store is coalesced and sorted)
        i = bisect_right(lst, fact.interval.sort_key(), key=Interval.sort_key)
        for j in (i - 1, i):
            if 0 <= j < len(lst) and subset(fact.interval, lst[j]):
                return True
        return False

    def join(self, predicate: str, pattern: tuple, row: list) -> Iterator[list]:
        """Extensions of `row` grounding `pattern` to a stored atom of
        `predicate`.  The pattern gives, per argument, a slot number or a
        constant name; the row gives, per slot, a constant name or None
        while the slot is open.  The index fixes the constants and bound
        slots, so a candidate key is dropped only when an open slot that
        occurs twice takes two values on it.  A fully bound pattern yields
        `row` itself; every other extension is a new list."""
        bound: list[tuple[int, str]] = []
        for pos, p in enumerate(pattern):
            name = row[p] if type(p) is int else p
            if name is not None:
                bound.append((pos, name))

        if len(bound) == len(pattern):
            if (predicate, tuple(name for _, name in bound)) in self.atoms:
                yield row
            return

        if bound:
            candidate_sets = [self.arg_index.get((predicate, pos, name), set()) for pos, name in bound]
            candidates = set.intersection(*candidate_sets)
        else:
            candidates = self.by_predicate.get(predicate, set())

        for key in sorted(candidates):
            extended = row.copy()
            for p, name in zip(pattern, key[1]):
                if type(p) is int:
                    prev = extended[p]
                    if prev is None:
                        extended[p] = name
                    elif prev != name:
                        break
            else:
                yield extended

    def constants(self) -> set[str]:
        return {c for _, consts in self.atoms for c in consts}

    def facts(self) -> Iterator[Fact]:
        for key in sorted(self.atoms):
            atom = RelationalAtom.from_key(key)
            for iv in self.atoms[key]:
                yield Fact(atom, iv)

    def fact_count(self) -> int:
        return sum(len(lst) for lst in self.atoms.values())

    # -- structural operations

    def snapshot(self) -> "FactStore":
        """Independent copy that shares the interval lists (see the module
        docstring); the index sets are copied, as `_index` adds to them."""
        s = FactStore.__new__(FactStore)
        s.atoms = self.atoms.copy()
        s.by_predicate = {k: set(v) for k, v in self.by_predicate.items()}
        s.arg_index = {k: set(v) for k, v in self.arg_index.items()}
        s.bottom_intervals = self.bottom_intervals
        s.domain = self.domain
        return s

    def equals(self, other: "FactStore") -> bool:
        """Point-set equality; valid because coalesced lists are canonical."""
        return (
            self.atoms == other.atoms and self.bottom_intervals == other.bottom_intervals
        )

    def check_invariants(self):
        """Full-scan validation: sorted, non-coalescable, index-consistent,
        every bound canonical (an int, a non-integral Fraction, or one of
        the two infinity constants)."""
        for key, lst in self.atoms.items():
            assert lst, f"empty interval list for {key}"
            for iv in lst:
                for b in (iv.left, iv.right):
                    ok = type(b) is int or (type(b) is Fraction and b.denominator != 1)
                    assert ok or b is POS_INF or b is NEG_INF, f"non-canonical bound {b!r} in {key}"
            for a, b in zip(lst, lst[1:]):
                assert a.sort_key() < b.sort_key(), f"unsorted list for {key}"
                assert union_if_coalescable(a, b) is None, f"coalescable pair in {key}"
            pred, consts = key
            assert key in self.by_predicate.get(pred, set())
            for pos, c in enumerate(consts):
                assert key in self.arg_index.get((pred, pos, c), set())
        for pred, keys in self.by_predicate.items():
            for key in keys:
                assert key in self.atoms and key[0] == pred

    # -- I/O

    def dump(self) -> str:
        """Canonical .dtf form: sorted atoms, coalesced sorted intervals."""
        lines = []
        for (pred, consts), intervals in sorted(self.atoms.items()):
            # RelationalAtom.__str__'s text, formatted once per atom
            atom = f"{pred}({','.join(consts)})@" if consts else f"{pred}@"
            lines += [atom + repr(iv) for iv in intervals]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_intervals(cls, by_key: dict[AtomKey, Iterable[Interval]]) -> "FactStore":
        """Store holding, per key, the coalesced union of the given intervals;
        keys whose intervals are all empty are left out."""
        s = cls()
        for key, intervals in by_key.items():
            lst = coalesce(intervals)
            if lst:
                s.atoms[key] = lst
                s._index(key)
        return s

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "FactStore":
        by_key: dict[AtomKey, list[Interval]] = {}
        for f in facts:
            by_key.setdefault(f.atom.key(), []).append(f.interval)
        return cls.from_intervals(by_key)
