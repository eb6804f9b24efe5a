"""Counting intervals and identifier set-expressions.

Everything here is a small immutable value: closed intervals over the
naturals (with an unbounded upper end), set-expressions describing families
of component names / origins / versions, and the concrete and abstract
component identifiers built from them.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import attrgetter
from typing import Iterable

INF: float = math.inf

# A natural number, or INF for "unbounded".
NatInf = int | float


class TypeMismatch(ValueError):
    """Merge of identifiers with different component types."""


def _check_nat(value: object, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")


# Sets a slot of a value under construction; the values refuse `setattr`.
_set = object.__setattr__
_new = object.__new__


class _Value:
    """Base of confkit's immutable values.

    A subclass names its fields in `__slots__` and sets each once in
    `__init__`; slots named with a leading underscore hold caches and stay
    out of equality, hashing, repr and `replace`.  A subclass of a value
    class has the fields of its parents first, then its own.  Values of one
    class are equal when their field tuples are, and hash as that tuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(f for c in reversed(cls.__mro__)
                                     for f in c.__dict__.get("__slots__", ())
                                     if not f.startswith("_"))
        get = attrgetter(*fields)
        cls._astuple = staticmethod(get if len(fields) > 1 else lambda value: (get(value),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            astuple = self._astuple
            return astuple(self) == astuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._astuple(self)

    def replace(self, **changes: object):
        """A copy of this value with the given fields changed."""
        return self.__class__(**dict(zip(self._fields, self._astuple(self)), **changes))


class Interval(_Value):
    """Closed count interval [lo, hi]; hi may be INF."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: NatInf) -> None:
        _check_nat(lo, "interval lower bound")
        if hi != INF:
            _check_nat(hi, "interval upper bound")
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def __add__(self, other: Interval) -> Interval:
        # INF absorbs: n + INF == INF
        hi = INF if self.hi == INF or other.hi == INF else self.hi + other.hi
        return Interval(self.lo + other.lo, hi)

    def included_in(self, other: Interval) -> bool:
        return self.lo >= other.lo and self.hi <= other.hi

    def __contains__(self, count: int) -> bool:
        return self.lo <= count <= self.hi

    @property
    def unbounded(self) -> bool:
        return self.hi == INF

    def __str__(self) -> str:
        return f"{self.lo}..{'*' if self.hi == INF else self.hi}"


def sum_intervals(intervals: Iterable[Interval]) -> Interval:
    """Componentwise sum; the empty sum is [0, 0]."""
    total = Interval(0, 0)
    for iv in intervals:
        total = total + iv
    return total


class NameSet(_Value):
    """Names matched by a node: everything, literal names, or prefix families.

    A prefix entry ``p`` stands for every name starting with ``p``.  Values
    are normalized on construction: literals already covered by a prefix and
    prefixes covered by a shorter prefix are dropped, so equal denotations
    compare equal.
    """

    __slots__ = ("literals", "prefixes", "is_any")

    def __init__(self, literals: Iterable[str] = frozenset(), prefixes: Iterable[str] = frozenset(),
                 is_any: bool = False) -> None:
        if is_any:
            literals = prefixes = frozenset()
        else:
            prefixes = frozenset(prefixes)
            for p in prefixes:
                if not p:
                    raise ValueError("prefix patterns must be non-empty")
            prefixes = frozenset(
                p for p in prefixes
                if not any(p != q and p.startswith(q) for q in prefixes)
            )
            literals = frozenset(literals)
            if prefixes:
                literals = frozenset(n for n in literals if not any(n.startswith(q) for q in prefixes))
        _set(self, "literals", literals)
        _set(self, "prefixes", prefixes)
        _set(self, "is_any", is_any)

    @classmethod
    def everything(cls) -> NameSet:
        return cls(is_any=True)

    @classmethod
    def of(cls, *names: str) -> NameSet:
        return cls(literals=frozenset(names))

    def __contains__(self, name: str) -> bool:
        if self.is_any:
            return True
        return name in self.literals or any(name.startswith(p) for p in self.prefixes)

    def issubset(self, other: NameSet) -> bool:
        if other.is_any:
            return True
        if self.is_any:
            return False
        # Only a covering prefix absorbs a prefix family (it is infinite) or a literal other lacks.
        covering = tuple(other.prefixes)
        return (all(map(str.startswith, self.literals - other.literals, repeat(covering)))
                and all(map(str.startswith, self.prefixes, repeat(covering))))

    def union(self, other: NameSet) -> NameSet:
        if self.is_any or other.is_any:
            return NameSet(is_any=True)
        return NameSet(self.literals | other.literals, self.prefixes | other.prefixes)


class OriginSet(_Value):
    """Origins accepted by a node: everything or a finite set."""

    __slots__ = ("values", "is_any")

    def __init__(self, values: Iterable[str] = frozenset(), is_any: bool = False) -> None:
        _set(self, "values", frozenset() if is_any else frozenset(values))
        _set(self, "is_any", is_any)

    @classmethod
    def everything(cls) -> OriginSet:
        return cls(is_any=True)

    @classmethod
    def of(cls, *origins: str) -> OriginSet:
        return cls(values=frozenset(origins))

    def __contains__(self, origin: str) -> bool:
        return self.is_any or origin in self.values

    def issubset(self, other: OriginSet) -> bool:
        if other.is_any:
            return True
        if self.is_any:
            return False
        return self.values <= other.values

    def union(self, other: OriginSet) -> OriginSet:
        if self.is_any or other.is_any:
            return OriginSet(is_any=True)
        return OriginSet(self.values | other.values)


class VersionSet(_Value):
    """Versions accepted by a node: a finite set or a closed/right-open span.

    "any" is the span 0..*.  Exactly one of ``values``/``span`` is set.
    Equality is by denotation: a contiguous finite set equals the span with
    the same bounds.  Unions are exact between finite sets; a union touching
    a span falls back to the smallest enclosing span (an upper bound).
    """

    __slots__ = ("values", "span")

    def __init__(self, values: Iterable[int] | None = None, span: Interval | None = None) -> None:
        if (values is None) == (span is None):
            raise ValueError("exactly one of values/span must be given")
        if values is not None:
            values = frozenset(values)
            for v in values:
                _check_nat(v, "version")
        _set(self, "values", values)
        _set(self, "span", span)

    @classmethod
    def everything(cls) -> VersionSet:
        return cls(span=Interval(0, INF))

    @classmethod
    def of(cls, *versions: int) -> VersionSet:
        return cls(values=frozenset(versions))

    @classmethod
    def between(cls, lo: int, hi: NatInf) -> VersionSet:
        return cls(span=Interval(lo, hi))

    @property
    def is_any(self) -> bool:
        return self.span is not None and self.span.lo == 0 and self.span.hi == INF

    def _key(self) -> tuple:
        if self.span is not None:
            return ("span", self.span.lo, self.span.hi)
        vs = self.values
        assert vs is not None
        if vs and len(vs) == max(vs) - min(vs) + 1:
            return ("span", min(vs), max(vs))
        return ("finite", tuple(sorted(vs)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionSet):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __contains__(self, version: int) -> bool:
        if self.span is not None:
            return version in self.span
        assert self.values is not None
        return version in self.values

    def issubset(self, other: VersionSet) -> bool:
        if self.values is not None and other.values is not None:
            return self.values <= other.values
        if self.values is not None:
            return all(v in other for v in self.values)
        assert self.span is not None
        if other.span is not None:
            return self.span.included_in(other.span)
        assert other.values is not None
        if self.span.hi == INF:
            return False
        if self.span.hi - self.span.lo + 1 > len(other.values):
            return False
        return all(v in other.values for v in range(self.span.lo, int(self.span.hi) + 1))

    def union(self, other: VersionSet) -> VersionSet:
        if self.values is not None and other.values is not None:
            return VersionSet(values=self.values | other.values)
        if self.values == frozenset():
            return other
        if other.values == frozenset():
            return self
        parts = []
        for vs in (self, other):
            if vs.span is not None:
                parts.append((vs.span.lo, vs.span.hi))
            else:
                assert vs.values is not None
                parts.append((min(vs.values), max(vs.values)))
        lo = min(p[0] for p in parts)
        hi = max(p[1] for p in parts)
        return VersionSet(span=Interval(lo, hi))


class ComponentId(_Value):
    """Concrete identifier: (ctype, name, origin, version)."""

    __slots__ = ("ctype", "name", "origin", "version")

    def __init__(self, ctype: str, name: str, origin: str, version: int) -> None:
        if not (ctype and name and origin):
            empty = "ctype" if not ctype else "name" if not name else "origin"
            raise ValueError(f"component id {empty} must be non-empty")
        _check_nat(version, "version")
        _set(self, "ctype", ctype)
        _set(self, "name", name)
        _set(self, "origin", origin)
        _set(self, "version", version)

    @classmethod
    def _trusted(cls, ctype: str, name: str, origin: str, version: int) -> ComponentId:
        """An id from fields a grammar already proved: non-empty, and a natural version."""
        self = _new(cls)
        _set(self, "ctype", ctype)
        _set(self, "name", name)
        _set(self, "origin", origin)
        _set(self, "version", version)
        return self

    # Ids are hashed and compared most: these two read the slots inline.  A subclass may
    # add fields, so it gets _Value's unless it or a class between defines its own.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ctype, self.name, self.origin, self.version) == (
            other.ctype, other.name, other.origin, other.version)

    def __hash__(self) -> int:
        return hash((self.ctype, self.name, self.origin, self.version))

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        for method in ("__eq__", "__hash__"):
            if getattr(cls, method) is ComponentId.__dict__[method]:
                setattr(cls, method, getattr(_Value, method))

    @property
    def sort_key(self) -> tuple[str, str, int, str]:
        return (self.ctype, self.name, self.version, self.origin)

    def to_abstract(self) -> AbstractComponentId:
        return lift_identifiers([self])

    def __str__(self) -> str:
        return f"{self.ctype}({self.name}, {self.origin}, v{self.version})"


class AbstractComponentId(_Value):
    """A family of component identifiers of one ctype."""

    __slots__ = ("ctype", "names", "origins", "versions")

    def __init__(self, ctype: str, names: NameSet = NameSet(is_any=True),
                 origins: OriginSet = OriginSet(is_any=True),
                 versions: VersionSet = VersionSet.everything()) -> None:
        if not ctype:
            raise ValueError("ctype must be non-empty")
        _set(self, "ctype", ctype)
        _set(self, "names", names)
        _set(self, "origins", origins)
        _set(self, "versions", versions)

    def merge(self, other: AbstractComponentId) -> AbstractComponentId:
        if self.ctype != other.ctype:
            raise TypeMismatch(f"cannot merge {self.ctype} with {other.ctype}")
        return AbstractComponentId(
            ctype=self.ctype,
            names=self.names.union(other.names),
            origins=self.origins.union(other.origins),
            versions=self.versions.union(other.versions),
        )

    def __le__(self, other: AbstractComponentId) -> bool:
        return (
            self.ctype == other.ctype
            and self.names.issubset(other.names)
            and self.origins.issubset(other.origins)
            and self.versions.issubset(other.versions)
        )

    def __contains__(self, ci: ComponentId) -> bool:
        return (
            self.ctype == ci.ctype
            and ci.name in self.names
            and ci.origin in self.origins
            and ci.version in self.versions
        )


def merge_identifiers(acis: Iterable[AbstractComponentId]) -> AbstractComponentId:
    """Merge a non-empty iterable of same-ctype identifiers in one pass.

    Equal to folding `AbstractComponentId.merge` over them: names, origins
    and versions are unioned once and normalized once.  A version span
    anywhere gives the smallest span enclosing every non-empty part; an
    empty version set is the identity.
    """
    items = list(acis)
    if not items:
        raise ValueError("merge_identifiers needs at least one identifier")
    first = items[0]
    if len(items) == 1:
        return first
    literals: set[str] = set()
    prefixes: set[str] = set()
    origins: set[str] = set()
    values: set[int] = set()
    spans: list[Interval] = []
    any_name = any_origin = False
    for aci in items:
        if aci.ctype != first.ctype:
            raise TypeMismatch(f"cannot merge {first.ctype} with {aci.ctype}")
        names, froms, versions = aci.names, aci.origins, aci.versions
        if names.is_any:
            any_name = True
        else:
            literals.update(names.literals)
            prefixes.update(names.prefixes)
        if froms.is_any:
            any_origin = True
        else:
            origins.update(froms.values)
        if versions.span is not None:
            spans.append(versions.span)
        else:
            assert versions.values is not None
            values.update(versions.values)
    if spans:
        lo = min(s.lo for s in spans)
        hi = max(s.hi for s in spans)
        if values:
            lo, hi = min(lo, min(values)), max(hi, max(values))
        merged = VersionSet(span=Interval(lo, hi))
    else:
        merged = VersionSet(values=frozenset(values))
    return AbstractComponentId(
        ctype=first.ctype,
        names=NameSet(is_any=True) if any_name else NameSet(frozenset(literals), frozenset(prefixes)),
        origins=OriginSet(is_any=True) if any_origin else OriginSet(frozenset(origins)),
        versions=merged,
    )


def lift_identifiers(ids: Iterable[ComponentId]) -> AbstractComponentId:
    """The smallest family holding a non-empty iterable of same-ctype ids:
    `merge_identifiers` over their singleton families, built without a
    family per id."""
    items = list(ids)
    if not items:
        raise ValueError("lift_identifiers needs at least one identifier")
    ctype = items[0].ctype
    for ci in items:
        if ci.ctype != ctype:
            raise TypeMismatch(f"cannot merge {ctype} with {ci.ctype}")
    return AbstractComponentId(
        ctype=ctype,
        names=NameSet(frozenset([ci.name for ci in items])),
        origins=OriginSet(frozenset([ci.origin for ci in items])),
        versions=VersionSet(values=frozenset([ci.version for ci in items])),
    )
