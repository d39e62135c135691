"""Core data model for the simulated Dalvik executable format.

Only the features BorderPatrol relies on are modelled (paper §II-A):
class definitions with their inheritance relationship, method
definitions with unique signatures, debug line-number tables, and the
65,536-method-reference limit that causes large apps to ship multiple
dex files (paper §VII "Multi-dex file applications").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.dex.signature import MethodSignature

#: Maximum number of method references a single dex file may contain.
#: Apps exceeding this limit must be packaged as multi-dex (paper §VII).
DEX_METHOD_LIMIT = 65_536


class MultiDexError(RuntimeError):
    """Raised when a single dex file would exceed :data:`DEX_METHOD_LIMIT`."""


class AccessFlags(enum.IntFlag):
    """Subset of Dalvik access flags relevant to our model."""

    PUBLIC = 0x0001
    PRIVATE = 0x0002
    PROTECTED = 0x0004
    STATIC = 0x0008
    FINAL = 0x0010
    SYNCHRONIZED = 0x0020
    NATIVE = 0x0100
    INTERFACE = 0x0200
    ABSTRACT = 0x0400
    SYNTHETIC = 0x1000
    CONSTRUCTOR = 0x10000


@dataclass(frozen=True)
class DebugInfo:
    """Debug metadata for a method.

    The Dalvik format can map individual bytecode instructions to the
    source file and line of the Java code that produced them.  The
    Context Manager uses these line numbers to disambiguate overloaded
    methods that share a name (paper §V-B, §VII "Overloaded methods").
    A stripped app carries ``line_start == 0``.
    """

    source_file: str = ""
    line_start: int = 0
    line_end: int = 0

    @property
    def stripped(self) -> bool:
        return self.line_start == 0

    def covers(self, line: int) -> bool:
        """True if ``line`` falls inside this method's line range."""
        if self.stripped:
            return False
        return self.line_start <= line <= self.line_end


@dataclass(frozen=True)
class FieldDef:
    """A class field; carried for structural realism only."""

    name: str
    type_descriptor: str
    access_flags: AccessFlags = AccessFlags.PRIVATE


@dataclass(frozen=True)
class MethodDef:
    """A method definition: signature, flags, code size and debug info."""

    signature: MethodSignature
    access_flags: AccessFlags = AccessFlags.PUBLIC
    code_size: int = 16
    debug: DebugInfo = field(default_factory=DebugInfo)

    @property
    def is_native(self) -> bool:
        return bool(self.access_flags & AccessFlags.NATIVE)

    @property
    def is_constructor(self) -> bool:
        return self.signature.method_name == "<init>"


@dataclass
class ClassDef:
    """A class definition within a dex file."""

    descriptor: str
    superclass_descriptor: str = "Ljava/lang/Object;"
    interfaces: tuple[str, ...] = ()
    access_flags: AccessFlags = AccessFlags.PUBLIC
    source_file: str = ""
    methods: list[MethodDef] = field(default_factory=list)
    fields: list[FieldDef] = field(default_factory=list)
    #: Signatures of ``_indexed`` (the list ``methods`` held when they
    #: were taken), for O(1) duplicate checks.
    _signatures: set = field(default_factory=set, init=False, repr=False, compare=False)
    _indexed: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.descriptor.startswith("L") and self.descriptor.endswith(";")):
            raise ValueError(f"malformed class descriptor: {self.descriptor!r}")

    def _signature_set(self) -> set:
        """Every method signature, in step with ``methods``.

        ``methods`` is a public list: callers may append to it directly or
        assign a new one, so the set is rebuilt whenever the list object
        or its length no longer matches.
        """
        if self._indexed is not self.methods or len(self._signatures) != len(self.methods):
            self._signatures = {method.signature for method in self.methods}
            self._indexed = self.methods
        return self._signatures

    @property
    def class_name(self) -> str:
        return self.descriptor[1:-1].replace("/", ".")

    @property
    def package(self) -> str:
        name = self.class_name
        return name.rsplit(".", 1)[0] if "." in name else ""

    def add_method(self, method: MethodDef) -> None:
        if method.signature.class_descriptor != self.descriptor:
            raise ValueError(
                "method signature declares a different class: "
                f"{method.signature.class_descriptor} != {self.descriptor}"
            )
        signatures = self._signature_set()
        if method.signature in signatures:
            raise ValueError(f"duplicate method signature: {method.signature}")
        self.methods.append(method)
        signatures.add(method.signature)

    def find_methods(self, method_name: str) -> list[MethodDef]:
        """Return all overloads of ``method_name`` declared by this class."""
        return [m for m in self.methods if m.signature.method_name == method_name]

    def method_for_line(self, line: int) -> MethodDef | None:
        """Resolve a source line number back to the method containing it.

        This is the primitive the Context Manager uses to disambiguate
        overloaded methods from stack-frame line numbers.
        """
        for method in self.methods:
            if method.debug.covers(line):
                return method
        return None


@dataclass
class DexFile:
    """A single ``classes.dex`` file: a collection of class definitions."""

    name: str = "classes.dex"
    classes: dict[str, ClassDef] = field(default_factory=dict)

    def add_class(self, class_def: ClassDef) -> None:
        if class_def.descriptor in self.classes:
            raise ValueError(f"duplicate class {class_def.descriptor}")
        prospective = self.method_count + len(class_def.methods)
        if prospective > DEX_METHOD_LIMIT:
            raise MultiDexError(
                f"{self.name} would contain {prospective} methods, "
                f"exceeding the dex limit of {DEX_METHOD_LIMIT}"
            )
        self.classes[class_def.descriptor] = class_def

    def get_class(self, descriptor: str) -> ClassDef | None:
        return self.classes.get(descriptor)

    @property
    def method_count(self) -> int:
        return sum(len(c.methods) for c in self.classes.values())

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def iter_methods(self) -> Iterator[MethodDef]:
        for class_def in self.classes.values():
            yield from class_def.methods

    def method_signatures(self) -> list[MethodSignature]:
        """All method signatures in this dex file, in declaration order."""
        return [m.signature for m in self.iter_methods()]

    def sorted_signatures(self) -> list[MethodSignature]:
        """Signatures in the deterministic (topological) order used for indexing."""
        return sorted(self.method_signatures(), key=MethodSignature.sort_key)

    def packages(self) -> set[str]:
        return {c.package for c in self.classes.values()}

    def merge(self, others: Iterable["DexFile"]) -> "DexFile":
        """Return a logical union of this dex file with ``others``.

        Multi-dex apps are analysed as the union of their dex files; the
        union may exceed the per-file method limit by design.
        """
        merged = DexFile(name=self.name, classes=dict(self.classes))
        for other in others:
            for class_def in other.classes.values():
                if class_def.descriptor in merged.classes:
                    continue
                merged.classes[class_def.descriptor] = class_def
        return merged
