"""Serialisation and parsing of simulated dex files.

The paper's Offline Analyzer and Context Manager both *parse* dex files
(using dexlib2) rather than receiving in-memory objects.  To keep that
boundary honest, our dex files can be serialised to a compact binary
blob and re-parsed from it; the apk model stores the serialised bytes,
and both BorderPatrol components go through :class:`DexParser` exactly
as the prototype goes through dexlib2.

The format is a simple length-prefixed binary layout (not the real DEX
layout): a magic header, a class count, and per class its descriptor,
superclass, source file and method table with debug line ranges.
"""

from __future__ import annotations

import struct
from typing import Iterable

from repro.dex.model import AccessFlags, ClassDef, DebugInfo, DexFile, MethodDef
from repro.dex.signature import MethodSignature

_MAGIC = b"RDEX\x01"


class DexFormatError(ValueError):
    """Raised when a byte blob cannot be parsed as a simulated dex file."""


def _pack_str(value: str) -> bytes:
    data = value.encode("utf-8")
    return struct.pack("<I", len(data)) + data


class _Reader:
    def __init__(self, blob: bytes) -> None:
        self._blob = blob
        self._offset = 0

    def read(self, size: int) -> bytes:
        if self._offset + size > len(self._blob):
            raise DexFormatError("truncated dex blob")
        chunk = self._blob[self._offset : self._offset + size]
        self._offset += size
        return chunk

    def read_u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def read_str(self) -> str:
        length = self.read_u32()
        return self.read(length).decode("utf-8")

    @property
    def exhausted(self) -> bool:
        return self._offset >= len(self._blob)


class DexSerializer:
    """Serialise :class:`~repro.dex.model.DexFile` objects to bytes."""

    def serialize(self, dex: DexFile) -> bytes:
        parts: list[bytes] = [_MAGIC, _pack_str(dex.name), struct.pack("<I", dex.class_count)]
        for class_def in dex.classes.values():
            parts.append(self._serialize_class(class_def))
        return b"".join(parts)

    def _serialize_class(self, class_def: ClassDef) -> bytes:
        parts = [
            _pack_str(class_def.descriptor),
            _pack_str(class_def.superclass_descriptor),
            _pack_str(class_def.source_file),
            struct.pack("<I", len(class_def.interfaces)),
        ]
        for interface in class_def.interfaces:
            parts.append(_pack_str(interface))
        parts.append(struct.pack("<I", len(class_def.methods)))
        for method in class_def.methods:
            parts.append(self._serialize_method(method))
        return b"".join(parts)

    def _serialize_method(self, method: MethodDef) -> bytes:
        signature = method.signature
        parts = [
            _pack_str(signature.method_name),
            _pack_str(signature.return_descriptor),
            struct.pack("<I", len(signature.parameter_descriptors)),
        ]
        for param in signature.parameter_descriptors:
            parts.append(_pack_str(param))
        parts.append(
            struct.pack(
                "<IIII",
                int(method.access_flags),
                method.code_size,
                method.debug.line_start,
                method.debug.line_end,
            )
        )
        parts.append(_pack_str(method.debug.source_file))
        return b"".join(parts)


class DexParser:
    """Parse serialised dex blobs back into :class:`DexFile` objects.

    Plays the role of dexlib2 in the paper's Offline Analyzer (§V-A)
    and Context Manager (§V-B).
    """

    def parse(self, blob: bytes) -> DexFile:
        reader = _Reader(blob)
        if reader.read(len(_MAGIC)) != _MAGIC:
            raise DexFormatError("bad magic; not a simulated dex blob")
        name = reader.read_str()
        class_count = reader.read_u32()
        dex = DexFile(name=name)
        for _ in range(class_count):
            class_def = self._parse_class(reader)
            dex.classes[class_def.descriptor] = class_def
        return dex

    def _parse_class(self, reader: _Reader) -> ClassDef:
        descriptor = reader.read_str()
        superclass = reader.read_str()
        source_file = reader.read_str()
        interface_count = reader.read_u32()
        interfaces = tuple(reader.read_str() for _ in range(interface_count))
        class_def = ClassDef(
            descriptor=descriptor,
            superclass_descriptor=superclass,
            interfaces=interfaces,
            source_file=source_file,
        )
        method_count = reader.read_u32()
        for _ in range(method_count):
            class_def.add_method(self._parse_method(reader, descriptor))
        return class_def

    def _parse_method(self, reader: _Reader, class_descriptor: str) -> MethodDef:
        method_name = reader.read_str()
        return_descriptor = reader.read_str()
        param_count = reader.read_u32()
        params = tuple(reader.read_str() for _ in range(param_count))
        access_flags, code_size, line_start, line_end = struct.unpack(
            "<IIII", reader.read(16)
        )
        source_file = reader.read_str()
        signature = MethodSignature(
            class_descriptor=class_descriptor,
            method_name=method_name,
            parameter_descriptors=params,
            return_descriptor=return_descriptor,
        )
        return MethodDef(
            signature=signature,
            access_flags=AccessFlags(access_flags),
            code_size=code_size,
            debug=DebugInfo(
                source_file=source_file, line_start=line_start, line_end=line_end
            ),
        )

    def parse_many(self, blobs: Iterable[bytes]) -> list[DexFile]:
        """Parse every dex blob of a (possibly multi-dex) apk."""
        return [self.parse(blob) for blob in blobs]
