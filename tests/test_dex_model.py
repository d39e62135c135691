"""Tests for the dex data model: classes, methods, debug info, limits."""

import pytest

from repro.dex.model import (
    AccessFlags,
    ClassDef,
    DebugInfo,
    DexFile,
    DEX_METHOD_LIMIT,
    MethodDef,
    MultiDexError,
)
from repro.dex.signature import MethodSignature


def make_method(class_name="com.x.Y", name="m", params=(), line_start=10, line_end=20):
    return MethodDef(
        signature=MethodSignature.create(class_name, name, params),
        debug=DebugInfo(source_file="Y.java", line_start=line_start, line_end=line_end),
    )


class TestDebugInfo:
    def test_covers_inside_range(self):
        debug = DebugInfo(source_file="A.java", line_start=5, line_end=9)
        assert debug.covers(5) and debug.covers(7) and debug.covers(9)
        assert not debug.covers(4) and not debug.covers(10)

    def test_stripped_debug_info_covers_nothing(self):
        debug = DebugInfo()
        assert debug.stripped
        assert not debug.covers(1)


class TestClassDef:
    def test_requires_descriptor_form(self):
        with pytest.raises(ValueError):
            ClassDef(descriptor="com.x.Y")

    def test_class_name_and_package(self):
        class_def = ClassDef(descriptor="Lcom/x/sub/Y;")
        assert class_def.class_name == "com.x.sub.Y"
        assert class_def.package == "com.x.sub"

    def test_add_method_checks_declaring_class(self):
        class_def = ClassDef(descriptor="Lcom/x/Y;")
        with pytest.raises(ValueError):
            class_def.add_method(make_method(class_name="com.other.Z"))

    def test_add_method_rejects_duplicates(self):
        class_def = ClassDef(descriptor="Lcom/x/Y;")
        class_def.add_method(make_method())
        with pytest.raises(ValueError):
            class_def.add_method(make_method())

    def test_duplicate_check_follows_direct_list_edits(self):
        # ``methods`` is a public list; the signature index behind the
        # duplicate check must see appends and reassignments made to it.
        class_def = ClassDef(descriptor="Lcom/x/Y;")
        class_def.add_method(make_method(name="a"))
        class_def.methods.append(make_method(name="b"))
        with pytest.raises(ValueError):
            class_def.add_method(make_method(name="b"))
        class_def.methods = [make_method(name="c")]
        class_def.add_method(make_method(name="a"))
        with pytest.raises(ValueError):
            class_def.add_method(make_method(name="c"))

    def test_find_methods_returns_all_overloads(self):
        class_def = ClassDef(descriptor="Lcom/x/Y;")
        class_def.add_method(make_method(params=()))
        class_def.add_method(make_method(params=("int",), line_start=30, line_end=40))
        class_def.add_method(make_method(name="other", line_start=50, line_end=55))
        assert len(class_def.find_methods("m")) == 2
        assert len(class_def.find_methods("other")) == 1
        assert class_def.find_methods("missing") == []

    def test_method_for_line_disambiguates_overloads(self):
        class_def = ClassDef(descriptor="Lcom/x/Y;")
        first = make_method(params=(), line_start=10, line_end=20)
        second = make_method(params=("int",), line_start=30, line_end=40)
        class_def.add_method(first)
        class_def.add_method(second)
        assert class_def.method_for_line(15) is first
        assert class_def.method_for_line(35) is second
        assert class_def.method_for_line(25) is None


class TestDexFile:
    def test_add_and_lookup_class(self):
        dex = DexFile()
        class_def = ClassDef(descriptor="Lcom/x/Y;")
        dex.add_class(class_def)
        assert dex.get_class("Lcom/x/Y;") is class_def
        assert dex.get_class("Lmissing;") is None
        assert dex.class_count == 1

    def test_duplicate_class_rejected(self):
        dex = DexFile()
        dex.add_class(ClassDef(descriptor="Lcom/x/Y;"))
        with pytest.raises(ValueError):
            dex.add_class(ClassDef(descriptor="Lcom/x/Y;"))

    def test_method_limit_enforced(self):
        dex = DexFile()
        big = ClassDef(descriptor="Lcom/x/Big;")
        # Bypass per-method construction cost by injecting a fake method list.
        big.methods = [make_method(name=f"m{i}") for i in range(3)]
        dex.add_class(big)
        huge = ClassDef(descriptor="Lcom/x/Huge;")
        huge.methods = [None] * DEX_METHOD_LIMIT  # type: ignore[list-item]
        with pytest.raises(MultiDexError):
            dex.add_class(huge)

    def test_sorted_signatures_are_deterministic(self):
        dex = DexFile()
        cls = ClassDef(descriptor="Lcom/x/Y;")
        cls.add_method(make_method(name="b"))
        cls.add_method(make_method(name="a", line_start=30, line_end=35))
        dex.add_class(cls)
        ordered = dex.sorted_signatures()
        assert [s.method_name for s in ordered] == ["a", "b"]
        assert dex.sorted_signatures() == ordered

    def test_merge_unions_classes(self):
        first = DexFile(name="classes.dex")
        first.add_class(ClassDef(descriptor="Lcom/x/A;"))
        second = DexFile(name="classes2.dex")
        second.add_class(ClassDef(descriptor="Lcom/x/B;"))
        merged = first.merge([second])
        assert set(merged.classes) == {"Lcom/x/A;", "Lcom/x/B;"}
        # Merging is non-destructive.
        assert set(first.classes) == {"Lcom/x/A;"}

    def test_packages(self):
        dex = DexFile()
        dex.add_class(ClassDef(descriptor="Lcom/x/A;"))
        dex.add_class(ClassDef(descriptor="Lorg/y/B;"))
        assert dex.packages() == {"com.x", "org.y"}


class TestAccessFlags:
    def test_native_flag(self):
        method = MethodDef(
            signature=MethodSignature.create("com.x.Y", "n"),
            access_flags=AccessFlags.PUBLIC | AccessFlags.NATIVE,
        )
        assert method.is_native

    def test_constructor_detection(self):
        ctor = MethodDef(signature=MethodSignature.create("com.x.Y", "<init>"))
        assert ctor.is_constructor
        assert not make_method().is_constructor
