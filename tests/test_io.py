import ast
import importlib
import json
import math
import os
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bifree
from bifree._io import BifreeInputError, integer, json_object, json_rows, load_json, rational, write_files

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5, 0.1, -2.5, 0.0]


def special_array(shape):
    flat = [SPECIAL[i % len(SPECIAL)] for i in range(shape[0] * shape[1])]
    return np.array(flat).reshape(shape)


@pytest.mark.parametrize("shape", [(1, 10), (1, 17), (3, 5)])
def test_json_rows_is_json_dumps_of_the_rows(shape):
    array = special_array(shape)
    assert "".join(json_rows(row.tolist() for row in array)) == json.dumps(array.tolist())


@pytest.mark.parametrize("value", SPECIAL)
def test_json_rows_of_one_value(value):
    array = np.array([[value]])
    assert "".join(json_rows(row.tolist() for row in array)) == json.dumps(array.tolist())


def test_json_rows_yields_one_chunk_per_row_and_converts_lazily():
    taken = []

    def rows():
        for i in range(3):
            taken.append(i)
            yield [i, -0.0]

    chunks = json_rows(rows())
    assert next(chunks) == "[[0, -0.0]" and taken == [0]
    assert list(chunks) == [", [1, -0.0]", ", [2, -0.0]", "]"]


def test_json_rows_of_no_rows():
    assert "".join(json_rows(iter([]))) == json.dumps([]) == "[]"


def test_json_object_is_json_dumps_of_the_payload():
    array = special_array((3, 5))
    mask = array != array
    payload = {"name": "grid é\"", "n": 3, "eps": 5e-324, "none": None, "nested": {"a": [1, 2]},
               "values": array.tolist(), "mask": mask.astype(int).tolist(), "last": math.inf}
    streamed = {**payload, "values": (row.tolist() for row in array),
                "mask": (row.astype(int).tolist() for row in mask)}
    assert "".join(json_object(streamed)) == json.dumps(payload)
    assert "".join(json_object({})) == json.dumps({})
    assert "".join(json_object({"rows": iter(())})) == json.dumps({"rows": []})


def raises_after_first_chunk():
    yield "[1, 2"
    raise RuntimeError("the rows broke")


@pytest.mark.parametrize("overwrite", [False, True])
def test_failed_write_leaves_no_file(tmp_path, overwrite):
    path = tmp_path / "out.json"
    if overwrite:
        path.write_text("old\n")
    with pytest.raises(RuntimeError, match="the rows broke"):
        write_files({str(path): raises_after_first_chunk()}, overwrite)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("overwrite", [False, True])
def test_failed_second_file_removes_the_first(tmp_path, overwrite):
    first, second = tmp_path / "a.json", tmp_path / "a.csv"
    with pytest.raises(RuntimeError, match="the rows broke"):
        write_files({str(first): "{}", str(second): raises_after_first_chunk()}, overwrite)
    assert os.listdir(tmp_path) == []


def test_refused_open_removes_only_what_the_call_wrote(tmp_path):
    first, kept = tmp_path / "a.json", tmp_path / "a.csv"
    kept.write_text("keep me\n")
    with pytest.raises(FileExistsError):
        write_files({str(first): iter(["{", "}"]), str(kept): "1,2"}, overwrite=False)
    assert os.listdir(tmp_path) == ["a.csv"]
    assert kept.read_text() == "keep me\n"


def test_chunks_are_written_with_one_closing_newline(tmp_path):
    ended, open_ = tmp_path / "ended.txt", tmp_path / "open.txt"
    write_files({str(ended): iter(["a\n", "b\n", ""]), str(open_): iter(["a", "", "b"])}, False)
    assert ended.read_text() == "a\nb\n"
    assert open_.read_text() == "ab\n"


@pytest.mark.parametrize("data, message", [
    (b'{"n": 1, ', "Expecting property name enclosed in double quotes"),
    (b"", "Expecting value"),
    (b'{"n": "\xff"}', "can't decode byte 0xff"),
])
def test_load_json_names_the_file_in_a_decode_error(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load_json(str(path))
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_load_json_reads_a_value(tmp_path):
    path = tmp_path / "good.json"
    path.write_text('{"n": [1, 2.5]}')
    assert load_json(str(path)) == {"n": [1, 2.5]}


def test_load_json_names_the_file_in_a_parse_error_of_the_same_class(tmp_path):
    class Narrow(BifreeInputError):
        pass

    def parse(data):
        raise Narrow(f"field 'n' is {data['n']}")

    path = tmp_path / "input.json"
    path.write_text('{"n": -1}')
    with pytest.raises(Narrow) as info:
        load_json(str(path), parse)
    assert str(info.value) == f"{path}: field 'n' is -1"


def test_load_json_passes_other_errors_through(tmp_path):
    def parse(data):
        raise ValueError("a bug, not bad input")

    path = tmp_path / "input.json"
    path.write_text("{}")
    with pytest.raises(ValueError) as info:
        load_json(str(path), parse)
    assert type(info.value) is ValueError and str(info.value) == "a bug, not bad input"


def _package_modules():
    for path in sorted(Path(bifree.__file__).parent.glob("*.py")):
        name = "bifree" if path.stem == "__init__" else f"bifree.{path.stem}"
        yield path, importlib.import_module(name), ast.parse(path.read_text(encoding="utf-8"))


def test_no_plain_value_error_is_raised():
    """Bad input raises ``BifreeInputError`` (a ``ValueError``), so the CLI
    can tell it from a bug by type alone."""
    plain = []
    for path, _, tree in _package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    plain.append(f"{path.name}:{node.lineno}")
    assert plain == []


def test_every_value_error_class_is_a_bifree_input_error():
    classes = []
    for path, module, tree in _package_modules():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, ValueError):
                    classes.append(cls.__name__)
                    assert issubclass(cls, BifreeInputError), f"{path.name}: {cls.__name__}"
    assert set(classes) >= {"BifreeInputError", "ArityError", "CapExceededError",
                            "DegreeBoundError", "ZeroMassError", "SingularCovarianceError"}


@pytest.mark.parametrize("value", [0, -3, 2 ** 70])
def test_json_int_takes_a_json_integer(value):
    # the one integer rule, _io.integer, takes every JSON integer as it is
    assert integer(json.loads(json.dumps(value)), "field 'n'") == value


@pytest.mark.parametrize("text", ["2.0", "1.5", "true", "false", '"2"', "null", "[2]"])
def test_json_int_refuses_anything_else(text):
    value = json.loads(text)
    with pytest.raises(BifreeInputError, match=re.escape(f"field 'n' must be an integer, got {value!r}")):
        integer(value, "field 'n'")


@pytest.mark.parametrize("value", [0.1, "0.1", "1/10", " 1/10 ", "1e-1", "10e-2", Fraction(1, 10)])
def test_rational_reads_a_float_from_its_text(value):
    assert rational(value, "value") == Fraction(1, 10)
    assert type(rational(value, "value")) is Fraction


def test_rational_takes_an_int_and_a_fraction_as_they_are():
    half = Fraction(1, 2)
    assert rational(half, "value") == half and type(rational(half, "value")) is Fraction
    assert rational(2 ** 70, "value") == 2 ** 70 and type(rational(3, "value")) is Fraction


@pytest.mark.parametrize("value", [True, False, math.nan, math.inf, -math.inf, "nan", "inf", "abc",
                                   "", "1/2/3", None, [1], {}, "1e10000", "1e-99999", "0.5e+000012345"])
def test_rational_refuses_anything_else(value):
    with pytest.raises(BifreeInputError, match=re.escape(f"value must be a rational, got {value!r}")):
        rational(value, "value")


@pytest.mark.parametrize("value", ["1/0", "-3/0", " 0/0"])
def test_rational_refuses_a_zero_denominator(value):
    with pytest.raises(BifreeInputError, match=re.escape(f"value has a zero denominator: {value!r}")):
        rational(value, "value")


def test_non_convergence_error_is_one_class():
    from bifree import _io, gaussfam

    assert gaussfam.NonConvergenceError is _io.NonConvergenceError
    assert not issubclass(_io.NonConvergenceError, ValueError)
