"""Seeded fuzz tests of the dataset reader, driven by the package's own Rng.

Each case corrupts one or two lines of a valid file (truncation, a flipped
bit, a bool label, a changed schema, a non-finite value, an input row or a
soft-label row of another length, soft labels of text or off the simplex, a
class label beyond 64 bits, a number written as text or true/false among the
inputs or soft labels, an array nested far past the recursion limit). The reader must refuse it with an InputError naming
the first corrupted line, whether lines end at \\n, \\r\\n or \\r, and `train`
on it must exit 1 with one error line, leaving only FAILED and its archived
config. Mixed line breaks, blank lines, byte order marks, bytes that are not
UTF-8 and trailing text pin the line and message of each refusal. A
`.meta.json` sidecar beside the file, malformed or not, is never read. The
reader checks a file in chunks, so these tests also run with chunks of 1 and
7 lines, and files with faults of two kinds, or of a kind first found beyond
chunk one, pin which fault and line is refused. 200 random files with up to
three faults of different kinds must be refused alike at every chunk size.
"""

import itertools
import json
import os

import numpy as np
import pytest

from smoothtune.cli import main
from smoothtune.data import _CHUNK as DEFAULT_CHUNK
from smoothtune.data import (
    gen_cluster_classification,
    gen_token_sequences,
    read_dataset,
    write_dataset,
)
from smoothtune.errors import InputError
from smoothtune.tensor import Rng

PRESET = os.path.join(os.path.dirname(__file__), "..", "configs", "two_moons_smooth.ini")
LINES = 40
CASES = 6  # corrupted files per kind


def _pick(rng, n):
    return int(rng.uniform() * n)


def _written(tmp_path, name, dataset):
    """The lines of `dataset` written to a file."""
    path = str(tmp_path / name)
    write_dataset(path, dataset)
    with open(path, "rb") as fh:
        return fh.read().split(b"\n")[:len(dataset)]


def _lines(tmp_path):
    """The lines of a valid 40-record cluster file with soft labels."""
    return _written(tmp_path, "clean.jsonl",
                    gen_cluster_classification(LINES, 2, 2, 1.5, 0.8, seed=5))


def _flip(rng, line):
    """The line with one random bit of one random byte flipped."""
    pos, bit = _pick(rng, len(line)), 1 << _pick(rng, 8)
    return line[:pos] + bytes([line[pos] ^ bit]) + line[pos + 1:]


def _truncated(rng, line, case):
    return line[:1 + _pick(rng, len(line) - 1)]


def _flipped(rng, line, case):
    """The line with one bit flipped, chosen so that what the reader sees of
    it (up to a flipped-in line break) no longer parses."""
    while True:
        flipped = _flip(rng, line)
        try:
            json.loads(flipped.decode("utf-8").replace("\r", "\n").split("\n")[0].strip())
        except (UnicodeDecodeError, json.JSONDecodeError):
            return flipped


def _edited(edit):
    def corrupt(rng, line, case):
        rec = json.loads(line)
        edit(rng, rec, case)
        return json.dumps(rec).encode()
    return corrupt


def _bool_label(rng, rec, case):
    rec["y"] = bool(_pick(rng, 2))


def _other_schema(rng, rec, case):
    choice = _pick(rng, 3)
    if choice == 2:
        rec["w"] = 1.0
    else:
        del rec[("p", "y")[choice]]


def _non_finite(rng, rec, case):
    # one field per file: "x" is checked on every line before "p" is
    field = ("x", "p")[case % 2]
    rec[field][_pick(rng, 2)] = (float("nan"), float("inf"), -float("inf"))[_pick(rng, 3)]


def _ragged_soft(rng, rec, case):
    rec["p"] = rec["p"][:1] if case % 2 else rec["p"] + [0.0]


def _ragged_x(rng, rec, case):
    rec["x"] = rec["x"][:1] if case % 2 else rec["x"] + [0.0]


def _soft_off_the_simplex(rng, rec, case):
    rec["p"] = [v * 1.5 for v in rec["p"]]


def _text_soft(rng, rec, case):
    rec["p"] = ["a", "b"]


def _text_x(rng, rec, case):
    rec["x"][_pick(rng, 2)] = repr(rec["x"][0])  # text numpy would read as a number


def _bool_x(rng, rec, case):
    rec["x"][_pick(rng, 2)] = bool(_pick(rng, 2))


def _bool_soft(rng, rec, case):
    rec["p"] = [True, False] if _pick(rng, 2) else [False, True]  # sums to 1 as numbers


def _huge_label(rng, rec, case):
    rec["y"] = (1 - 2 * _pick(rng, 2)) * 99999999999999999999


def _nested(rng, line, case):
    depth = 100000 + _pick(rng, 1000)  # far past the interpreter's recursion limit
    return b"[" * depth + b"]" * depth


KINDS = {
    "truncated": (_truncated, "malformed record"),
    "flipped": (_flipped, "malformed record"),
    "bool_label": (_edited(_bool_label), "labels must be JSON numbers, not true/false"),
    "mixed_schema": (_edited(_other_schema), "mixed record schemas"),
    "non_finite": (_edited(_non_finite), r"non-finite value in '[xp]'"),
    "ragged_x": (_edited(_ragged_x), "input rows must be equal-length lists of numbers"),
    "ragged_soft": (_edited(_ragged_soft), "soft labels must be equal-length lists of numbers"),
    "soft_off_the_simplex": (_edited(_soft_off_the_simplex), "soft labels must sum to 1"),
    "text_soft": (_edited(_text_soft), "soft labels must be equal-length lists of numbers"),
    "huge_label": (_edited(_huge_label), "class labels must fit in 64 bits"),
    "text_x": (_edited(_text_x), "'x' values must be JSON numbers, not text or true/false"),
    "bool_x": (_edited(_bool_x), "'x' values must be JSON numbers, not text or true/false"),
    "bool_soft": (_edited(_bool_soft), "'p' values must be JSON numbers, not text or true/false"),
    "nested": (_nested, "malformed record: maximum recursion depth exceeded"),
}


@pytest.mark.parametrize("join", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_corrupted_files_are_refused_at_their_first_bad_line(
        tmp_path, read_chunk, capsys, kind, join):
    corrupt, message = KINDS[kind]
    clean = _lines(tmp_path)
    rng = Rng(1000 + sorted(KINDS).index(kind))
    for case in range(CASES):
        lines = list(clean)  # one or two bad lines
        # the schema and the row widths are read off line 1, so their
        # changes start at line 2
        low = 1 if kind in ("mixed_schema", "ragged_x", "ragged_soft") else 0
        bad = sorted({low + _pick(rng, LINES - low) for _ in range(1 + case % 2)})
        for index in bad:
            lines[index] = corrupt(rng, lines[index], case)
        path = str(tmp_path / f"{kind}{case}.jsonl")
        with open(path, "wb") as fh:
            fh.write(join.join(lines) + join)
        with pytest.raises(InputError, match=rf"{kind}{case}\.jsonl:{bad[0] + 1}: {message}"):
            read_dataset(path)
        if join != b"\n":  # the command reads the file through the same reader
            continue

        out = tmp_path / f"out{case}"
        capsys.readouterr()
        code = main(["train", "--config", PRESET, "--out", str(out),
                     "--set", f"data.train={path}", "--set", f"data.test={path}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("smoothtune: error:") and err.count("\n") == 1, err
        assert sorted(os.listdir(out)) == ["FAILED", "config.ini"]
        assert (out / "FAILED").read_text().startswith("InputError:")


def test_random_bit_flips_give_a_dataset_or_an_input_error(tmp_path, read_chunk):
    """A flip may leave a file valid (a digit for a digit); it must never
    raise anything but InputError."""
    clean = _lines(tmp_path)
    rng = Rng(1100)
    path = str(tmp_path / "flips.jsonl")
    outcomes = set()
    for _ in range(60):
        lines = list(clean)
        index = _pick(rng, LINES)
        lines[index] = _flip(rng, lines[index])
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        try:
            read_dataset(path)
            outcomes.add("read")
        except InputError:
            outcomes.add("refused")
    assert outcomes == {"read", "refused"}


def _set(line, **fields):
    rec = json.loads(line)
    rec.update(fields)
    return json.dumps(rec).encode()


def _token_lines(tmp_path):
    return _written(tmp_path, "tokens.jsonl", gen_token_sequences(LINES, 6, 4, seed=6))


def _bool_label_and_truncated_end(lines):
    lines[1] = _set(lines[1], y=True)
    lines[-1] = lines[-1][:10]
    return lines, ":40: malformed record"


def _non_finite_p_then_x(lines):
    lines[1] = _set(lines[1], p=[float("nan"), 1.0])
    lines[38] = _set(lines[38], x=[float("inf"), 0.0])
    return lines, ":39: non-finite value in 'x'"


def _wide_soft_rows_later(lines):
    # lines 15-21 are one whole chunk of 7, in which every row is 3 wide
    for i in range(14, 21):
        lines[i] = _set(lines[i], p=json.loads(lines[i])["p"] + [0.0])
    return lines, ":15: soft labels must be equal-length lists of numbers"


def _wide_input_rows_later(lines):
    for i in range(14, 21):
        lines[i] = _set(lines[i], x=json.loads(lines[i])["x"] + [0.0])
    return lines, ":15: input rows must be equal-length lists of numbers"


def _short_input_row(lines):
    lines[3] = _set(lines[3], x=[1.0])
    return lines, ":4: input rows must be equal-length lists of numbers"


def _deep_first_input(lines):
    lines[0] = _set(lines[0], x=json.loads("[" * 900 + "1.0" + "]" * 900))
    return lines, ":1: input rows must be equal-length lists of numbers"


def _soft_labels_off_the_simplex_later(lines):
    lines[11] = _set(lines[11], p=[0.5, 0.6])
    return lines, ":12: soft labels must sum to 1"


def _input_row_after_soft_labels_off_the_simplex(lines):
    # the sums are checked last, so the later wide row is refused at any chunk size
    lines[2] = _set(lines[2], p=[0.5, 0.6])
    lines[29] = _set(lines[29], x=[0.0, 0.0, 0.0])
    return lines, ":30: input rows must be equal-length lists of numbers"


def _unknown_first_fields(lines):
    lines[0] = _set(lines[0], w=1.0)
    return lines, r":1: unsupported record fields \['p', 'w', 'x', 'y'\]"


def _integer_labels_later(lines):
    # the first record's label makes the task: real labels up to line 14
    for i in range(14):
        lines[i] = _set(lines[i], y=float(json.loads(lines[i])["y"]))
    return lines, ":15: mixed label types"


def _text_label_before_real_label(lines):
    # a label that is no number is worded alike for both tasks
    lines[4] = _set(lines[4], y="a")
    lines[8] = _set(lines[8], y=0.5)
    return lines, ":5: labels must be JSON numbers$"


def _null_label_before_bool_label(lines):
    lines[3] = _set(lines[3], y=None)
    lines[6] = _set(lines[6], y=True)
    return lines, ":4: labels must be JSON numbers$"


def _not_an_object_after_unknown_fields(lines):
    lines[0] = _set(lines[0], w=1.0)
    lines[29] = b"[1, 2]"
    return lines, ":30: malformed record: not a JSON object"


def _null_first_record(lines):
    lines[0] = b"null"
    return lines, ":1: malformed record: not a JSON object"


def _float_token_later(lines):
    lines[29] = _set(lines[29], tokens=[1, 2.0, 3, 4])
    return lines, ":30: token ids must be JSON integers"


def _all_blank(lines):
    return [b"", b"  ", b"\t"], ": empty dataset"


# name: (the clean lines, their edit)
PRECEDENCE = {
    "bool_label_and_truncated_end": (_lines, _bool_label_and_truncated_end),
    "non_finite_p_then_x": (_lines, _non_finite_p_then_x),
    "wide_soft_rows_later": (_lines, _wide_soft_rows_later),
    "wide_input_rows_later": (_lines, _wide_input_rows_later),
    "short_input_row": (_lines, _short_input_row),
    "deep_first_input": (_lines, _deep_first_input),
    "soft_labels_off_the_simplex_later": (_lines, _soft_labels_off_the_simplex_later),
    "input_row_after_soft_labels_off_the_simplex": (
        _lines, _input_row_after_soft_labels_off_the_simplex),
    "unknown_first_fields": (_lines, _unknown_first_fields),
    "integer_labels_later": (_lines, _integer_labels_later),
    "text_label_before_real_label": (_lines, _text_label_before_real_label),
    "null_label_before_bool_label": (_lines, _null_label_before_bool_label),
    "not_an_object_after_unknown_fields": (_lines, _not_an_object_after_unknown_fields),
    "null_first_record": (_lines, _null_first_record),
    "float_token_later": (_token_lines, _float_token_later),
    "all_blank": (_lines, _all_blank),
}


@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_the_first_kind_of_fault_in_check_order_is_refused(tmp_path, read_chunk, case):
    """A file with faults of two kinds, or one beyond the first chunk, is refused
    for the kind checked first, at its first line in the file."""
    clean, edit = PRECEDENCE[case]
    lines, says = edit(clean(tmp_path))
    path = str(tmp_path / f"{case}.jsonl")
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    with pytest.raises(InputError, match=rf"{case}\.jsonl{says}"):
        read_dataset(path)


def _float_token(rng, rec, case):
    rec["tokens"][_pick(rng, len(rec["tokens"]))] += 0.5


def _nudged(line, by):
    """The soft-label line with its first entry moved `by` off the simplex."""
    rec = json.loads(line)
    rec["p"][0] += by
    return json.dumps(rec).encode()


FUZZ_KINDS = dict(KINDS, float_token=(_edited(_float_token), "token ids must be JSON integers"))
TOKEN_KINDS = ["bool_label", "float_token", "flipped", "huge_label", "nested", "truncated"]
WIDE_KINDS = [kind for kind in sorted(KINDS) if kind != "soft_off_the_simplex"]
# name: (the clean lines, the kinds of fault they take); numpy sums the soft
# labels of the wide files pairwise, as it sums 8 numbers and more
FAMILIES = {
    "soft_2": (_lines, sorted(KINDS)),
    "wide_9": (lambda tmp_path: _written(tmp_path, "soft9.jsonl", gen_cluster_classification(
        LINES, 9, 2, 1.5, 0.8, seed=9)), WIDE_KINDS),
    "wide_16": (lambda tmp_path: _written(tmp_path, "soft16.jsonl", gen_cluster_classification(
        LINES, 16, 2, 1.5, 0.8, seed=16)), WIDE_KINDS),
    "tokens": (_token_lines, TOKEN_KINDS),
}


def test_a_refusal_is_the_same_wherever_the_chunks_fall(tmp_path, monkeypatch):
    """Random files with one to three faults of different kinds are refused
    alike in chunks of 1, 3, 7 and the default number of lines. In a wide
    soft-label file, 9 or 16 classes, one fault is a row 2e-9 off the simplex,
    and one more row is 5e-10 off, which is no fault."""
    rng = Rng(1200)
    clean = {name: lines(tmp_path) for name, (lines, _) in FAMILIES.items()}
    for case in range(200):
        family = sorted(FAMILIES)[_pick(rng, len(FAMILIES))]
        lines, kinds = list(clean[family]), list(FAMILIES[family][1])
        untouched, wide = list(range(LINES)), family.startswith("wide")
        for _ in range(1 + _pick(rng, 3) - wide):
            kind = kinds.pop(_pick(rng, len(kinds)))
            index = untouched.pop(_pick(rng, len(untouched)))
            lines[index] = FUZZ_KINDS[kind][0](rng, lines[index], case)
        if wide:
            off, near = (untouched.pop(_pick(rng, len(untouched))) for _ in range(2))
            lines[off], lines[near] = _nudged(lines[off], 2e-9), _nudged(lines[near], 5e-10)
        path = tmp_path / f"{case}.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        refusals = set()
        for chunk in (1, 3, 7, DEFAULT_CHUNK):
            monkeypatch.setattr("smoothtune.data._CHUNK", chunk)
            with pytest.raises(InputError) as refused:
                read_dataset(str(path))
            refusals.add(str(refused.value))
        assert len(refusals) == 1, (family, refusals)
        if wide:
            assert f":{near + 1}: soft labels must sum to 1" not in refusals.pop()


BOOL_LABEL = b'{"x": [1.0, 2.0], "y": true, "p": [0.5, 0.5]}'
BOOL_SAYS = "labels must be JSON numbers, not true/false"
HEAD = b'{"x": [1.0, 2.0], "y": 0'  # a record without its closing brace


def _ended(lines, *breaks):
    """The lines, each ended by the next of `breaks` in turn."""
    return b"".join(line + end for line, end in zip(lines, itertools.cycle(breaks)))


def _line_21_in(*breaks):
    def edit(lines):
        lines[20] = BOOL_LABEL
        return _ended(lines, *breaks), 21, BOOL_SAYS
    return edit


def _cr_at_end(lines):
    lines[-1] = HEAD[:21]
    return b"\n".join(lines) + b"\r", 40, (
        "malformed record: Expecting ':' delimiter: line 1 column 22 (char 21)")


def _blank_lines(lines):
    # 15 blank lines from line 3 on, so that lines 8-14 are a chunk of 7
    lines[2:2] = [b"", b"   ", b"\t \t"] * 5
    lines[30] = BOOL_LABEL
    return _ended(lines, b"\n"), 31, BOOL_SAYS


def _replaced(index, line, says):
    def edit(lines):
        lines[index] = line
        return _ended(lines, b"\n"), index + 1, says
    return edit


BOM = b"\xef\xbb\xbf"
BOM_SAYS = ("malformed record: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)")

# name: the edit of the clean lines, giving the file, the line it is refused
# at and what the refusal says
ENCODINGS = {
    "crlf": _line_21_in(b"\r\n"),
    "lone_cr": _line_21_in(b"\r"),
    "mixed_breaks": _line_21_in(b"\n", b"\r\n", b"\r", b"\r\n"),
    "cr_at_end": _cr_at_end,
    "blank_lines": _blank_lines,
    "bom_on_line_1": _replaced(0, BOM + HEAD + b"}", BOM_SAYS),
    "bom_on_a_later_line": _replaced(25, BOM + HEAD + b"}", BOM_SAYS),
    "invalid_byte_after_indent": _replaced(11, b" \t \xff" + HEAD + b"}", (
        "malformed record: 'utf-8' codec can't decode byte 0xff in position 3: "
        "invalid start byte")),
    "character_cut_at_line_end": _replaced(11, HEAD + b', "\xe2\x82', (
        "malformed record: 'utf-8' codec can't decode bytes in position 27-28: "
        "unexpected end of data")),
    "encoded_surrogate": _replaced(11, HEAD + b', "\xed\xa0\x80": 1}', (
        "malformed record: 'utf-8' codec can't decode byte 0xed in position 27: "
        "invalid continuation byte")),
    "extra_data_after_spaces": _replaced(11, HEAD + b"}   5", (
        "malformed record: Extra data: line 1 column 29 (char 28)")),
}


@pytest.mark.parametrize("case", sorted(ENCODINGS))
def test_line_breaks_and_encodings_are_refused_at_their_line(tmp_path, read_chunk, case):
    """Lines end at \\n, \\r\\n or a lone \\r; blank lines count; a line that is not
    UTF-8 or not JSON is refused with the error of decoding and parsing that
    line alone."""
    data, line, says = ENCODINGS[case](_lines(tmp_path))
    path = tmp_path / f"{case}.jsonl"
    path.write_bytes(data)
    with pytest.raises(InputError) as refused:
        read_dataset(str(path))
    assert str(refused.value) == f"{path}:{line}: {says}"


SIDECARS = {
    "truncated": b'{"task": "classification", "provenance": {"generator": "clu',
    "list": b'[{"provenance": {}}]\n',
    "not_utf8": b'{"provenance": {"generator": "cl\xe1ster"}}\n',
    "provenance_not_an_object": b'{"provenance": [1, 2]}\n',
}


@pytest.mark.parametrize("sidecar", sorted(SIDECARS))
def test_a_sidecar_is_never_read(tmp_path, sidecar):
    path = str(tmp_path / "data.jsonl")
    write_dataset(path, gen_cluster_classification(LINES, 2, 2, 1.5, 0.8, seed=5))
    alone = read_dataset(path)
    with open(path + ".meta.json", "wb") as fh:
        fh.write(SIDECARS[sidecar])
    beside = read_dataset(path)
    for name in ("inputs", "labels", "soft_labels"):
        assert np.array_equal(getattr(beside, name), getattr(alone, name)), name
