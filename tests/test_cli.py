"""Command-line behavior: subcommands, formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import finitetop
from conftest import SIXTEEN_POINT_PRODUCTS
from finitetop import CLASS_KINDS, census as census_mod, indiscrete, space_to_json, verifier
from finitetop.census import CENSUS_FORMAT, CensusRecord, profile, space_id
from finitetop.cli import main
from oracles import record_to_obj

SPACE_TEXT = '{"n": 3, "opens": [[], [0], [0, 1, 2]]}'

# space fields, each value as JSON text, that do not make a space; each must
# exit 2 without a traceback
MALFORMED_SPACES = {
    "opens-not-a-list": {"n": "3", "opens": "5"},
    "bool-point-count": {"n": "true", "opens": "[[], [0]]"},
    "bool-point": {"n": "2", "opens": "[[], [0, true], [0, 1]]"},
    "entry-not-a-list": {"n": "2", "opens": "[[], 1, [0, 1]]"},
    "nested-100000-deep": {"n": "3", "opens": "[" * 100_000 + "]" * 100_000},
}


def object_text(fields):
    """A JSON object from field names and the JSON text of their values."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


# SHA-256 of stdout as the definitional 2^n scans printed it (commit 5111cc0;
# the homeomorphism census and the g-closed search at commit bca6d73; the
# 3-point verify, whose lemma-lfm1 suite ran the exhaustive refinement search,
# and the compact-not-alpha-subparacompact search at commit 709e3b0; the
# non-nodec search, the JSON g-closed search and the JSON 4-point verify, as
# hand-written witness re-checks and the f-sigma-g-alpha-closed union scan
# printed them, at commit 6418001; the 6-point homeomorphism census, as the
# labeled sweep printed it, at commit ec4efe5; the 5-point verify, as the
# refinement search over canonical covers decided its covering suites, at
# commit f1c7193; the 4-point question 1 search, as one product per labeled
# factor pair decided it, at commit e75ad1c; the 5-point labeled census, as
# one profile per labeled space printed it, at commit 787841b; the 4-point
# thm-fm1 sample in JSON, as map-by-map enumeration printed it, at commit
# d0cd047; the 5-point question 2 search in both formats, as the sweep of
# every labeled space printed it, at commit 15f9847); census files, space ids
# and report text stay byte-identical
PINNED_STDOUT_SHA256 = {
    "census --n 4": "e32541eee516ae3900ede709dd60c8f8ade0f2b2617885bde3650328ca3d8fcd",
    "census --n 5": "f1c6f8afcb81285df557c3a016168979f8593a7facdee9d7bc219d7ba6a3866b",
    "census --n 5 --up-to-homeo": (
        "126b06574c9d1bc1cc2a2f25d41614f16c342ab1a5c4b5ffd4f84d75b67177e1"
    ),
    "census --n 6 --up-to-homeo": (
        "a17b9b834f8fefba51aea81031244c55ced1a1855318ec87ac65621edbc1a752"
    ),
    "search --predicate gc-mismatch --max-n 4": (
        "1a6a8f068aa22ef730b2f31fb17bd74bdf46dc61b4611f1e35b7da63d4eeb19b"
    ),
    "verify --n 4 --suite all": "bfbdef6fb05078d46e34276745a236dc98b8fcd52471b3d576f32f75f2e15594",
    "verify --n 5 --suite all": "c87b070c383bcb8cc84ba76cdc2ff3af5c5b82a1d60997b1135ddfad24a33bd6",
    "search --predicate question1-witness --max-n 3": (
        "58d58d1922fed8df6f54e5067b389ba2efcaa14b1a1815d3fe9085f039cba61a"
    ),
    "search --predicate question1-witness --max-n 4": (
        "80e875d970e1b918f072d26f11f0a96d50454638ad5451ae8418ecbe26100abf"
    ),
    "verify --n 3 --suite all": "d679cfd56c75497567ef17aa0a19c0011e93f204f3315713045c4d0cb34e60fc",
    "search --predicate compact-not-alpha-subparacompact --max-n 4": (
        "3a8b3799e9fe97c936e8e46a10f0fdc3e4fdc3107d4b82e387af543ed809a74a"
    ),
    "search --predicate non-nodec --max-n 4": (
        "8e9ea1c9f04db833ec942d6ea43e561c14bace6f47be535f0ad7aed25570f7f2"
    ),
    "search --predicate gc-mismatch --max-n 3 --format json": (
        "3d8e82817d8f5de38adc59d8100f889d4ef8a3af1a373990b3b5f2bd0c779717"
    ),
    "verify --n 4 --suite all --format json": (
        "53dcea11d35fb0257a0c65b8d46ae4799fffe0ad5e02833d800f6a73337046c4"
    ),
    "verify --n 4 --suite thm-fm1 --format json": (
        "d0b4538809692727ca813a32de41185697e68c1f7459712a51d5c612d75b5e38"
    ),
    "search --predicate question2-witness --max-n 5": (
        "67bba9bc92abeaad9d1dcdd74b5666710630483db45b345a4f11a57507dd7d58"
    ),
    "search --predicate question2-witness --max-n 5 --format json": (
        "b96a87072cc205a6bada44d2630a6b1054046c35dc1cd7138e3ac117f9136348"
    ),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(cwd, *argv):
    # the child imports the package these tests imported, wherever it lies
    env = dict(os.environ, PYTHONPATH=str(Path(finitetop.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "finitetop", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_census_one_point(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "1", "--out", "-")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + one record
    assert json.loads(lines[0])["n"] == 1
    assert json.loads(lines[1])["id"].startswith("n1-")


def test_census_to_file(capsys, tmp_path):
    path = tmp_path / "census.txt"
    code, _, err = run_cli(capsys, "census", "--n", "2", "--out", str(path))
    assert code == 0
    assert "4 spaces" in err
    assert len(path.read_text().splitlines()) == 5


def test_failed_command_leaves_its_out_file_alone(capsys, tmp_path):
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    old.write_bytes(b"earlier output\n")
    for path in (new, old):
        code, out, err = run_cli(capsys, "census", "--n", "9", "--out", str(path))
        assert code == 2 and out == "" and "finitetop: error" in err
    assert not new.exists()
    assert old.read_bytes() == b"earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
    # an unwritable path is reported as given, not as the temporary file
    missing = tmp_path / "missing" / "out.txt"
    code, _, err = run_cli(capsys, "census", "--n", "2", "--out", str(missing))
    assert code == 2 and f"No such file or directory: '{missing}'" in err


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--suite", "lemma-2.1")
    assert code == 0
    assert "29 checked, 0 violations" in out


def test_verify_all_suites_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--suite", "all")
    assert code == 0
    assert out.count("suite ") == 17


def test_verify_census_file_input(capsys, tmp_path):
    path = tmp_path / "census.txt"
    run_cli(capsys, "census", "--n", "2", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "verify", "--census", str(path), "--suite", "lemma-2.1"
    )
    assert code == 0
    assert "4 checked" in out


@pytest.mark.parametrize("kind", ["empty", "header-only"])
def test_verify_census_without_spaces_exits_2(capsys, tmp_path, kind):
    path = tmp_path / "census.txt"
    header = json.dumps({"format": CENSUS_FORMAT, "n": 3}) + "\n"
    path.write_text("" if kind == "empty" else header)
    code, out, err = run_cli(capsys, "verify", "--census", str(path), "--suite", "prop-p1")
    assert code == 2
    assert out == ""
    assert "finitetop: error" in err and "holds no spaces" in err


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--suite", "prop-p1", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["suite"] == "prop-p1"
    assert obj["violations"] == []


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "2", "--suite", "lemma-9.9")
    assert code == 2
    assert "unknown suites" in err


def test_verify_empty_suite_list_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--suite", ",")
    assert code == 2
    assert out == ""
    assert "no suites given" in err


def test_search_gc_mismatch_text(capsys):
    code, out, _ = run_cli(capsys, "search", "--predicate", "gc-mismatch", "--max-n", "3")
    assert code == 0
    assert "n=1: 0 witnesses" in out
    assert "n=2: 0 witnesses" in out
    assert "n=3: 9 witnesses" in out
    assert "T^α = {∅,{a},{a,b},{a,c},X}" in out
    assert "{a,b}" in out


def test_search_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--predicate", "non-nodec", "--max-n", "2", "--format", "json",
    )
    assert code == 0
    head = json.loads(out.splitlines()[0])
    assert head["counts"] == {"1": 0, "2": 0}


def test_search_past_the_census_cap_exits_2_before_any_sweep(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(verifier, "labeled_census", lambda n: built.append(n) or ())
    code, out, err = run_cli(
        capsys, "search", "--predicate", "question1-witness", "--max-n", "9"
    )
    assert code == 2
    assert out == ""
    assert "got 9" in err
    assert built == []


def test_inspect_alpha_and_gc_facets(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(SPACE_TEXT)
    code, out, _ = run_cli(
        capsys, "inspect", "--space", str(space), "--facets", "alpha,gc"
    )
    assert code == 0
    assert "T^α = {∅,{a},{a,b},{a,c},X}" in out
    assert "gc_mismatch=true" in out


def test_inspect_property_and_class_facets(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(SPACE_TEXT)
    code, out, _ = run_cli(
        capsys,
        "inspect", "--space", str(space),
        "--facets", "compact,nodec,semi-open,alpha-subparacompact",
    )
    assert code == 0
    assert "compact=true (finite-space theorem)" in out
    assert "nodec=false" in out
    assert "semi-open = {∅,{a},{a,b},{a,c},X}" in out
    assert "alpha-subparacompact=false" in out


def test_inspect_facets_compose(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(SPACE_TEXT)
    facets = ["alpha", "gc", "nodec", "semi-open", "sizes"]
    _, combined, _ = run_cli(
        capsys, "inspect", "--space", str(space), "--facets", ",".join(facets)
    )
    singles = []
    for facet in facets:
        _, out, _ = run_cli(capsys, "inspect", "--space", str(space), "--facets", facet)
        singles.append(out)
    assert combined == "".join(singles)


def test_inspect_rejects_non_closed_family_without_flag(capsys, tmp_path):
    space = tmp_path / "bad.json"
    space.write_text('{"n": 3, "opens": [[], [0], [1], [0, 1, 2]]}')
    code, _, err = run_cli(capsys, "inspect", "--space", str(space), "--facets", "nodec")
    assert code == 2
    assert "union" in err
    code, out, _ = run_cli(
        capsys, "inspect", "--space", str(space), "--facets", "nodec", "--complete"
    )
    assert code == 0


def test_inspect_unknown_facet(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(SPACE_TEXT)
    code, _, err = run_cli(capsys, "inspect", "--space", str(space), "--facets", "hue")
    assert code == 2
    assert "unknown facets" in err


def test_inspect_empty_facet_list_exits_2(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(SPACE_TEXT)
    code, out, err = run_cli(capsys, "inspect", "--space", str(space), "--facets", " , ")
    assert code == 2
    assert out == ""
    assert "no facets given" in err


def test_inspect_json_lines(capsys, tmp_path):
    space = tmp_path / "space.json"
    space.write_text(SPACE_TEXT)
    code, out, _ = run_cli(
        capsys,
        "inspect", "--space", str(space),
        "--facets", "alpha,compact,semi-open", "--format", "json",
    )
    assert code == 0
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert objs[0]["facet"] == "alpha"
    assert objs[1] == {
        "facet": "compact",
        "value": True,
        "reason": "every cover of a finite space is finite and is its own subcover",
    }
    assert objs[2]["members"][1] == [0]


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["census"]) == 2
    assert main(["inspect", "--space", "/nonexistent", "--facets", "gc"]) == 2
    capsys.readouterr()


def test_identical_invocations_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "search", "--predicate", "gc-mismatch", "--max-n", "3")
    _, out2, _ = run_cli(capsys, "search", "--predicate", "gc-mismatch", "--max-n", "3")
    assert out1 == out2
    _, v1, _ = run_cli(capsys, "verify", "--n", "3", "--suite", "all")
    _, v2, _ = run_cli(capsys, "verify", "--n", "3", "--suite", "all")
    assert v1 == v2


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT_SHA256))
def test_stdout_matches_pinned_digest(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT_SHA256[command]


@pytest.mark.parametrize("n", [4, 5])
def test_verify_of_a_written_census_matches_pinned_digest(capsys, tmp_path, n):
    # the read path end to end: a census file read back verifies as the
    # census it was written from
    path = tmp_path / "census.txt"
    code, out, _ = run_cli(capsys, "census", "--n", str(n), "--out", str(path))
    assert (code, out) == (0, "")
    code, out, _ = run_cli(capsys, "verify", "--census", str(path), "--suite", "all")
    assert code == 0
    digest = PINNED_STDOUT_SHA256[f"verify --n {n} --suite all"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `inspect` of the 16-point question1-witness square with every
# class kind, as the per-mask formulas printed it at commit 055c5d3: the one
# pinned output that reads every class formula at 16 points
INSPECT_16_POINT_SHA256 = "83c6724b4f7f7200588510d866788933c9cd26fcefedfb25e21a650bd861eefe"


def test_inspect_16_point_square_matches_pinned_digest(capsys, tmp_path):
    space = tmp_path / "square.json"
    space.write_text(space_to_json(SIXTEEN_POINT_PRODUCTS["question1-witness"]()))
    code, out, _ = run_cli(
        capsys, "inspect", "--space", str(space), "--facets", ",".join(CLASS_KINDS)
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == INSPECT_16_POINT_SHA256


@pytest.mark.parametrize("name", sorted(MALFORMED_SPACES))
def test_inspect_malformed_space_exits_2(tmp_path, name):
    space = tmp_path / "space.json"
    space.write_text(object_text(MALFORMED_SPACES[name]))
    result = run_module(tmp_path, "inspect", "--space", str(space), "--facets", "alpha")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "finitetop: error" in result.stderr


# small integers reach the valid point counts and points
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 20)
    | st.integers()
    | st.floats()
    | st.text(max_size=5)
)
# arbitrary JSON values, plus objects with the two space fields so the
# validator gets past its first check
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "opens", "x"]), inner, max_size=3),
    max_leaves=12,
)
_SPACE_LIKE = st.fixed_dictionaries(
    {"n": _JSON_VALUES, "opens": st.lists(st.lists(_JSON_SCALARS, max_size=4), max_size=4)}
)


@given(value=_JSON_VALUES | _SPACE_LIKE)
@settings(max_examples=100, deadline=None)
def test_inspect_any_json_value_exits_0_or_2(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("space") / "space.json"
    path.write_text(json.dumps(value))
    out = path.with_suffix(".out")
    code = main(["inspect", "--space", str(path), "--facets", "alpha", "--out", str(out)])
    assert code in (0, 2)


@pytest.mark.parametrize("name", sorted(MALFORMED_SPACES))
def test_verify_census_malformed_record_exits_2(tmp_path, name):
    # a valid record of the space a bool-as-int reading would produce, with
    # its n and opens fields replaced
    fields = MALFORMED_SPACES[name]
    t = indiscrete(int(json.loads(fields["n"])))
    header = {"format": CENSUS_FORMAT, "n": t.n}
    record = record_to_obj(CensusRecord(space_id(t), t, profile(t)))
    record = {**{k: json.dumps(v) for k, v in record.items()}, **fields}
    path = tmp_path / "census.txt"
    path.write_text(json.dumps(header) + "\n" + object_text(record) + "\n")
    result = run_module(tmp_path, "verify", "--census", str(path), "--suite", "prop-p1")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "line 2:" in result.stderr


@pytest.mark.parametrize("field", ["header-point-count", "profile-size"])
def test_verify_census_bool_count_exits_2(tmp_path, field):
    # true must not pass for the integer 1
    t = indiscrete(1)
    header = {"format": CENSUS_FORMAT, "n": 1}
    record = record_to_obj(CensusRecord(space_id(t), t, profile(t)))
    if field == "header-point-count":
        header["n"] = True
    else:
        record["profile"]["sizes"]["so"] = True
    path = tmp_path / "census.txt"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    result = run_module(tmp_path, "verify", "--census", str(path), "--suite", "prop-p1")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "finitetop: error: line" in result.stderr


@pytest.mark.parametrize("where", ["header-point-count", "point"])
def test_verify_census_huge_integer_names_its_line(capsys, tmp_path, where):
    # past Python's digit limit json.loads raises a plain ValueError
    huge = "7" * 5000
    t = indiscrete(1)
    record = record_to_obj(CensusRecord(space_id(t), t, profile(t)))
    record = {k: json.dumps(v) for k, v in record.items()}
    header = {"format": json.dumps(CENSUS_FORMAT), "n": "1"}
    if where == "header-point-count":
        header["n"], line = huge, 1
    else:
        record["opens"], line = f"[[], [{huge}]]", 2
    path = tmp_path / "census.txt"
    path.write_text(object_text(header) + "\n" + object_text(record) + "\n")
    code, out, err = run_cli(capsys, "verify", "--census", str(path), "--suite", "prop-p1")
    assert (code, out) == (2, "")
    assert err.startswith(f"finitetop: error: line {line}:")


def test_verify_census_unbracketed_opens_exits_2(capsys, tmp_path):
    # in write_census's layout, with canonical entries that give the masks
    # of the 1-point space and an id hashed over this very text, but not
    # JSON: the opens text is two lists, not one list of lists
    opens = "[ ], [0 ]"
    t = indiscrete(1)
    record = {k: json.dumps(v) for k, v in record_to_obj(CensusRecord("", t, profile(t))).items()}
    record.update(id=json.dumps(census_mod._id_of(1, opens)), opens=opens)
    line = object_text(record)
    assert census_mod._RECORD_LINE.fullmatch(line)
    path = tmp_path / "census.txt"
    path.write_text(json.dumps({"format": CENSUS_FORMAT, "n": 1}) + "\n" + line + "\n")
    code, out, err = run_cli(capsys, "verify", "--census", str(path), "--suite", "prop-p1")
    assert (code, out) == (2, "")
    assert err.startswith("finitetop: error: line 2: malformed record")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("census", "--n", "0"), "n must be in 1..5 for the labeled census, got 0"),
        (("census", "--n", "6"), "n must be in 1..5 for the labeled census, got 6"),
        (
            ("census", "--n", "0", "--up-to-homeo"),
            "n must be in 1..6 for the census up to homeomorphism, got 0",
        ),
        (
            ("census", "--n", "7", "--up-to-homeo"),
            "n must be in 1..6 for the census up to homeomorphism, got 7",
        ),
        (("verify", "--n", "0"), "n must be in 1..5 for the labeled census, got 0"),
        (("verify", "--n", "6"), "n must be in 1..5 for the labeled census, got 6"),
    ],
)
def test_point_count_outside_the_census_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"finitetop: error: {message}\n")


# bytes a mutation writes: JSON punctuation, digits, the letters of the JSON
# literals, and two bytes that are not UTF-8
_FUZZ_BYTES = b'[]{}",:.- 0123456789aeflnrstu\n\x80\xff'


def _mutated(rng, data):
    """data with one to three bytes replaced, deleted or inserted."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out))
        edit = rng.randrange(3)
        if edit == 0:
            out[i] = rng.choice(_FUZZ_BYTES)
        elif edit == 1:
            del out[i]
        else:
            out.insert(i, rng.choice(_FUZZ_BYTES))
    return bytes(out)


def test_mutated_inputs_exit_0_or_2(capsys, tmp_path):
    # seeded byte mutations of a 3-point census file and of a space file;
    # a bad input is an error of the input, never of the program
    sink = io.StringIO()
    census_mod.write_census(census_mod.census_records(3), sink)
    commands = (
        (
            sink.getvalue().encode(),
            ("verify", "--census", "{}", "--suite", "prop-p1,thm-fm1"),
        ),
        (
            space_to_json(census_mod.labeled_census(4)[200]).encode(),
            ("inspect", "--space", "{}", "--complete", "--facets", "alpha,profile,g-closed,nodec"),
        ),
    )
    rng = random.Random(9)
    path = tmp_path / "input"
    codes = [Counter(), Counter()]
    for case in range(600):
        data, argv = commands[case % 2]
        path.write_bytes(_mutated(rng, data))
        code, _, err = run_cli(capsys, *(arg.format(path) for arg in argv))
        assert code in (0, 2), (argv[0], err)
        assert "internal error" not in err
        codes[case % 2][code] += 1
    # each command read some mutated input as valid
    assert all(counts[0] for counts in codes), codes


def test_internal_fault_exits_3(capsys, monkeypatch, tmp_path):
    # 1 means violations, so a fault of the program has its own code
    def fault(suite, spaces):
        raise RuntimeError("planted\nfault")

    monkeypatch.setattr(verifier, "run_suite", fault)
    path = tmp_path / "report.txt"
    argv = ("verify", "--n", "2", "--suite", "prop-p1", "--out", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == "finitetop: internal error: RuntimeError: planted fault\n"
    assert not path.exists()


def test_module_invocation_smoke(tmp_path):
    result = run_module(tmp_path, "census", "--n", "1")
    assert result.returncode == 0
    assert result.stdout.count("\n") == 2
