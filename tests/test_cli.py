import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import properdiv as pd
from properdiv.cli import main, parse_descriptor

from strategies import bounded_posets


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- descriptors ----------------------------------------------------------------


def test_parse_descriptor_kinds(tmp_path):
    assert len(parse_descriptor(["pdiv", "3,3"])) == 10
    assert len(parse_descriptor(["bool", "3"])) == 8
    assert len(parse_descriptor(["prod", "bool 2", "bool 2"])) == 10
    path = tmp_path / "poset.txt"
    path.write_text(pd.chain(2).to_text())
    assert len(parse_descriptor(["file", str(path)])) == 3
    nested = parse_descriptor(["prod", 'prod "bool 1" "bool 1"', "bool 1"])
    assert nested.is_bounded


def test_parse_descriptor_errors():
    for bad in (["pdiv"], ["bool", "x"], ["prod", "bool 2"], ["nope", "1"], ["pdiv", "3,3", "extra"]):
        with pytest.raises(ValueError):
            parse_descriptor(bad)


# -- homology -------------------------------------------------------------------


def test_homology_p33_reduced(capsys):
    code, out, _ = run(capsys, "homology", "pdiv", "3,3", "--reduced")
    assert code == 0
    assert out.strip() == "betti (reduced): 0 0"


def test_homology_empty_flag(capsys):
    code, out, _ = run(capsys, "homology", "pdiv", "1,1", "--reduced")
    assert code == 0
    assert "empty complex" in out


def test_homology_json_and_torsion(capsys):
    code, out, _ = run(capsys, "homology", "pdiv", "4,4", "--reduced", "--torsion", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "reduced": True,
        "betti": [0, 4, 0],
        "torsion": [[], [], []],
        "empty": False,
    }


def test_homology_product_row(capsys):
    code, out, _ = run(capsys, "homology", "prod", "bool 2", "bool 2")
    assert code == 0
    assert out.strip() == "betti (non-reduced): 8"


def test_homology_table_row_via_cli(capsys):
    code, out, _ = run(capsys, "homology", "prod", "bool 2", "bool 6")
    assert code == 0
    assert out.strip() == "betti (non-reduced): 15 30 40 30 13"


def test_homology_csv(capsys):
    code, out, _ = run(capsys, "homology", "pdiv", "4,4", "--csv")
    assert code == 0
    assert out.strip() == "1,4,0"


def test_homology_csv_refuses_torsion(capsys):
    # CSV has no place for torsion; it used to print the Betti line alone
    code, out, err = run(capsys, "homology", "pdiv", "3,3", "--csv", "--torsion")
    assert code == 2
    assert out == ""
    assert "--csv prints only Betti numbers" in err


@pytest.mark.parametrize("command", [["homology", "pdiv", "3,3"], ["table"]])
def test_json_and_csv_are_mutually_exclusive(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--json", "--csv"])
    assert exc.value.code == 2
    assert "--csv: not allowed with argument --json" in capsys.readouterr().err


def _rp2_face_poset_text():
    """Poset file of the faces of the 6-vertex RP^2, with a bottom and a top."""
    rp2 = pd.SimplicialComplex(
        range(6),
        [
            (0, 1, 2), (0, 2, 3), (0, 1, 5), (0, 4, 5), (0, 3, 4),
            (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 5), (2, 4, 5),
        ],
    )
    faces = [f for level in rp2.faces_by_dim() for f in level]
    index = {f: k + 1 for k, f in enumerate(faces)}
    top = len(faces) + 1
    ups = [[] for _ in range(top + 1)]
    for f in faces:
        if len(f) == 1:
            ups[0].append(index[f])
        else:
            for j in range(len(f)):
                ups[index[f[:j] + f[j + 1 :]]].append(index[f])
    for f in rp2.facets:
        ups[index[f]].append(top)
    labels = ["bottom"] + ["".join(map(str, f)) for f in faces] + ["top"]
    return pd.Poset(labels, ups).to_text()


# stdout of the program, pinned across every change to how homology() answers
GOLDEN_DIR = Path(__file__).parent / "golden"

# argv after `homology`, unless it starts with `rao`
GOLDEN = [
    (
        ["pdiv", "5,7", "--torsion", "--json"],
        '{"reduced": false, "betti": [1, 4, 16, 0, 0, 0], '
        '"torsion": [[], [], [], [], [], []], "empty": false}\n',
    ),
    (["pdiv", "3,3", "--reduced"], "betti (reduced): 0 0\n"),
    (["pdiv", "7,8", "--torsion"], "betti (non-reduced): 1 4 34 50 0 0 0\ntorsion: none\n"),
    (["prod", "bool 2", "bool 6"], "betti (non-reduced): 15 30 40 30 13\n"),
    (["file", "RP2", "--reduced", "--torsion"], "betti (reduced): 0 0 0\ntorsion in degree 1: 2\n"),
    # the whole certificate, so that the search's choice of orderings is pinned
    (
        ["rao", "pdiv", "4,4", "--search", "--dual"],
        (GOLDEN_DIR / "rao_pdiv_4_4_search_dual.txt").read_text(),
    ),
    (["rao", "--dual-lex", "3,3,3"], (GOLDEN_DIR / "rao_dual_lex_3_3_3.txt").read_text()),
]


@pytest.mark.parametrize(
    "argv, stdout", GOLDEN, ids=[" ".join(argv) for argv, _ in GOLDEN]
)
def test_homology_output_is_golden(capsys, tmp_path, argv, stdout):
    if argv[0] == "file":
        path = tmp_path / "rp2.txt"
        path.write_text(_rp2_face_poset_text())
        argv = ["file", str(path)] + argv[2:]
    if argv[0] != "rao":
        argv = ["homology"] + argv
    assert run(capsys, *argv) == (0, stdout, "")


def test_homology_parse_error(capsys):
    code, _, err = run(capsys, "homology", "pdiv", "wat")
    assert code == 2
    assert "error" in err


def test_homology_guard_exit(capsys):
    # B14 builds, but its 16,384 bitmasks skip the walk and its 14! maximal
    # chains are counted past the face guard; B17 is refused before it is built
    code, _, err = run(capsys, "homology", "bool", "14")
    assert (code, err) == (3, "error: more than 2000000 maximal chains\n")
    code, _, err = run(capsys, "homology", "bool", "17")
    assert (code, err) == (3, "error: B17 would have 1114112 covers (guard 1000000)\n")


def test_homology_long_chain_answers_from_its_certificate(capsys, monkeypatch):
    # P(1500) is a chain: one maximal chain longer than the recursion limit,
    # and a 1499-vertex simplex whose faces are far beyond the face guard.
    # Its walk fits the guard (35,203 mask words, 1,127,251 count slots),
    # so the certificate answers and no face is closed.
    monkeypatch.delenv("PROPERDIV_GUARD_FACES", raising=False)
    assert pd.order_complex(pd.proper_divisibility_poset((1500,)))._certified_betti is not None
    code, out, err = run(capsys, "homology", "pdiv", "1500", "--reduced")
    assert (code, err) == (0, "")
    assert out == "betti (reduced): " + " ".join(["0"] * 1499) + "\n"


def test_homology_pdiv_60_60_answers_from_its_walk(capsys, monkeypatch):
    # 3,601 elements: 202,612 mask words and 145,851 count slots, one row
    # per element, under the default guard; some 1.8e30 maximal chains
    monkeypatch.delenv("PROPERDIV_GUARD_FACES", raising=False)
    code, out, err = run(capsys, "homology", "pdiv", "60,60", "--reduced")
    assert (code, err) == (0, "")
    betti = [pd.formulas.betti_rank(60, 60, i) for i in range(59)]
    assert out == "betti (reduced): " + " ".join(map(str, betti)) + "\n"
    # the walk's masks alone exceed a guard of 200,000, and so do the chains
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "200000")
    code, out, err = run(capsys, "homology", "pdiv", "60,60", "--reduced")
    assert (code, out, err) == (3, "", "error: more than 200000 maximal chains\n")


def test_homology_face_guard_exit_without_dominated_vertex(capsys, monkeypatch):
    # the dual-lex certificate of B3 xp B3 fails, so its 120 maximal chains
    # pass the chain guard and its 168 faces, closed for the reduction, trip
    # the face guard
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "150")
    code, out, err = run(capsys, "homology", "prod", "bool 3", "bool 3")
    assert (code, out) == (3, "")
    assert err == "error: face-count guard 150 exceeded\n"
    # B2 xp B6 (3,194 chains, 14,048 faces) is certified: its walk (564 mask
    # words; 756 count slots in full rows, 49 partial rows with their masks
    # 356 more) is all the face guard must pass
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "5000")
    code, out, err = run(capsys, "homology", "prod", "bool 2", "bool 6")
    assert (code, out, err) == (0, "betti (non-reduced): 15 30 40 30 13\n", "")


def test_homology_file_with_repeated_index(capsys, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("elements: 2\n0 a\n0 b\ncovers:\n0<1\n")
    code, _, err = run(capsys, "homology", "file", str(path))
    assert code == 2
    assert "given twice" in err


def test_rao_search_refuses_repeated_labels(capsys, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("elements: 4\n0 b\n1 x\n2 x\n3 t\ncovers:\n0 < 1\n0 < 2\n1 < 3\n2 < 3\n")
    code, out, err = run(capsys, "rao", "--search", "file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: label 'x' is given to more than one element\n"


def test_malformed_poset_files_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    for text in (
        "elements: 2\n0 a\n1 b\ncovers:\n-1 < 0\n",
        "elements: 2\n0 a\n1 b\ncovers:\n7 < 0\n",
        "elements: -1\ncovers:\n0 < 1\n",
        "elements: 20000000\ncovers:\n0 < 1\n",
    ):
        path.write_text(text)
        for argv in (["homology", "file", str(path)], ["rao", "--search", "file", str(path)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), (text, argv)
            assert err.startswith("error: ") and err.count("\n") == 1, (text, argv)


# -- falling --------------------------------------------------------------------


def test_falling_counts(capsys):
    code, out, _ = run(capsys, "falling", "2", "9", "--count-only")
    assert code == 0
    assert out.strip() == "length 2: 2"
    code, out, _ = run(capsys, "falling", "3", "3", "--count-only")
    assert code == 0
    assert out.strip() == ""
    code, out, _ = run(capsys, "falling", "4", "4", "--count-only")
    assert code == 0
    assert out.strip() == "length 3: 4"


def test_falling_listing_and_json(capsys):
    code, out, _ = run(capsys, "falling", "2", "3")
    assert code == 0
    assert out.splitlines() == ["(2,3) (1,0) (0,0)", "(2,3) (1,1) (0,0)"]
    code, out, _ = run(capsys, "falling", "2", "3", "--json")
    assert json.loads(out) == [
        [[2, 3], [1, 0], [0, 0]],
        [[2, 3], [1, 1], [0, 0]],
    ]


def test_falling_length_bounds_the_walk(capsys):
    # the walk stops at the asked length instead of walking every chain
    code, out, _ = run(capsys, "falling", "20", "20", "--count-only", "--length", "3")
    assert (code, out) == (0, "length 3: 4\n")


def test_falling_counts_need_no_walk(capsys, monkeypatch):
    want = "".join(
        f"length {i + 2}: {c}\n" for i in range(19) if (c := pd.formulas.betti_rank(20, 20, i))
    )
    assert run(capsys, "falling", "20", "20", "--count-only")[:2] == (0, want)
    # the chain guard bounds listings only
    monkeypatch.setattr(pd.posets, "DEFAULT_CHAIN_GUARD", 100)
    assert run(capsys, "falling", "20", "20", "--count-only")[:2] == (0, want)
    assert run(capsys, "falling", "20", "20", "--count-only", "--length", "9")[:2] == (
        0,
        "length 9: 5361216\n",
    )
    code, out, err = run(capsys, "falling", "20", "20", "--length", "20")
    assert (code, out) == (3, "")
    assert err == "error: more than 100 falling chains\n"


def test_falling_counts_match_the_listing(capsys):
    for a, b, length in [(2, 2, None), (5, 8, None), (6, 9, None), (6, 9, "4"), (7, 7, "9")]:
        extra = [] if length is None else ["--length", length]
        code, out, _ = run(capsys, "falling", str(a), str(b), "--json", *extra)
        listed = Counter(str(len(chain) - 1) for chain in json.loads(out))
        code, out, _ = run(capsys, "falling", str(a), str(b), "--count-only", "--json", *extra)
        assert code == 0
        assert out == json.dumps(dict(sorted(listed.items(), key=lambda kv: int(kv[0])))) + "\n"


def test_falling_usage_error(capsys):
    code, _, err = run(capsys, "falling", "5", "3")
    assert code == 2


def test_falling_refuses_a_negative_length(capsys):
    for extra in ([], ["--json"], ["--count-only"], ["--count-only", "--json"]):
        code, out, err = run(capsys, "falling", "3", "3", *extra, "--length", "-2")
        assert (code, out) == (2, "")
        assert err == "error: --length must be at least 0, got -2\n"
    with pytest.raises(ValueError, match="length must be at least 0"):
        pd.falling_chains(3, 3, length=-1)
    # no falling chain has 0 or 1 steps: valid, with an empty answer
    for length in ("0", "1"):
        assert run(capsys, "falling", "3", "3", "--length", length)[:2] == (0, "")
        assert run(capsys, "falling", "3", "3", "--count-only", "--length", length)[:2] == (0, "")
    assert pd.falling_chains(3, 3, length=0) == pd.falling_chains(4, 4, length=1) == []


@pytest.mark.parametrize(
    "argv", [["rao", "--dual-lex", "8,8"], ["falling", "9", "9"]], ids=" ".join
)
def test_closed_stdout_exits_quietly(argv):
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r, w = os.pipe()
    os.close(r)  # the reader is gone before the command writes anything
    try:
        done = subprocess.run(
            [sys.executable, "-m", "properdiv.cli", *argv],
            stdout=w,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (0, b"")


# -- rao ------------------------------------------------------------------------


def test_rao_search_p44_none(capsys):
    code, out, _ = run(capsys, "rao", "pdiv", "4,4", "--search")
    assert code == 0
    assert out.strip() == "none"


def test_rao_search_p44_dual(capsys):
    code, out, _ = run(capsys, "rao", "pdiv", "4,4", "--search", "--dual")
    assert code == 0
    cert = json.loads(out)
    assert len(cert["ordering"]) == 7


def test_rao_dual_lex(capsys):
    code, out, _ = run(capsys, "rao", "--dual-lex", "3,3,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verified: true"
    cert = json.loads(lines[0])
    assert cert["ordering"][0] == [2, 2, 2]


def test_rao_dual_lex_deeper_than_recursion_limit(capsys):
    # the certificate nests 1200 levels deep and spells out
    # (b - 1) b / 2 + b + 1 nodes for b = 1200
    code, out, err = run(capsys, "rao", "--dual-lex", "2,1200")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[-1] == "verified: true"
    assert lines[0].startswith('{"ordering": [[1, 1199], ')
    assert lines[0].count('"ordering"') == 1199 * 1200 // 2 + 1201


def test_rao_dual_lex_tree_guard(capsys):
    code, out, err = run(capsys, "rao", "--dual-lex", "20,20")
    assert code == 3
    assert out == ""
    assert err == "error: certificate tree has 5414619738 nodes (guard 1000000)\n"


def test_rao_dual_lex_mask_guard(capsys, monkeypatch):
    # the verifier holds bitmasks of 17 bits for the 17 elements of P(4, 4),
    # 17**2 // 64 = 4 words; it refuses before building one, after the
    # certificate is written
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "3")
    code, out, err = run(capsys, "rao", "--dual-lex", "4,4")
    assert code == 3 and "verified" not in out
    assert err == "error: face-count guard 3 exceeded by the bitmasks of 17 elements\n"
    monkeypatch.setenv("PROPERDIV_GUARD_FACES", "4")
    code, out, err = run(capsys, "rao", "--dual-lex", "4,4")
    assert (code, err) == (0, "") and out.endswith("\nverified: true\n")


def test_homology_guard_counts_cover_candidates(capsys):
    # about 10**6 elements but 10**9 candidate covers
    code, out, err = run(capsys, "homology", "pdiv", "999,999")
    assert code == 3 and out == ""
    assert err == (
        "error: product would have 994014986 candidate covers (guard 1000000)\n"
    )


def test_rao_requires_mode(capsys):
    code, _, err = run(capsys, "rao", "pdiv", "2,2")
    assert code == 2


@pytest.mark.parametrize(
    "extra",
    [["pdiv", "4,4", "--search"], ["pdiv", "4,4"], ["--search"], ["--dual"]],
)
def test_rao_dual_lex_refuses_other_arguments(capsys, extra):
    code, out, err = run(capsys, "rao", *extra, "--dual-lex", "2,2")
    assert code == 2 and out == ""
    assert err == "error: rao --dual-lex takes no descriptor, --search or --dual\n"


# -- verify -----------------------------------------------------------------------


def test_verify_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--a-max", "4", "--b-max", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("pass") for line in lines)


def test_verify_default_range(capsys):
    code, out, _ = run(capsys, "verify", "--a-max", "6", "--b-max", "6")
    assert code == 0
    assert all(line.startswith("pass") for line in out.strip().splitlines())


def test_verify_smallest_region(capsys):
    code, out, _ = run(capsys, "verify", "--a-max", "2", "--b-max", "2")
    assert code == 0


def test_verify_mutation_harness(capsys, monkeypatch):
    betti_rank = pd.formulas.betti_rank
    monkeypatch.setattr(
        pd.formulas,
        "betti_rank",
        lambda a, b, i: betti_rank(a, b, i) + ((a, b, i) == (2, 2, 0)),
    )
    code, out, _ = run(capsys, "verify", "--a-max", "3", "--b-max", "3")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out


# -- table ------------------------------------------------------------------------

# the full table command is exercised by the acceptance suite; here only the
# row bookkeeping is checked against one recomputed product
def test_table_first_row_values():
    from properdiv.cli import REFERENCE_TABLE

    i, j, expected = REFERENCE_TABLE[0]
    summary = pd.homology(
        pd.order_complex(
            pd.proper_product(pd.boolean_lattice(i), pd.boolean_lattice(j))
        ),
        reduced=False,
        torsion=False,
    )
    assert summary.betti == expected


def test_table_formatting_and_exit(capsys, monkeypatch):
    import properdiv.cli as cli

    # the order complex of B1 xp B2 is two isolated points
    monkeypatch.setattr(cli, "REFERENCE_TABLE", ((1, 2, (2,)),))
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "match: yes" in out
    code, out, _ = run(capsys, "table", "--json")
    assert json.loads(out)[0]["match"] is True
    monkeypatch.setattr(cli, "REFERENCE_TABLE", ((1, 2, (9, 9)),))
    code, out, _ = run(capsys, "table")
    assert code == 1
    assert "match: NO" in out
    # the former no-op --paper-table flag is now a usage error
    with pytest.raises(SystemExit) as exc:
        main(["table", "--paper-table"])
    assert exc.value.code == 2


def test_outputs_deterministic(capsys):
    first = run(capsys, "falling", "4", "6", "--json")
    second = run(capsys, "falling", "4", "6", "--json")
    assert first == second
    a = run(capsys, "homology", "pdiv", "5,6", "--reduced", "--torsion", "--json")
    b = run(capsys, "homology", "pdiv", "5,6", "--reduced", "--torsion", "--json")
    assert a == b


# -- fuzzing --------------------------------------------------------------------

_BAD_TOKENS = ["", "x", "-1", "3,,3", "1e3", "99999999", "pdiv", "bool", "prod", "file"]
_JUNK_LINES = ["elements: x", "covers:", "0 < 0", "1 < 0", "x < y", "<", "0 x", "bottom: 9", "top: -1"]


@st.composite
def _descriptors(draw, nested=True):
    """Descriptor tokens of the CLI grammar, small, some of them malformed.

    ``FILE`` stands for the path of the poset text file written by the test.
    """
    # files twice as often as the other kinds: their text is drawn too
    kinds = ["pdiv", "bool", "file", "file", "bad"] + (["prod"] if nested else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "pdiv":
        entries = st.integers(0, 4).map(str)
        coords = draw(st.lists(entries, min_size=1, max_size=3 if nested else 2))
        return ["pdiv", ",".join(coords)]
    if kind == "bool":
        return ["bool", str(draw(st.integers(0, 4)))]
    if kind == "file":
        return ["file", draw(st.sampled_from(["FILE", "FILE.missing"]))]
    if kind == "prod":
        left, right = draw(_descriptors(nested=False)), draw(_descriptors(nested=False))
        return ["prod", shlex.join(left), shlex.join(right)]
    return draw(st.lists(st.sampled_from(_BAD_TOKENS), min_size=1, max_size=3))


@st.composite
def _poset_files(draw):
    """(text, clean, bad): a random bounded poset's text, possibly mutated.

    ``clean`` when the text is unchanged; ``bad`` when a mutation makes it
    malformed by construction: a cover index outside [0, n) or an element
    count that is negative or exceeds the lines that follow.
    """
    p = draw(bounded_posets(max_mid=3))
    n = len(p)
    lines = p.to_text().splitlines()
    kinds = ["junk", "drop", "cover", "count"]
    mutations = draw(st.lists(st.sampled_from(kinds), max_size=3))
    bad = False
    # the mutations that make a file bad come last, so none undoes them
    for kind in sorted(mutations, key=kinds.index):
        if kind in ("junk", "drop"):
            k = draw(st.integers(0, len(lines) - 1))
            if kind == "junk":
                lines[k] = draw(st.sampled_from(_JUNK_LINES))
            elif len(lines) > 1:
                del lines[k]
        elif kind == "cover":
            i, j = draw(st.integers(-3, n + 3)), draw(st.integers(-3, n + 3))
            lines.append(f"{i} < {j}")
            bad = bad or not (0 <= i < n and 0 <= j < n)
        else:
            lines[0] = f"elements: {draw(st.sampled_from([-1, len(lines), 20_000_000]))}"
            bad = True
    return "\n".join(lines) + "\n", not mutations, bad


@given(
    command=st.sampled_from(
        [["homology"], ["homology", "--reduced", "--torsion"], ["homology", "--json"],
         ["rao", "--search"], ["rao", "--search", "--dual"]]
    ),
    descriptor=_descriptors(),
    poset_file=_poset_files(),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_cli_fuzz_exit_codes(capsys, tmp_path, command, descriptor, poset_file):
    text, clean, bad = poset_file
    path = tmp_path / "poset.txt"
    path.write_text(text)
    argv = command + [tok.replace("FILE", str(path)) for tok in descriptor]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert (code == 0) == (err == ""), err
    if descriptor == ["file", "FILE"]:
        if bad:
            assert code == 2, (text, err)
        elif clean:
            assert code == 0, (text, err)
