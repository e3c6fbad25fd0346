import json

import pytest

import properdiv as pd
from properdiv.cli import main, parse_descriptor


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


def test_homology_parse_error(capsys):
    code, _, err = run(capsys, "homology", "pdiv", "wat")
    assert code == 2
    assert "error" in err


def test_homology_guard_exit(capsys):
    code, _, err = run(capsys, "homology", "bool", "14")
    assert code == 3
    assert "guard" in err


def test_homology_long_chain_hits_face_guard(capsys, monkeypatch):
    # P(1500) is a chain: one maximal chain longer than the recursion
    # limit, and a 1499-vertex simplex far beyond the face guard
    monkeypatch.delenv("PROPERDIV_GUARD_FACES", raising=False)
    code, _, err = run(capsys, "homology", "pdiv", "1500")
    assert code == 3
    assert err.strip() == "error: face-count guard 2000000 exceeded"


def test_homology_file_with_repeated_index(capsys, tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("elements: 2\n0 a\n0 b\ncovers:\n0<1\n")
    code, _, err = run(capsys, "homology", "file", str(path))
    assert code == 2
    assert "given twice" in err


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


def test_falling_usage_error(capsys):
    code, _, err = run(capsys, "falling", "5", "3")
    assert code == 2


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


def test_verify_mutation_harness(capsys):
    code, out, _ = run(capsys, "verify", "--a-max", "3", "--b-max", "3", "--corrupt")
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
