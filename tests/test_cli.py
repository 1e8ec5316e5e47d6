"""Command-line interface: subcommands, formats, and exit codes."""

import contextlib
import copy
import errno
import functools
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tcreal
from tcreal import cli
from tcreal.cli import main
from tcreal.degseq import DegreeSequence
from tcreal.graphstore import GraphError, LabeledMultigraph
from tcreal.realize import realize_tc

from conftest import LARGE_FAMILIES, live_incidence, to_json_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check ----------------------------------------------------------------


def test_check_realizable(capsys):
    code, out, _ = run(capsys, "check", "2", "2", "2", "2")
    assert code == 0
    assert "realizable=yes" in out
    assert "reason=OkC4Pivotable" in out


def test_check_not_realizable(capsys):
    code, out, _ = run(capsys, "check", "0", "0")
    assert code == 1
    assert "realizable=no" in out


def test_check_parse_error(capsys):
    code, _, err = run(capsys, "check", "2", "x", "2")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("token", ["1_0", "\u0663", "+3", "-0", "3.0"])
def test_check_rejects_non_ascii_digit_tokens(capsys, token):
    code, out, err = run(capsys, "check", *["2"] * 10_000, token, "x")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")
    assert err.rstrip().endswith(repr(token))
    assert len(err) < 100


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "--format", "json", "3,3,3,3")
    assert code == 0
    report = json.loads(out)
    assert report["sequence"] == [3, 3, 3, 3]
    assert report["realizable"] is True
    assert report["reason"] == "OkTwoEdgeDisjoint"


def test_check_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 2 2 2\n0 0\n"))
    code, out, _ = run(capsys, "check")
    assert code == 1  # one of the sequences is not realizable
    assert out.count("\n") == 2


def test_check_multi_mode(capsys):
    code, out, _ = run(capsys, "check", "--mode", "multi", "4,2,2,2,2")
    assert code == 0
    code, _, _ = run(capsys, "check", "--mode", "simple", "4,2,2,2,2")
    assert code == 1


def test_check_report_lines_keep_their_layout(capsys, monkeypatch):
    import random

    rng = random.Random(4)
    seqs = [[], [5], list(range(40, 0, -1)) + [7] * 9,
            [rng.randrange(2000) for _ in range(2000)], [0, 0, 3]]
    stdin = ",\n" + "".join(" ".join(map(str, s)) + "\n" for s in seqs[1:])
    lines = {}
    for fmt in ("json", "text"):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        _, out, _ = run(capsys, "check", "--format", fmt)
        lines[fmt] = out.splitlines()
    assert len(lines["json"]) == len(lines["text"]) == len(seqs)
    for values, line, text in zip(seqs, lines["json"], lines["text"]):
        report = json.loads(line)
        assert json.dumps(report) == line
        assert report["sequence"] == sorted(values, reverse=True)
        layout = "  ".join([
            f"sequence={' '.join(str(v) for v in report['sequence'])}",
            f"mode={report['mode']}",
            f"realizable={'yes' if report['realizable'] else 'no'}",
            f"reason={report['reason']}",
            f"n={report['n']}", f"m={report['m']}",
        ])
        assert text.rsplit("  ms=", 1)[0] == layout


# -- build ----------------------------------------------------------------


def test_build_json_document(capsys):
    code, out, _ = run(capsys, "build", "3", "3", "3", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert len(doc["edges"]) == 6
    assert all(e["label"] >= 1 for e in doc["edges"])
    trees = {e["tree"] for e in doc["edges"]}
    assert trees <= {"t1", "t2", "both", "none"}


def test_build_not_realizable(capsys):
    code, out, _ = run(capsys, "build", "1", "1", "1")
    assert code == 1
    assert json.loads(out)["reason"] == "NotGraphical"


def test_build_multi_boundary(capsys):
    code, out, _ = run(capsys, "build", "--mode", "multi", "4,2,2,2,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "multi"
    assert doc["central_cycle"] is not None


def test_build_dot_output(capsys):
    code, out, _ = run(capsys, "build", "--format", "dot", "2,2,2,2")
    assert code == 0
    assert out.startswith("graph G {")
    assert "--" in out


def test_build_out_file_and_report(capsys, tmp_path):
    path = tmp_path / "graph.json"
    code, out, _ = run(
        capsys, "build", "--format", "json", "--out", str(path),
        "3", "3", "3", "3",
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificate"] == "two-edge-disjoint"
    assert report["shared_edges"] == 0
    g = LabeledMultigraph.from_json(path.read_text())
    assert g.n == 4


def test_build_writes_the_indented_document(capsys, tmp_path):
    for seq, mode in [("3 3 3 3", "simple"), ("4 2 2 2 2", "multi"),
                      ("5 3 3 3 3 3 3 3", "simple")]:
        g = realize_tc(DegreeSequence([int(x) for x in seq.split()]), mode).graph
        expected = json.dumps(to_json_dict(g), indent=2) + "\n"
        path = tmp_path / "g.json"
        code, _, _ = run(capsys, "build", "--mode", mode, "--out", str(path), seq)
        assert code == 0
        assert path.read_text(encoding="utf-8") == expected
        code, out, _ = run(capsys, "build", "--mode", mode, seq)
        assert code == 0
        assert out == expected


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_build_streams_the_same_bytes_to_out_and_stdout(capsys, tmp_path, fmt):
    # 10k vertices and ~20k edges: several of the writers' blocks.
    seq = " ".join(map(str, LARGE_FAMILIES["gate"](10_000)))
    path = tmp_path / "g.out"
    code, _, _ = run(capsys, "build", "--format", fmt, "--out", str(path), seq)
    assert code == 0
    code, out, _ = run(capsys, "build", "--format", fmt, seq)
    assert code == 0
    assert path.read_text(encoding="utf-8") == out
    if fmt == "json":
        g = realize_tc(DegreeSequence([int(x) for x in seq.split()]), "simple").graph
        assert out == json.dumps(to_json_dict(g), indent=2) + "\n"


def test_build_rejects_an_unwritable_out_path(capsys, tmp_path):
    missing = tmp_path / "missing" / "g.json"
    for path, err_no in ((missing, errno.ENOENT), (tmp_path, errno.EISDIR)):
        code, out, err = run(capsys, "build", "--out", str(path), "3", "3", "3", "3")
        assert code == 2
        assert out == ""
        assert err == f"cannot write {path}: {os.strerror(err_no)}\n"
    assert not missing.parent.exists()


def test_build_exits_quietly_when_the_reader_closes_stdout(tmp_path):
    # As in `tcreal build --no-verify < seq | head -c 100`: the document
    # is ~15 MB, far more than a pipe buffers.
    seq = tmp_path / "seq.txt"
    seq.write_text(" ".join(map(str, LARGE_FAMILIES["gate"](50_000))) + "\n")
    src = os.path.dirname(os.path.dirname(tcreal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    with open(seq) as stdin:
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from tcreal.cli import main; sys.exit(main())",
             "build", "--no-verify"],
            stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
    assert head.startswith(b'{\n  "mode": "simple",\n  "n": 50000,')


def test_build_no_verify_still_builds(capsys):
    code, out, _ = run(capsys, "build", "--no-verify", "2,2,2,2")
    assert code == 0
    assert json.loads(out)["n"] == 4


def test_build_self_verify_failure_names_the_reason(capsys, monkeypatch):
    result = realize_tc(DegreeSequence([2, 2, 2, 2]), "simple")
    g = result.graph
    e, f = live_incidence(g)[0]
    g.elabel[f] = g.elabel[e]
    monkeypatch.setattr("tcreal.cli.realize_tc", lambda d, mode: result)
    code, out, err = run(capsys, "build", "2,2,2,2")
    assert code == 3
    assert out == ""
    assert err == (
        "internal error: self-verification failed: "
        f"edges {e} and {f} at vertex 0 share label {g.elabel[e]}\n"
    )


def test_build_reports_a_library_graph_error_as_internal(capsys, monkeypatch):
    # GraphError subclasses ValueError, yet it is an internal fault (exit 3),
    # not an input error (exit 2).
    def fail(d, mode):
        raise GraphError("no available vertex of degree 7")

    monkeypatch.setattr("tcreal.cli.realize_tc", fail)
    code, out, err = run(capsys, "build", "4", "4", "4", "4", "2", "2")
    assert code == 3
    assert out == ""
    assert err == "internal error: no available vertex of degree 7\n"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    build = cli._build_parser.__wrapped__

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", functools.cache(counted))
    outputs = []
    for _ in range(2):
        code, out, err = run(capsys, "check", "--format", "json", "3", "3", "3", "3")
        report = json.loads(out)
        del report["ms"]  # the call's own timing
        outputs.append((code, report, err))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert len(built) == 1
    # An argparse rejection after a good call reads as from a new parser.
    rejected = []
    for parse in (main, build().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse(["check", "--mode", "bogus", "3"])
        rejected.append((exc.value.code, capsys.readouterr().err))
    assert rejected[0] == rejected[1] and rejected[0][0] == 2
    assert "invalid choice: 'bogus'" in rejected[0][1]
    assert len(built) == 1


# -- verify ---------------------------------------------------------------


def test_build_verify_roundtrip(capsys, tmp_path):
    for seq, mode in [("3 3 3 3", "simple"), ("4 2 2 2 2", "multi"),
                      ("3 3 3 3 3 3", "simple")]:
        path = tmp_path / "g.json"
        code, _, _ = run(
            capsys, "build", "--mode", mode, "--out", str(path), seq
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0, out
        assert "OK" in out


def test_verify_detects_improper_labels(capsys, tmp_path):
    doc = {
        "mode": "simple",
        "n": 4,
        "edges": [
            {"id": 0, "u": 0, "v": 1, "tree": "none", "label": 1},
            {"id": 1, "u": 1, "v": 2, "tree": "none", "label": 1},
            {"id": 2, "u": 2, "v": 3, "tree": "none", "label": 2},
            {"id": 3, "u": 3, "v": 0, "tree": "none", "label": 2},
        ],
        "central_cycle": None,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == "FAIL properness: edges 0 and 1 at vertex 1 share label 1\n"


def test_verify_witness_names_the_built_document_ids(capsys, tmp_path):
    # The build deletes edges on its way; the document's ids must still
    # be the numbers verify's witnesses use.
    path = tmp_path / "g.json"
    code, _, _ = run(capsys, "build", "--out", str(path),
                     "4 4 4 4 4 4 4 4 4 4 4 4 2 2")
    assert code == 0
    doc = json.loads(path.read_text())
    first, last = doc["edges"][1], doc["edges"][-1]
    (v,) = {first["u"], first["v"]} & {last["u"], last["v"]}
    last["label"] = first["label"]
    path.write_text(json.dumps(doc, indent=2))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == (f"FAIL properness: edges {first['id']} and {last['id']} "
                   f"at vertex {v} share label {first['label']}\n")
    assert [rec["id"] for rec in doc["edges"]] == list(range(len(doc["edges"])))


def test_verify_detects_unreachable_pair(capsys, tmp_path):
    doc = {
        "mode": "simple",
        "n": 3,
        "edges": [
            {"id": 0, "u": 0, "v": 1, "tree": "none", "label": 2},
            {"id": 1, "u": 1, "v": 2, "tree": "none", "label": 1},
        ],
        "central_cycle": None,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out == "FAIL temporal connectivity: no journey from 0 to 2\n"


def test_verify_rejects_malformed_file(capsys, tmp_path):
    doc = {
        "mode": "simple",
        "n": 2,
        "edges": [
            {"id": 0, "u": 0, "v": 9, "tree": "none", "label": 1},
        ],
        "central_cycle": None,
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2


def triangle_document(labels, n=3, endpoints=((0, 1), (1, 2), (2, 0))):
    return {
        "mode": "simple",
        "n": n,
        "edges": [{"id": i, "u": u, "v": v, "tree": "none", "label": lab}
                  for i, ((u, v), lab) in enumerate(zip(endpoints, labels))],
        "central_cycle": None,
    }


@pytest.mark.parametrize("doc", [
    triangle_document([True, 2, 3]),
    triangle_document([1, 2.7, 3]),
    triangle_document([1, 2, "3"]),
    triangle_document([1.9, 2.5, 3.7]),
    triangle_document([1, 2, 3], n=-5),
    triangle_document([1, 2, 3], n=2.9, endpoints=((0, 1), (1, 2.0), (2, 0))),
], ids=["bool-label", "float-label", "string-label", "all-float-labels",
        "negative-n", "float-n-and-endpoint"])
def test_verify_rejects_coerced_values(capsys, tmp_path, doc):
    path = tmp_path / "coerced.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot load graph: ")


@pytest.mark.parametrize("mode, expected", [
    ("simple", (2, "", "cannot load graph: parallel edge (1, 0) in simple mode\n")),
    ("multi", (0, "OK: labeling is simple, proper, and temporally connected\n", "")),
], ids=["simple", "multi"])
def test_verify_rejects_parallel_edges_in_simple_mode_only(capsys, tmp_path, mode, expected):
    doc = triangle_document([1, 2, 3], endpoints=((0, 1), (1, 2), (1, 0)))
    doc["mode"] = mode
    for rec, tree in zip(doc["edges"], ("t1", "both", "t2")):
        rec["tree"] = tree  # two spanning trees, so the certificate holds
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(path)) == expected


@pytest.mark.parametrize("trees, expected", [
    ({1: "none"}, "tree 1 has 4 edges, a spanning tree needs 5"),
    ({7: "none", 6: "both"}, "tree 1 edge 6 (3, 4) closes a cycle"),
], ids=["tree-edge-dropped", "tree-cycle"])
def test_verify_rejects_broken_trees(capsys, tmp_path, trees, expected):
    # The labels stay as built, so the document is still simple, proper
    # and temporally connected; only its certificate is broken.
    path = tmp_path / "g.json"
    assert run(capsys, "build", "--out", str(path), "3 3 3 3 3 3")[0] == 0
    assert run(capsys, "verify", str(path))[0] == 0
    doc = json.loads(path.read_text())
    for e, tree in trees.items():
        doc["edges"][e]["tree"] = tree
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(path)) == (1, f"FAIL certificate: {expected}\n", "")


def test_verify_rejects_deeply_nested_json(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("cannot load graph: invalid JSON: ")


@pytest.mark.parametrize("data, expected", [
    (b"\xff\xfe{}", "cannot load graph: 'utf-8' codec can't decode byte 0xff"),
    (b'{"mode": "simple", "n": ' + b"1" * 5000 + b', "edges": []}',
     "cannot load graph: invalid JSON: "),
], ids=["not-utf-8", "integer-over-digit-limit"])
def test_verify_reports_unreadable_documents_as_load_errors(capsys, tmp_path, data, expected):
    path = tmp_path / "unreadable.json"
    path.write_bytes(data)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(expected)


# Integers stay small: a document's n is allocated up front, and capping
# it is a separate open item.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["simple", "multi", "t1", "t2", "both", "none"]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(["mode", "n", "edges", "central_cycle", "id", "u",
                         "v", "tree", "label"]) | st.text(max_size=3),
        children, max_size=5),
    max_leaves=12,
)
VALID_DOCS = [
    to_json_dict(realize_tc(DegreeSequence(values), mode).graph)
    for values, mode in [([3] * 6, "simple"), ([4, 2, 2, 2, 2], "multi")]
]


@st.composite
def mutated_documents(draw):
    """A valid document with a few fields replaced or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        edges = doc.get("edges")
        if draw(st.booleans()) and type(edges) is list and edges and all(
                type(rec) is dict for rec in edges):
            obj = draw(st.sampled_from(edges))
            key = draw(st.sampled_from(["id", "u", "v", "tree", "label"]))
        else:
            obj = doc
            key = draw(st.sampled_from(["mode", "n", "edges", "central_cycle"]))
        if draw(st.booleans()):
            obj.pop(key, None)
        else:
            obj[key] = draw(JSON_VALUES)
    return doc


@st.composite
def document_texts(draw):
    """Random JSON, mutated documents, and documents with text cut out
    or spliced in."""
    kind = draw(st.sampled_from(["value", "document", "text"]))
    if kind == "value":
        return json.dumps(draw(JSON_VALUES))
    if kind == "document":
        return json.dumps(draw(mutated_documents()))
    text = json.dumps(draw(st.sampled_from(VALID_DOCS)))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    return text[:i] + draw(st.text(alphabet='[]{}",:0123456789-.e ', max_size=4)) + text[j:]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document_texts())
def test_verify_fuzz_never_crashes(tmp_path, text):
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        assert out.getvalue().startswith("OK")
        assert all(type(rec["label"]) is int for rec in json.loads(text)["edges"])
    else:
        assert not out.getvalue().startswith("OK")


# -- oracle ---------------------------------------------------------------


def test_oracle_sweep_agrees(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "4", "--mode", "simple")
    assert code == 0
    assert "0 disagreements" in out


def test_oracle_cap_enforced(capsys):
    code, _, err = run(capsys, "oracle", "--n", "9", "--mode", "simple")
    assert code == 2
    assert "cap" in err
    code, _, _ = run(capsys, "oracle", "--n", "6", "--mode", "multi")
    assert code == 2


def test_oracle_json_report(capsys):
    code, out, _ = run(
        capsys, "oracle", "--n", "3", "--mode", "multi", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["disagreements"] == []
    assert report["sequences_checked"] > 0


# -- bench ----------------------------------------------------------------


def test_bench_runs(capsys):
    code, out, _ = run(
        capsys, "bench", "--sizes", "1000,2000", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert [row["n"] for row in report["runs"]] == [1000, 2000]
    assert all(row["seconds"] >= 0 for row in report["runs"])


def test_bench_rejects_bad_sizes(capsys):
    code, _, err = run(capsys, "bench", "--sizes", "10,abc")
    assert code == 2


@pytest.mark.parametrize("mode,low", [("simple", 6), ("multi", 4)])
def test_bench_rejects_sizes_below_the_family_minimum(capsys, mode, low):
    # [4]*(n-2)+[2,2] is graphical only from n = 6; multigraphical from 4.
    for n in range(low - 2, low):
        code, out, err = run(capsys, "bench", "--mode", mode, "--sizes", str(n))
        assert code == 2, n
        assert f"at least {low} in {mode} mode" in err
        assert out == ""
    code, out, _ = run(capsys, "bench", "--mode", mode, "--sizes", str(low),
                       "--format", "json")
    assert code == 0
    assert [row["n"] for row in json.loads(out)["runs"]] == [low]


@pytest.mark.parametrize("sizes", ["99999999999999999999", "1000,99999999999999999999"])
def test_bench_rejects_sizes_beyond_an_index(capsys, sizes):
    # Larger than sys.maxsize: the family's list cannot be built at all.
    code, out, err = run(capsys, "bench", "--sizes", sizes)
    assert code == 2
    assert "at most" in err
    assert out == ""


@pytest.mark.parametrize("sizes", ["1_000", "+10", "10,-12", "1e3", "１０"])
def test_bench_sizes_take_ascii_digit_tokens_only(capsys, sizes):
    code, out, err = run(capsys, "bench", "--sizes", sizes)
    assert code == 2
    assert "bad token" in err
    assert out == ""


@pytest.mark.parametrize("sizes", ["", ",", " , ,"])
def test_bench_requires_a_size(capsys, sizes):
    code, out, err = run(capsys, "bench", "--sizes", sizes)
    assert code == 2
    assert "at least one size" in err
    assert out == ""
