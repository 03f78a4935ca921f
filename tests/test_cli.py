import contextlib
import hashlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from gdmagic.cli import _VERBS, run
from gdmagic.constructors import METHODS


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_groups():
    code, out, _ = _run(["groups", "8"])
    assert code == 0
    assert out.splitlines() == ["Z8", "Z4xZ2", "Z2xZ2xZ2"]
    code, out, _ = _run(["groups", "8", "--json"])
    assert json.loads(out) == {"order": 8,
                               "groups": ["Z8", "Z4xZ2", "Z2xZ2xZ2"]}


def test_construct():
    code, out, _ = _run(["construct", "Kb(2,3)"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "vertices: 5"
    assert lines[1] == "degrees: 3 3 2 2 2"
    code, out, _ = _run(["construct", "C(4)", "--json"])
    data = json.loads(out)
    assert data["vertices"] == 4 and len(data["edges"]) == 4


def test_construct_bad_expr():
    code, _, err = _run(["construct", "C(2)"])
    assert code == 2 and "error" in err


def test_label_product_certificate():
    code, out, _ = _run(["label", "--graph", "C(3)", "--h", "C(4)",
                         "--product", "lex", "--group", "Z4xZ3"])
    assert code == 0
    assert "# theorem: even-degrees-lex" in out
    assert "mu: (3,0)" in out
    assert "graph: lex(C(3),C(4))" in out


def test_label_round_trip(tmp_path):
    cert_path = tmp_path / "cert.txt"
    code, out, _ = _run(["label", "--graph", "C(3)", "--h", "C(4)",
                         "--group", "Z4xZ3", "--out", str(cert_path)])
    assert code == 0 and "wrote certificate" in out
    code, out, _ = _run(["verify", "--cert", str(cert_path)])
    assert code == 0 and "ok: mu (3,0)" in out

    tampered = cert_path.read_text().replace("mu: (3,0)", "mu: (1,0)")
    cert_path.write_text(tampered)
    code, out, _ = _run(["verify", "--cert", str(cert_path)])
    assert code == 1 and "rejected" in out


def test_verify_rejects_unreduced_coordinates(tmp_path):
    # these labels and mu, reduced mod 4, would form a magic labeling of C(4)
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("graph: C(4)\ngroup: Z4\nmu: (-1)\n"
                         "v 0 (4)\nv 1 (5)\nv 2 (7)\nv 3 (6)\n")
    code, out, err = _run(["verify", "--cert", str(cert_path)])
    assert code == 2 and out == ""
    assert "(-1)" in err and "out of range" in err
    cert_path.write_text("graph: C(4)\ngroup: Z4\nmu: (3)\n"
                         "v 0 (0)\nv 1 (1)\nv 2 (7)\nv 3 (2)\n")
    code, out, err = _run(["verify", "--cert", str(cert_path)])
    assert code == 2 and "(7)" in err


@pytest.mark.parametrize("field, first, second", [
    ("graph", "P(4)", "C(4)"),
    ("group", "Z2xZ2", "Z4"),
    ("mu", "(1)", "(3)"),
])
def test_verify_refuses_a_field_repeated_with_another_value(tmp_path, field,
                                                             first, second):
    # the labels are magic on C(4) over Z4 with mu (3); the field's first
    # line gives another value, its last line the one they fit
    lines = {"graph": "C(4)", "group": "Z4", "mu": "(3)"}
    lines[field] = first
    text = "".join(f"{key}: {value}\n" for key, value in lines.items())
    text += "v 0 (1)\nv 1 (0)\nv 2 (2)\nv 3 (3)\n" + f"{field}: {second}\n"
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(text)
    code, out, err = _run(["verify", "--cert", str(cert_path)])
    assert (code, out) == (2, "")
    assert f"certificate has two '{field}' lines that differ" in err
    # a line repeated as it is still reads as one
    cert_path.write_text(text.replace(f"{field}: {first}",
                                      f"{field}: {second}"))
    assert _run(["verify", "--cert", str(cert_path)])[0] == 0


def test_label_json():
    code, out, _ = _run(["label", "--graph", "Kb(2,3)", "--h", "C(4)",
                         "--group", "Z4xZ5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["theorem"] == "kmn-mixed-lex"
    assert data["mu"] == "(3,0)"
    assert len(data["labels"]) == 20


def test_label_bare_graphs():
    code, out, _ = _run(["label", "--graph", "join(KmM(4),K(1))",
                         "--group", "Z5"])
    assert code == 0 and "# theorem: matching-join" in out and "mu: (0)" in out

    code, out, _ = _run(["label", "--graph", "S(4)", "--group", "Z5",
                         "--method", "star"])
    assert code == 0 and "# theorem: star" in out

    # star with no center solution is a verified negative
    code, out, _ = _run(["label", "--graph", "S(5)", "--group", "Z2xZ3"])
    assert code == 1 and "no labeling exists" in out


def test_label_method_forcing():
    code, out, _ = _run(["label", "--graph", "C(4)", "--h", "C(4)",
                         "--group", "Z2xZ8", "--method", "balanced-dir",
                         "--s", "1"])
    assert code == 0 and "# theorem: balanced-dir-small-s" in out
    code, _, err = _run(["label", "--graph", "C(4)", "--h", "C(4)",
                         "--group", "Z2xZ8", "--method", "balanced-dir"])
    assert code == 2 and "--s" in err


@pytest.mark.parametrize("method", [method for method, entry in
                                    METHODS.items() if not entry.needs_s])
@pytest.mark.parametrize("s", ["1", "3", "-5"])
def test_label_s_is_refused_by_a_method_that_takes_none(method, s):
    entry = METHODS[method]
    argvs = []
    if entry.label_product is not None:
        argvs.append(["--graph", "C(3)", "--h", "C(4)", "--group", "Z4xZ3"])
    if entry.label_bare is not None:
        argvs.append(["--graph", "S(3)", "--group", "Z4"])
    assert argvs
    for argv in argvs:
        assert _run(["label", *argv, "--method", method, "--s", s]) == (
            2, "", f"error: method {method} takes no --s\n")


@pytest.mark.parametrize("product, method", [("dir", "balanced-lex"),
                                             ("lex", "balanced-dir")])
def test_label_method_product_conflict(product, method):
    code, out, err = _run(["label", "--graph", "C(4)", "--h", "C(4)",
                           "--group", "Z2xZ8", "--product", product,
                           "--method", method, "--s", "1"])
    assert code == 2 and out == ""
    assert method in err and f"--product {product}" in err


def test_label_precondition_diagnostics():
    code, _, err = _run(["label", "--graph", "P(3)", "--h", "C(4)",
                         "--product", "dir", "--group", "Z4xZ3"])
    assert code == 2
    assert "mod" in err


def test_search():
    code, out, _ = _run(["search", "--graph", "P(4)", "--group", "Z4",
                         "--mode", "count", "--naive"])
    assert code == 1 and out.strip() == "0"

    code, out, _ = _run(["search", "--graph", "C(4)", "--group", "Z4",
                         "--mode", "count"])
    assert code == 0 and out.strip() == "16"

    code, out, _ = _run(["search", "--graph", "C(4)", "--group", "Z4"])
    assert code == 0 and out.startswith("mu: ")

    code, out, _ = _run(["search", "--graph", "C(4)", "--group", "Z4",
                         "--mode", "all", "--json"])
    data = json.loads(out)
    assert data["count"] == 16 and len(data["labelings"]) == 16


def test_search_usage_errors():
    code, _, err = _run(["search", "--graph", "C(4)", "--group", "Z5"])
    assert code == 2 and "error" in err
    code, _, _ = _run(["search", "--graph", "C(13)", "--group", "Z13"])
    assert code == 2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(jobs):
    code, _, err = _run(["search", "--graph", "C(4)", "--group", "Z4",
                         "--jobs", jobs])
    assert code == 2 and "--jobs" in err
    code, _, err = _run(["classify", "--graph", "C(4)", "--jobs", jobs])
    assert code == 2 and "--jobs" in err


# search --json output of the benchmark's first-mode instances, as the
# previous search engine printed it
FIRST_MODE_OUTPUT = [
    ("C(9)", "Z3xZ3", 1,
     '{"mode": "first", "count": 0, "labelings": []}'),
    ("C(12)", "Z12", 1,
     '{"mode": "first", "count": 0, "labelings": []}'),
    ("lex(C(4),K(2))", "Z8", 1,
     '{"mode": "first", "count": 0, "labelings": []}'),
    ("join(KmM(8),K(1))", "Z9", 0,
     '{"mode": "first", "count": 1, "labelings": [{"mu": "(0)", "labels": '
     '["(1)", "(8)", "(2)", "(7)", "(3)", "(6)", "(4)", "(5)", "(0)"]}]}'),
    ("pow(C(12),2)", "Z12", 0,
     '{"mode": "first", "count": 1, "labelings": [{"mu": "(4)", "labels": '
     '["(0)", "(1)", "(2)", "(5)", "(10)", "(3)", "(6)", "(7)", "(8)", '
     '"(11)", "(4)", "(9)"]}]}'),
]


@pytest.mark.parametrize("graph, group, code, expected", FIRST_MODE_OUTPUT)
def test_search_first_output_is_unchanged(graph, group, code, expected):
    assert _run(["search", "--graph", graph, "--group", group,
                 "--mode", "first", "--json"]) == (code, expected + "\n", "")


def _column_corpus():
    """search in every mode, pruned and --naive, text and --json, and
    classify pruned and --naive, over groups that include the trivial one."""
    for graph, groups in (("K(1)", ["trivial"]), ("C(4)", ["Z4", "Z2xZ2"]),
                          ("S(3)", ["Z4", "Z2xZ2"]), ("KmM(6)", ["Z6"]),
                          ("Kb(3,3)", ["Z6"]), ("C(5)", ["Z5"]),
                          ("KmM(8)", ["Z2xZ4"])):
        naives = ([], ["--naive"]) if graph != "KmM(8)" else ([],)
        for group in groups:
            for mode in ("first", "all", "count"):
                for naive in naives:
                    for js in ([], ["--json"]):
                        yield ["search", "--graph", graph, "--group", group,
                               "--mode", mode, *naive, *js]
        for naive in naives:
            yield ["classify", "--graph", graph, *naive]


def test_search_and_classify_build_no_label_row(monkeypatch):
    """Answers go from the engines to the printed line as label columns:
    with every way to build or read label rows refused, the 115 runs of
    _column_corpus print what they printed when answers were rows (sha256
    of their (argv, code, stdout, stderr) reprs, in order)."""
    from gdmagic import magic

    def refuse(*args):
        raise AssertionError("a label row was built or read")

    def digest():
        h = hashlib.sha256()
        for argv in _column_corpus():
            h.update(repr((argv, *_run(argv))).encode())
        return h.hexdigest()

    rows_era = ("b90a3f61853a48df32c69c6a10e9d38e"
                "4ea9376117bdbe8fef6dc0aa632a973d")
    assert digest() == rows_era
    monkeypatch.setattr(magic.Labeling, "assignment", property(refuse))
    monkeypatch.setattr(magic.Certificate, "labels", property(refuse))
    monkeypatch.setattr(magic, "_label_columns", refuse)
    assert digest() == rows_era


# sha256 of the certificate `label` printed for each product the benchmark's
# certify workload labels, recorded before products were built from
# adjacency sets and weights summed per coordinate
CERTIFY_DIGESTS = [
    ("C(500)", "KmM(8)", "lex", "Z8xZ500",
     "c6037a451b7b35047cc49c259a2a9f9f6fa24312c77c1c34b0ec1542a92e627b"),
    ("K(20)", "KmM(16)", "lex", "Z16xZ20",
     "dc2336969323e00f748a0a8d538be2b5474372509564ebda0aaede9b7ec16db9"),
    ("C(128)", "KmM(16)", "dir", "Z16xZ128",
     "577dc0bc7aa5e480197052a4bb500ca43e3c64e326e42a39b9b2a0abc5efafa4"),
    ("Kb(20,21)", "KmM(8)", "lex", "Z8xZ41",
     "104290be8543b53d67aa8b61d025ef509d73d9ff8290992ac492beb71f6749cf"),
    ("pow(C(200),2)", "KmM(8)", "lex", "Z2xZ8xZ100",
     "1af256b0caa155e1ad54925ca280b512055c2e19f7eb76ef1592405c8440df4b"),
    ("C(300)", "KmM(6)", "dir", "Z6xZ300",
     "e912ea47a55e26a9c16a38ecd98f68a11dd625def41b5151473954c0e6e3badb"),
    ("C(50)", "KmM(6)", "lex", "Z6xZ50",
     "1419c816993471c10da535397ec08521e1667af5ac4de7c6b792dfbede50027a"),
    ("K(12)", "KmM(6)", "lex", "Z6xZ12",
     "fa67d8668dd89b85e02d09e7d55e8625cd5880ae98cc6aad8cb734217fcb47cc"),
    ("C(100)", "KmM(8)", "dir", "Z8xZ100",
     "e97d8250d906a8ebc41102520f4c45c558769ac6f4abd079c3fcb1e11812b1c2"),
]


@pytest.mark.parametrize("graph, h, product, group, digest", CERTIFY_DIGESTS)
def test_label_certificates_are_unchanged(graph, h, product, group, digest):
    code, out, err = _run(["label", "--graph", graph, "--h", h,
                           "--product", product, "--group", group])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("graph, h, product, group, digest", CERTIFY_DIGESTS)
def test_certificates_survive_a_text_round_trip(graph, h, product, group,
                                                digest):
    from gdmagic.abelian import parse_group_spec
    from gdmagic.constructors import auto_label
    from gdmagic.graphs import construct_graph
    from gdmagic.magic import Certificate, format_certificate, parse_certificate

    spec = parse_group_spec(group)
    report = auto_label(construct_graph(graph), construct_graph(h), product,
                        spec)
    cert = Certificate(f"{product}({graph},{h})", spec, report.predicted_mu,
                       report.labeling.assignment, report.theorem)
    text = format_certificate(cert)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert parse_certificate(text) == cert


@pytest.mark.parametrize("argv", [
    ["--graph", "C(\n3)", "--h", "C(4)", "--group", "Z4xZ3"],
    ["--graph", "C(\x0b3)", "--h", "C(4)", "--group", "Z4xZ3"],
    ["--graph", "C(3)", "--h", "C(\n4)", "--group", "Z4xZ3"],
    ["--graph", "C(3)", "--h", "C(4\x0b)", "--group", "Z4xZ3"],
    ["--graph", "S(\n4)", "--group", "Z5"],
])
def test_label_refuses_a_graph_expression_of_several_lines(tmp_path, argv):
    # the parser reads line breaks as blanks, but a certificate holds one
    # field per line, so the text written would not parse back
    cert_path = tmp_path / "cert.txt"
    for extra in (["--out", str(cert_path)], []):
        code, out, err = _run(["label", *argv, *extra])
        assert (code, out) == (2, "")
        assert err == ("error: graph expression spans more than one line; a "
                       "certificate holds it on its one 'graph:' line\n")
    assert not cert_path.exists()


@pytest.mark.parametrize("argv", [
    ["--graph", "C(\n3)", "--h", "C(4)", "--group", "Z4xZ3"],
    ["--graph", "C(3)", "--h", "C(4\x0b)", "--group", "Z4xZ3"],
    ["--graph", "S(\n4)", "--group", "Z5"],
    ["--graph", "S(\n5)", "--group", "Z6"],  # a star with no labeling
    ["--graph", "C(\n3)", "--h", "C(5)", "--group", "Z15"],  # nor a route
])
def test_label_refuses_several_lines_before_labeling_in_both_modes(tmp_path,
                                                                   argv):
    # the line count is checked before any labeler runs, so text and --json
    # output refuse alike, with or without --out
    cert_path = tmp_path / "cert.txt"
    for extra in ([], ["--json"], ["--json", "--out", str(cert_path)]):
        code, out, err = _run(["label", *argv, *extra])
        assert (code, out) == (2, "")
        assert err == ("error: graph expression spans more than one line; a "
                       "certificate holds it on its one 'graph:' line\n")
    assert not cert_path.exists()


def test_expression_nesting_cap():
    from gdmagic.graphs import MAX_EXPR_DEPTH

    def nested(depth):
        return "join(K(1)," * (depth - 1) + "K(1)" + ")" * (depth - 1)

    code, out, err = _run(["construct", nested(MAX_EXPR_DEPTH)])
    assert code == 0 and out.startswith(f"vertices: {MAX_EXPR_DEPTH}\n")
    for depth in (MAX_EXPR_DEPTH + 1, 600):
        code, out, err = _run(["construct", nested(depth)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: expression nests more than "
                              f"{MAX_EXPR_DEPTH} constructions")


def test_classify():
    code, out, _ = _run(["classify", "--graph", "C(4)"])
    assert code == 0
    assert "Z4: yes" in out and "group-distance-magic: yes" in out

    code, out, _ = _run(["classify", "--graph", "S(5)", "--json"])
    assert code == 1
    data = json.loads(out)
    assert data["group_distance_magic"] is False


def test_obstructions():
    code, out, _ = _run(["obstructions", "--graph", "P(4)"])
    assert code == 1
    assert "shared-neighborhood [0 3]" in out

    code, out, _ = _run(["obstructions", "--graph", "C(4)"])
    assert code == 0 and out.strip() == "none"

    # forced identity alone is not a negative verdict
    code, out, _ = _run(["obstructions", "--graph", "S(4)"])
    assert code == 0 and "forced-identity" in out

    code, out, _ = _run(["obstructions", "--graph", "K(4)", "--json"])
    assert code == 1
    kinds = {o["kind"] for o in json.loads(out)["obstructions"]}
    assert "two-universal" in kinds


def test_bad_group_spec():
    code, _, err = _run(["groups", "0"])
    assert code == 2
    code, _, err = _run(["label", "--graph", "C(4)", "--group", "Z1x"])
    assert code == 2


# one integer over Python's int/str conversion limit (4300 digits by default)
HUGE = "9" * 5000


def test_huge_integer_in_a_graph_expression():
    code, out, err = _run(["construct", f"K({HUGE})"])
    assert (code, out) == (2, "")
    assert "integer of 5000 digits is over the 4300-digit limit" in err


def test_huge_integer_in_a_group_spec():
    code, out, err = _run(["search", "--graph", "C(4)", "--group",
                           f"Z{HUGE}"])
    assert (code, out) == (2, "")
    assert "factor of 5000 digits is over the 4300-digit limit" in err


def test_huge_vertex_index_in_a_certificate(tmp_path):
    cert = tmp_path / "c.txt"
    cert.write_text(f"graph: K(1)\ngroup: trivial\nmu: ()\nv {HUGE} ()\n")
    code, out, err = _run(["verify", "--cert", str(cert)])
    assert (code, out) == (2, "")
    assert "vertex index of 5000 digits is over the 4300-digit limit" in err


def test_certificate_of_a_huge_group_is_rejected_at_once(tmp_path):
    cert = tmp_path / "c.txt"
    cert.write_text("graph: K(1)\ngroup: Z" + "9" * 30 + "\nmu: (0)\n"
                    "v 0 (0)\n")
    code, out, err = _run(["verify", "--cert", str(cert)])
    assert (code, out) == (2, "")
    assert f"must label vertices 0..{'9' * 29}8 exactly once" in err


def _refuse_product_builds(monkeypatch):
    from gdmagic import products

    def refuse(g, h):
        raise AssertionError("a product graph was built")
    monkeypatch.setattr(products, "lex_product", refuse)
    monkeypatch.setattr(products, "direct_product", refuse)


@pytest.mark.parametrize("product", ["lex", "dir"])
def test_certificate_of_a_huge_product_is_rejected_before_it_is_built(
        tmp_path, monkeypatch, product):
    # 9,000,000 vertices: building the product would take gigabytes
    _refuse_product_builds(monkeypatch)
    cert = tmp_path / "c.txt"
    cert.write_text(f"graph: {product}(C(3000),C(3000))\ngroup: Z2xZ2\n"
                    "mu: (0,0)\n"
                    + "".join(f"v {v} ({v // 2},{v % 2})\n" for v in range(4)))
    code, out, err = _run(["verify", "--cert", str(cert)])
    assert (code, out, err) == (1, "rejected: graph has 9000000 vertices but "
                                   "group Z2xZ2 has order 4\n", "")


@pytest.mark.parametrize("g, h, product, group", [
    ("C(50)", "KmM(6)", "lex", "Z6xZ50"),
    ("C(128)", "KmM(16)", "dir", "Z16xZ128"),
])
def test_label_and_verify_build_no_product_graph(tmp_path, monkeypatch,
                                                 g, h, product, group):
    from gdmagic import products

    built = {"lex_product": 0, "direct_product": 0}
    for name in built:
        def counted(*args, _real=getattr(products, name), _name=name):
            built[_name] += 1
            return _real(*args)
        monkeypatch.setattr(products, name, counted)
    cert = tmp_path / "c.txt"
    code, out, err = _run(["label", "--graph", g, "--h", h, "--product",
                           product, "--group", group, "--out", str(cert)])
    assert (code, err) == (0, "") and out.startswith("wrote certificate")
    assert _run(["verify", "--cert", str(cert)])[0] == 0
    assert built == {"lex_product": 0, "direct_product": 0}


def test_a_report_builds_its_product_once_on_first_read(monkeypatch):
    from gdmagic import products
    from gdmagic.abelian import parse_group_spec
    from gdmagic.constructors import auto_label
    from gdmagic.graphs import construct_graph

    g, h = construct_graph("C(3)"), construct_graph("KmM(4)")
    expected = products.lex_product(g, h)
    calls = []
    real = products.lex_product
    monkeypatch.setattr(products, "lex_product",
                        lambda *args: calls.append(args) or real(*args))
    report = auto_label(g, h, "lex", parse_group_spec("Z4xZ3"))
    assert calls == []
    assert report.graph == expected and report.graph is report.graph
    assert calls == [(g, h)]


# two factors under the limit whose product, the order, is over it
HUGE_ORDER_GROUP = "Z" + "9" * 4000 + "xZ" + "9" * 4000
HUGE_ORDER = "has order of more than 4300 digits"


def test_search_over_a_group_of_huge_order():
    code, out, err = _run(["search", "--graph", "C(4)", "--group",
                           HUGE_ORDER_GROUP])
    assert (code, out) == (2, "")
    assert f"graph has 4 vertices but group {HUGE_ORDER_GROUP} {HUGE_ORDER}" in err


def test_label_over_a_group_of_huge_order():
    code, out, err = _run(["label", "--graph", "C(4)", "--h", "KmM(4)",
                           "--group", HUGE_ORDER_GROUP])
    assert (code, out) == (2, "")
    assert f"group {HUGE_ORDER_GROUP} {HUGE_ORDER}, expected 16" in err


def test_certificate_over_a_group_of_huge_order(tmp_path):
    cert = tmp_path / "c.txt"
    cert.write_text(f"graph: C(4)\ngroup: {HUGE_ORDER_GROUP}\nmu: (0,0)\n"
                    + "".join(f"v {v} (0,{v})\n" for v in range(4)))
    code, out, err = _run(["verify", "--cert", str(cert)])
    assert (code, out) == (2, "")
    assert (f"certificate labels 4 vertices but group {HUGE_ORDER_GROUP} "
            f"{HUGE_ORDER}") in err


@pytest.mark.parametrize("text", [f"{HUGE} 0\n", f"2 1\n0 {HUGE}\n",
                                  f"2 1\n-{HUGE} 1\n"],
                         ids=["header", "edge", "negative"])
def test_huge_integer_in_an_edge_list(tmp_path, text):
    edges = tmp_path / "e.txt"
    edges.write_text(text)
    code, out, err = _run(["construct", f"file({edges})"])
    assert (code, out) == (2, "")
    assert "integer of 5000 digits is over the 4300-digit limit" in err


def test_unknown_verb():
    code, _, _ = _run(["frobnicate"])
    assert code == 2


# `label` over a grid of every method, --product, --s, small G x H products
# with every group of matching order, and bare graphs: sha256 per method of
# every (argv, exit code, stdout, stderr), recorded before the labelers were
# rebuilt on one twin-pair core and one method table
LABEL_SWEEP_G = ("K(2)", "C(3)", "P(3)", "Kb(2,3)")
LABEL_SWEEP_H = ("C(4)", "KmM(6)", "KmM(8)", "C(5)")
LABEL_SWEEP_BARE = ("S(3)", "S(4)", "S(5)", "join(KmM(6),K(1))", "C(5)")
LABEL_SWEEP_DIGESTS = [
    ("auto",
     "f1d2e8376013f059ef2260d43f2a644fb7b56afb2c97d4fb1ac7a5adee2fed25"),
    ("balanced-dir",
     "e776381a9ed0a5986916d5aebd0fa4103af0948e398a9055f3bc59fa9440ce88"),
    ("balanced-lex",
     "3c17069c256b87c74b0bef7f6e4ca631f48e69bae8226d4458d7c1a423b74cf3"),
    ("c4k2-dir",
     "e491e88961a33458de3b1edd83dff48ee51b1e238e2e7d1abb961edc93be3bf7"),
    ("c4k2-lex",
     "2c242fa1e6749e40d6f8e0c9d3b79710a835fb3ff99cf51f1ff64d6a25a6acb3"),
    ("even-degrees-lex",
     "952dcb312396f2f921c9e8459a10578665eed37b3dc4ad0f07c1e48580ccbf8f"),
    ("kmn-mixed-lex",
     "75b99a1e9481e338043f2f96ed9ec2227cc33b63717af4a1c82a2e62a265c5c4"),
    ("matching-join",
     "1f374954fafae5cdb66206caf22b07dd5c99ab7acb67ddbf32e84dcf6c16908f"),
    ("star",
     "24b27c0d50769b51e636a6f401788a068c3bd9275a5122180c8efd6bec745484"),
]
LABEL_HELP_DIGEST = (
    "05e6669185d07aa1dd909791209741e4a22e1fc801913695aa165a75d3587c7c")


def _label_sweep(method):
    from gdmagic.abelian import enumerate_abelian_groups
    from gdmagic.graphs import construct_graph

    def order(expr):
        return construct_graph(expr).n

    s_values = ((None, "1", "2", "3") if method.startswith("balanced")
                else (None,))
    cases = [(g, h, str(group))
             for g in LABEL_SWEEP_G for h in LABEL_SWEEP_H
             for group in enumerate_abelian_groups(order(g) * order(h))]
    cases += [(g, None, str(group)) for g in LABEL_SWEEP_BARE
              for group in enumerate_abelian_groups(order(g))]
    for g, h, group in cases:
        for product in (None, "lex", "dir") if h is not None else (None,):
            for s in s_values:
                argv = ["label", "--graph", g, "--group", group,
                        "--method", method]
                if h is not None:
                    argv += ["--h", h]
                if product is not None:
                    argv += ["--product", product]
                if s is not None:
                    argv += ["--s", s]
                yield argv


@pytest.mark.parametrize("method, digest", LABEL_SWEEP_DIGESTS)
def test_label_sweep_is_unchanged(method, digest):
    sha = hashlib.sha256()
    for argv in _label_sweep(method):
        sha.update(repr((argv, *_run(argv))).encode())
    assert sha.hexdigest() == digest


def test_label_help_is_unchanged(capsys):
    assert run(["label", "--help"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LABEL_HELP_DIGEST


@pytest.mark.parametrize("method", ["balanced-lex", "balanced-dir"])
@pytest.mark.parametrize("s", ["20000", "1000000000"])
def test_label_s_above_the_group_order_is_a_usage_error(method, s):
    code, out, err = _run(["label", "--graph", "C(4)", "--h", "C(4)",
                           "--group", "Z2xZ8", "--method", method, "--s", s])
    assert (code, out) == (2, "")
    assert err == (f"error: s = {s} is too large: 2^s exceeds the order 16 "
                   "of group Z2xZ8\n")


def test_label_formats_the_certificate_once(monkeypatch, tmp_path):
    from gdmagic import cli, magic

    calls = []
    real = magic.format_certificate

    def counting(cert):
        calls.append(cert.graph_expr)
        return real(cert)

    monkeypatch.setattr(magic, "format_certificate", counting)
    monkeypatch.setattr(cli, "format_certificate", counting)
    argv = ["label", "--graph", "C(3)", "--h", "C(4)", "--group", "Z4xZ3"]
    for extra in ([], ["--out", str(tmp_path / "cert.txt")]):
        calls.clear()
        assert _run(argv + extra)[0] == 0
        assert calls == ["lex(C(3),C(4))"]


def test_argparse_messages_go_to_the_given_streams(capsys):
    code, out, err = _run(["search", "--graph", "C(4)"])
    assert (code, out) == (2, "")
    assert "the following arguments are required: --group" in err
    assert capsys.readouterr() == ("", "")
    help_out = io.StringIO()
    assert run(["groups", "--help"], help_out, io.StringIO()) == 0
    assert help_out.getvalue().startswith("usage: gdmagic groups")
    assert capsys.readouterr() == ("", "")


def test_parser_is_built_once_per_process():
    from gdmagic import cli
    assert cli._build_parser() is cli._build_parser()
    sub = cli._build_parser()._subparsers._group_actions[0]
    assert list(sub.choices) == list(cli._VERBS)


# `obstructions --json` on the benchmark's decide graphs, as printed before
# the shared-neighborhood scan was restricted to vertices of equal degree.
DECIDE_OBSTRUCTIONS = [
    ("lex(C(100),KmM(8))", 0, '{"obstructions": []}\n'),
    ("lex(Kb(20,21),KmM(8))", 0, '{"obstructions": []}\n'),
    ("pow(C(600),4)", 0, '{"obstructions": []}\n'),
    ("join(K(2),C(398))", 1,
     '{"obstructions": [{"kind": "two-universal", "witness": [0, 1], "detail": '
     '"vertices 0 and 1 are both adjacent to every other vertex"}, {"kind": '
     '"shared-neighborhood", "witness": [0, 1], "detail": "deg(0) = deg(1) = '
     '399 and the neighborhoods share 398 vertices"}]}\n'),
    ("P(400)", 1,
     '{"obstructions": [{"kind": "shared-neighborhood", "witness": [0, 399], '
     '"detail": "deg(0) = deg(399) = 1 and the neighborhoods share 0 '
     'vertices"}, {"kind": "tree-shape", "witness": [], "detail": "tree is not '
     'a star K(1,m) with m mod 4 != 1"}]}\n'),
]


@pytest.mark.parametrize("graph, code, expected", DECIDE_OBSTRUCTIONS)
def test_decide_obstructions_are_unchanged(graph, code, expected):
    assert _run(["obstructions", "--graph", graph, "--json"]) == (code, expected, "")


def test_groups_over_the_order_cap(monkeypatch):
    from gdmagic import abelian

    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(abelian, "_factorize", no_factoring)
    code, out, err = _run(["groups", "1000000000000000003"])
    assert (code, out) == (2, "")
    assert err == ("error: order 1000000000000000003 is over the cap of "
                   "10^12 (MAX_GROUP_ORDER)\n")


# Files the CLI corpus reads, written under a fixed name in the working
# directory so that no message depends on where the test runs.
CORPUS_FILES = {
    "c4.edges": "4 4\n0 1\n1 2\n2 3\n3 0\n",
    "dup.edges": "2 2\n0 1\n1 0\n",
    "neg.edges": "-1 0\n",
    "head.edges": "4\n0 1\n",
    "bad-graph.cert": "graph: C(2)\ngroup: Z2\nmu: (0)\nv 0 (0)\nv 1 (1)\n",
    "size.cert": ("graph: C(5)\ngroup: Z4\nmu: (0)\n"
                  "v 0 (0)\nv 1 (1)\nv 2 (2)\nv 3 (3)\n"),
    "repeat.cert": ("graph: C(4)\ngroup: Z4\nmu: (0)\n"
                    "v 0 (0)\nv 1 (0)\nv 2 (2)\nv 3 (3)\n"),
    "weights.cert": ("graph: P(4)\ngroup: Z4\nmu: (0)\n"
                     "v 0 (0)\nv 1 (1)\nv 2 (2)\nv 3 (3)\n"),
    "mu.cert": ("graph: C(4)\ngroup: Z4\nmu: (1)\n"
                "v 0 (1)\nv 1 (0)\nv 2 (2)\nv 3 (3)\n"),
    "good.cert": ("# theorem: hand\ngraph: C(4)\ngroup: Z4\nmu: (3)\n\n"
                  "v 0 (1)\nv 1 (0)\nv 2 (2)\nv 3 (3)\n"),
    "file.cert": ("graph: file(c4.edges)\ngroup: Z4\nmu: (3)\n"
                  "v 0 (1)\nv 1 (0)\nv 2 (2)\nv 3 (3)\n"),
    "junk.cert": "hello\n",
    "vline.cert": "graph: C(4)\ngroup: Z4\nmu: (0)\nv 3\n",
    "coord.cert": ("graph: C(4)\ngroup: Z4\nmu: (9)\n"
                   "v 0 (1)\nv 1 (0)\nv 2 (2)\nv 3 (3)\n"),
}


def _cli_corpus():
    """argv lists over every verb, as text and --json: affirmative,
    negative, error and usage paths, and every help text. A `label --out`
    comes before the `verify` of the file it writes."""
    verbs = ("groups", "construct", "label", "search", "verify", "classify",
             "obstructions")
    cases = [[], ["--help"], ["frobnicate"], ["--json"]]
    cases += [[verb, "--help"] for verb in verbs]
    cases += [[verb] for verb in verbs]
    cases += [["groups", order]
              for order in ("1", "8", "12", "16", "0", "-3", "x",
                            "1000000000000000003")]
    cases += [["construct", expr]
              for expr in ("K(1)", "C(4)", "Kb(2,3)", "KmM(6)", "S(3)",
                           "Km(1,2,2)", "lex(C(3),K(2))", "dir(K(2),C(4))",
                           "cart(K(2),C(3))", "pow(C(6),2)",
                           "join(KmM(4),K(1))", "file(c4.edges)",
                           "file(missing.edges)", "file(dup.edges)",
                           "file(neg.edges)", "file(head.edges)", "C(2)",
                           "lex(", "K(x)", "bad(3)", "")]
    label = [
        ["--graph", "C(3)", "--h", "C(4)", "--product", "lex",
         "--group", "Z4xZ3"],
        ["--graph", "C(3)", "--h", "C(4)", "--group", "Z4xZ3",
         "--out", "lex.cert"],
        ["--graph", "Kb(2,3)", "--h", "C(4)", "--group", "Z4xZ5"],
        ["--graph", "K(2)", "--h", "KmM(6)", "--product", "dir",
         "--group", "Z2xZ6"],
        ["--graph", "C(3)", "--h", "KmM(8)", "--method", "balanced-lex",
         "--group", "Z24", "--s", "2"],
        ["--graph", "C(4)", "--h", "C(4)", "--group", "Z2xZ8",
         "--method", "balanced-lex", "--s", "20000"],
        ["--graph", "S(3)", "--group", "Z4"],
        ["--graph", "S(3)", "--group", "Z4", "--out", "star.cert"],
        ["--graph", "S(4)", "--group", "Z5"],
        ["--graph", "S(5)", "--group", "Z6"],
        ["--graph", "join(KmM(6),K(1))", "--group", "Z7"],
        ["--graph", "C(5)", "--group", "Z5"],
        ["--graph", "C(4)", "--group", "Z4", "--method", "star"],
        ["--graph", "C(3)", "--h", "C(4)", "--group", "Z5"],
        ["--graph", "C(3)", "--h", "C(4)", "--group", "Q4"],
        ["--graph", "C(3)", "--group", "Z3", "--product", "lex"],
        ["--graph", "C(3)", "--h", "C(4)", "--group", "Z4xZ3",
         "--out", "no-such-dir/x.cert"],
        ["--graph", "C(2)", "--group", "Z2"],
        ["--graph", "C(3)", "--method", "nope", "--group", "Z3"],
        ["--group", "Z3"],
    ]
    cases += [["label", *argv] for argv in label]
    search = [
        ["--graph", "C(4)", "--group", "Z4"],
        ["--graph", "C(4)", "--group", "Z4", "--mode", "all"],
        ["--graph", "C(4)", "--group", "Z4", "--mode", "count"],
        ["--graph", "C(4)", "--group", "Z2xZ2", "--mode", "all"],
        ["--graph", "C(4)", "--group", "Z4", "--naive", "--mode", "all"],
        ["--graph", "C(4)", "--group", "Z4", "--naive", "--mode", "count"],
        ["--graph", "C(4)", "--group", "Z4", "--order", "input"],
        ["--graph", "KmM(6)", "--group", "Z6", "--mode", "count"],
        ["--graph", "S(3)", "--group", "Z4", "--mode", "all"],
        ["--graph", "C(5)", "--group", "Z5"],
        ["--graph", "C(5)", "--group", "Z5", "--mode", "count"],
        ["--graph", "P(3)", "--group", "Z3", "--naive"],
        ["--graph", "C(4)", "--group", "Z5"],
        ["--graph", "C(4)", "--group", "Z4", "--jobs", "0"],
        ["--graph", "KmM(14)", "--group", "Z14", "--mode", "count"],
        ["--graph", "C(9)", "--group", "Z9", "--naive"],
        ["--graph", "C(4)", "--group", "Z4", "--mode", "some"],
        ["--graph", "C(4)"],
    ]
    cases += [["search", *argv] for argv in search]
    cases += [["verify", "--cert", name]
              for name in ("lex.cert", "star.cert", "good.cert", "file.cert",
                           "mu.cert", "weights.cert", "repeat.cert",
                           "size.cert", "bad-graph.cert", "junk.cert",
                           "vline.cert", "coord.cert", "missing.cert")]
    cases += [["classify", "--graph", graph]
              for graph in ("K(1)", "K(2)", "C(4)", "P(3)", "S(3)", "S(5)",
                            "KmM(6)", "Kb(2,3)", "join(KmM(4),K(1))",
                            "C(13)", "C(2)")]
    cases += [["classify", "--graph", "C(4)", "--naive"],
              ["classify", "--graph", "C(9)", "--naive"],
              ["classify", "--graph", "C(4)", "--jobs", "0"]]
    cases += [["obstructions", "--graph", graph]
              for graph in ("K(1)", "C(4)", "P(5)", "S(4)", "S(5)",
                            "join(K(2),C(4))", "lex(C(4),K(3))", "Kb(2,3)",
                            "KmM(6)", "C(2)")]
    for argv in cases:
        yield argv
        if argv and argv[0] in verbs and "--help" not in argv:
            yield [*argv, "--json"]


CLI_CORPUS_DIGEST = (
    "050be38bece6193a3ec140ceeb156b8164ac63db8ad2e1cc001dd02af0138a16")


def test_cli_corpus_is_unchanged(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in CORPUS_FILES.items():
        (tmp_path / name).write_text(text)
    sha = hashlib.sha256()
    count = 0
    for argv in _cli_corpus():
        sha.update(repr((argv, *_run(argv))).encode())
        count += 1
    assert count >= 200
    assert sha.hexdigest() == CLI_CORPUS_DIGEST


def test_label_json_formats_no_certificate(monkeypatch, tmp_path):
    from gdmagic import cli, magic

    calls = []
    real = magic.format_certificate

    def counting(cert):
        calls.append(cert.graph_expr)
        return real(cert)

    monkeypatch.setattr(magic, "format_certificate", counting)
    monkeypatch.setattr(cli, "format_certificate", counting)
    code, out, _ = _run(["label", "--graph", "C(3)", "--h", "C(4)",
                         "--group", "Z4xZ3", "--json"])
    assert code == 0 and json.loads(out)["ok"]
    assert calls == []


# A file whose first byte, 0xff, starts no UTF-8 sequence.
NOT_UTF8 = b"\xff4 4\n0 1\n1 2\n2 3\n3 0\n"


def test_verify_of_an_undecodable_certificate_is_a_usage_error(tmp_path):
    cert = tmp_path / "cert.txt"
    cert.write_bytes(b"graph: C(4)\ngroup: Z4\n\xfe")
    code, out, err = _run(["verify", "--cert", str(cert)])
    assert (code, out) == (2, "")
    assert err == (f"error: certificate {str(cert)!r} is not UTF-8: byte "
                   "0xfe at offset 22\n")


def test_construct_from_an_undecodable_edge_list_is_a_usage_error(tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_bytes(NOT_UTF8)
    code, out, err = _run(["construct", f"file({edges})"])
    assert (code, out) == (2, "")
    assert err == (f"error: edge list {str(edges)!r} is not UTF-8: byte "
                   "0xff at offset 0\n")


def test_certificate_over_an_undecodable_edge_list_is_rejected(tmp_path):
    edges = tmp_path / "g.edges"
    edges.write_bytes(NOT_UTF8)
    cert = tmp_path / "cert.txt"
    cert.write_text(f"graph: file({edges})\ngroup: Z4\nmu: (3)\n"
                    "v 0 (1)\nv 1 (0)\nv 2 (2)\nv 3 (3)\n")
    code, out, err = _run(["verify", "--cert", str(cert)])
    assert (code, err) == (1, "")
    assert out == (f"rejected: bad graph expression: edge list {str(edges)!r} "
                   "is not UTF-8: byte 0xff at offset 0\n")


@pytest.mark.parametrize("graph, group", [
    ("C(4)", "Z4"), ("C(4)", "Z2xZ2"), ("S(3)", "Z4"), ("P(3)", "Z3"),
    ("KmM(6)", "Z6"), ("Kb(2,3)", "Z5"), ("C(5)", "Z5"),
])
def test_naive_first_is_the_first_of_all(graph, group):
    argv = ["search", "--graph", graph, "--group", group, "--json"]
    code, out, _ = _run(argv + ["--naive", "--mode", "first"])
    first = json.loads(out)
    everything = json.loads(_run(argv + ["--naive", "--mode", "all"])[1])
    assert first["labelings"] == everything["labelings"][:1]
    assert code == (0 if first["labelings"] else 1)
    assert _run(argv + ["--order", "input"]) == (code, out, "")


def test_label_reports_a_certificate_its_verifier_rejects(monkeypatch):
    from gdmagic import cli

    monkeypatch.setattr(cli, "verify_certificate",
                        lambda cert: (False, "planted", None))
    code, out, err = _run(["label", "--graph", "C(3)", "--h", "C(4)",
                           "--group", "Z4xZ3"])
    assert (code, out) == (2, "")
    assert err == "internal error: emitted certificate failed: planted\n"


@pytest.mark.parametrize("method", ["even-degrees-lex", "auto"])
def test_label_writes_no_certificate_for_a_wrong_construction(
        monkeypatch, tmp_path, method):
    # label runs the labeler's core unverified; the one check is the
    # verification of the certificate about to be written
    import dataclasses

    from gdmagic import constructors

    core = constructors._label_lex_even_degrees

    def swapped(*args):
        report = core(*args)
        columns = [list(column) for column in report.columns]
        for column in columns:  # labels 0 and 5 swapped
            column[0], column[5] = column[5], column[0]
        return dataclasses.replace(report, columns=columns)

    monkeypatch.setattr(constructors, "_label_lex_even_degrees", swapped)
    cert_path = tmp_path / "cert.txt"
    code, out, err = _run(["label", "--graph", "C(3)", "--h", "C(4)",
                           "--group", "Z4xZ3", "--method", method,
                           "--out", str(cert_path)])
    assert (code, out) == (2, "")
    assert err == ("internal error: emitted certificate failed: weights "
                   "differ: vertex 0 has (1,2), vertex 1 has (3,0)\n")
    assert not cert_path.exists()


def test_label_and_verify_check_a_certificate_once(monkeypatch, tmp_path):
    import re

    from gdmagic import constructors, magic

    calls = {"_level_weights": 0, "_check_injective": 0}
    for name in calls:
        def counted(*args, _real=getattr(magic, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(magic, name, counted)

    def no_rows(self):
        raise AssertionError(f"a {type(self).__name__} built label rows")

    # the labels go as columns from the labeler to the kernel and the text
    for cls, rows in ((magic.Certificate, "labels"),
                      (constructors.ConstructionReport, "labels"),
                      (magic.Labeling, "assignment")):
        monkeypatch.setattr(cls, rows, property(no_rows))
    cert_path = str(tmp_path / "cert.txt")
    assert _run(["label", "--graph", "C(500)", "--h", "KmM(8)", "--product",
                 "lex", "--group", "Z8xZ500", "--out", cert_path])[0] == 0
    # one weight pass and one scan of the labels, both in the check of
    # the certificate written
    assert calls == {"_level_weights": 1, "_check_injective": 1}
    code, out, _ = _run(["label", "--graph", "C(500)", "--h", "KmM(8)",
                         "--group", "Z8xZ500", "--json"])
    assert code == 0 and len(json.loads(out)["labels"]) == 4000

    def refused(*args, **kwargs):
        raise AssertionError("a regular expression was used")

    for name in ("match", "fullmatch", "search", "compile"):
        monkeypatch.setattr(re, name, refused)
    calls.update(dict.fromkeys(calls, 0))
    assert _run(["verify", "--cert", cert_path]) == (0, "ok: mu (5,0)\n", "")
    assert calls == {"_level_weights": 1, "_check_injective": 1}


# one valid argv per verb, after the verb itself
VALID_ARGS = {
    "groups": ["8"],
    "construct": ["C(4)"],
    "label": ["--graph", "C(3)", "--h", "C(4)", "--group", "Z4xZ3"],
    "search": ["--graph", "C(4)", "--group", "Z4"],
    "verify": ["--cert", "good.cert"],
    "classify": ["--graph", "C(4)"],
    "obstructions": ["--graph", "C(4)"],
}


TOP_USAGE = ("usage: gdmagic [-h]\n"
             "               {groups,construct,label,search,verify,"
             "classify,obstructions}\n"
             "               ...\n")


@pytest.mark.parametrize("verb", list(VALID_ARGS))
def test_one_verb_parser_prints_what_the_full_parser_prints(monkeypatch,
                                                            verb):
    """A malformed argv of one verb prints the message of the one parser,
    which holds every verb, and builds no other."""
    from gdmagic import cli

    monkeypatch.setenv("COLUMNS", "80")
    valid = VALID_ARGS[verb]
    unrecognized = TOP_USAGE + "gdmagic: error: unrecognized arguments: "
    # a word before the flags: groups reads it as its order, and construct
    # as its expression, which leaves the real one over
    before = {"groups": "usage: gdmagic groups [-h] [--json] order\n"
                        "gdmagic groups: error: argument order: invalid "
                        "int value: 'extra'\n",
              "construct": unrecognized + "C(4)\n"}.get(
        verb, unrecognized + "extra\n")
    assert [_run(argv) for argv in (
        [verb, *valid, "--bogus"], [verb, "extra", *valid],
        [verb, *valid, "--json", "extra"])] == [
        (2, "", unrecognized + "--bogus\n"), (2, "", before),
        (2, "", unrecognized + "extra\n")]
    assert cli._build_parser.cache_info().currsize == 1


SEARCH_USAGE_ERROR = (
    "usage: gdmagic search [-h] --graph GRAPH --group GROUP\n"
    "                      [--mode {first,all,count}] [--naive]\n"
    "                      [--order {degree_desc,input}] [--jobs JOBS] "
    "[--json]\n"
    "gdmagic search: error: the following arguments are required: --group\n")
GROUPS_HELP = ("usage: gdmagic groups [-h] [--json] order\n\n"
               "positional arguments:\n  order\n\n"
               "options:\n  -h, --help  show this help message and exit\n"
               "  --json\n")

# In a fresh process: what import leaves behind, then what one well-formed
# run of each verb leaves behind, then the usage error and help texts.
PROBE = """
import io, json, sys
import gdmagic.cli as c

def state():
    return [c._build_parser.cache_info().currsize,
            sorted({"argparse", "gettext", "locale"} & sys.modules.keys())]

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    return [c.run(argv, out, err), out.getvalue(), err.getvalue()]

report = [state()]
report.append([run(argv)[2] for argv in json.loads(sys.argv[1])])
report += [state(), run(["search", "--graph", "C(4)"]),
           run(["groups", "--help"]), state()]
print(json.dumps(report))
"""


def test_import_builds_no_parser(tmp_path):
    import os
    import subprocess
    import sys

    import gdmagic

    well_formed = [
        ["groups", "8"], ["construct", "C(4)"],
        ["label", "--graph", "C(3)", "--h", "C(4)", "--group", "Z4xZ3",
         "--out", "lex.cert"],
        ["search", "--graph", "C(4)", "--group", "Z4", "--json"],
        ["verify", "--cert", "lex.cert"], ["classify", "--graph", "C(4)"],
        ["obstructions", "--graph", "C(4)"]]
    assert [argv[0] for argv in well_formed] == list(VALID_ARGS)
    src = os.path.dirname(os.path.dirname(gdmagic.__file__))
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    result = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(well_formed)], env=env,
        cwd=tmp_path, capture_output=True, text=True, check=True)
    (imported, errors, after_runs, usage, help_, after_messages) = (
        json.loads(result.stdout))
    assert imported == [0, []]
    assert errors == [""] * len(well_formed)
    assert after_runs == [0, []]
    assert usage == [2, "", SEARCH_USAGE_ERROR]
    assert help_ == [0, GROUPS_HELP, ""]
    assert after_messages == [1, ["argparse", "gettext", "locale"]]


# Words for argv: every table flag, abbreviations of it, --flag=value forms,
# help and end-of-options markers, and values argparse might read otherwise.
TABLE_FLAGS = sorted({flag for _, rows, _ in _VERBS.values()
                      for flag, _ in rows if flag.startswith("-")})
CHOICES = sorted({choice for _, rows, _ in _VERBS.values()
                  for _, kwargs in rows
                  for choice in kwargs.get("choices", ())})
VALUES = st.sampled_from(["", "8", " 8 ", "+5", "\u0665", "-1", "-x", "C(8)",
                          "some", "LEX", "nope", *CHOICES])
NOISE = (st.sampled_from([*TABLE_FLAGS, "-h", "--help", "--", "--gr", "--gro",
                          "--m", "--me", "--na", "--js", "--j", "--o", "--ou",
                          "--c", "--ce", "--pr", "--mo", "--or"])
         | st.builds("{}={}".format, st.sampled_from(TABLE_FLAGS), VALUES)
         | VALUES)


@st.composite
def _argvs(draw):
    """A verb and most of its rows in any order, each flag with a value
    unless it is bare (often one that fits the row, else any value), then
    at times a few noise words anywhere."""
    verb = draw(st.sampled_from(list(_VERBS)))
    words = []
    for flag, kwargs in draw(st.permutations(_VERBS[verb][1])):
        if draw(st.integers(0, 9)) == 0:
            continue
        if flag.startswith("-"):
            words.append(flag)
            if kwargs.get("action") == "store_true":
                continue
        fitting = kwargs.get("choices") or (
            ("8", " 8 ", "+5", "\u0665") if kwargs.get("type") is int
            else ("C(8)", " 8 "))
        words.append(draw(st.sampled_from(fitting) if draw(st.integers(0, 3))
                          else VALUES))
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        words.insert(draw(st.integers(0, len(words))), draw(NOISE))
    return [verb, *words]


def _parse(argv):
    """The full parser's namespace for argv as a dict, or None where it
    exits."""
    from gdmagic import cli

    sink = io.StringIO()
    try:
        with (contextlib.redirect_stdout(sink),
              contextlib.redirect_stderr(sink)):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_argvs() | st.lists(NOISE, max_size=6).map(lambda words: ["label",
                                                                   *words]))
@example(["groups", "\u0665", "--json"])
@example(["construct", ""])
@example(["obstructions", "--graph", "-x"])
@example(["search", "--graph", "C(8)", "--group", "Z8", "--mode", "all",
          "--mode", "count"])
@example(["label", "--graph", "C(3)", "--h", "C(4)", "--group", "Z4xZ3"])
def test_the_fast_reader_agrees_with_argparse(argv):
    from gdmagic import cli

    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == _parse(argv)


def test_accepted_corpus_argv_with_exact_flags_takes_the_fast_path():
    from gdmagic import cli

    taken = 0
    for argv in _cli_corpus():
        parsed = _parse(argv)
        if parsed is None:
            continue
        flags = dict(_VERBS[argv[0]][1])
        if all(word in flags for word in argv[1:] if word.startswith("-")):
            assert vars(cli._read_argv(argv)) == parsed, argv
            taken += 1
    assert taken >= 150
