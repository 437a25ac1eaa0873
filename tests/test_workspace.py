"""Workspace documents: loading the shipped files and the error paths.

Every bad node must surface as WorkspaceError carrying the path to the
offending entry, because the CLI turns that into its parse-error exit code.
"""

import copy
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quivertt
from quivertt import (
    RepMorphism,
    WorkspaceError,
    build_quiver,
    homology,
    paths,
    parse_ring,
    sp_all,
    sp_points,
    prime_ideal,
)
from quivertt.workspace import (
    build_workspace,
    load_filtration_file,
    load_workspace,
    parse_filtration,
    parse_support,
)

WS = "workspaces"


def test_integer_line_file():
    ws = load_workspace(f"{WS}/z_a3.yaml")
    assert str(ws.ring) == "Z"
    assert ws.quiver.vertices == ("1", "2", "3")
    assert set(ws.objects) == {"U", "K2", "T6"}
    assert ws.objects["K2"].degrees == [-1, 0]
    h = homology(ws.objects["K2"], 0)
    assert str(h.fibers["1"]) == "R/(2)"
    assert set(ws.supports) == {"S23"} and set(ws.filtrations) == {"F"}
    s = ws.supports["S23"]
    assert s.at("1") == sp_points(ws.ring, [prime_ideal(ws.ring, ws.ring.from_int(p)) for p in (2, 3)])
    assert s.at("3").is_empty


def test_two_vertex_field_file():
    ws = load_workspace(f"{WS}/f2_a2.yaml")
    assert str(ws.ring) == "Fp(2)"
    assert set(ws.objects) == {"U", "U1", "U2"}
    u1 = ws.objects["U1"]
    assert u1.terms[0].gens("1") == 1 and u1.terms[0].gens("2") == 0


def test_six_vertex_tree_file():
    ws = load_workspace(f"{WS}/affine_d5_f2.yaml")
    assert len(ws.quiver.vertices) == 6
    # one fork in at 3, one out of 4
    assert paths(ws.quiver, "1", "6") == [("a", "c", "e")]
    u = ws.objects["U"]
    assert all(u.terms[0].gens(v) == 1 for v in ws.quiver.vertices)


def test_loaded_filtration_decreases():
    ws = load_workspace(f"{WS}/z_a3.yaml")
    f = ws.filtrations["F"]
    assert f.at(0).at("3").is_all
    assert not f.at(1).at("3").is_all
    assert f.at(3).is_empty


def test_missing_file_and_bad_yaml(tmp_path):
    with pytest.raises(WorkspaceError, match="cannot read"):
        load_workspace(str(tmp_path / "nope.yaml"))
    p = tmp_path / "bad.yaml"
    p.write_text("ring: [unclosed\n")
    with pytest.raises(WorkspaceError):
        load_workspace(str(p))
    p.write_text("- just\n- a list\n")
    with pytest.raises(WorkspaceError, match="top level"):
        load_workspace(str(p))


MINIMAL = {
    "ring": "Z",
    "quiver": {"vertices": [1, 2], "arrows": ["a: 1 -> 2"]},
}


def _doc(extra):
    doc = {k: (dict(v) if isinstance(v, dict) else v) for k, v in MINIMAL.items()}
    doc.update(extra)
    return doc


def test_unknown_section_rejected():
    with pytest.raises(WorkspaceError, match="unknown sections.*extras"):
        build_workspace(_doc({"extras": {}}))


def test_missing_ring_and_bad_ring():
    with pytest.raises(WorkspaceError, match="missing required section 'ring'"):
        build_workspace({"quiver": MINIMAL["quiver"]})
    with pytest.raises(WorkspaceError, match="ring"):
        build_workspace(_doc({"ring": "GL(2)"}))


@pytest.mark.parametrize("param", ["1000000000000000003", "7" * 5000], ids=["19 digits", "5000 digits"])
def test_oversized_ring_parameter_is_refused(param):
    # trial division would hang on the first; int() refuses the second
    with pytest.raises(WorkspaceError, match=r"ring: Fp parameter above the cap 10\^9"):
        build_workspace(_doc({"ring": f"Fp({param})"}))
    assert parse_ring("Fp(999999937)").label == "Fp(999999937)"  # the largest prime under the cap


def test_bad_quiver_nodes():
    with pytest.raises(WorkspaceError, match="quiver"):
        build_workspace(_doc({"quiver": [1, 2]}))
    with pytest.raises(WorkspaceError, match="quiver"):
        build_workspace(_doc({"quiver": {"vertices": [1, 2], "arrows": ["a: 1 -> 9"]}}))


def test_object_errors_carry_node_paths():
    # ragged matrix
    bad = {"degrees": {0: {"1": [[1, 0], [1]]}}}
    with pytest.raises(WorkspaceError, match=r"objects/X/degrees/0/1: ragged rows"):
        build_workspace(_doc({"objects": {"X": bad}}))
    # unknown vertex inside a term
    bad = {"degrees": {0: {"7": "free 1"}}}
    with pytest.raises(WorkspaceError, match=r"degrees/0: unknown vertices \['7'\]"):
        build_workspace(_doc({"objects": {"X": bad}}))
    # unknown arrow name
    bad = {"degrees": {0: {"1": "free 1", "arrow_maps": {"z": [[1]]}}}}
    with pytest.raises(WorkspaceError, match=r"arrow_maps: unknown arrows \['z'\]"):
        build_workspace(_doc({"objects": {"X": bad}}))
    # booleans are ints in YAML but not ring elements
    bad = {"degrees": {0: {"1": [[True]]}}}
    with pytest.raises(WorkspaceError, match="neither an integer nor a string"):
        build_workspace(_doc({"objects": {"X": bad}}))
    # differential without both endpoints
    bad = {"degrees": {0: {"1": "free 1"}}, "differentials": {0: {"1": [[1]]}}}
    with pytest.raises(WorkspaceError, match="needs terms in degrees 0 and 1"):
        build_workspace(_doc({"objects": {"X": bad}}))


def test_malformed_shapes_name_their_node():
    term = {"1": "free 1", "2": "free 1"}
    for extra, error in (
            ({"objects": {"X": {"degrees": 1.5}}}, "objects/X/degrees: expected a mapping of degrees"),
            ({"objects": {"X": {"degrees": {0: term}, "differentials": [[1]]}}},
             "objects/X/differentials: expected a mapping of degrees"),
            ({"objects": {"X": {"degrees": {0: dict(term, arrow_maps=[[5]])}}}},
             "objects/X/degrees/0/arrow_maps: expected a mapping of arrow names"),
            ({"quiver": {"vertices": [1, 2], "arrows": [["a", 1]]}},
             "quiver: cannot parse arrow ['a', 1]; expected 'name: src -> tgt' or [name, src, tgt]"),
            ({"quiver": {"vertices": [1, 2], "arrows": ["a: 1 -> 2 -> 1"]}}, "quiver: cannot parse arrow"),
            ({"quiver": {"vertices": None}}, "quiver: vertices and arrows must be lists"),
            ({"quiver": {"vertices": {"1": 2}}}, "quiver: vertices and arrows must be lists"),
            ({"filtrations": {"F": {"tail_low": {}, "levels": True}}},
             "filtrations/F/levels: expected a list of [n, support]")):
        with pytest.raises(WorkspaceError, match="^workspace/" + re.escape(error)):
            build_workspace(_doc(extra))


def test_arrow_map_keys_are_arrow_names():
    # an int key names the arrow its digits spell, as a vertex key does, and
    # two spellings of one arrow are refused
    doc = {"ring": "Z", "quiver": {"vertices": [1, 2], "arrows": ["1: 1 -> 2"]}}
    term = {"1": "free 1", "2": "free 1"}
    ws = build_workspace(dict(doc, objects={"X": {"degrees": {0: dict(term, arrow_maps={1: [[5]]})}}}))
    assert ws.objects["X"].terms[0].arrows["1"][0, 0] == 5
    twice = dict(term, arrow_maps={"1": [[5]], 1: [[5]]})
    where = "workspace/objects/X/degrees/0/arrow_maps"
    with pytest.raises(WorkspaceError, match=f"^{where}: keys '1' and 1 both name '1'$"):
        build_workspace(dict(doc, objects={"X": {"degrees": {0: twice}}}))


# One valid document with a node of every kind: both arrow spellings, free
# and presented fibers, an arrow map, a differential, supports in both
# spellings and a filtration with both tails.
SWEEP_DOC = {
    "ring": "Z",
    "quiver": {"vertices": [1, 2, 3], "arrows": ["a: 1 -> 2", ["b", 2, 3]]},
    "objects": {
        "X": {"degrees": {0: {"1": "free 1", "2": [[2]], "arrow_maps": {"a": [[1]]}}, 1: {"1": "free 1"}},
              "differentials": {0: {"1": [[2]]}}},
    },
    "supports": {"S": {"1": "all", "2": [2, 3]}, "T": "1: all; 3: [5]"},
    "filtrations": {"F": {"tail_low": {"1": "all"}, "levels": [[0, {"1": [2]}], [2, {}]], "tail_high": {}}},
}


def _node_paths(node, at=()):
    """The key path of every node below node, each before its children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield at + (k,)
        yield from _node_paths(v, at + (k,))


def test_every_node_of_every_shape_loads_or_raises_workspace_error():
    build_workspace(copy.deepcopy(SWEEP_DOC))
    paths = list(_node_paths(SWEEP_DOC))
    assert len(paths) == 52
    for path in paths:
        for value in (None, True, 1.5, "x", [1], [[1]], {"k": 1}):
            doc = copy.deepcopy(SWEEP_DOC)
            parent = doc
            for k in path[:-1]:
                parent = parent[k]
            parent[path[-1]] = value
            try:
                build_workspace(doc)
            except WorkspaceError:
                pass
            except Exception as e:
                pytest.fail(f"{'/'.join(map(str, path))} = {value!r}: {type(e).__name__}: {e}")


def test_object_must_square_to_zero():
    bad = {
        "degrees": {0: {"1": "free 1"}, 1: {"1": "free 1"}, 2: {"1": "free 1"}},
        "differentials": {0: {"1": [[1]]}, 1: {"1": [[1]]}},
    }
    with pytest.raises(WorkspaceError, match="d\\^2"):
        build_workspace(_doc({"objects": {"X": bad}}))


def test_each_differential_is_validated_once(monkeypatch):
    calls = []
    validate = RepMorphism.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(RepMorphism, "validate", counted)
    ws = load_workspace(f"{WS}/z_a3.yaml")
    # K2 is the only object with a differential
    assert sum(len(x.diffs) for x in ws.objects.values()) == 1
    assert len(calls) == 1


def test_non_natural_differential_names_its_path():
    term = {"1": "free 1", "2": "free 1", "arrow_maps": {"a": [[1]]}}
    bad = {"degrees": {0: term, 1: term}, "differentials": {0: {"1": [[1]], "2": [[0]]}}}
    with pytest.raises(WorkspaceError, match="X/differentials/0: naturality fails at arrow a"):
        build_workspace(_doc({"objects": {"X": bad}}))


def test_fiber_spelling():
    with pytest.raises(WorkspaceError, match="expected 'free <rank>'"):
        build_workspace(_doc({"objects": {"X": {"degrees": {0: {"1": "free"}}}}}))
    with pytest.raises(WorkspaceError, match="expected 'free <rank>'"):
        build_workspace(_doc({"objects": {"X": {"degrees": {0: {"1": 3}}}}}))
    # a digit int() does not read is a spelling error, not a traceback
    with pytest.raises(WorkspaceError, match="expected 'free <rank>'"):
        build_workspace(_doc({"objects": {"X": {"degrees": {0: {"1": "free \u00b2"}}}}}))


def fiber_doc(spec):
    return _doc({"objects": {"X": {"degrees": {0: {"1": spec}}}}})


def test_fiber_generators_are_capped():
    # 'free <rank>' and a presentation's rows alike, checked before building
    ws = build_workspace(fiber_doc("free 1000"))
    assert ws.objects["X"].terms[0].gens("1") == 1000
    assert build_workspace(fiber_doc([[2]] * 1000)).objects["X"].terms[0].gens("1") == 1000
    # leading zeros do not count towards the rank's length
    assert build_workspace(fiber_doc("free 0000000005")).objects["X"].terms[0].gens("1") == 5
    for spec in ("free 1001", "free 100000000", "free " + "9" * 5000, "free 0001001", [[2]] * 1001):
        with pytest.raises(WorkspaceError, match=r"^workspace/objects/X/degrees/0/1: fiber generators above the cap 1000$"):
            build_workspace(fiber_doc(spec))


def test_implicit_zero_entries_are_capped(monkeypatch):
    # omitted arrow maps and differential components, over all objects, draw
    # on one budget per workspace, charged before each matrix is built
    monkeypatch.setattr(quivertt.workspace, "_MAX_ZERO_ENTRIES", 60)
    term = {"1": "free 5", "2": "free 5"}  # its omitted arrow map a is 5 x 5

    def obj(n):
        return {"degrees": {k: term for k in range(n)}}

    build_workspace(_doc({"objects": {"X": obj(2)}}))
    build_workspace(_doc({"objects": {"X": obj(2)}}))  # a new budget each time
    cap = "implicit zero entries above the cap 10\\^7$"
    with pytest.raises(WorkspaceError, match=r"^workspace/objects/Y/degrees/0/arrow_maps/a: " + cap):
        build_workspace(_doc({"objects": {"X": obj(2), "Y": obj(1)}}))
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    diffs = {"degrees": obj(2)["degrees"], "differentials": {0: {"2": eye}}}
    with pytest.raises(WorkspaceError, match=r"^workspace/objects/X/differentials/0/1: " + cap):
        build_workspace(_doc({"objects": {"X": diffs}}))


@pytest.fixture
def line():
    return build_quiver([1, 2], ["a: 1 -> 2"]), parse_ring("Z")


def test_parse_support_inline(line):
    q, ring = line
    s = parse_support("1: all; 2: [2, 3]", q, ring, "here")
    assert s.at("1") == sp_all(ring)
    assert s.at("2") == sp_points(ring, [prime_ideal(ring, ring.from_int(p)) for p in (2, 3)])
    # omitted vertices are empty, brackets optional, blanks tolerated
    assert parse_support("1: 2, 3;", q, ring, "here").at("2").is_empty
    with pytest.raises(WorkspaceError, match="expected 'vertex: spec'"):
        parse_support("just text", q, ring, "here")


def test_parse_support_rejections(line):
    q, ring = line
    with pytest.raises(WorkspaceError, match="unknown vertices"):
        parse_support({"9": "all"}, q, ring, "here")
    with pytest.raises(WorkspaceError, match="expected 'all'"):
        parse_support({"1": 17}, q, ring, "here")
    with pytest.raises(WorkspaceError, match="here/1"):
        parse_support({"1": [6]}, q, ring, "here")  # 6 generates no prime
    # an unparsable generator names its location once
    with pytest.raises(WorkspaceError, match="bad entry 'x'") as err:
        parse_support({"1": ["x"]}, q, ring, "here")
    assert str(err.value).count("here/1") == 1


def test_two_spellings_of_one_key_are_refused(line):
    # YAML keeps 0 and "00", or 1 and "1", apart; the loader reads them as
    # one degree or one name, so a later one would silently replace the other
    one = {"1": "free 1"}
    square = {"degrees": {0: one, 1: one}}
    for objects, where, spellings in (
            ({"X": {"degrees": {0: one, "00": {"2": "free 1"}}}}, "objects/X/degrees", "0 and '00'"),
            ({"X": {"degrees": {0: {1: "free 1", "1": "free 0"}}}}, "objects/X/degrees/0", "1 and '1'"),
            ({1: {"degrees": {0: one}}, "1": {"degrees": {}}}, "objects", "1 and '1'"),
            ({"X": dict(square, differentials={0: {"1": [[1]]}, "+0": {}})}, "objects/X/differentials", "0 and '+0'"),
            ({"X": dict(square, differentials={0: {"1": [[1]], 1: [[1]]}})}, "objects/X/differentials/0",
             "'1' and 1")):
        with pytest.raises(WorkspaceError, match=f"^workspace/{where}: keys {re.escape(spellings)} both name "):
            build_workspace(_doc({"objects": objects}))
    with pytest.raises(WorkspaceError, match=r"^workspace/supports/S: keys 1 and '1' both name '1'$"):
        build_workspace(_doc({"supports": {"S": {1: "all", "1": [2]}}}))
    with pytest.raises(WorkspaceError, match=r"^workspace/filtrations: keys 2 and '2' both name '2'$"):
        build_workspace(_doc({"filtrations": {2: {}, "2": {}}}))
    q, ring = line
    with pytest.raises(WorkspaceError, match=r"^--set: keys '1' and '1' both name '1'$"):
        parse_support("1: all; 2: [3]; 1: [2]", q, ring, "--set")
    # distinct keys still load, and one spelling of a key is kept as it was
    ws = build_workspace(_doc({"objects": {"X": {"degrees": {"00": {1: "free 2"}, 1: {"2": "free 1"}}}}}))
    assert ws.objects["X"].degrees == [0, 1] and ws.objects["X"].terms[0].gens("1") == 2


def test_parse_filtration_shape(line):
    q, ring = line
    node = {"tail_low": {"1": "all", "2": "all"}, "levels": [[0, {"1": [2]}]]}
    f = parse_filtration(node, q, ring, "here")
    assert f.at(-1).at("2").is_all
    assert f.at(0).at("2").is_empty
    with pytest.raises(WorkspaceError, match="missing required section 'tail_low'"):
        parse_filtration({"levels": []}, q, ring, "here")
    with pytest.raises(WorkspaceError, match=r"levels\[0\]: expected \[n, support\]"):
        parse_filtration({"tail_low": {}, "levels": [["no"]]}, q, ring, "here")
    with pytest.raises(WorkspaceError, match="unknown keys"):
        parse_filtration({"tail_low": {}, "stuff": 1}, q, ring, "here")


def test_filtration_must_not_grow(line):
    q, ring = line
    node = {"tail_low": {"1": [2]}, "levels": [[0, {"1": "all"}]]}
    with pytest.raises(WorkspaceError, match="increases"):
        parse_filtration(node, q, ring, "here")


def test_load_filtration_file(tmp_path, line):
    q, ring = line
    p = tmp_path / "f.yaml"
    p.write_text("tail_low: {1: all, 2: all}\nlevels:\n  - [2, {1: [3]}]\n")
    f = load_filtration_file(str(p), q, ring)
    assert f.at(1).at("1").is_all
    assert not f.at(2).at("1").is_all
    with pytest.raises(WorkspaceError, match="cannot read"):
        load_filtration_file(str(tmp_path / "missing.yaml"), q, ring)


def test_importing_the_package_does_not_load_yaml():
    # PyYAML is read only by the loaders, so it stays out of a bare import
    src = str(Path(quivertt.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, quivertt; print('yaml' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
