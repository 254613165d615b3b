"""The artifact writer and array codec: bytes equal to json.dump's, exact arrays, atomic replacement, and who opens files to write."""

import ast
import dataclasses
import os
import pathlib
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import conv_net, trained_dense_net
from nullspace_unlearn import artifacts, cli, data, evaluate, nn, subspace
from nullspace_unlearn.config import load_config
from nullspace_unlearn.linalg import NumericError

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "nullspace_unlearn"


def toy_shaped_net():
    """The toy preset's network: 2 -> 192 -> 192 -> 4, about 37 000 weights."""
    specs = (
        nn.LayerSpec(kind="dense", activation="relu", in_features=2, out_features=192),
        nn.LayerSpec(kind="dense", activation="relu", in_features=192, out_features=192),
        nn.LayerSpec(kind="dense", activation="identity", in_features=192, out_features=4),
    )
    return nn.init_network(specs, input_shape=(2,), seed=1)


def metadata_net():
    net, _ = trained_dense_net(seed=31, epochs=3)
    net.metadata.update(
        note="forget ∅ — café \"quoted\"\n",
        missing=None,
        lr=np.float64(0.05),
        nested={"b": [1, 2.5, None, True, {"z": [float("nan"), -float("inf"), 5e-324]}], "a": [], "c": {}},
    )
    return net


# ---------------------------------------------------------------------------
# bytes: the writer against json.dump
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [toy_shaped_net, lambda: trained_dense_net(seed=27, epochs=5)[0], lambda: conv_net(seed=29), metadata_net]
)
def test_checkpoint_bytes_equal_json_dump(make, tmp_path):
    net = make()
    path = tmp_path / "net.json"
    nn.save_checkpoint(net, path)
    assert path.read_text(encoding="ascii") == oracles.json_dump_text(oracles.checkpoint_doc(net))


def test_subspace_bytes_equal_json_dump(tmp_path):
    net, sp = trained_dense_net(seed=40)
    subs = {c: subspace.class_subspace(net, sp.train.class_filter((c,), keep=True)) for c in range(3)}
    proj = subspace.ProjectorCache(subs, 0.99).for_excluded(0)
    path = tmp_path / "subspace.json"
    subspace.save_subspace(proj, path, source_checkpoint_hash="abc123", seed=7)
    expected = oracles.subspace_doc(proj, source_checkpoint_hash="abc123", seed=7)
    assert path.read_text(encoding="ascii") == oracles.json_dump_text(expected)


def test_contour_record_and_table_equal_the_old_writers(tmp_path):
    rng = np.random.default_rng(5)
    alphas = np.linspace(-0.3, 0.3, 5).tolist()
    betas = np.linspace(-0.3, 0.3, 3).tolist()
    grid = evaluate.ContourGrid(
        alphas=alphas, betas=betas, losses=rng.uniform(0.0, 3.0, (5, 3)).tolist(), base_loss=float(rng.uniform())
    )
    cfg = load_config()
    path = tmp_path / "contour.json"
    record = {**dataclasses.asdict(grid), "model": "calibrated"}
    cli._write_record(record, path, cfg, "feedbeef")
    stamp = {"config_hash": cfg.hash, "seed": cfg.seed, "data_hash": "feedbeef"}
    assert path.read_text(encoding="ascii") == oracles.json_dump_text({**record, **stamp})
    cells = [(a, b, grid.losses[i][j]) for i, a in enumerate(alphas) for j, b in enumerate(betas)]
    artifacts.write_table(tmp_path / "contour.csv", ("alpha", "beta", "loss"), cells)
    rows = [f"{a:.17g},{b:.17g},{grid.losses[i][j]:.17g}\n" for i, a in enumerate(alphas) for j, b in enumerate(betas)]
    assert (tmp_path / "contour.csv").read_text() == "alpha,beta,loss\n" + "".join(rows)


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.floats(), max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(doc=_DOCS)
def test_write_json_equals_json_dumps(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    artifacts.write_json(doc, path)
    assert path.read_bytes() == oracles.json_dump_text(doc).encode("ascii")


def test_write_json_spells_keys_and_refuses_what_json_refuses(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"t": (1.0, 2.0), "k": {2: "two", 10: "ten"}, "f": {1.5: None}, "b": {True: 0}, "n": {None: 1}}
    artifacts.write_json(doc, path)
    assert path.read_text() == oracles.json_dump_text(doc)
    for bad in ({"a": np.int64(1)}, {(1, 2): 0}, [object()]):
        with pytest.raises(TypeError):
            artifacts.write_json(bad, path)


# ---------------------------------------------------------------------------
# the array codec
# ---------------------------------------------------------------------------


def test_arrays_round_trip_bit_exactly():
    big = 1.7976931348623157e308
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, big, -big, 1.0])
    # Each value's neighbour one ulp away, inward from the largest finite magnitudes.
    a = np.stack([edges, np.nextafter(edges, [-np.inf, np.inf, np.inf, -np.inf, 0.0, 0.0, np.inf])])
    back = artifacts.decode_array(artifacts.encode_array(a), "edges")
    assert back.shape == a.shape
    assert back.tobytes() == a.tobytes()
    npt.assert_array_equal(np.signbit(back), np.signbit(a))
    assert artifacts.encode_array(a) == oracles.array_doc(a)


def test_any_layout_or_byte_order_encodes_as_its_c_order_little_endian_copy():
    a = np.random.default_rng(3).standard_normal((6, 5))
    expected = oracles.array_doc(a)
    for view in (np.asfortranarray(a), a.astype(">f8"), a.T.copy().T):
        assert artifacts.encode_array(view) == expected
    sliced = np.random.default_rng(4).standard_normal((12, 10))[::2, 1::2]
    assert artifacts.encode_array(sliced) == oracles.array_doc(np.ascontiguousarray(sliced, dtype="<f8"))
    assert artifacts.encode_array(np.zeros((0, 3))) == {"base64": "", "shape": [0, 3]}


def test_decoded_arrays_are_writeable_c_contiguous_float64():
    for shape in ((4, 3), (0, 2), (5,)):
        back = artifacts.decode_array(artifacts.encode_array(np.ones(shape)), "a")
        assert back.flags.writeable and back.flags.c_contiguous
        assert back.dtype == np.float64 and back.dtype.isnative and back.shape == shape
        back[...] = 2.0


_GOOD = artifacts.encode_array(np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize(
    "doc, match",
    [
        ([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], "exactly the keys"),
        ({"base64": _GOOD["base64"]}, "exactly the keys"),
        ({**_GOOD, "dtype": "<f8"}, "exactly the keys"),
        ({**_GOOD, "shape": (2, 3)}, "non-negative integers"),
        ({**_GOOD, "shape": [2, -3]}, "non-negative integers"),
        ({**_GOOD, "shape": [2, True]}, "non-negative integers"),
        ({**_GOOD, "shape": [2.0, 3]}, "non-negative integers"),
        ({**_GOOD, "shape": 6}, "non-negative integers"),
        ({**_GOOD, "base64": _GOOD["base64"][:-1]}, "base64 is invalid"),
        ({**_GOOD, "base64": "!" + _GOOD["base64"][1:]}, "base64 is invalid"),
        ({**_GOOD, "base64": "é" * 4}, "base64 is invalid"),
        ({**_GOOD, "base64": 12}, "base64 is invalid"),
        ({**_GOOD, "shape": [2, 2]}, "48 bytes, shape"),
        ({**_GOOD, "shape": [7]}, "48 bytes, shape"),
    ],
)
def test_decode_refuses_anything_but_the_exact_spelling(doc, match):
    with pytest.raises(ValueError, match=match) as err:
        artifacts.decode_array(doc, "original.json weights[1]")
    assert "original.json weights[1]" in str(err.value)


def test_a_checkpoint_whose_bytes_encode_nan_still_exits_4(tmp_path):
    net = toy_shaped_net()
    net.weights[1][3, 4] = np.nan
    path = tmp_path / "original.json"
    nn.save_checkpoint(net, path)
    with pytest.raises(NumericError, match=r"layer 1 weights has non-finite entry .*nan.* at \(3, 4\)"):
        nn.load_checkpoint(path)
    with pytest.raises(SystemExit) as exc:
        cli._guarded(nn.load_checkpoint)(path)
    assert exc.value.code == cli.EXIT_NUMERIC


# ---------------------------------------------------------------------------
# atomic replacement and the returned hash
# ---------------------------------------------------------------------------


def test_a_write_that_fails_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "artifact.json"
    artifacts.write_json({"v": 1}, path)
    before = path.read_bytes()

    def chunks():
        yield "{\n \"v\": "
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError, match="disk gone"):
        artifacts.write_atomic(path, chunks())
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact.json"]


def test_a_checkpoint_that_fails_to_encode_keeps_the_previous_checkpoint(tmp_path):
    net = toy_shaped_net()
    path = tmp_path / "original.json"
    nn.save_checkpoint(net, path)
    before = path.read_bytes()
    net.seed = np.int64(3)  # json cannot encode it
    with pytest.raises(TypeError):
        nn.save_checkpoint(net, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["original.json"]


def test_writers_return_the_hash_of_the_file_they_wrote(tmp_path):
    path = tmp_path / "doc.json"
    assert artifacts.write_json({"a": [0.1, 0.2]}, path) == artifacts.file_hash(path)
    ds = data.gaussian_mixture([[0.0, 0.0], [3.0, 3.0]], [[1.0, 0.0], [0.0, 1.0]], 40, seed=3)
    csv = tmp_path / "dataset.csv"
    assert data.save_csv(ds, csv) == artifacts.file_hash(csv)


def test_atomic_writes_keep_the_default_file_mode(tmp_path):
    plain = tmp_path / "plain"
    plain.write_text("x")
    path = tmp_path / "doc.json"
    artifacts.write_json({}, path)
    assert os.stat(path).st_mode == os.stat(plain).st_mode


def test_save_checkpoint_streams_rather_than_building_the_text(tmp_path):
    # The toy checkpoint is 410 KB of text, its weights 300 KB of float64.
    # Holding the raw bytes, their base64 and the JSON text at once peaks at
    # about 1.18 MiB; a copy more of the text, or nested lists of floats,
    # would pass the bound.
    net = toy_shaped_net()
    path = tmp_path / "original.json"
    nn.save_checkpoint(net, path)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        nn.save_checkpoint(net, path)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, f"peak traced memory {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# tooling: every file the package writes goes through write_atomic
# ---------------------------------------------------------------------------


def _opens_for_writing(tree):
    """Line numbers of calls that open a file for writing: open(.., mode with w/a/x/+), os.open, write_text/bytes."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        if name in ("write_text", "write_bytes") or (name == "open" and isinstance(func, ast.Attribute)):
            yield node.lineno
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")):
                yield node.lineno


def _parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _only_inside(found, function: str) -> bool:
    """Whether found, a set of (file name, line), is non-empty and lies wholly inside artifacts.function."""
    helper = next(n for n in _parsed(SRC / "artifacts.py").body if isinstance(n, ast.FunctionDef) and n.name == function)
    return bool(found) and all(name == "artifacts.py" and helper.lineno <= line <= helper.end_lineno for name, line in found)


def test_only_the_atomic_writer_opens_files_for_writing():
    found = {(path.name, line) for path in sorted(SRC.rglob("*.py")) for line in _opens_for_writing(_parsed(path))}
    assert _only_inside(found, "write_atomic")


def test_the_tooling_check_sees_a_plain_write():
    tree = ast.parse('with open(p, "w") as fh:\n    pass\nopen(p, mode="ab")\nopen(p)\nopen(p, "rb")\nq.write_text("x")\n')
    assert sorted(_opens_for_writing(tree)) == [1, 3, 6]


# ---------------------------------------------------------------------------
# tooling: one reader of JSON documents
# ---------------------------------------------------------------------------


def _parses_json(tree):
    """Line of each json.load / json.loads call and each import of either name from json."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("load", "loads") and isinstance(node.func.value, ast.Name) and node.func.value.id == "json":
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            if {a.name for a in node.names} & {"load", "loads"}:
                yield node.lineno


def test_only_read_json_parses_json():
    # config.py parses the user's config file and the bundled preset, each
    # failure with its own ConfigError message.
    found = {
        (path.name, line)
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "config.py"
        for line in _parses_json(_parsed(path))
    }
    assert _only_inside(found, "read_json")


def test_the_reader_check_sees_a_plain_load():
    tree = ast.parse("import json\nwith open(p) as fh:\n    json.load(fh)\njson.loads(s)\njson.dumps(d)\nfrom json import loads\n")
    assert sorted(_parses_json(tree)) == [3, 4, 6]


# ---------------------------------------------------------------------------
# tooling: who imports the artifact module
# ---------------------------------------------------------------------------

# evaluate, linalg, unlearn, config and determinism compute; the modules that
# read or write artifact files, and the package that re-exports it, import it.
_ARTIFACT_IMPORTERS = {"__init__", "cli", "data", "nn", "subspace"}


def _imports_artifacts(tree):
    """Line of each import of the artifacts module or of a name from it, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] == "artifacts" or (
                module in ("", "nullspace_unlearn") and any(a.name == "artifacts" for a in node.names)
            ):
                yield node.lineno
        elif isinstance(node, ast.Import) and any(a.name == "nullspace_unlearn.artifacts" for a in node.names):
            yield node.lineno


def test_only_the_file_modules_import_artifacts():
    importers = {path.stem for path in sorted(SRC.glob("*.py")) if any(_imports_artifacts(_parsed(path)))}
    assert importers == _ARTIFACT_IMPORTERS


def test_the_layering_check_sees_both_import_forms():
    tree = ast.parse(
        "from .artifacts import write_atomic\nfrom . import artifacts\nfrom . import nn\n"
        "from .nn import artifacts_note\nimport nullspace_unlearn.artifacts\nfrom nullspace_unlearn import artifacts, nn\n"
    )
    assert sorted(_imports_artifacts(tree)) == [1, 2, 5, 6]


# ---------------------------------------------------------------------------
# tooling: every module-level name is used
# ---------------------------------------------------------------------------

# linalg.null_projector is called only by tests/test_acceptance.py::test_c9_numerical_property_suite.
_UNREFERENCED_BY_DESIGN = {"linalg.null_projector"}


def _module_defs(tree):
    """(name, first line, last line) of each module-level def and class that is not a click command."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not any(
            isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr in ("command", "group")
            for d in node.decorator_list
        ):
            yield node.name, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) of each name, attribute, imported name and whole string constant in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _unreferenced(modules: dict, others: dict) -> list:
    """`module.name` of each module-level def or class in modules that no tree references outside its own definition.

    modules and others map a label to a parsed file; only modules' definitions are checked.
    """
    refs = {}
    for label, tree in {**modules, **others}.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((label, line))
    return sorted(
        f"{label}.{name}"
        for label, tree in modules.items()
        for name, first, last in _module_defs(tree)
        if all(where == label and first <= line <= last for where, line in refs.get(name, ()))
    )


def test_every_module_level_name_is_referenced():
    modules = {path.stem: _parsed(path) for path in sorted(SRC.glob("*.py"))}
    benchmarks = SRC.parents[1] / "benchmarks"
    others = {f"benchmarks/{path.name}": _parsed(path) for path in sorted(benchmarks.glob("*.py"))}
    assert set(_unreferenced(modules, others)) == _UNREFERENCED_BY_DESIGN


def test_the_dead_name_check_sees_an_unreferenced_def():
    mod = ast.parse(
        "import click\n"
        "def used():\n    return 1\n"
        "def dead():\n    return dead()\n"
        "class Kept:\n    pass\n"
        "@main.command('x')\ndef cmd():\n    pass\n"
    )
    other = ast.parse("from mod import used\nused()\nTARGETS = ((mod, 'Kept'),)\n")
    assert _unreferenced({"mod": mod}, {"other": other}) == ["mod.dead"]


# ---------------------------------------------------------------------------
# tooling: no module imports a name it never uses
# ---------------------------------------------------------------------------


def _unused_imports(tree):
    """(line, name) of each name the module binds by import and never references; `__future__` is exempt."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports its submodules to re-export them.
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        found = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if found and path.name != "__init__.py":
            unused[path.name] = found
    assert unused == {}


def test_the_import_check_sees_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport os, json as j\nimport a.b\nfrom x import y, z as w\nos.sep\nw()\n")
    assert _unused_imports(tree) == [(2, "j"), (3, "a"), (4, "y")]


# ---------------------------------------------------------------------------
# tooling: only `unlearn` runs an unlearn
# ---------------------------------------------------------------------------


def _callers(modules: dict, names) -> set:
    """`module.def` of each module-level def (`module.<module>` for top-level code) that calls f() or x.f() for f in names."""
    found = set()
    for label, tree in modules.items():
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                    if name in names:
                        found.add(f"{label}.{owner}")
    return found


def test_only_the_unlearn_command_runs_an_unlearn():
    modules = {path.stem: _parsed(path) for path in sorted(SRC.glob("*.py"))}
    assert _callers(modules, {"run_unlearn_variant"}) == {"cli.unlearn_cmd"}
    assert _callers(modules, {"baseline_unlearn", "calibrated_unlearn"}) == {"cli.run_unlearn_variant"}


def test_the_unlearn_check_sees_a_second_caller():
    mod = ast.parse(
        "def unlearn_cmd():\n    run_unlearn_variant()\n"
        "def ablate_cmd():\n    def inner():\n        cli.run_unlearn_variant()\n"
        "class Runner:\n    def go(self):\n        unlearn.baseline_unlearn()\n"
        "run_unlearn_variant\n"
        "unlearn.calibrated_unlearn()\n"
    )
    assert _callers({"cli": mod}, {"run_unlearn_variant"}) == {"cli.unlearn_cmd", "cli.ablate_cmd"}
    assert _callers({"cli": mod}, {"baseline_unlearn", "calibrated_unlearn"}) == {"cli.Runner", "cli.<module>"}
