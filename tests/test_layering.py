"""Import layering of the package and of the tests, checked on the source
with ``ast``, and the test-only references kept out of the package's
namespace."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pdaprune
from pdaprune import backward, dot, forward, model, oracle, pruner, textio

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "pdaprune"


def imported_modules(path, package="pdaprune"):
    """Absolute names of the modules a source file of ``package`` imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = package + ("." + base if base else "")
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_only_cli_and_package_import_oracle():
    assert (SRC / "oracle.py").is_file()
    importers = {
        path.name
        for path in SRC.glob("*.py")
        if "pdaprune.oracle" in imported_modules(path)
    }
    assert importers <= {"cli.py", "__init__.py"}


def test_oracle_imports_only_model_and_augment():
    """The exact oracle stays independent of the detector it checks."""
    package = {
        name for name in imported_modules(SRC / "oracle.py") if name.startswith("pdaprune.")
    }
    assert {name.split(".")[1] for name in package} == {"model", "augment"}


def test_no_src_module_imports_tests():
    for path in SRC.glob("*.py"):
        for name in imported_modules(path):
            assert name.split(".")[0] != "tests", (path.name, name)


def test_test_only_references_stay_out_of_the_package():
    moved = {"bounded_derivations", "bounded_language", "bounded_reachable", "nfa_shape_violations"}
    for module in (pdaprune, oracle, model):
        assert not moved & set(vars(module)), module.__name__
    assert not moved & set(pdaprune.__all__)
    assert not hasattr(model.Pda, "transition_ids")
    # Closure rows are read through ``reference.closure_row``.
    assert not hasattr(forward.EpsClosure, "backward")
    assert not hasattr(forward.EpsClosure, "forward")
    # ``is_valid_name`` is the one name rule and ``validate`` has one path.
    assert not hasattr(model, "_obviously_valid")
    assert not hasattr(model, "_BAD_NAME_CHAR")


def test_backward_reads_only_the_forward_result():
    """Backward takes the forward result, which carries its automaton, and
    keeps its path scans inside ``run_backward``."""
    assert not hasattr(backward, "_PathLevels")
    defined = {
        name
        for name, obj in vars(backward).items()
        if inspect.isclass(obj) and obj.__module__ == backward.__name__
    }
    assert defined == {"BackwardResult"}
    assert list(inspect.signature(backward.run_backward).parameters) == ["fwd", "pick"]


def test_forward_has_one_mode():
    """The closure index is always read: no option turns it off, ``compute_s``
    takes the closure and the pop-level walk its rows as required arguments."""
    assert list(inspect.signature(pruner.analyze).parameters) == ["pda"]
    assert list(inspect.signature(pruner.run_pipeline).parameters) == ["pda"]
    assert list(inspect.signature(forward.run_forward).parameters) == ["p0", "bottom"]
    compute_s = inspect.signature(forward.compute_s).parameters
    assert list(compute_s) == ["nfa", "q", "sigma", "closure"]
    pop_levels = inspect.signature(forward.pop_levels).parameters
    assert list(pop_levels) == ["rows", "hops", "q", "labels"]
    for param in (compute_s["closure"], pop_levels["rows"], pop_levels["hops"]):
        assert param.default is inspect.Parameter.empty, param.name
    assert not hasattr(forward, "eps_backward_set")


def test_backward_builds_levels_only_through_pop_levels():
    """``backward.py`` reads no ``gamma_out`` and hands closure rows only to
    ``forward.pop_levels``, so that walk is the one that builds pop levels."""
    tree = ast.parse((SRC / "backward.py").read_text(encoding="utf-8"))
    passed = {
        id(arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "pop_levels"
        for arg in node.args
    }
    rows = 0
    for node in ast.walk(tree):
        assert getattr(node, "attr", None) != "gamma_out"
        assert getattr(node, "id", None) != "gamma_out"
        if isinstance(node, ast.Attribute) and node.attr in ("to", "fro"):
            assert id(node) in passed, ast.unparse(node)
            rows += 1
    assert rows == 2


def test_nfa_states_have_one_encoding():
    """NFA states are the ints ``NfaSummary`` numbers; no module-level test
    tells a PDA state from the rest by its type."""
    assert model.State is int
    assert not hasattr(model, "is_final")
    assert "is_final" not in pdaprune.__all__
    assert list(inspect.signature(model.NfaSummary).parameters) == ["names"]


def test_added_names_need_no_search_and_no_wrapper():
    """``augment`` and ``normalize`` mark the names they add with ``#``, so
    neither searches for fresh names nor wraps its automaton to carry them."""
    augment = importlib.import_module("pdaprune.augment")
    assert not hasattr(augment, "_fresh")
    assert not hasattr(augment, "SYNTHETIC_ID_PREFIX")
    for wrapper in ("AugmentedPda", "NormalizedPda"):
        for module in (pdaprune, augment, oracle):
            assert not hasattr(module, wrapper), (module.__name__, wrapper)
        assert wrapper not in pdaprune.__all__
    fields = [f.name for f in dataclasses.fields(pruner.PipelineResult)]
    assert fields == ["report", "fwd"]


def test_no_test_module_imports_another():
    """Shared test helpers live in ``conftest`` or ``reference``."""
    for path in TESTS.glob("test_*.py"):
        for name in imported_modules(path, "tests"):
            parts = name.split(".")
            assert not any(part.startswith("test_") for part in parts[:2]), (path.name, name)


def test_each_output_has_one_writer():
    """The CLI writes a PDA with ``print_pda`` and the summary NFA with
    ``nfa_to_dot``; no second writer of either is kept."""
    for name in ("pda_to_dot", "print_grammar"):
        for module in (pdaprune, dot, textio):
            assert not hasattr(module, name), (module.__name__, name)
        assert name not in pdaprune.__all__
    assert "__str__" not in vars(model.PdaTransition)


def test_all_lists_exactly_the_public_names():
    public = {
        name
        for name, obj in vars(pdaprune).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert pdaprune.__all__ == sorted(pdaprune.__all__)
    assert set(pdaprune.__all__) == public
