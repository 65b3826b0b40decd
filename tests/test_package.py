"""Guards on the package surface and its module layout."""

import ast
import inspect
import pathlib

import pytest

import shnr

SRC = pathlib.Path(shnr.__file__).resolve().parent


def test_every_public_name_resolves():
    missing = [name for name in shnr.__all__ if not hasattr(shnr, name)]
    assert missing == []
    assert len(set(shnr.__all__)) == len(shnr.__all__)


def test_omega_a_is_the_level_set_radius():
    assert shnr.omega_a is shnr.radius.omega_a_fast


def _function_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found.extend(
                f"{path.name}:{node.lineno} in {getattr(fn, 'name', 'lambda')}"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_import(path):
    # every module imports at its top, so the import graph is the one
    # the module headers show
    assert _function_level_imports(path) == []


#: Context fields that hold A's eigenbasis, and the linalg kernels that
#: build a range basis, square root, pseudoinverse or projector from a
#: matrix: outside ``semihilbert`` (and ``linalg``, their home) nothing reads
#: or calls them, so range(A) has one representation.
_EIGEN_FIELDS = {"eigenvectors", "eigenvalues"}
_BASIS_KERNELS = {"_psd_spectrum", "range_projector", "psd_sqrt", "pseudo_inverse"}


def _range_representation_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name in _EIGEN_FIELDS or (name in _BASIS_KERNELS and path.name != "linalg.py"):
            found.append(f"{path.name}:{node.lineno} {name}")
        # I - P, or anything minus the range projector, is the kernel projector
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            if isinstance(node.right, ast.Attribute) and node.right.attr == "proj":
                found.append(f"{path.name}:{node.lineno} - proj")
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "semihilbert.py"],
    ids=lambda p: p.name,
)
def test_range_of_a_has_one_owner(path):
    # only semihilbert splits A's eigenbasis into range and kernel; other
    # modules go through its primitives, and may read ctx.proj
    assert _range_representation_uses(path) == []


def _compress_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "compress":
                found.append((owner, f"{path.name}:{node.lineno} in {owner}"))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "semihilbert.py"],
    ids=lambda p: p.name,
)
def test_seminorms_compute_on_the_range_block(path):
    # the built-in seminorms and gamma_A take the r x r range block from
    # semihilbert._member_block; the n x n compression is left to the
    # pair-form oracle, so the oracle and the solvers it checks do not share
    # a representation
    allowed = {"big_omega_pair_form"} if path.name == "seminorms.py" else set()
    assert [where for owner, where in _compress_calls(path) if owner not in allowed] == []


def _theta_combos_callers(path):
    """The top-level definitions of a module (``<module>`` for other
    statements) that call ``_theta_combos``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return sorted({
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute)
             else getattr(node.func, "id", None)) == "_theta_combos"
    })


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_angle_profile_has_one_home(path):
    # the combinations cos(theta) Re_A T - sin(theta) Im_A T are built by
    # radius._profile alone, the one angle-stack loop that the engine, the
    # level set and the catalog's sweeps share
    want = ["_profile"] if path.name == "radius.py" else []
    assert _theta_combos_callers(path) == want


def test_draws_take_one_seed():
    # every generator resolves one ``seed`` with np.random.default_rng; no
    # second ``rng`` parameter can silently win over it
    fns = [getattr(shnr, name) for name in shnr.__all__]
    fns.append(shnr.verify.random_nilpotent)
    # exception classes have no signature to read, and take no seed
    fns = [
        fn for fn in fns
        if callable(fn) and not (isinstance(fn, type) and issubclass(fn, Exception))
    ]
    assert len(fns) > 40
    assert [fn.__name__ for fn in fns if "rng" in inspect.signature(fn).parameters] == []


def _calls_by_function(path):
    """Per top-level definition of a module: the attributes X it reads as
    ``radius.X``, and the names it calls."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    out = {}
    for stmt in tree.body:
        radius_attrs, called = set(), set()
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "radius"):
                radius_attrs.add(node.attr)
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.attr if isinstance(func, ast.Attribute)
                           else getattr(func, "id", None))
        out[getattr(stmt, "name", "<module>")] = (radius_attrs, called)
    return out


def test_every_angle_supremum_takes_one_route():
    # generalized_radius and the catalog both reach the level set and the
    # angle engine through radius._radii and radius._sweeps, with n x n
    # operators or with range blocks; the catalog's only other use of
    # radius is _profile, which builds C27's angle combinations
    verify_uses = set().union(*(a for a, _ in _calls_by_function(SRC / "verify.py").values()))
    assert verify_uses <= {"_radii", "_sweeps", "_profile"}
    in_radius = _calls_by_function(SRC / "radius.py")
    assert not in_radius["generalized_radius"][1] & {
        "_level_set_radius", "_sup_lockstep", "sup_on_circle"}
    assert sorted(name for name, (_, called) in in_radius.items()
                  if "_sup_lockstep" in called) == ["_radii", "_sweeps", "sup_on_circle"]


def test_catalog_checks_membership_once_per_instance():
    # the driver validates what an instance draws; the operands evaluators
    # build from it are members by construction, so no evaluator or the
    # request solver checks again.  probe_properties probes the public
    # a_adjoint, and C22's gamma_a and C26's pair form are oracles that
    # check their own argument.
    calls = _calls_by_function(SRC / "verify.py")

    def callers(name):
        return sorted(fn for fn, (_, called) in calls.items() if name in called)

    assert callers("require_member") == ["_drive"]
    assert callers("a_adjoint") == ["probe_properties"]
    assert callers("re_a") == callers("_member_block") == []
