"""Module boundaries inside the package: no private name is imported
from one cylspec module into another or read as an attribute outside the
module that defines it, and no module imports scipy, which only the
tests need."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cylspec"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "cylspec":
            continue
        for alias in node.names:
            if _private(alias.name):
                yield node.lineno, node.module, alias.name


def _defined_names(tree):
    """Every name the module defines: functions, classes, and the targets
    of assignments, also attribute targets such as self._cache."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr


def _foreign_private_attributes(tree):
    """Every obj._name whose _name the module does not define itself."""
    own = set(_defined_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and node.attr not in own:
            yield node.lineno, node.attr


def test_no_module_imports_a_private_name_from_another():
    assert (SRC / "__init__.py").exists()
    found = [
        f"{path.name}:{line}: from {'.' if module is None else module} import {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, module, name in _private_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def test_no_module_reads_a_private_attribute_defined_elsewhere():
    found = [
        f"{path.name}:{line}: .{name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _foreign_private_attributes(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_check_sees_private_attributes_defined_elsewhere():
    tree = ast.parse(
        "class Field:\n"
        "    def _accumulate(self, key):\n"
        "        self._cache = key\n"
        "h._accumulate(k)\n"
        "h._cache, h.__class__, h.data\n"
        "out._accumulate_into(k)\n"
        "np.random._bit_generator\n"
    )
    assert sorted(_foreign_private_attributes(tree)) == [
        (6, "_accumulate_into"), (7, "_bit_generator"),
    ]


def test_the_check_sees_relative_and_absolute_private_imports():
    tree = ast.parse(
        "from .mode_ode import _exp_integral, solve_scalar_mode\n"
        "from cylspec.fields import _term_table\n"
        "from . import __version__\n"
        "from numpy import _globals\n"
    )
    assert [(m, n) for _, m, n in _private_imports(tree)] == [
        ("mode_ode", "_exp_integral"),
        ("cylspec.fields", "_term_table"),
    ]


def _scipy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "scipy":
                yield node.lineno, name


def test_no_module_imports_scipy():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _scipy_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_check_sees_deferred_and_from_scipy_imports():
    tree = ast.parse(
        "import numpy as np\n"
        "def solve():\n"
        "    import scipy.integrate\n"
        "from scipy import integrate\n"
        "from .scipy_free import quad\n"
    )
    assert sorted(_scipy_imports(tree)) == [(3, "scipy.integrate"), (4, "scipy")]


_TRIG = {"cos", "sin"}


def _trig_uses(tree):
    """Every np.cos / np.sin (also through numpy or math), called or passed
    on, and every cos or sin imported from those modules by name."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _TRIG
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy", "math")):
            yield node.lineno, f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "math"):
            for alias in node.names:
                if alias.name in _TRIG:
                    yield node.lineno, f"{node.module}.{alias.name}"


def test_only_fields_evaluates_trig():
    # modes are built in cross_section; their values, derivatives and
    # pairings are computed once, in fields
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fields.py"
        for line, name in _trig_uses(ast.parse(path.read_text()))
    ]
    assert found == []
    assert list(_trig_uses(ast.parse((SRC / "fields.py").read_text())))


def test_the_check_sees_called_passed_and_imported_trig():
    tree = ast.parse(
        "import numpy as np\n"
        "v = np.cos(x)\n"
        "trig = np.sin if odd else numpy.cos\n"
        "from math import sin, tau\n"
        "w = np.cosh(x) + xs.cos + math.sinh(x)\n"
    )
    assert sorted(_trig_uses(tree)) == [
        (2, "np.cos"), (3, "np.sin"), (3, "numpy.cos"), (4, "math.sin"),
    ]


def _public_names(tree):
    """The names a package __init__ makes public: every name it imports
    from its modules and every module-level name it assigns, but __all__."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if t.id != "__all__")


def test_all_lists_exactly_the_names_the_package_imports():
    # a function deleted from one list cannot linger in the other
    import cylspec

    imported = list(_public_names(ast.parse((SRC / "__init__.py").read_text())))
    assert len(set(cylspec.__all__)) == len(cylspec.__all__)
    assert sorted(cylspec.__all__) == sorted(imported)
    for name in cylspec.__all__:
        assert getattr(cylspec, name) is not None, name


def test_the_check_sees_every_imported_and_assigned_name():
    tree = ast.parse(
        "__version__ = '0'\n"
        "from .fd_oracle import GridField, sample as grid_sample\n"
        "import numpy\n"
        "from numpy import pi\n"
        "__all__ = ['GridField']\n"
    )
    assert list(_public_names(tree)) == ["__version__", "GridField", "grid_sample"]


def _unread_imports(tree):
    """Every name an import statement binds that no expression of the
    module reads; ``from __future__`` binds nothing."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_imported_name_is_read():
    # __init__ imports its names to make them public, not to read them
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unread_imports(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_check_sees_unread_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from . import fields as fields_mod\n"
        "from .three_circles import tube_norm, three_circles_check\n"
        "def f(x: np.ndarray):\n"
        "    return fields_mod.trace(x), tube_norm(x, 0, 1)\n"
    )
    assert _unread_imports(tree) == [(2, "os"), (5, "three_circles_check")]


# TensorField's term table: fields alone lays it out and reads it; the other
# modules go through terms(), blocks(), columns() and keys(), and the nested-dict
# ``data`` view (memoized in ``_data``) is for callers outside the library
_TABLE = {"_keys", "coeffs", "data", "_data"}


def _table_reads(tree):
    """Every .coeffs, ._keys, .data or ._data (but a buffer's .ctypes.data)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _TABLE
                and not (isinstance(node.value, ast.Attribute) and node.value.attr == "ctypes")):
            yield node.lineno, node.attr


def test_only_fields_reads_the_term_table():
    from cylspec.fields import TensorField

    assert set(TensorField.__slots__) - {"cs", "rank", "_runs"} <= _TABLE
    found = [
        f"{path.name}:{line}: .{name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fields.py"
        for line, name in _table_reads(ast.parse(path.read_text()))
    ]
    assert found == []
    assert list(_table_reads(ast.parse((SRC / "fields.py").read_text())))


def test_the_check_sees_table_reads():
    tree = ast.parse(
        "C = h.coeffs\n"
        "k = h._keys[0]\n"
        "for key in h.data:\n"
        "    pass\n"
        "skip = raw.ctypes.data\n"
        "h.terms(), h.blocks(), h.columns(), h.keys()\n"
        "p, C = h.columns().powers, h.columns().coefficients\n"
    )
    assert sorted(_table_reads(tree)) == [(1, "coeffs"), (2, "_keys"), (3, "data")]


# A field of several parts is built with one fields.FieldBuilder, merged
# once: no function outside fields builds single-mode fields and sums them
_SINGLE_MODE = {"from_mode_profile", "pair_one_form", "radial_one_form", "mixed_pair_tensor",
                "rr_tensor", "scalar_field", "multiply_profile"}


def _part_by_part_builds(tree):
    """(line, name) of every function that calls both a single-mode
    builder and sum_fields."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = set()
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    called.add(func.id if isinstance(func, ast.Name)
                               else func.attr if isinstance(func, ast.Attribute) else None)
            if "sum_fields" in called and called & _SINGLE_MODE:
                yield node.lineno, node.name


def test_multi_part_fields_are_built_with_one_builder():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "fields.py"
        for line, name in _part_by_part_builds(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_check_sees_part_by_part_builds():
    tree = ast.parse(
        "def reduced(cs, modes, prof):\n"
        "    parts = [fields.from_mode_profile(cs, m, prof) for m in modes]\n"
        "    return fields.sum_fields(cs, 2, parts)\n"
        "def ramp(cs, g):\n"
        "    return sum_fields(cs, 2, [g.multiply_profile(prof), g])\n"
        "def built(cs, modes, prof):\n"
        "    b = fields.FieldBuilder(cs, 2)\n"
        "    return [b.mode(m, prof) for m in modes], b.field()\n"
        "def summed(cs, fields_):\n"
        "    return sum_fields(cs, 2, fields_), rr_tensor\n"
        "class Gauge:\n"
        "    def one_form(self):\n"
        "        return sum_fields(self.cs, 1, [pair_one_form(self.cs, m, k, l)])\n"
    )
    assert sorted(_part_by_part_builds(tree)) == [(1, "reduced"), (4, "ramp"), (12, "one_form")]


# The radial solves return the profiles their callers read: a global solve
# gives RadialProfiles, and only mode_ode builds or takes apart the windowed
# solve's PiecewiseProfiles
_PIECEWISE = {"PiecewiseProfile", "pieces", "single_profile"}


def _piecewise_uses(tree):
    """Every PiecewiseProfile, named, imported or read as an attribute, and
    every .pieces or .single_profile."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "PiecewiseProfile":
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in _PIECEWISE:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, a.name) for a in node.names if a.name == "PiecewiseProfile")


def test_only_mode_ode_handles_piecewise_profiles():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "mode_ode.py"
        for line, name in _piecewise_uses(ast.parse(path.read_text()))
    ]
    assert found == []
    assert list(_piecewise_uses(ast.parse((SRC / "mode_ode.py").read_text())))


def test_the_check_sees_piecewise_profiles():
    tree = ast.parse(
        "from .mode_ode import PiecewiseProfile, RadialProfile\n"
        "k = sol.k.single_profile()\n"
        "for lo, hi, prof in sol.l.pieces:\n"
        "    pass\n"
        "isinstance(f, mode_ode.PiecewiseProfile)\n"
        "tail = f.piece_on(5.0, 9.0), pieces, f.terms, RadialProfile\n"
    )
    assert sorted(_piecewise_uses(tree)) == [
        (1, "PiecewiseProfile"), (2, "single_profile"), (3, "pieces"), (5, "PiecewiseProfile"),
    ]


# Only mode_ode knows the mixed pair system's state layout and Jordan basis;
# the other modules read its homogeneous solutions through pair_columns
_JORDAN_BASIS = {"v_matrix", "v_inverse"}


def _jordan_basis_uses(tree):
    """Every v_matrix or v_inverse, named, imported or read as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _JORDAN_BASIS:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in _JORDAN_BASIS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, a.name) for a in node.names if a.name in _JORDAN_BASIS)


def test_only_mode_ode_reads_the_jordan_basis():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "mode_ode.py"
        for line, name in _jordan_basis_uses(ast.parse(path.read_text()))
    ]
    assert found == []
    assert list(_jordan_basis_uses(ast.parse((SRC / "mode_ode.py").read_text())))


def test_the_check_sees_the_jordan_basis():
    tree = ast.parse(
        "from .mode_ode import pair_columns, v_matrix\n"
        "V = v_matrix(mu)\n"
        "Vinv = mode_ode.v_inverse(mu)\n"
        "cols, v_matrix_rows = pair_columns(mu), fm.mixed(r)\n"
    )
    assert sorted(_jordan_basis_uses(tree)) == [
        (1, "v_matrix"), (2, "v_matrix"), (3, "v_inverse"),
    ]


# The radial antiderivative c (-1)^j (p)_j / d^{j+1} is stated once: the
# parts table of mode_ode._exp_integral, built from _falling_table.  No other
# function reads math.perm, and RadialProfile has no antiderivative of its own
def _perm_uses(tree, where=None):
    """(innermost enclosing function, line) of every perm read as an
    attribute or imported from math."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Attribute) and node.attr == "perm":
            yield where, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((where, node.lineno) for a in node.names if a.name == "perm")
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        yield from _perm_uses(node, inner)


def _antiderivatives(tree):
    """Every antiderivative defined on RadialProfile: in its class body, or
    assigned to an attribute anywhere."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "RadialProfile":
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                else:  # the names an assignment in the class body stores
                    names = [n.id for n in ast.walk(item)
                             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
                yield from ((item.lineno, n) for n in names if n == "antiderivative")
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and node.attr == "antiderivative"):
            yield node.lineno, node.attr


def test_the_antiderivative_is_stated_once():
    found = [
        f"{path.name}:{line}: math.perm in {where}"
        for path in sorted(SRC.glob("*.py"))
        for where, line in _perm_uses(ast.parse(path.read_text()))
        if (path.name, where) != ("mode_ode.py", "_falling_table")
    ] + [
        f"{path.name}:{line}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _antiderivatives(ast.parse(path.read_text()))
    ]
    assert found == []
    assert list(_perm_uses(ast.parse((SRC / "mode_ode.py").read_text())))


def test_the_check_sees_perm_and_antiderivatives():
    tree = ast.parse(
        "import math\n"
        "from math import comb, perm\n"
        "def _falling_table(top):\n"
        "    return math.perm(top, 2)\n"
        "class RadialProfile:\n"
        "    def antiderivative(self):\n"
        "        return [math.perm(p, j) for p, j in self.pairs]\n"
        "    integral = antiderivative\n"
        "    antiderivative = None\n"
        "RadialProfile.antiderivative = integral\n"
        "x = permutations, self.perms, comb(3, 2), F.antiderivative()\n"
    )
    assert list(_perm_uses(tree)) == [
        (None, 2), ("_falling_table", 4), ("antiderivative", 7),
    ]
    assert sorted(_antiderivatives(tree)) == [(6, "antiderivative"), (9, "antiderivative"),
                                              (10, "antiderivative")]


# Profile terms are merged in one place, the RadialProfile constructor.
# RadialProfile._of takes terms as they come, so only the two callers whose
# terms are canonical by construction call it: scale, which keeps every
# key, and ProfileTable.profiles, which cuts a sorted table
_OF_CALLERS = {"RadialProfile.scale", "ProfileTable.profiles"}


def _of_reads(tree, where=None):
    """(enclosing class or function path, line) of every ._of read."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "_of"
                and isinstance(node.ctx, ast.Load)):
            yield where, node.lineno
        inner = where
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{where}.{node.name}" if where else node.name
        yield from _of_reads(node, inner)


def test_only_scale_and_profile_tables_skip_the_merge():
    found = [
        f"{path.name}:{line}: ._of in {where}"
        for path in sorted(SRC.glob("*.py"))
        for where, line in _of_reads(ast.parse(path.read_text()))
        if path.name != "mode_ode.py" or where not in _OF_CALLERS
    ]
    assert found == []
    assert list(_of_reads(ast.parse((SRC / "mode_ode.py").read_text())))


def test_the_check_sees_unmerged_profile_builds():
    tree = ast.parse(
        "class RadialProfile:\n"
        "    def scale(self, a):\n"
        "        return RadialProfile._of(terms)\n"
        "    def __add__(self, other):\n"
        "        return self._of(self.terms + other.terms)\n"
        "class ProfileTable:\n"
        "    def profiles(self, n):\n"
        "        make = RadialProfile._of\n"
        "        return [make(t) for t in rows]\n"
        "def merge(a, b):\n"
        "    def inner():\n"
        "        return RadialProfile._of(a + b)\n"
        "    return inner, of(a), a._of_terms, RadialProfile(a)\n"
    )
    assert list(_of_reads(tree)) == [
        ("RadialProfile.scale", 3), ("RadialProfile.__add__", 5),
        ("ProfileTable.profiles", 8), ("merge.inner", 12),
    ]


# The grid oracle checks the modal layer, so it shares nothing with it but
# pointwise evaluation: fd_oracle imports only TensorField from fields, and
# of a field it reads only .evaluate, .cs and .rank (in sample)
_FIELD_READS = {"evaluate", "cs", "rank"}


def _annotation_nodes(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield from ast.walk(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield from ast.walk(node.returns)
        elif isinstance(node, ast.AnnAssign):
            yield from ast.walk(node.annotation)


def _field_parameters(tree):
    """(function, name) of every parameter annotated TensorField."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                ann = arg.annotation
                if ((isinstance(ann, ast.Name) and ann.id == "TensorField")
                        or (isinstance(ann, ast.Constant) and ann.value == "TensorField")):
                    yield node, arg.arg


def _oracle_field_reads(tree):
    """Every name imported from fields but TensorField, fields imported
    whole, TensorField used outside an annotation, and every use of a
    TensorField parameter but a read of .evaluate, .cs or .rank."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (node.level and module == "fields") or module == "cylspec.fields":
                yield from ((node.lineno, f"import {a.name}") for a in node.names
                            if a.name != "TensorField")
            elif (node.level and not module) or module == "cylspec":
                yield from ((node.lineno, "import fields") for a in node.names
                            if a.name == "fields")
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, f"import {a.name}") for a in node.names
                        if a.name == "cylspec.fields")
    annotations = {id(n) for n in _annotation_nodes(tree)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == "TensorField"
                and isinstance(node.ctx, ast.Load) and id(node) not in annotations):
            yield node.lineno, "TensorField"
    owner = {id(n.value): n for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for func, name in _field_parameters(tree):
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                attr = owner.get(id(node))
                if attr is None or attr.attr not in _FIELD_READS:
                    yield node.lineno, name if attr is None else f".{attr.attr}"


def test_the_oracle_reads_modal_fields_only_through_sample():
    tree = ast.parse((SRC / "fd_oracle.py").read_text())
    assert [func.name for func, _ in _field_parameters(tree)] == ["sample"]
    assert list(_oracle_field_reads(tree)) == []


def test_the_check_sees_modal_reads_in_the_oracle():
    tree = ast.parse(
        "from .fields import TensorField, linearized_ricci\n"
        "from . import fields\n"
        "def sample(field: TensorField, r, x):\n"
        "    d, values = field.cs.dim, field.evaluate(r, x)\n"
        "    for key, block in field.blocks():\n"
        "        pass\n"
        "    return linearized_ricci(field), field.rank, TensorField.keys(field)\n"
        "def grid(f: 'TensorField') -> TensorField:\n"
        "    return f.cs, f.terms\n"
    )
    assert sorted(_oracle_field_reads(tree)) == [
        (1, "import linearized_ricci"), (2, "import fields"), (5, ".blocks"),
        (7, "TensorField"), (7, "field"), (7, "field"), (9, ".terms"),
    ]


# An FD certificate is read one way: fd_oracle.operator_interior_sup, on the
# interior band, without an output grid.  No module reads interior_sup of an
# fd_operator result, called in its argument, passed there to a wrapper such
# as stages.stage, or bound to a name that the argument is
def _mentions(node, name):
    return any((isinstance(n, ast.Name) and n.id == name)
               or (isinstance(n, ast.Attribute) and n.attr == name) for n in ast.walk(node))


def _full_grid_certificates(tree):
    """(line, name) of every interior_sup read of an fd_operator result."""
    bound = {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
             and _mentions(n.value, "fd_operator") for t in n.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and _mentions(node.func, "interior_sup")):
            continue
        arg = node.args[0]
        if _mentions(arg, "fd_operator"):
            yield node.lineno, "fd_operator"
        elif isinstance(arg, ast.Name) and arg.id in bound:
            yield node.lineno, arg.id


def test_no_module_reads_a_certificate_from_a_full_operator_grid():
    found = [
        f"{path.name}:{line}: interior_sup of {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _full_grid_certificates(ast.parse(path.read_text()))
    ]
    assert found == []


def test_the_check_sees_certificates_read_from_full_operator_grids():
    tree = ast.parse(
        "r1 = interior_sup(fd_operator('divergence', g, cfg))\n"
        "r2 = O.interior_sup(O.fd_operator('linearized_ricci', g))\n"
        "def run(g):\n"
        "    r3 = interior_sup(stage('label', fd_operator, 'divergence', g, cfg))\n"
        "    ricci = fd_operator('linearized_ricci', g)\n"
        "    r4 = interior_sup(ricci)\n"
        "    r5 = interior_sup(ric - ricci.scale(eps))\n"
        "    r6 = operator_interior_sup('divergence', g, cfg)\n"
        "    return interior_sup(g), stage('label', operator_interior_sup, 'divergence', g)\n"
    )
    assert sorted(_full_grid_certificates(tree)) == [
        (1, "fd_operator"), (2, "fd_operator"), (4, "fd_operator"), (6, "ricci"),
    ]
