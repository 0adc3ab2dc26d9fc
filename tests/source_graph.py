"""A static call-and-use graph of the ``srideals`` package, for the AST guards.

Each module is parsed once.  A node is a top-level function, class, method
or module-level assignment, named ``module.name`` or ``module.Class.name``.
Nested defs and lambdas fold into the top-level def that holds them; a
module-level statement that assigns no single name folds into
``module.<module>``.  A use is a name or attribute in a node's source,
annotations aside, that resolves to a node:

- a bare name, through the module's definitions and its relative imports
  (which may re-export);
- ``M.a`` on a package module and ``C.a`` on a package class, to that member;
  ``C.__new__`` and ``object.__new__(C)`` to ``C.__new__``, an instance made
  without its constructor;
- ``x.a`` on any other receiver that is not imported, to every package
  method named ``a`` that is not a dunder: receivers are untyped, so this
  over-approximates.

A class counts as its constructor: the class node uses its own
``__init__``, ``__new__`` and ``__post_init__``.  Implicit dunder calls such as
``repr`` or ``*`` are not traced.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "srideals"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _members(tree):
    """(name, AST node) of every definition in a module, in source order."""
    for stmt in tree.body:
        target = getattr(stmt, "target", (getattr(stmt, "targets", None) or [None])[0])
        yield getattr(stmt, "name", getattr(target, "id", "<module>")), stmt
        methods = stmt.body if isinstance(stmt, ast.ClassDef) else ()
        yield from ((f"{stmt.name}.{f.name}", f) for f in methods if isinstance(f, FUNCTIONS))


class SourceGraph:
    def __init__(self, extra: dict | None = None):
        """The graph of the package plus the `extra` {module: source} given.

        ``uses`` lists every (user, used) pair, the users in source order;
        ``params`` the parameter names of each node's functions and lambdas."""
        sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
        self.trees = {m: ast.parse(text) for m, text in {**sources, **(extra or {})}.items()}
        self.kinds, self.imports = {}, {}  # node -> AST node; (module, name) -> target
        for module, tree in self.trees.items():
            self.kinds.update((f"{module}.{name}", node) for name, node in _members(tree))
            for node in ast.walk(tree):
                for alias in node.names if isinstance(node, (ast.Import, ast.ImportFrom)) else ():
                    target = ".".join(filter(None, (getattr(node, "module", None), alias.name)))
                    relative = getattr(node, "level", 0)
                    self.imports[module, alias.asname or alias.name] = target if relative else None
        self.uses, self.params = [], {}
        for module, tree in self.trees.items():
            for name, node in _members(tree):
                self._scan(module, f"{module}.{name}", node)

    def _resolve(self, module: str, name: str):
        """The node or package module that `name` means in `module`, else None."""
        if f"{module}.{name}" in self.kinds:
            return f"{module}.{name}"
        target = self.imports.get((module, name))
        if target is None or target in self.trees:
            return target
        return self._resolve(*target.split("."))

    def _ref(self, module, node):
        """The node or package module that a name or dotted name means, else None."""
        if isinstance(node, ast.Name):
            return self._resolve(module, node.id)
        owner = self._ref(module, node.value) if isinstance(node, ast.Attribute) else None
        if owner in self.trees or self._is_class(owner):
            member = f"{owner}.{node.attr}"
            return member if member in self.kinds or node.attr == "__new__" else None

    def _is_class(self, node) -> bool:
        return isinstance(self.kinds.get(node), ast.ClassDef)

    def _scan(self, module, user, top):
        roots = [top]
        if isinstance(top, ast.ClassDef):  # its methods are nodes of their own
            roots = [n for n in ast.iter_child_nodes(top) if not isinstance(n, FUNCTIONS)]
            inits = (f"{user}.{name}" for name in ("__init__", "__new__", "__post_init__"))
            self.uses += [(user, init) for init in inits if init in self.kinds]
        nodes = [n for root in roots for n in ast.walk(root)]
        notes = [getattr(n, "annotation", None) or getattr(n, "returns", None) for n in nodes]
        skip = {id(sub) for note in notes if note for sub in ast.walk(note)}
        for node in (n for n in nodes if id(n) not in skip):  # a parent comes first
            used = []
            if isinstance(node, FUNCTIONS):
                a = node.args
                every = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                self.params.setdefault(user, []).extend(arg.arg for arg in every if arg)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "__new__":
                named = [node.func.value, *node.args, *(k.value for k in node.keywords)]
                classes = [c for c in (self._ref(module, n) for n in named) if self._is_class(c)]
                used = [f"{c}.__new__" for c in classes[:1]]
                skip.update(map(id, ast.walk(node)))
            elif isinstance(node, ast.Attribute) or isinstance(getattr(node, "ctx", 0), ast.Load):
                used = [self._ref(module, node)]
                if used[0]:  # a dotted name uses its last part only
                    skip.update(map(id, ast.walk(node)))
                elif isinstance(node, ast.Attribute) and not node.attr.startswith("__"):
                    if (module, getattr(node.value, "id", None)) not in self.imports:  # untyped
                        used = [n for n in self.kinds if n.split(".")[2:] == [node.attr]]
            self.uses += [(user, u) for u in used if u and u not in self.trees]

    def callers(self, used: str) -> list:
        """The user of every use of `used`, in source order."""
        return [user for user, target in self.uses if target == used]

    def reach(self, entries) -> set:
        """Every node that one of `entries` uses, directly or through others."""
        seen = set(entries)
        while more := {used for user, used in self.uses if user in seen} - seen:
            seen |= more
        return seen
