"""Termination analysis for probabilistic higher-order recursion
schemes: graded type checking, compilation to finite monotone polynomial
fixpoint systems via the weighted relational semantics, exact solving,
and AST/PAST verdicts with machine-checkable certificates."""

__version__ = "0.1.0"


def scheme_path(name: str):
    """Path-like handle to a bundled example scheme (without extension)."""
    from importlib import resources
    return resources.files(__package__).joinpath("schemes", f"{name}.phors")


def load_bundled(name: str):
    from .syntax import parse

    return parse(scheme_path(name).read_text(encoding="utf-8"))


def bundled_names() -> list[str]:
    from importlib import resources
    root = resources.files(__package__).joinpath("schemes")
    return sorted(
        p.name.removesuffix(".phors")
        for p in root.iterdir()
        if p.name.endswith(".phors")
    )
