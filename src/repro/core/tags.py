"""Predicate tagging — Algorithm 1 of the paper.

Every DNF conjunction receives exactly one tag:

* ``Equivalence`` when the conjunction contains an atom of shape
  ``shared_expr == constant`` (highest priority: the satisfying set is the
  smallest, so it prunes the search best);
* ``Threshold`` when it contains ``shared_expr op constant`` with
  ``op ∈ {<, <=, >, >=}``;
* ``NONE`` otherwise (opaque functions, disequalities, untaggable atoms).

Only one tag per conjunction is created (§2.4.1: additional tags cannot
accelerate the search and cost maintenance), and predicates sharing a
conjunct share the tag record via the tag's identity tuple.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple, Optional

from repro.core.predicates import Atom, Comparison

_THRESHOLD_OPS = ("<", "<=", ">", ">=")


class TagKind(enum.Enum):
    EQUIVALENCE = "equivalence"
    THRESHOLD = "threshold"
    NONE = "none"


class Tag(NamedTuple):
    """The paper's four-tuple ``(M, expr, key, op)`` (Def. 9), plus whether
    the key is the comparison as written (see :attr:`Comparison.tag_exact`):
    the tag index files rearranged keys apart, and trusts them only for an
    ``int`` value.

    A plain immutable tuple: every parked waiter's registration builds its
    tags, and a tuple builds in less than half the time of a frozen
    dataclass."""

    kind: TagKind
    expr_key: Any = None      #: canonical shared-expression identity
    key: Any = None           #: closure-captured constant
    op: Optional[str] = None  #: comparison operator for threshold tags
    exact: bool = True        #: False for a rearranged linear key

    def identity(self) -> tuple:
        """The key equal tags share one record under: the tag itself."""
        return self


def tag_conjunction(conj: tuple[Atom, ...]) -> Tag:
    """Assign the single best tag to one conjunction (Algorithm 1)."""
    threshold: Tag | None = None
    for atom in conj:
        if not isinstance(atom, Comparison):
            continue
        shape = atom.tag_shape
        if shape is None:
            continue
        expr_key, op, const = shape
        if op == "==":
            return Tag(TagKind.EQUIVALENCE, expr_key, const, None,
                       atom.tag_exact)
        if op in _THRESHOLD_OPS and threshold is None:
            try:
                hash(const)
            except TypeError:
                continue
            threshold = Tag(TagKind.THRESHOLD, expr_key, const, op,
                            atom.tag_exact)
    if threshold is not None:
        return threshold
    return Tag(TagKind.NONE)


def tag_predicate(conjunctions: list[tuple[Atom, ...]]) -> list[Tag]:
    """Tag every conjunction of a DNF predicate."""
    return [tag_conjunction(c) for c in conjunctions]
